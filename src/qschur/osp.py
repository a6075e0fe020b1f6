"""The classical orthosymplectic side: osp(m|2n) over Q on its natural module.

The natural module C^{m|2n} uses the weight basis

    e_{+eps_1} .. e_{+eps_l}, (e_0 for odd m), e_{-eps_l} .. e_{-eps_1},
    e_{+d_1} .. e_{+d_n}, e_{-d_n} .. e_{-d_1},

with the anti-diagonal hyperbolic Gram matrix: (e_w, e_w') = 0 unless
w' = -w, the even block is symmetric and the odd block symplectic.  The
Lie superalgebra is cut out of gl(m|2n) by contravariance against this
form; its basis is built orbitwise in closed form (two matrix positions
per element), so Cartan elements come out diagonal and every element is
weight homogeneous.

Everything here is exact over Q: the form, the Lie superalgebra basis, sigma
and the Brauer images all have int entries.  The quantum side of osp enters
only through the spectral/BMW parameter data, modelled on the orthogonal
idempotents of the tensor-square decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .errors import VerificationError
from .rootdata import distinguished
from .scalar import ONE, RatFunc, qint, qpow
from .superspace import (Echelon, SparseMat, SuperSpace, int_rank,
                         kron_chain, tau, unit_space, vectorize)

__all__ = [
    "natural_space", "osp_form", "osp_basis", "osp_generators", "sigma",
    "cupcap_maps", "e_map",
    "brauer_rep", "leibniz_tensor", "BmwParameters", "bmw_parameters",
    "SpectralElement", "spectral_g", "spectral_e", "quantum_g_spectral",
]


@lru_cache(maxsize=None)
def natural_space(m: int, n: int) -> SuperSpace:
    """C^{m|2n}, basis ordered as in the module docstring; its weights are
    those of `distinguished("osp", m, n).module_weights()`."""
    rows = distinguished("osp", m, n).module_weights()
    return SuperSpace(tuple(p for _, p in rows), name=f"V[osp {m}|{2 * n}]")


def _weights(m: int, n: int) -> list:
    """Weight of each basis vector of natural_space(m, n), in basis order."""
    return [w for w, _ in distinguished("osp", m, n).module_weights()]


def _partner(weights) -> list[int]:
    """Index of the basis vector of opposite weight (e_0 is self-paired)."""
    index = {w: i for i, w in enumerate(weights)}
    return [index[tuple(-x for x in w)] for w in weights]


@lru_cache(maxsize=None)
def osp_form(m: int, n: int) -> SparseMat:
    """Gram matrix J of the even supersymmetric form, J[v, w] = (e_v, e_w)."""
    V = natural_space(m, n)
    weights = _weights(m, n)
    partner = _partner(weights)
    entries = {}
    for v in range(V.dim):
        w = partner[v]
        if V.parities[v] == 0:
            entries[(v, w)] = 1
        else:
            # symplectic block: (e_{+d}, e_{-d}) = 1, (e_{-d}, e_{+d}) = -1
            k = next(i for i, c in enumerate(weights[v]) if c)
            entries[(v, w)] = 1 if weights[v][k] > 0 else -1
    return SparseMat(V, V, entries)


@lru_cache(maxsize=None)
def osp_basis(m: int, n: int) -> tuple[SparseMat, ...]:
    """Basis of osp(m|2n) in gl(m|2n): all X with (Xv,w) = -(-1)^{[v][x]}(v,Xw).

    Built orbitwise: the contravariance condition couples only the matrix
    positions (r,s) and (s',r') where ' is the weight partner, so every
    basis element has at most two entries.
    """
    V = natural_space(m, n)
    J = osp_form(m, n)
    partner = _partner(_weights(m, n))
    par = V.parities
    d = V.dim

    def jval(a):
        return J.entries[(a, partner[a])]

    out = []
    seen = set()
    for r in range(d):
        for s in range(d):
            if (r, s) in seen:
                continue
            s2, r2 = partner[s], partner[r]
            seen.add((r, s))
            seen.add((s2, r2))
            px = (par[r] + par[s]) % 2
            # contravariance at (b,c) = (s, r') couples exactly the two
            # positions (r,s) and (s',r'):
            #   X[r,s] = -(-1)^{[s] px} (J[s,s']/J[r,r']) X[s',r'],
            # and J[r,r'] = +-1 is its own inverse
            sign = -1 if (par[s] and px) else 1
            coef = -sign * jval(s) * jval(r)
            if (r, s) == (s2, r2):
                if coef == 1:
                    out.append(SparseMat(V, V, {(r, s): 1}))
                # coef != 1 forces X[r,s] = 0
            else:
                out.append(SparseMat(V, V, {(s2, r2): 1, (r, s): coef}))
    expected = m * (m - 1) // 2 + n * (2 * n + 1) + 2 * m * n
    if len(out) != expected:
        raise VerificationError(
            f"osp({m}|{2 * n}) basis has {len(out)} elements, expected {expected}")
    return tuple(out)


def _superbracket(X: SparseMat, Y: SparseMat, par) -> SparseMat:
    """[X, Y] = XY - (-1)^{|X||Y|} YX of two homogeneous elements."""
    odd = [(par[r] + par[s]) % 2 for (r, s) in (next(iter(X.entries)),
                                                next(iter(Y.entries)))]
    return X @ Y + Y @ X if all(odd) else X @ Y - Y @ X


@lru_cache(maxsize=None)
def osp_generators(m: int, n: int) -> tuple[tuple[SparseMat, ...],
                                            SparseMat | None]:
    """(Lie generators, group generator) of the Harish-Chandra pair.

    The Lie generators are the elements of `osp_basis` of weight 0 (the
    Cartan elements) or of weight +-alpha for a simple root alpha of
    `distinguished("osp", m, n)`, in basis order; a basic classical Lie
    superalgebra is generated by them (Kac 1977), and that is verified
    here: their iterated superbrackets, ranked mod p, must span all of
    `osp_basis` (one exact rank).  The group generator is sigma for even
    m >= 2 and None otherwise, where sigma = -id (odd m) or id (m = 0)
    acts on every tensor power by a scalar.
    """
    V = natural_space(m, n)
    weights = _weights(m, n)
    roots = {tuple(sign * x for x in alpha) for sign in (1, -1)
             for alpha in distinguished("osp", m, n).simple_roots()}
    basis = osp_basis(m, n)
    lie = []
    for X in basis:
        r, s = next(iter(X.entries))
        weight = tuple(a - b for a, b in zip(weights[r], weights[s]))
        if not any(weight) or weight in roots:
            lie.append(X)
    ech = Echelon()
    span = [X for X in lie if ech.add(vectorize(X))]
    for Y in span:  # a queue: span grows while it is walked
        for X in lie:
            Z = _superbracket(X, Y, V.parities)
            if ech.add(vectorize(Z)):
                span.append(Z)
    # int rows kept mod p are independent over Q; the span lies in the
    # basis span when adding the basis raises no rank
    what = f"the Cartan and simple root vectors of osp({m}|{2 * n})"
    if ech.rank < len(basis):
        raise VerificationError(f"{what} generate {ech.rank} of "
                                f"{len(basis)} dimensions")
    if int_rank([vectorize(X) for X in span + list(basis)]) > len(basis):
        raise VerificationError(f"the superbrackets of {what} leave the "
                                "span of its basis")
    group = sigma(m, n) if m % 2 == 0 and m >= 2 else None
    return tuple(lie), group


@lru_cache(maxsize=None)
def sigma(m: int, n: int) -> SparseMat:
    """The group element completing the Harish-Chandra pair.

    -id for odd m; for even m the swap of the e_{+eps_l} and e_{-eps_l}
    weight vectors, fixing everything else.
    """
    V = natural_space(m, n)
    if m % 2 == 1:
        return SparseMat(V, V, {(i, i): -1 for i in range(V.dim)})
    ell = m // 2
    if ell == 0:
        return SparseMat.identity(V)
    weights = _weights(m, n)
    eps = tuple(int(i == ell - 1) for i in range(len(weights[0])))
    hi = weights.index(eps)
    lo = weights.index(tuple(-x for x in eps))
    entries = {(i, i): 1 for i in range(V.dim) if i not in (hi, lo)}
    entries[(hi, lo)] = 1
    entries[(lo, hi)] = 1
    return SparseMat(V, V, entries)


@lru_cache(maxsize=None)
def cupcap_maps(m: int, n: int) -> tuple[SparseMat, SparseMat]:
    """(c-hat, c-check): the form V (x) V -> Q and its snake-inverse Q -> V (x) V.

    J is a signed permutation matrix, so its inverse is its transpose.
    """
    V = natural_space(m, n)
    J = osp_form(m, n)
    one = unit_space()
    d = V.dim
    chat = SparseMat(V.tensor(V), one,
                     {(0, a * d + b): v for (a, b), v in J.entries.items()})
    Jinv = J.transpose()
    if J @ Jinv != SparseMat.identity(V):
        raise VerificationError(f"osp({m}|{2 * n}) Gram matrix is not a signed "
                             "permutation")
    ccheck = SparseMat(one, V.tensor(V),
                       {(a * d + b, 0): v for (a, b), v in Jinv.entries.items()})
    return chat, ccheck


@lru_cache(maxsize=None)
def e_map(m: int, n: int) -> SparseMat:
    """E = c-check o c-hat on V (x) V; E^2 = (m - 2n) E."""
    chat, ccheck = cupcap_maps(m, n)
    return ccheck @ chat


def leibniz_tensor(X: SparseMat, r: int) -> SparseMat:
    """Sum over slots of id (x) .. (x) X (x) .. (x) id with Koszul signs."""
    V = X.src
    iV = SparseMat.identity(V)
    total = None
    for p in range(r):
        term = kron_chain([X if j == p else iV for j in range(r)])
        total = term if total is None else total + term
    return total


@lru_cache(maxsize=None)
def brauer_rep(m: int, n: int, r: int) -> MappingProxyType:
    """Images of the Brauer generators on V^{(x) r}: s_i -> tau_i, e_i -> E_i.

    Keyed ("s", i) and ("e", i); cached, so the mapping is read-only.
    """
    if r < 1:
        raise ValueError("tensor power must be >= 1")
    V = natural_space(m, n)
    iV = SparseMat.identity(V)
    t = tau(V, V)
    E = e_map(m, n)
    out = {}
    for i in range(1, r):
        out[("s", i)] = kron_chain([iV] * (i - 1) + [t] + [iV] * (r - i - 1))
        out[("e", i)] = kron_chain([iV] * (i - 1) + [E] + [iV] * (r - i - 1))
    return MappingProxyType(out)


# ---------------------------------------------------------------------------
# Spectral data of the quantum braiding on V_q (x) V_q, in the commutative
# model generated by the orthogonal idempotents P[s~], P[a], P[0] with
# P[s~] + P[a] + P[0] = 1.  An element is its triple of eigenvalues.

@dataclass(frozen=True)
class BmwParameters:
    y: RatFunc            # q^{-m+2n+1}
    z: RatFunc            # q - q^{-1}
    delta: int            # Brauer loop parameter m - 2n
    omega_v: int          # Casimir eigenvalue on V, m - 2n - 1
    chi: tuple[int, int, int]  # (chi_s~, chi_a, chi_0) = (1, -1, -m+2n+1)
    sdim: RatFunc


def bmw_parameters(m: int, n: int) -> BmwParameters:
    omega = m - 2 * n - 1
    return BmwParameters(
        y=qpow(-omega),
        z=qpow(1) - qpow(-1),
        delta=m - 2 * n,
        omega_v=omega,
        chi=(1, -1, -m + 2 * n + 1),
        sdim=ONE + qint(omega),
    )


@dataclass(frozen=True)
class SpectralElement:
    """c_s P[s~] + c_a P[a] + c_0 P[0]; products act componentwise."""

    comps: tuple[RatFunc, RatFunc, RatFunc]

    @staticmethod
    def scalar(c) -> "SpectralElement":
        c = c if isinstance(c, RatFunc) else RatFunc(c)
        return SpectralElement((c, c, c))

    def __add__(self, other):
        return SpectralElement(tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other):
        return SpectralElement(tuple(a - b for a, b in zip(self.comps, other.comps)))

    def __mul__(self, other):
        if isinstance(other, SpectralElement):
            return SpectralElement(tuple(a * b for a, b in zip(self.comps, other.comps)))
        return SpectralElement(tuple(a * other for a in self.comps))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.comps)


def spectral_g(m: int, n: int) -> tuple[SpectralElement, SpectralElement]:
    """g and g^-1 with eigenvalues (q, -q^-1, q^{chi_0}) on (P[s~], P[a], P[0])."""
    chi0 = -m + 2 * n + 1
    g = SpectralElement((qpow(1), -qpow(-1), qpow(chi0)))
    ginv = SpectralElement((qpow(-1), -qpow(1), qpow(-chi0)))
    return g, ginv


def spectral_e(m: int, n: int) -> SpectralElement:
    """e = sdim_q P[0] (zero when m = 2n, where sdim_q vanishes)."""
    sd = bmw_parameters(m, n).sdim
    return SpectralElement((RatFunc(0), RatFunc(0), sd))


def quantum_g_spectral(m: int, n: int) -> dict:
    """Exact identity checks in the idempotent model; all residuals must vanish.

    Covers the eliminated forms of g and g^-1, the skein relation
    g - g^-1 = (q - q^-1)(1 - e), the quasi-idempotent and eigenvalue
    relations of e, the cubic characteristic identity, and y = q^{-omega_V}.
    """
    par = bmw_parameters(m, n)
    g, ginv = spectral_g(m, n)
    e = spectral_e(m, n)
    one = SpectralElement.scalar(1)
    q, qi = qpow(1), qpow(-1)
    z = q - qi
    pa = SpectralElement((RatFunc(0), ONE, RatFunc(0)))
    qm = qpow(-m + 2 * n + 1)  # q^{chi_0} = q^{m-2n-1} inverted
    denom = q + qpow(m - 2 * n - 1)
    g_elim = (SpectralElement.scalar(q) - (q + qi) * pa
              - SpectralElement.scalar(q * z / denom) * e)
    ginv_elim = (SpectralElement.scalar(qi) - (q + qi) * pa
                 + SpectralElement.scalar(qpow(m - 2 * n - 1) * z / denom) * e)
    checks = {
        "g*ginv = 1": (g * ginv - one).is_zero(),
        "g from eliminated form": (g - g_elim).is_zero(),
        "ginv from eliminated form": (ginv - ginv_elim).is_zero(),
        "skein g - ginv = (q-q^-1)(1-e)": (g - ginv - z * (one - e)).is_zero(),
        "e^2 = sdim e": (e * e - par.sdim * e).is_zero(),
        "e g = q^{-omega} e": (e * g - par.y * e).is_zero(),
        "g e = q^{-omega} e": (g * e - par.y * e).is_zero(),
        "(g-q)(g+q^-1)(g-q^{chi_0}) = 0":
            ((g - SpectralElement.scalar(q))
             * (g + SpectralElement.scalar(qi))
             * (g - SpectralElement.scalar(qm))).is_zero(),
        "y = q^{-omega_V}": par.y == qpow(-par.omega_v),
        "chi_0 = -m+2n+1": par.chi[2] == -m + 2 * n + 1,
    }
    return checks
