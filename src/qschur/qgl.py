"""The quantum general linear supergroup acting on its natural module.

Generator matrices on V = C^{m|n} are pinned by the defining relations:
e_i is the matrix unit E_{i,i+1}, f_i is a sign times E_{i+1,i}, and each
K_a is diagonal with K_a e_b = q^{(E_a, E_b)} e_b.  The sign on f_i is
found by exhaustive search against the relation

    e_i f_j - (-1)^{[e_i][f_j]} f_j e_i = delta_ij (k_i - k_i^-1)/(q_i - q_i^-1)

and the whole quadratic block is then verified as matrix identities.
Coproducts act through graded Kronecker products, with q^{h_i} realised
as the diagonal k_i = q^{(alpha_i, wt)}; the dual module acts through the
antipode.  The explicit R-matrix on V (x) V is only available for the
distinguished ordering, where its entry formula is stated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import VerificationError
from .rootdata import RootDatum
from .scalar import ONE, RatFunc, qpow
from .superspace import (SparseMat, SuperSpace, graded_kron, kron_chain, tau,
                         unit_space)

__all__ = [
    "GlqRep", "natural_rep", "natural_space", "act_on_signs",
    "rmatrix_vv", "braiding", "braiding_inverse", "k2rho",
    "dual_rep", "DualityMaps", "duality_maps", "twist_scalar",
    "check_defining_relations", "generator_names",
]


def natural_space(datum: RootDatum) -> SuperSpace:
    """V = C^{m|n}, one basis vector per ordering symbol; its weights are
    those of `datum.module_weights()`."""
    parities = tuple(p for _, p in datum.module_weights())
    return SuperSpace(parities, name=f"V[{datum.describe()}]")


@dataclass(frozen=True, eq=False)
class GlqRep:
    """Generator matrices of U_q(gl(m|n)) on V (or on V* for the dual)."""

    datum: RootDatum
    space: SuperSpace
    mats: dict  # name -> SparseMat; names e{i}, f{i}, K{a}, Kinv{a}, k{i}, kinv{i}

    @property
    def dim(self) -> int:
        return self.space.dim

    def mat(self, name: str) -> SparseMat:
        return self.mats[name]

    def gen_parity(self, name: str) -> int:
        if name.startswith(("e", "f")):
            i = int(name[1:])
            a = self.datum.parity_of(self.datum.ordering[i - 1])
            b = self.datum.parity_of(self.datum.ordering[i])
            return (a + b) % 2
        return 0


def generator_names(datum: RootDatum) -> list[str]:
    """The centralizer generator set: all e_i, f_i and K_a.

    The K_a^-1 are left out: a map that commutes with K_a commutes with its
    inverse, and on a tensor power K_a^-1 is diagonal with the same level
    sets as K_a, so it would split the commutant unknowns the same way and
    add no constraint row.
    """
    d = len(datum.module_weights())
    names = [f"e{i}" for i in range(1, d)] + [f"f{i}" for i in range(1, d)]
    return names + [f"K{a}" for a in range(1, d + 1)]


def _diag(space: SuperSpace, values) -> SparseMat:
    return SparseMat(space, space, {(i, i): v for i, v in enumerate(values) if v})


def _d_i(datum: RootDatum, alpha) -> int:
    norm = datum.form(alpha, alpha)
    return norm // 2 if norm else 1


@lru_cache(maxsize=None)
def natural_rep(datum: RootDatum) -> GlqRep:
    if datum.algebra != "gl":
        raise ValueError("natural_rep builds gl representations only")
    V = natural_space(datum)
    d = V.dim
    wts = [w for w, _ in datum.module_weights()]
    mats = {}
    for a in range(1, d + 1):
        diag = [qpow(datum.form(wts[a - 1], wts[b])) for b in range(d)]
        mats[f"K{a}"] = _diag(V, diag)
        mats[f"Kinv{a}"] = _diag(V, [v.inverse() for v in diag])
    for i, alpha in enumerate(datum.simple_roots(), 1):
        kdiag = [qpow(datum.form(alpha, wts[b])) for b in range(d)]
        mats[f"k{i}"] = _diag(V, kdiag)
        mats[f"kinv{i}"] = _diag(V, [v.inverse() for v in kdiag])
        mats[f"e{i}"] = SparseMat(V, V, {(i - 1, i): ONE})
        qi = qpow(_d_i(datum, alpha))
        rhs = _diag(V, [(kv - kv.inverse()) / (qi - qi.inverse()) for kv in kdiag])
        par = (V.parities[i - 1] + V.parities[i]) % 2
        found = None
        for sign in (1, -1):
            f = SparseMat(V, V, {(i, i - 1): RatFunc(sign)})
            e = mats[f"e{i}"]
            lhs = (e @ f) - (f @ e).scale(-1 if par else 1)
            if lhs == rhs:
                found = f
                break
        if found is None:
            raise VerificationError(f"no sign makes the e{i}/f{i} relation hold")
        mats[f"f{i}"] = found
    rep = GlqRep(datum, V, mats)
    check_defining_relations(rep)
    return rep


def check_defining_relations(rep: GlqRep) -> None:
    """Quadratic block of the defining relations, as exact matrix identities."""
    datum, V, d = rep.datum, rep.space, rep.dim
    simple = datum.simple_roots()
    for a in range(1, d + 1):
        K, Kinv = rep.mat(f"K{a}"), rep.mat(f"Kinv{a}")
        if K @ Kinv != SparseMat.identity(V):
            raise VerificationError(f"K{a} not invertible")
        wa = datum.weight_of(datum.ordering[a - 1])
        for i, alpha in enumerate(simple, 1):
            scale = qpow(datum.form(wa, alpha))
            if K @ rep.mat(f"e{i}") @ Kinv != rep.mat(f"e{i}").scale(scale):
                raise VerificationError(f"K{a} e{i} conjugation fails")
            if K @ rep.mat(f"f{i}") @ Kinv != rep.mat(f"f{i}").scale(scale.inverse()):
                raise VerificationError(f"K{a} f{i} conjugation fails")
    for i, alpha in enumerate(simple, 1):
        for j in range(1, d):
            e, f = rep.mat(f"e{i}"), rep.mat(f"f{j}")
            sign = -1 if rep.gen_parity(f"e{i}") and rep.gen_parity(f"f{j}") else 1
            lhs = (e @ f) - (f @ e).scale(sign)
            if i == j:
                qi = qpow(_d_i(datum, alpha))
                k = rep.mat(f"k{i}")
                rhs = (k - rep.mat(f"kinv{i}")).scale((qi - qi.inverse()).inverse())
                ok = lhs == rhs
            else:
                ok = lhs.is_zero()
            if not ok:
                raise VerificationError(f"e{i}/f{j} relation fails")
        if datum.form(alpha, alpha) == 0:
            if not (rep.mat(f"e{i}") @ rep.mat(f"e{i}")).is_zero():
                raise VerificationError(f"(e{i})^2 != 0 at isotropic root")
            if not (rep.mat(f"f{i}") @ rep.mat(f"f{i}")).is_zero():
                raise VerificationError(f"(f{i})^2 != 0 at isotropic root")


# ---------------------------------------------------------------------------
# Coproduct action on tensor powers and on mixed (dualised) slots.

def _legs(gen: str, r: int) -> list[list[str]]:
    """Iterated-coproduct legs of a generator, one slot name per factor."""
    if gen.startswith("K"):
        return [[gen] * r]
    i = gen[1:]
    out = []
    for p in range(r):
        if gen[0] == "e":
            out.append(["I"] * p + [gen] + [f"k{i}"] * (r - 1 - p))
        else:
            out.append([f"kinv{i}"] * p + [gen] + ["I"] * (r - 1 - p))
    return out


def _slot_mat(rep: GlqRep, dual: GlqRep | None, name: str, sign: int) -> SparseMat:
    source = rep if sign > 0 else dual
    if name == "I":
        return SparseMat.identity(source.space)
    return source.mat(name)


def act_on_signs(rep: GlqRep, gen: str, signs) -> SparseMat:
    """Matrix of a generator on V^{s_1} (x) ... (x) V^{s_k}, s_j = +-1."""
    signs = tuple(signs)
    dual = dual_rep(rep) if any(s < 0 for s in signs) else None
    total = None
    for leg in _legs(gen, len(signs)):
        mats = [_slot_mat(rep, dual, nm, sg) for nm, sg in zip(leg, signs)]
        term = kron_chain(mats)
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# Dual module.

def _antipode_mat(rep: GlqRep, name: str) -> SparseMat:
    if name.startswith("e"):
        return -(rep.mat(name) @ rep.mat(f"kinv{name[1:]}"))
    if name.startswith("f"):
        return -(rep.mat(f"k{name[1:]}") @ rep.mat(name))
    if name.startswith("Kinv"):
        return rep.mat(f"K{name[4:]}")
    if name.startswith("K"):
        return rep.mat(f"Kinv{name[1:]}")
    if name.startswith("kinv"):
        return rep.mat(f"k{name[4:]}")
    if name.startswith("k"):
        return rep.mat(f"kinv{name[1:]}")
    raise KeyError(name)


@lru_cache(maxsize=None)
def dual_rep(rep: GlqRep) -> GlqRep:
    """Action on V*: (x v*)(w) = (-1)^{[x][v*]} v*(S(x) w)."""
    V = rep.space
    Vd = V.dual()
    par = V.parities
    mats = {}
    for name in rep.mats:
        px = rep.gen_parity(name)
        S = _antipode_mat(rep, name)
        out = {}
        for (c, b), v in S.entries.items():
            out[(b, c)] = -v if (px and par[c]) else v
        mats[name] = SparseMat(Vd, Vd, out)
    return GlqRep(rep.datum, Vd, mats)


# ---------------------------------------------------------------------------
# R-matrix, braiding, ribbon data.

@lru_cache(maxsize=None)
def rmatrix_vv(datum: RootDatum) -> SparseMat:
    """Action of the universal R-matrix on V (x) V (distinguished ordering).

    Diagonal part q^{(E_a,E_a)} on e_a (x) e_a and 1 on e_a (x) e_b; plus
    (q - q^-1)(-1)^{[a][b]} e_b (x) e_a -> e_a (x) e_b for a < b.
    """
    if not datum.is_distinguished():
        raise ValueError("the explicit R-matrix requires the distinguished "
                         "ordering (e's before d's); use that datum here")
    V = natural_space(datum)
    d = V.dim
    par = V.parities
    entries = {}
    for a in range(d):
        for b in range(d):
            idx = a * d + b
            entries[(idx, idx)] = qpow(1 if not par[a] else -1) if a == b else ONE
    coeff = qpow(1) - qpow(-1)
    for a in range(d):
        for b in range(a + 1, d):
            sign = -1 if par[a] and par[b] else 1
            entries[(a * d + b, b * d + a)] = coeff * sign
    V2 = V.tensor(V)
    return SparseMat(V2, V2, entries)


@lru_cache(maxsize=None)
def braiding(datum: RootDatum) -> SparseMat:
    """g-check = tau o R on V (x) V."""
    V = natural_space(datum)
    return tau(V, V) @ rmatrix_vv(datum)


@lru_cache(maxsize=None)
def braiding_inverse(datum: RootDatum) -> SparseMat:
    """Inverse braiding via the Hecke identity g^-1 = g - (q - q^-1)."""
    g = braiding(datum)
    coeff = qpow(1) - qpow(-1)
    return g - SparseMat.identity(g.src).scale(coeff)


@lru_cache(maxsize=None)
def k2rho(datum: RootDatum) -> SparseMat:
    """Diagonal q^{(wt, 2 rho)}; its supertrace is sdim_q."""
    r2 = datum.rho2()
    return _diag(natural_space(datum),
                 [qpow(datum.form(w, r2)) for w, _ in datum.module_weights()])


@dataclass(frozen=True)
class DualityMaps:
    """Evaluation/coevaluation of the left duality and the induced right one."""

    omega: SparseMat      # V* (x) V -> unit      v* (x) w -> v*(w)
    upsilon: SparseMat    # unit -> V (x) V*      1 -> sum e_a (x) e*_a
    omega_p: SparseMat    # V (x) V* -> unit      via K_{2rho} and Koszul sign
    upsilon_p: SparseMat  # unit -> V* (x) V


@lru_cache(maxsize=None)
def duality_maps(datum: RootDatum) -> DualityMaps:
    V = natural_space(datum)
    Vd = V.dual()
    one = unit_space()
    d = V.dim
    par = V.parities
    r2 = datum.rho2()
    kvals = [qpow(datum.form(w, r2)) for w, _ in datum.module_weights()]
    omega = SparseMat(Vd.tensor(V), one,
                      {(0, a * d + a): ONE for a in range(d)})
    upsilon = SparseMat(one, V.tensor(Vd),
                        {(a * d + a, 0): ONE for a in range(d)})
    omega_p = SparseMat(V.tensor(Vd), one,
                        {(0, a * d + a): kvals[a] * (-1 if par[a] else 1)
                         for a in range(d)})
    upsilon_p = SparseMat(one, Vd.tensor(V),
                          {(a * d + a, 0): kvals[a].inverse() * (-1 if par[a] else 1)
                           for a in range(d)})
    return DualityMaps(omega, upsilon, omega_p, upsilon_p)


def partial_supertrace_last(M: SparseMat, left: SuperSpace,
                            right: SuperSpace) -> SparseMat:
    """Supertrace over the last tensor slot of an operator on left (x) right."""
    dr = right.dim
    out = {}
    for (row, col), v in M.entries.items():
        a2, b2 = divmod(row, dr)
        a1, b1 = divmod(col, dr)
        if b1 != b2:
            continue
        if right.parities[b1]:
            v = -v
        key = (a2, a1)
        w = out.get(key, 0) + v
        if w:
            out[key] = w
        else:
            out.pop(key, None)
    return SparseMat(left, left, out)


@lru_cache(maxsize=None)
def twist_scalar(datum: RootDatum) -> RatFunc:
    """Ribbon scalar on V: the closure factor of one positive kink.

    Computed as the scalar of ptr_2((id (x) K_{2rho}) g-check); V is simple,
    so the partial quantum trace is forced to be scalar.
    """
    V = natural_space(datum)
    g = braiding(datum)
    M = graded_kron(SparseMat.identity(V), k2rho(datum)) @ g
    N = partial_supertrace_last(M, V, V)
    theta = N.entries.get((0, 0), RatFunc(0))
    if N != SparseMat.identity(V).scale(theta):
        raise VerificationError("partial quantum trace of the braiding is not scalar")
    return theta if isinstance(theta, RatFunc) else RatFunc(theta)
