"""Root data for gl(m|n) and osp(m|2n).

A root datum is an admissible ordering of the weight-space symbols
e_1..e_l (even) and d_1..d_n (odd), where l = m for gl and l = m//2 for
osp; admissible means each block keeps its internal order.  Weight vectors
are integer tuples in the fixed coordinate order (e_1..e_l, d_1..d_n),
independent of the ordering; the ordering only decides positivity.

The bilinear form is (e_i, e_j) = delta_ij, (d_i, d_j) = -delta_ij,
(e_i, d_j) = 0.  A root of osp is positive when its first nonzero
coefficient, read along the datum's ordering, is positive; for gl the
positive roots are the differences E_a - E_b with a before b.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import VerificationError
from .scalar import ONE, RatFunc, qint, qpow

__all__ = [
    "RootDatum", "distinguished", "admissible_orderings", "odd_reflection",
    "sdim_q", "sdim_q_osp_closed_form",
]

Symbol = tuple[str, int]  # ("e", i) or ("d", j), 1-based
WeightVec = tuple[int, ...]


def _sym_str(s: Symbol) -> str:
    return f"{s[0]}{s[1]}"


@dataclass(frozen=True)
class RootDatum:
    algebra: str  # "gl" or "osp"
    m: int
    n: int
    ordering: tuple[Symbol, ...]

    def __post_init__(self):
        if self.algebra not in ("gl", "osp"):
            raise ValueError(f"unknown algebra {self.algebra!r}")
        if self.m < 0 or self.n < 0 or self.m + self.n < 1:
            raise ValueError("need m, n >= 0 and m + n >= 1")
        expect = ([("e", i + 1) for i in range(self.eps_count)]
                  + [("d", j + 1) for j in range(self.n)])
        if sorted(self.ordering) != sorted(expect):
            raise ValueError(f"ordering must contain exactly {expect}")
        for kind in ("e", "d"):
            idx = [s[1] for s in self.ordering if s[0] == kind]
            if idx != sorted(idx):
                raise ValueError("ordering is not admissible: "
                                 f"{kind}-block out of order")

    # -- coordinates ------------------------------------------------------

    @property
    def eps_count(self) -> int:
        return self.m if self.algebra == "gl" else self.m // 2

    @property
    def rank(self) -> int:
        return self.eps_count + self.n

    def _coord(self, sym: Symbol) -> int:
        kind, i = sym
        return i - 1 if kind == "e" else self.eps_count + i - 1

    def weight_of(self, sym: Symbol) -> WeightVec:
        w = [0] * self.rank
        w[self._coord(sym)] = 1
        return tuple(w)

    def parity_of(self, sym: Symbol) -> int:
        return 0 if sym[0] == "e" else 1

    def form(self, a: WeightVec, b: WeightVec) -> int:
        """(a, b) = sum of eps parts minus sum of delta parts."""
        if len(a) != self.rank or len(b) != self.rank:
            raise ValueError("weight length mismatch")
        k = self.eps_count
        return (sum(x * y for x, y in zip(a[:k], b[:k]))
                - sum(x * y for x, y in zip(a[k:], b[k:])))

    def root_parity(self, root: WeightVec) -> int:
        return sum(abs(x) for x in root[self.eps_count:]) % 2

    def is_positive(self, root: WeightVec) -> bool:
        for sym in self.ordering:
            c = root[self._coord(sym)]
            if c:
                return c > 0
        return False

    # -- root system ------------------------------------------------------

    def all_roots(self) -> list[WeightVec]:
        k, n = self.eps_count, self.n
        out = []

        def vec(pairs):
            w = [0] * self.rank
            for coord, c in pairs:
                w[coord] += c
            return tuple(w)

        if self.algebra == "gl":
            for a in range(self.rank):
                for b in range(self.rank):
                    if a != b:
                        out.append(vec([(a, 1), (b, -1)]))
            return out
        for i in range(k):
            for i2 in range(i + 1, k):
                for s1 in (1, -1):
                    for s2 in (1, -1):
                        out.append(vec([(i, s1), (i2, s2)]))
        for j in range(n):
            for s in (1, -1):
                out.append(vec([(k + j, 2 * s)]))
        for j in range(n):
            for j2 in range(j + 1, n):
                for s1 in (1, -1):
                    for s2 in (1, -1):
                        out.append(vec([(k + j, s1), (k + j2, s2)]))
        for i in range(k):
            for j in range(n):
                for s1 in (1, -1):
                    for s2 in (1, -1):
                        out.append(vec([(i, s1), (k + j, s2)]))
        if self.m % 2 == 1:
            # B-type: short even roots +-e_i and odd roots +-d_j
            for i in range(k):
                for s in (1, -1):
                    out.append(vec([(i, s)]))
            for j in range(n):
                for s in (1, -1):
                    out.append(vec([(k + j, s)]))
        return out

    def positive_roots(self) -> list[WeightVec]:
        if self.algebra == "gl":
            out = []
            for a in range(self.rank):
                for b in range(a + 1, self.rank):
                    wa = self.weight_of(self.ordering[a])
                    wb = self.weight_of(self.ordering[b])
                    out.append(tuple(x - y for x, y in zip(wa, wb)))
            return out
        return sorted(r for r in self.all_roots() if self.is_positive(r))

    def simple_roots(self) -> list[WeightVec]:
        diffs = []
        for a in range(self.rank - 1):
            wa = self.weight_of(self.ordering[a])
            wb = self.weight_of(self.ordering[a + 1])
            diffs.append(tuple(x - y for x, y in zip(wa, wb)))
        if self.algebra == "gl" or not self.ordering:
            return diffs  # osp(1|0) has no roots
        last = self.weight_of(self.ordering[-1])
        if self.m % 2 == 1:
            # B-type tail: E_{l+n}
            return diffs + [last]
        if self.rank == 1:
            # a single symbol: so(2) has no roots, sp(2) has 2 delta_1
            if self.ordering[-1][0] == "e":
                return diffs
            return diffs + [tuple(2 * x for x in last)]
        prev = self.weight_of(self.ordering[-2])
        if self.ordering[-1][0] == "e":
            tail = tuple(x + y for x, y in zip(prev, last))
        else:
            tail = tuple(2 * x for x in last)
        return diffs + [tail]

    def rho2(self) -> WeightVec:
        """Sum of even positive roots minus sum of odd positive roots."""
        tot = [0] * self.rank
        for r in self.positive_roots():
            sign = -1 if self.root_parity(r) else 1
            for i, c in enumerate(r):
                tot[i] += sign * c
        return tuple(tot)

    # -- natural module ----------------------------------------------------

    def module_weights(self) -> list[tuple[WeightVec, int]]:
        """(weight, parity) of the natural module's basis, in library order."""
        if self.algebra == "gl":
            return [(self.weight_of(s), self.parity_of(s)) for s in self.ordering]
        k, n = self.eps_count, self.n
        out = []

        def unit(coord, sign):
            w = [0] * self.rank
            w[coord] = sign
            return tuple(w)

        for i in range(k):
            out.append((unit(i, 1), 0))
        if self.m % 2 == 1:
            out.append((tuple([0] * self.rank), 0))
        for i in range(k - 1, -1, -1):
            out.append((unit(i, -1), 0))
        for j in range(n):
            out.append((unit(k + j, 1), 1))
        for j in range(n - 1, -1, -1):
            out.append((unit(k + j, -1), 1))
        return out

    def describe(self) -> str:
        order = ",".join(_sym_str(s) for s in self.ordering)
        second = self.n if self.algebra == "gl" else 2 * self.n
        return f"{self.algebra} {self.m}|{second} order={order}"

    def is_distinguished(self) -> bool:
        return self == distinguished(self.algebra, self.m, self.n)


def distinguished(algebra: str, m: int, n: int) -> RootDatum:
    """gl: all e before d; osp: all d before e."""
    if algebra == "gl":
        order = [("e", i + 1) for i in range(m)] + [("d", j + 1) for j in range(n)]
    else:
        order = [("d", j + 1) for j in range(n)] + [("e", i + 1) for i in range(m // 2)]
    return RootDatum(algebra, m, n, tuple(order))


def admissible_orderings(algebra: str, m: int, n: int) -> list[RootDatum]:
    """All C(l+n, l) interleavings of the two symbol blocks."""
    probe = distinguished(algebra, m, n)
    k, n_ = probe.eps_count, probe.n
    if k + n_ > 12:
        raise ValueError("rank too large to enumerate orderings")
    out = []
    for eps_slots in itertools.combinations(range(k + n_), k):
        order: list[Symbol] = []
        ei, di = 1, 1
        eset = set(eps_slots)
        for pos in range(k + n_):
            if pos in eset:
                order.append(("e", ei))
                ei += 1
            else:
                order.append(("d", di))
                di += 1
        out.append(RootDatum(algebra, m, n, tuple(order)))
    return out


def odd_reflection(datum: RootDatum, s: int) -> RootDatum:
    """Reflect across the isotropic odd simple root alpha_s (0-based index).

    Realised as the adjacent swap of the mixed symbol pair; the sum-type
    isotropic root of even osp (eq tail d_n + e_l) has no admissible
    ordering realising its reflection and is rejected.
    """
    simples = datum.simple_roots()
    if not 0 <= s < len(simples):
        raise IndexError(f"no simple root with index {s}")
    alpha = simples[s]
    if datum.form(alpha, alpha) != 0 or not datum.root_parity(alpha):
        raise ValueError(f"simple root {s} is not isotropic odd")
    if s >= datum.rank - 1:
        raise ValueError("sum-type isotropic root: reflected system is not "
                         "realised by any admissible ordering")
    order = list(datum.ordering)
    order[s], order[s + 1] = order[s + 1], order[s]
    out = RootDatum(datum.algebra, datum.m, datum.n, tuple(order))
    # 2 rho' = 2 rho + 2 alpha_s; cheap, so always certified
    want = tuple(a + 2 * b for a, b in zip(datum.rho2(), alpha))
    if out.rho2() != want:
        raise VerificationError("odd reflection failed the 2 rho shift check")
    return out


@lru_cache(maxsize=None)
def sdim_q(datum: RootDatum) -> RatFunc:
    """Quantum superdimension of the natural module, as a weight sum."""
    r2 = datum.rho2()
    total = RatFunc(0)
    for w, par in datum.module_weights():
        term = qpow(datum.form(w, r2))
        total = total - term if par else total + term
    return total


def sdim_q_osp_closed_form(m: int, n: int) -> RatFunc:
    """1 + (q^{m-2n-1} - q^{-m+2n+1})/(q - q^{-1}) = 1 + [m-2n-1]_q."""
    return ONE + qint(m - 2 * n - 1)
