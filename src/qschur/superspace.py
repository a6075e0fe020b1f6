"""Z2-graded spaces and exact sparse matrices.

A SuperSpace is an ordered basis; each vector carries only its parity bit,
which is all the Koszul sign rule reads.  The weights of a module's basis
are data of the module and live on its root datum
(`RootDatum.module_weights`).  A SparseMat maps a source space to a target
space and stores only nonzero entries; scalars may be RatFunc, Fraction or
int (the three interoperate).  Tensor products of operators use the graded
(Koszul) rule

    (A (x) B)(v (x) w) = (-1)^{[B][v]} Av (x) Bw,

applied per parity-homogeneous entry of B, so the odd part of B picks up
signs against odd source vectors.  Indexing of V (x) W is row-major:
(a, c) -> a*dim(W) + c, and operators vectorize the same way.

Rank and nullity are exact: entries are specialised at rational points
(RatFunc) or taken as-is (Fraction/int), rows are cleared to integers and
handed to the elimination kernel.  `Echelon` is the incremental companion
over F_p: reduction mod p can only lower a rank, so its rank is a proved
lower bound for the rank over Q.  `SparseMat.residues` reduces a matrix
over Q(q) at q = a straight to F_p, without a Fraction, and
`SparseMat.matmul_mod` multiplies such residue matrices; `on_slots` applies
an even two-slot operator's residues, placed on two adjacent slots of a
tensor power, to a vector mod p without building the placed matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import isqrt, lcm

from .kernels import rank_of_int_rows
from .scalar import RatFunc, UnluckyPrime, rational_residue

__all__ = [
    "SuperSpace", "SparseMat", "unit_space", "tau", "graded_kron",
    "rank_at", "ranks_at", "vectorize",
    "DEFAULT_POINTS", "Echelon", "PRIME", "UnluckyPrime", "residue_at",
    "on_slots",
]

#: Default specialisation points: nonzero rationals away from 0, +-1 and
#: small roots of unity, so generic ranks survive specialisation.
DEFAULT_POINTS = (Fraction(7, 5), Fraction(13, 9), Fraction(23, 17))


def check_points(points) -> list:
    """`points` as a list; a ValueError naming the parameter if empty."""
    if not (points := list(points)):
        raise ValueError("points: at least one specialisation point needed")
    return points


@lru_cache(maxsize=64)  # bounded: a cell meets a few pairs, a run many cells
def _tensor_parities(a: tuple, b: tuple) -> tuple:
    return tuple((p + r) % 2 for p in a for r in b)


@dataclass(frozen=True)
class SuperSpace:
    """Finite ordered homogeneous basis, given by the parity of each vector."""

    parities: tuple[int, ...]
    name: str = ""

    @property
    def dim(self) -> int:
        return len(self.parities)

    def tensor(self, other: "SuperSpace") -> "SuperSpace":
        return SuperSpace(_tensor_parities(self.parities, other.parities))

    def dual(self) -> "SuperSpace":
        return SuperSpace(self.parities, f"{self.name}*" if self.name else "")

    def tensor_power(self, r: int) -> "SuperSpace":
        out = self
        for _ in range(r - 1):
            out = out.tensor(self)
        return out

    def describe(self) -> str:
        return self.name or f"dim {self.dim} (parities {''.join(map(str, self.parities))})"


def unit_space() -> SuperSpace:
    """The 1-dimensional even unit object."""
    return SuperSpace((0,), name="unit")


class SparseMat:
    """Sparse exact matrix between SuperSpaces; entries (row, col) -> scalar."""

    __slots__ = ("src", "dst", "entries")

    def __init__(self, src: SuperSpace, dst: SuperSpace, entries=None):
        self.src = src
        self.dst = dst
        self.entries = {}
        if entries:
            for (r, c), v in (entries.items() if isinstance(entries, dict) else entries):
                if not (0 <= r < dst.dim and 0 <= c < src.dim):
                    raise IndexError(f"entry ({r},{c}) out of bounds")
                if v:
                    self.entries[(r, c)] = v

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, space: SuperSpace) -> "SparseMat":
        return cls(space, space, {(i, i): 1 for i in range(space.dim)})

    # -- ring structure ---------------------------------------------------

    @property
    def rows(self) -> int:
        return self.dst.dim

    @property
    def cols(self) -> int:
        return self.src.dim

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, SparseMat):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        keys = self.entries.keys() | other.entries.keys()
        return all(self.entries.get(k, 0) == other.entries.get(k, 0) for k in keys)

    def __add__(self, other: "SparseMat") -> "SparseMat":
        out = dict(self.entries)
        for k, v in other.entries.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        res = SparseMat(self.src, self.dst)
        res.entries = out
        return res

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return self + (-other)

    def __neg__(self) -> "SparseMat":
        res = SparseMat(self.src, self.dst)
        res.entries = {k: -v for k, v in self.entries.items()}
        return res

    def scale(self, s) -> "SparseMat":
        res = SparseMat(self.src, self.dst)
        if s:
            res.entries = {k: s * v for k, v in self.entries.items()}
        return res

    def _product_sums(self, other: "SparseMat") -> dict:
        """Entries of self o other, zeros included."""
        if other.dst.dim != self.src.dim:
            raise ValueError(
                f"dimension mismatch: {self.cols} != {other.rows} in product")
        rows_of_other = {}
        for (k, j), v in other.entries.items():
            rows_of_other.setdefault(k, []).append((j, v))
        out = {}
        for (i, k), a in self.entries.items():
            for j, b in rows_of_other.get(k, ()):
                key = (i, j)
                out[key] = out.get(key, 0) + a * b
        return out

    def __matmul__(self, other: "SparseMat") -> "SparseMat":
        """Composition self o other (other acts first)."""
        res = SparseMat(other.src, self.dst)
        res.entries = {k: w for k, w in self._product_sums(other).items() if w}
        return res

    def matmul_mod(self, other: "SparseMat") -> "SparseMat":
        """self o other over F_p, p = PRIME, for matrices of residues."""
        p = PRIME
        res = SparseMat(other.src, self.dst)
        res.entries = {k: w for k, v in self._product_sums(other).items()
                       if (w := v % p)}
        return res

    def transpose(self) -> "SparseMat":
        res = SparseMat(self.dst, self.src)
        res.entries = {(c, r): v for (r, c), v in self.entries.items()}
        return res

    def map_values(self, fn) -> "SparseMat":
        res = SparseMat(self.src, self.dst)
        for k, v in self.entries.items():
            w = fn(v)
            if w:
                res.entries[k] = w
        return res

    def specialize(self, point: Fraction) -> "SparseMat":
        """Evaluate RatFunc entries at q = point (exact; raises on poles)."""
        return self.map_values(
            lambda v: v.specialize(point) if isinstance(v, RatFunc) else v)

    def residues(self, point) -> "SparseMat":
        """Entries at q = point reduced mod p = PRIME, as ints in [0, p).

        Built without a Fraction: each entry is evaluated at the point's
        residue x (`residue_at`).  UnluckyPrime, naming the point, if the
        point or a reduced entry's denominator vanishes mod p.
        """
        return self.map_values(residue_at(point))

    # -- graded operations ------------------------------------------------

    def supertrace(self):
        if self.src.dim != self.dst.dim:
            raise ValueError("supertrace of a non-square matrix")
        total = 0
        par = self.dst.parities
        for a in range(self.dst.dim):
            v = self.entries.get((a, a))
            if v:
                total = total + (-v if par[a] else v)
        return total

    def scalar_value(self):
        """The single entry of a 1x1 matrix (0 if empty)."""
        if self.rows != 1 or self.cols != 1:
            raise ValueError("not a scalar (1x1) matrix")
        return self.entries.get((0, 0), 0)

    # -- dump format --------------------------------------------------------

    def dump(self) -> str:
        """Sparse triplet text: header naming spaces, then 'row col value'."""
        lines = [f"# rows={self.rows} cols={self.cols} "
                 f"dst={self.dst.describe()} src={self.src.describe()}"]
        for (r, c) in sorted(self.entries):
            lines.append(f"{r} {c} {self.entries[(r, c)]}")
        return "\n".join(lines)

    def __repr__(self):
        return f"SparseMat({self.rows}x{self.cols}, nnz={len(self.entries)})"


def residue_at(point):
    """The map from an entry (RatFunc, Fraction or int) to its residue mod
    p = PRIME at q = `point`, as an int in [0, p).

    UnluckyPrime, naming the point, at once if the point vanishes mod p,
    and from the map if an entry's denominator does.
    """
    p = PRIME
    if not (x := rational_residue(Fraction(point), p)):
        raise UnluckyPrime(f"q = {point} vanishes mod {p}")

    def residue(v) -> int:
        try:
            return (v.residue(x, p) if isinstance(v, RatFunc)
                    else rational_residue(v, p))
        except UnluckyPrime as exc:
            raise UnluckyPrime(f"{exc} at q = {point}") from None
    return residue


def graded_kron(a: SparseMat, b: SparseMat) -> SparseMat:
    """Graded tensor product of operators.

    For parity-even b this is the ordinary Kronecker product; the odd part
    of b contributes (-1)^{[b-entry][v]} against odd source vectors v of a.
    """
    src = a.src.tensor(b.src)
    dst = a.dst.tensor(b.dst)
    bsd, bdd = b.src.dim, b.dst.dim
    pa_src = a.src.parities
    pb_src, pb_dst = b.src.parities, b.dst.parities
    out = {}
    for (i, f), va in a.entries.items():
        f_odd = pa_src[f]
        for (c, g), vb in b.entries.items():
            v = va * vb
            if f_odd and (pb_dst[c] + pb_src[g]) % 2:
                v = -v
            out[(i * bdd + c, f * bsd + g)] = v
    res = SparseMat(src, dst)
    res.entries = out
    return res


def kron_chain(mats) -> SparseMat:
    """Left-associated graded Kronecker product of a sequence."""
    mats = list(mats)
    out = mats[0]
    for m in mats[1:]:
        out = graded_kron(out, m)
    return out


def on_slots(token: SparseMat, t: int, slots: int):
    """The map v -> (id (x) T (x) id) v mod p = PRIME on sparse vectors
    (index -> int) of a tensor space of `slots` slots of one dimension D,
    T = `token` on slots t, t + 1 (from 0): T's residues mod p, on the
    D^2-dimensional space of two slots.

    In row-major order an index is hi * D^2 * low + pair * low + lo, with
    low = D^(slots - t - 2) and pair the index on T's slots, so T moves
    `pair` alone.  A ValueError if T has an odd entry: only an even T is
    placed by the plain Kronecker product, as `graded_kron` places it; an
    odd one picks up Koszul signs from the slots on its left.
    """
    src, dst = token.src.parities, token.dst.parities
    if any(src[k] != dst[i] for i, k in token.entries):
        raise ValueError("an odd two-slot operator is not placed by a plain "
                         "Kronecker product")
    low = isqrt(token.cols) ** (slots - t - 2)
    pairs, p = token.cols, PRIME
    cols = {}
    for (i, k), v in token.entries.items():
        cols.setdefault(k, []).append((i * low, v))

    def apply(vec: dict) -> dict:
        out = {}
        for idx, x in vec.items():
            pair = idx // low % pairs
            base = idx - pair * low
            for i, v in cols.get(pair, ()):
                out[base + i] = (out.get(base + i, 0) + v * x) % p
        return {i: v for i, v in out.items() if v}
    return apply


def tau(V: SuperSpace, W: SuperSpace) -> SparseMat:
    """Signed flip V (x) W -> W (x) V, v (x) w -> (-1)^{[v][w]} w (x) v."""
    out = SparseMat(V.tensor(W), W.tensor(V))
    for v in range(V.dim):
        for w in range(W.dim):
            sign = -1 if V.parities[v] and W.parities[w] else 1
            out.entries[(w * V.dim + v, v * W.dim + w)] = sign
    return out


# ---------------------------------------------------------------------------
# Exact rank / nullity.

def vectorize(m: SparseMat) -> dict:
    """Row-major vectorization of an operator: (r, c) -> r*cols + c."""
    cols = m.cols
    return {r * cols + c: v for (r, c), v in m.entries.items()}


def _int_row(row: dict) -> dict:
    """Clear denominators and content of a Fraction/int row."""
    mult = 1
    for v in row.values():
        if isinstance(v, Fraction) and v.denominator != 1:
            mult = lcm(mult, v.denominator)
    out = {}
    for k, v in row.items():
        w = int(v * mult) if mult != 1 else (
            int(v) if isinstance(v, Fraction) else v)
        if w:
            out[k] = w
    return out


def _specialize_row(row, point):
    return {k: (v.specialize(point) if isinstance(v, RatFunc) else v)
            for k, v in row.items()}


def int_rank(rows) -> int:
    """Exact rank over Q of Fraction/int rows.

    It ranks the osp span (Brauer images have int entries) and serves the
    exact fallbacks; the gl span is ranked mod p through `Echelon`.
    """
    return rank_of_int_rows([_int_row(r) for r in rows])


def ranks_at(rows, points) -> list[int]:
    """Exact rank of the specialised rows at each point, in order.

    The gl span is ranked mod p from residues (`SparseMat.residues`); exact
    ranks serve its fallbacks: `rank_at` in the exact closure, and the
    later points that the ranks mod p leave short or no certificate backs.
    """
    points = check_points(points)
    rows = list(rows)
    needs_points = any(isinstance(v, RatFunc) for r in rows for v in r.values())
    if not needs_points:
        return [int_rank(rows)] * len(points)
    return [int_rank([_specialize_row(r, p) for r in rows]) for p in points]


def rank_at(rows, points=DEFAULT_POINTS) -> int:
    """Max exact rank over the points: `max(ranks_at(...))`.

    Specialisation can only drop rank, so the max is a lower bound for the
    generic rank that is tight at generic points.  The exact gl closure
    (Hecke and walled) calls it at its one point.
    """
    return max(ranks_at(rows, points))


#: The working prime of every F_p kernel: 2^30 - 35, the largest prime below
#: 2^30.  CPython stores ints in 30-bit digits, so a residue is one digit and
#: the product of two residues at most two.
PRIME = 2 ** 30 - 35


def log_fallback(logger: str, msg: str, *args) -> None:
    """Log, at INFO on the named logger, that a fast path fell back.

    logging is imported here rather than at module level because it would
    add about 5 ms to importing qschur, and only fallbacks log.
    """
    import logging
    logging.getLogger(logger).info(msg, *args)


class Echelon:
    """Incremental sparse row echelon form over F_p, p = PRIME when built
    (one CPython digit, so each product `b * v` in `add` is at most two).
    The only mod-p row reduction of the package.

    `add(row)` reduces an int row mod p against the rows kept so far and
    keeps it if anything is left.  A kept row is stored fully reduced:
    normalised to 1 at its first free column, its pivot, and cleared at
    every later column that already has a pivot, so later rows meet fewer
    entries on their way down (structured Gaussian elimination).  Clearing
    a kept row by earlier pivots does not change the span, so `rank` after
    each row is the same as without it.  Reduction mod p can only lower a
    rank, so a row that `add` keeps is independent of the earlier rows over
    Q as well, and `rank` never exceeds the rank over Q of the rows added.
    Rows over Q reach it as residues (`SparseMat.residues`, which raises
    `UnluckyPrime` where a denominator vanishes mod p).

    `add(row, terms)` also records how a kept row was reduced: `terms` gets
    (a, None) for the given row and (a, c) for the stored row with pivot c,
    pivot 1 included, and the new stored row is the sum of the a times
    these, mod p.
    """

    def __init__(self):
        self.prime = PRIME
        self._pivots = {}  # col -> row, pivot 1 implied
        self.rank = 0

    def copy(self) -> "Echelon":
        """An echelon with the same kept rows, that adds rows on its own."""
        out = Echelon()
        out.prime, out._pivots, out.rank = (self.prime, dict(self._pivots),
                                            self.rank)
        return out

    def add(self, row: dict, terms: list | None = None) -> bool:
        """Reduce `row` (column -> int); True if it raised the rank."""
        p, pivots = self.prime, self._pivots
        # Entries are reduced mod p only when their column comes up, so
        # they may grow past p meanwhile.  A column is queued exactly once:
        # pivot rows only hold columns right of their pivot, so nothing
        # left of the column being cleared is ever touched again.
        red = dict(row)
        heap = list(red)
        heapify(heap)
        lead = lead_value = None
        tail = {}  # the free columns right of `lead`, reduced mod p
        cleared = []  # (b, c): b times the stored row at c was subtracted
        while heap:
            c = heappop(heap)
            b = red.pop(c) % p
            if not b:
                continue
            piv = pivots.get(c)
            if piv is None:
                if lead is None:
                    lead, lead_value = c, b
                else:
                    tail[c] = b
                continue
            if terms is not None:
                cleared.append((b, c))
            for k, v in piv.items():
                w = red.get(k)
                if w is None:
                    red[k] = -b * v
                    heappush(heap, k)
                else:
                    red[k] = w - b * v
        if lead is None:
            return False
        inv = pow(lead_value, -1, p)
        pivots[lead] = {k: v * inv % p for k, v in tail.items()}
        self.rank += 1
        if terms is not None:
            terms.append((inv, None))
            terms += [(-b * inv % p, c) for b, c in cleared]
        return True

    @property
    def pivot_columns(self) -> tuple[int, ...]:
        """The pivot column of each kept row, in the order kept.  On these
        columns alone the rows added so far still have rank `rank`: the
        kept rows restricted to them are unit triangular, and the rows
        that raised the rank are an invertible triangular combination of
        the kept rows."""
        return tuple(self._pivots)

    def rows_from(self, col: int) -> list[dict[int, int]]:
        """The kept rows whose pivot is at `col` or right of it, pivot 1
        included: a basis of the span's vectors that vanish left of `col`."""
        return [{c: 1, **row} for c, row in self._pivots.items() if c >= col]
