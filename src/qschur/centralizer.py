"""Centralizer dimensions versus diagram-image spans, exactly.

The commutant of a generator set on a tensor power is the nullspace of the
linear system [M, pi(x)] = 0 over all generators x; a map commuting with a
set that generates the algebra commutes with all of it.  For quantum gl
the set is e_i, f_i and K_a; for osp it is `osp.osp_generators`: the
Cartan elements and the simple root vectors, whose superbrackets are
checked to span the whole Lie superalgebra, and sigma for even m >= 2
(for other m, sigma acts on each tensor power by a scalar).  Diagonal
generators (the K_a at a rational point, the Cartan elements of osp) are
processed first: each kills the unknowns M[i, j] whose diagonal profiles
differ, which partitions the indices into classes; the remaining
commutator rows are assembled only over the surviving unknowns.  This is
an elimination order for the full honest system, not a reduction of it.

`fft_report` runs both flavors through one sequence of stages: the
symmetry generators, the diagram generators and membership, the set J
below, the span, the commutant (`commutant_dim_glq` /
`commutant_dim_osp`, over the generators the cell built), then the later
gl points.  One span closure (`functor.image_basis`) multiplies every
spanning image out of the diagram generators
(`functor.diagram_generators`: placed crossings, turnbacks, s_i and e_i),
and each of those is verified exactly to commute with every symmetry
generator; so every image does, and its span rank is a lower bound for
the commutant dimension.  In both flavors each image is kept only on the
columns of a set J of basis vectors that generates the module mod p (at
points[0] for quantum gl; `generating_columns`: from the top weight class
down, the lowering images of the classes above completed by the class's
own basis vectors), computed once per cell.  A combination of images
commutes with the generators, so if it vanishes on J it vanishes.  For
osp the generators have int entries, so J generates over Q too, and the
exact rank over Q of the Brauer images on J's columns is their rank on
all d columns; it is ranked with the columns in rarest-first order
(`_rarest_first`).  For quantum gl the closure is its own first point: it
keeps only the R images whose residues mod p at points[0] raise the rank
of an F_p `Echelon`, the same images as on all d columns, and the
commutant is certified against R.  A J that does not generate can only
lower R, which then misses the certificates below; where no J is found,
every column is kept.  Reduction mod p and specialisation can only lower
a rank, so

    rank_p(span at a) <= rank_Q(span at a) <= generic span rank
                      <= commutant dim <= nullity_p(rows) <= sum k_lam^2,

where nullity_p(rows) is the commutant dimension of the module reduced mod
p (at q = a for quantum gl).  The upper end comes from the primitive
vectors (`certify_primitive`).  The module mod p splits into the weight
classes of the diagonal generators; every other generator must map each
class into one class, and a linear functional on the root-datum weights
(`module_heights`) orients it as raising or lowering.  In class lam, P_lam
is the space of vectors that every raising generator kills, and k_lam is
its dimension; the raising generators are the simple e_i, whose joint
kernel is that of every positive root vector they generate.  If, from the
top class down, P_lam and the lowering images of the classes above span
each class, then the P_lam generate the module.
A commuting map keeps each P_lam and is fixed by what it does there, so
its dimension is at most sum k_lam^2.  For even-m osp sigma is not
diagonal: the functional vanishes on eps_l, sigma must square to 1 and
map each P_lam into the P of its image class, and the sum runs over the
sigma-orbits: k^2 for a pair of classes that sigma swaps, a^2 + b^2 for a
class it fixes (a, b: the dimensions of its +-1 eigenspaces on P_lam).
When the sum meets the span rank, `equal` is proved and recorded as a
`PrimitiveCertificate` (prime, point, blocks, generation rank); only
vectors of length d are reduced, and no d^2 system is built.

If a check fails, generation stops short, or the sum misses the span
rank, the fallback is logged and, wherever J was found, the spin
certificate decides (`certify_spin`).  A commuting map M is fixed by its
values on J, each a vector of e_j's weight class: U = sum over j in J of
|class(j)| unknowns.  J is first checked to generate mod p, from the top
class down.  Then M is built top down as linear forms in the unknowns
(M(L e_k) = L M(e_k) on the lowering images that span each class with
J's vectors, M(e_b) by solving that basis mod p), and each
constraint M(x e_b) = x M(e_b) goes to the F_p `Echelon` as soon as M is
built on its two classes, until U - rank meets the span rank; no row is
built past that stop, which proves `equal` and is recorded as a
`SpinCertificate` (prime, point, |J|, U, rows used, rank).  The system is
complete, so its nullity is nullity_p(rows): a miss means the rows would
miss too, and the exact path decides.  Of the benchmark cells, osp(2|2)
r=2 and osp(3|2) r=3 take this certificate: their primitive vectors do
not generate the module.  Where no J was found, or J fails the check, the
rows decide: survivors - rank_p(rows) bounds nullity_p(rows) from above
for any prefix of the commutant rows, so the rows are assembled one
symmetry generator at a time and fed to the `Echelon` until the two ends
of the chain meet, recorded as a `Certificate` (prime, point, rows used
of rows assembled, survivors, rank).  If the bounds never meet, or a
denominator vanishes mod p, the fallback is logged again and the exact
path decides: one nullity over Q for osp, or for quantum gl the least of
the exact nullities at the rational points, each of which is an upper
bound for the nullity over Q(q) (`least_nullity`).  Every certificate is
tried inside the one commutant call of a cell (`_certify`).
Only then are the later gl points ranked.  With a certificate, each
reduces only the kept images' entries in the R pivot columns of the
echelon; dropping columns can only lower a rank, so a point that reaches
R has the exact rank R, and the points short of it are ranked exactly on
the same images on J's columns.  J is only proved to generate at
points[0], but an exact rank on J's columns that reaches R is again the
exact rank R; the points still short are ranked exactly on the same
images rebuilt once on every column (logged).  Without one, the closure
is run again with exact ranks on every column: its image count is the
exact rank at points[0], and every later point is ranked exactly on its
images.  So `agreement` compares exact ranks, and gap verdicts always come
from exact arithmetic.  span_rank <= commutant_dim is asserted in every
case.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

from . import osp as osp_mod
from . import qgl, superspace
from .diagrams import brauer_count, quotient_relations
from .errors import MembershipError, UnluckyPrime, UsageError, check_power
from .functor import (EvalContext, check_image_cap, diagram_generators,
                      evaluate, image_basis, make_context)
from .rootdata import RootDatum, distinguished
from .scalar import RatFunc, qint, rational_residue
from .superspace import (DEFAULT_POINTS, Echelon, SparseMat, int_rank,
                         kron_chain, log_fallback, ranks_at, vectorize)

__all__ = [
    "FftReport", "fft_report", "commutant_dim_glq", "commutant_dim_osp",
    "check_membership", "RelationReport", "relation_check",
    "RELATION_ALGEBRA", "MembershipError", "commutant_nullity",
    "least_nullity", "Certificate", "certify_nullity",
    "PrimitiveCertificate", "certify_primitive", "module_heights",
    "generating_columns", "SpinCertificate", "certify_spin",
]

DEFAULT_UNKNOWN_BUDGET = 150_000  # max d**2 unknowns for a commutant cell


# ---------------------------------------------------------------------------
# Core nullity computation.

def _split_diagonal(gens: list[SparseMat], dim: int):
    """(diagonal generators, the others), in their given order."""
    diag, other = [], []
    for g in gens:
        if g.src.dim != dim or g.dst.dim != dim:
            raise ValueError("commutant generators must be square of the given size")
        (diag if all(r == c for (r, c) in g.entries) else other).append(g)
    return diag, other


def _profile_classes(diag: list[SparseMat], dim: int) -> list[list[int]]:
    """The basis indices grouped by their diagonal profile (the joint
    eigenspaces of the diagonal generators), in first-seen order."""
    profiles = {}
    for i in range(dim):
        profiles.setdefault(
            tuple(g.entries.get((i, i), 0) for g in diag), []).append(i)
    return list(profiles.values())


def assemble_commutant_rows(gens: list[SparseMat], dim: int):
    """(survivor count, constraint rows) for the system [M, P] = 0.

    Diagonal P pin every unknown M[i,j] whose diagonal profiles differ;
    the commutator rows of the remaining generators are then assembled
    over the surviving unknowns only (unknown id = i*dim + j, row-major),
    generator by generator in the given order.
    """
    diag, other = _split_diagonal(gens, dim)
    classes = _profile_classes(diag, dim)
    classmates = {}
    for members in classes:
        for i in members:
            classmates[i] = members
    survivors = sum(len(members) ** 2 for members in classes)
    rows: dict[tuple[int, int, int], dict[int, Fraction]] = {}

    def add(key, unknown, value):
        row = rows.setdefault(key, {})
        w = row.get(unknown, 0) + value
        if w:
            row[unknown] = w
        else:
            row.pop(unknown, None)

    for gid, P in enumerate(other):
        for (i, k), v in P.entries.items():
            for j in classmates[k]:
                add((gid, i, j), k * dim + j, v)
        for (k, j), v in P.entries.items():
            for i in classmates[k]:
                add((gid, i, j), i * dim + k, -v)
    return survivors, [r for r in rows.values() if r]


def commutant_nullity(gens: list[SparseMat], dim: int) -> int:
    """Exact nullity over Q of the system [M, P] = 0 for all P in gens."""
    survivors, rows = assemble_commutant_rows(gens, dim)
    return survivors - int_rank(rows)


@dataclass(frozen=True)
class Certificate:
    """Proof that a commutant dimension equals its known lower bound.

    Eliminating the first `rows_used` of the `rows_assembled` constraint
    rows mod `prime` (specialised at q = `point` for quantum gl, None for
    osp) gave `rank`, so the commutant dimension is at most survivors -
    rank, which equals the lower bound.  Rows are assembled one generator
    at a time, so `rows_assembled` stops at the generator where the bound
    was met.
    """
    prime: int
    point: str | None
    rows_used: int
    rows_assembled: int
    survivors: int
    rank: int


def _rarest_first(rows) -> dict[int, int]:
    """column -> its place in the rarest-first (Markowitz) order of `rows`:
    by how often the column occurs, ties by column.  Relabelling by it
    keeps the rank of every row prefix; an elimination that pivots on the
    least column then pivots on the rarest, with less fill-in."""
    counts = Counter(k for row in rows for k in row)
    return {k: i for i, k in enumerate(
        sorted(counts, key=lambda k: (counts[k], k)))}


def certify_nullity(gens: list[SparseMat], dim: int, lower_bound: int,
                    point=None) -> Certificate | None:
    """Certificate that the nullity of [M, P] = 0 equals `lower_bound`.

    `gens` have int/Fraction entries (specialised at `point` if quantum).
    The rows of one non-diagonal generator at a time (with the diagonal
    ones, which fix the survivors) are assembled and fed to the F_p
    echelon, in the order `assemble_commutant_rows(gens, dim)` gives them,
    until survivors - rank meets the bound; no further rows are built.
    The echelon pivots on the rarest columns first: the columns are
    relabelled by `_rarest_first` of the first batch's rows, and a column
    first seen later is appended as it appears, so the stop and the
    certificate are the same; only the fill-in shrinks.
    None, with the reason logged, if the bound is never met or a
    denominator vanishes mod p; the caller then takes the exact path.
    """
    diag, other = _split_diagonal(gens, dim)
    ech = Echelon()
    used = assembled = 0
    label = None  # column -> its place in the rarest-first order
    try:
        for batch in [diag + [P] for P in other] or [diag]:
            survivors, rows = assemble_commutant_rows(batch, dim)
            assembled += len(rows)
            if label is None:
                label = _rarest_first(rows)
            for row in rows:
                if survivors - ech.rank <= lower_bound:
                    break
                ech.add({label.setdefault(k, len(label)): v
                         for k, v in row.items()})
                used += 1
            if survivors - ech.rank <= lower_bound:
                break
    except UnluckyPrime as exc:
        log_fallback(__name__, "commutant certificate: %s; exact fallback",
                     exc)
        return None
    if survivors - ech.rank != lower_bound:
        log_fallback(__name__, "commutant certificate: nullity bound %d "
                     "after all %d rows does not meet the lower bound %d; "
                     "exact fallback", survivors - ech.rank, assembled,
                     lower_bound)
        return None
    return Certificate(ech.prime, None if point is None else str(point), used,
                       assembled, survivors, ech.rank)


# ---------------------------------------------------------------------------
# The primitive-vector certificate.

@dataclass(frozen=True)
class PrimitiveCertificate:
    """Proof of a commutant dimension from the module's primitive vectors.

    Mod `prime` (at q = `point` for quantum gl, None for osp), the weight
    classes of the `dim`-dimensional module and their primitive spaces
    P_lam, killed by every raising generator, span the module under the
    lowering generators: `generation_rank` = `dim`.  So a commuting map is
    fixed by the maps P_lam -> P_lam it restricts to, and the commutant
    dimension is at most `bound`, the sum of the squares of `blocks`: one
    k_lam = dim P_lam per class, or with sigma one k per swapped pair of
    classes and the dimensions a, b of the sigma = +-1 eigenspaces on the
    P_lam of a fixed class.
    """
    prime: int
    point: str | None
    blocks: tuple[int, ...]
    generation_rank: int
    dim: int

    @property
    def bound(self) -> int:
        return sum(k * k for k in self.blocks)


class _NotPrimitive(Exception):
    """A check of the primitive certificate failed; the message says which."""


def _columns(mat: SparseMat) -> dict[int, list[tuple[int, int]]]:
    cols = {}
    for (i, k), v in mat.entries.items():
        cols.setdefault(k, []).append((i, v))
    return cols


def _apply(cols, vec: dict, p: int) -> dict:
    """The operator with columns `cols` applied to `vec`, mod p."""
    out = {}
    for k, x in vec.items():
        for i, v in cols.get(k, ()):
            out[i] = (out.get(i, 0) + v * x) % p
    return {i: v for i, v in out.items() if v}


def _rank(vectors) -> int:
    ech = Echelon()
    for vec in vectors:
        ech.add(vec)
    return ech.rank


def _functional(datum: RootDatum) -> list[int]:
    """Powers of 3 read along the datum's ordering.

    A root's coefficients lie in [-2, 2], so its first nonzero one decides
    the sign: the functional is positive exactly on the positive roots.
    For even-m osp the coefficient of eps_l is 0, so that sigma, which
    negates eps_l, keeps every value.
    """
    even_osp = datum.algebra == "osp" and datum.m % 2 == 0
    f = [0] * datum.rank
    count = len(datum.ordering)
    for pos, sym in enumerate(datum.ordering):
        if not (even_osp and sym == ("e", datum.eps_count)):
            f[datum.weight_of(sym).index(1)] = 3 ** (count - 1 - pos)
    return f


def module_heights(datum: RootDatum, signs) -> tuple[int, ...]:
    """The functional of `_functional` on the weight of each basis vector of
    V^{s_1} (x) ... (x) V^{s_k}, s_j = +-1 (V* carries minus the weights)."""
    f = _functional(datum)
    base = [sum(a * b for a, b in zip(f, w)) for w, _ in datum.module_weights()]
    out = [0]
    for sign in signs:
        out = [h + sign * b for h in out for b in base]
    return tuple(out)


def _orient(other, heights, cls):
    """(raising, lowering, sigma) column maps of the non-diagonal residue
    generators, with sigma's map of classes.

    Each generator must map every weight class into one class, and move
    the height by one amount: raising if positive, lowering if negative.
    At most one generator moves no height; it is sigma.
    """
    raising, lowering, sigma = [], [], None
    for j, g in enumerate(other):
        shifts = {heights[i] - heights[k] for (i, k) in g.entries}
        target = {}
        for (i, k) in g.entries:
            if target.setdefault(cls[k], cls[i]) != cls[i]:
                raise _NotPrimitive(f"generator {j} splits a weight class")
        if len(shifts) != 1:
            raise _NotPrimitive(f"generator {j} is not weight-homogeneous")
        shift = shifts.pop()
        if shift > 0:
            raising.append(_columns(g))
        elif shift < 0:
            lowering.append(_columns(g))
        elif sigma is None:
            sigma = (g, target)
        else:
            raise _NotPrimitive("two generators keep every height")
    return raising, lowering, sigma


def _primitive_spaces(classes, raising, dim: int) -> list[list[dict]]:
    """A basis of P_lam per class: the rows [E(v) for E raising | v] of the
    class's basis vectors v, eliminated with the E-part first; the kept
    rows that vanish there give the kernel."""
    off = len(raising) * dim
    spaces = []
    for members in classes:
        ech = Echelon()
        for k in members:
            row = {off + k: 1}
            for t, cols in enumerate(raising):
                for i, v in cols.get(k, ()):
                    row[t * dim + i] = v
            ech.add(row)
        spaces.append([{c - off: v for c, v in row.items()}
                       for row in ech.rows_from(off)])
    return spaces


def _spin(classes, heights, cls, lowering, seeds) -> list[tuple]:
    """From the top class down, span each class by the lowering images of
    the classes above, then by its `seeds` (a list of vectors per class);
    (class, picked, reduced) per class, and _NotPrimitive if a class stays
    short.

    `picked` lists the vectors that raised the rank: (L, k) for a lowering
    image L e_k, (None, v) for a seed v.  Each picked vector is reduced mod
    p against the earlier ones as `Echelon.add` reduces a row, pivoting on
    its least free column: `reduced` lists (lead, terms, row) in order, the
    reduced vector being 1 at lead and `row` right of it, and the sum of
    a * key over its (a, key) terms, where ("v", t) is the t-th picked
    vector and ("r", l) the reduced vector with lead l.  Solving back from
    the largest lead down writes each e_b in the picked vectors.
    """
    p = superspace.PRIME
    images = [[] for _ in classes]
    for L in lowering:
        for k, col in L.items():
            images[cls[col[0][0]]].append((L, k))
    bases = []
    for c in sorted(range(len(classes)), key=lambda c: -heights[classes[c][0]]):
        size = len(classes[c])
        pivots = {}  # lead -> the reduced vector right of it
        picked, reduced = [], []
        for L, k in images[c] + [(None, v) for v in seeds[c]]:
            if len(picked) == size:
                break
            vec = dict(k) if L is None else dict(L[k])
            heap = list(vec)
            heapify(heap)
            terms, lead, tail = [(1, ("v", len(picked)))], None, {}
            while heap:
                col = heappop(heap)
                b = vec.pop(col) % p
                if not b:
                    continue
                if col not in pivots:
                    if lead is None:
                        lead, lead_value = col, b
                    else:
                        tail[col] = b
                    continue
                terms.append((-b, ("r", col)))
                for i, v in pivots[col].items():
                    if i not in vec:
                        heappush(heap, i)
                    vec[i] = vec.get(i, 0) - b * v
            if lead is None:
                continue
            inv = pow(lead_value, -1, p)
            pivots[lead] = {i: v * inv % p for i, v in tail.items()}
            reduced.append((lead, [(a * inv % p, key) for a, key in terms],
                            pivots[lead]))
            picked.append((L, k))
        if len(picked) < size:
            raise _NotPrimitive(
                f"generation stops at a weight class of size {size} (height "
                f"{heights[classes[c][0]]}) at rank {len(picked)}")
        bases.append((c, picked, reduced))
    return bases


def _sigma_blocks(sigma, prim, raising, p: int) -> list[int]:
    """Block sizes of the sigma-orbit sum, after checking sigma^2 = 1 and
    that sigma maps each P_lam into the P of its image class."""
    g, target = sigma
    if g.matmul_mod(g) != SparseMat.identity(g.src):
        raise _NotPrimitive("sigma^2 != 1")
    # sigma^2 = 1 makes sigma a bijection, so `target` is an involution of
    # the classes and sigma maps each P_lam onto the P of its image
    cols = _columns(g)
    blocks = []
    for c, basis in enumerate(prim):
        image = [_apply(cols, v, p) for v in basis]
        if any(_apply(e, w, p) for w in image for e in raising):
            raise _NotPrimitive("sigma does not map primitive vectors to "
                                "primitive vectors")
        if target[c] != c:
            if c < target[c]:
                blocks.append(len(basis))
            continue
        a = _rank({i: w.get(i, 0) + v.get(i, 0) for i in w.keys() | v}
                  for v, w in zip(basis, image))
        b = _rank({i: w.get(i, 0) - v.get(i, 0) for i in w.keys() | v}
                  for v, w in zip(basis, image))
        if a + b != len(basis):
            raise _NotPrimitive("sigma is not diagonalisable on a fixed P")
        blocks += [a, b]
    return blocks


def _weight_split(gens: list[SparseMat], heights, point):
    """(classes, cls, raising, lowering, sigma) of the generators mod p:
    the weight classes, each basis vector's class, and `_orient`'s maps.

    `gens` have int/Fraction entries (osp), or RatFunc entries reduced at
    q = `point` (quantum gl).  UnluckyPrime if a denominator vanishes mod
    p; _NotPrimitive if the diagonal generators do not separate the
    heights or `_orient` fails.
    """
    p = superspace.PRIME
    dim = len(heights)
    mats = [g.map_values(lambda v: rational_residue(v, p))
            if point is None else g.residues(point) for g in gens]
    diag, other = _split_diagonal(mats, dim)
    classes = _profile_classes(diag, dim)
    if any(heights[i] != heights[members[0]]
           for members in classes for i in members):
        raise _NotPrimitive("the diagonal generators do not separate the "
                            "heights mod p")
    cls = [0] * dim
    for c, members in enumerate(classes):
        for i in members:
            cls[i] = c
    return (classes, cls) + _orient(other, heights, cls)


def certify_primitive(gens: list[SparseMat], heights, lower_bound: int,
                      point=None, split=None) -> PrimitiveCertificate | None:
    """Certificate that the commutant of `gens` has dimension `lower_bound`,
    from the primitive vectors of the module mod p.

    `gens` have int/Fraction entries (osp), or RatFunc entries reduced at
    q = `point` (quantum gl); `heights` gives each basis vector's weight
    under a functional that orients the generators (`module_heights`).
    The weight classes are the joint eigenspaces of the diagonal generators
    mod p.  None, with the failed check logged, if a denominator vanishes
    mod p, the diagonal generators do not separate the heights, a
    generator is not homogeneous, generation or a sigma check fails, or
    the bound misses `lower_bound`; the caller then takes the next
    certificate (`_certify`).  Only vectors of length dim are reduced; no
    d^2 system is built.  `split` is the `_weight_split` of `gens` at
    `point` when the caller already has it (`generating_columns` returns
    it).
    """
    p = superspace.PRIME
    dim = len(heights)
    try:
        classes, cls, raising, lowering, sigma = (
            split or _weight_split(gens, heights, point))
        prim = _primitive_spaces(classes, raising, dim)
        _spin(classes, heights, cls, lowering, prim)
        blocks = ([len(basis) for basis in prim] if sigma is None
                  else _sigma_blocks(sigma, prim, raising, p))
    except (UnluckyPrime, _NotPrimitive) as exc:
        log_fallback(__name__, "primitive certificate: %s; next certificate",
                     exc)
        return None
    cert = PrimitiveCertificate(p, None if point is None else str(point),
                                tuple(sorted((k for k in blocks if k),
                                             reverse=True)), dim, dim)
    if cert.bound != lower_bound:
        log_fallback(__name__, "primitive certificate: bound %d does not "
                     "meet the lower bound %d; next certificate", cert.bound,
                     lower_bound)
        return None
    return cert


def generating_columns(gens: list[SparseMat], heights, point=None):
    """(J, split): the basis vectors of a set J that generates the module
    mod p, and the `_weight_split` they were read from.

    From the top weight class down, each class is spanned by the lowering
    images of the classes above and then by its own basis vectors e_k; J
    is the e_k that raised the rank, so the lowering generators spin J
    into the whole module.  `gens` and `point` are as for
    `certify_primitive`, which takes `split` so that the residues are
    reduced once per cell.  (None, None), with the reason logged, if a
    denominator vanishes mod p or a check of `_weight_split` fails.
    """
    try:
        split = _weight_split(gens, heights, point)
    except (UnluckyPrime, _NotPrimitive) as exc:
        log_fallback(__name__, "generating columns at q = %s: %s", point, exc)
        return None, None
    classes, cls, _, lowering, _ = split
    seeds = [[{k: 1} for k in members] for members in classes]
    bases = _spin(classes, heights, cls, lowering, seeds)
    return tuple(sorted(k for _, picked, _ in bases
                        for L, vec in picked if L is None for k in vec)), split


# ---------------------------------------------------------------------------
# The spin certificate.

@dataclass(frozen=True)
class SpinCertificate:
    """Proof of a commutant dimension from a map's values on a set J.

    Mod `prime` (at q = `point` for quantum gl, None for osp) the `columns`
    basis vectors e_j of J generate the module, so a commuting map M is
    fixed by the M(e_j), each a vector of e_j's weight class: `unknowns`
    values in all.  Eliminating the first `rows_used` rows of the system
    M(x e_b) = x M(e_b) gave `rank`, so the commutant dimension is at most
    unknowns - rank, which equals the lower bound.
    """
    prime: int
    point: str | None
    columns: int
    unknowns: int
    rows_used: int
    rank: int


def _combine(terms, p: int) -> dict:
    """sum a * forms over the (a, forms) `terms`, where forms are maps
    {row: {unknown: coefficient}}, mod p."""
    out = {}
    for a, forms in terms:
        for i, form in forms.items():
            acc = out.setdefault(i, {})
            for u, w in form.items():
                acc[u] = acc.get(u, 0) + a * w
    return {i: {u: w % p for u, w in acc.items()} for i, acc in out.items()}


def _act(x, forms: dict, p: int) -> dict:
    """The generator with columns `x` applied to the forms M(v), mod p."""
    return _combine([(v, {i: form}) for k, form in forms.items()
                     for i, v in x.get(k, ())], p)


def _spin_rows(classes, cls, gens, bases, unknowns: int, p: int):
    """The rows of M(x e_b) = x M(e_b) over the generators `gens` (column
    maps) and the basis vectors b, each as soon as M is built on the
    classes of b and of x e_b.  A generator that kills a whole class gives
    only zero rows there (M keeps the class), so those pairs are skipped.
    M is built class by class from `_spin`'s `bases`: fresh unknowns on a
    picked seed e_j, L M(e_k) on a picked L e_k, then the reduced vectors,
    and each e_b solved back from them.

    The unknowns are numbered down from `unknowns` - 1 as their classes
    are built, so the echelon pivots on the latest ones first: an unknown
    of a class high up reaches every class below it, and pivoting on it
    last keeps the stored rows short (on walled gl(2|1) r=3 s=2 this
    halves the time)."""
    moves = []  # per generator: ({class: its image class}, {image: classes})
    for x in gens:
        target, sources = {}, {}
        for k, col in x.items():
            target[cls[k]] = cls[col[0][0]]
            sources.setdefault(cls[col[0][0]], set()).add(cls[k])
        moves.append((target, sources))
    M = {}  # basis vector b -> M(e_b) as {row: {unknown: coefficient}}
    built = set()
    for c, picked, reduced in bases:
        vals = {}
        for t, (L, k) in enumerate(picked):
            if L is None:
                unknowns -= len(classes[c])
                vals["v", t] = {i: {unknowns + u: 1}
                                for u, i in enumerate(classes[c])}
            else:
                vals["v", t] = _act(L, M[k], p)
        for lead, terms, _ in reduced:
            vals["r", lead] = _combine([(a, vals[key]) for a, key in terms], p)
        for lead, _, row in sorted(reduced, key=lambda r: -r[0]):
            M[lead] = _combine([(1, vals["r", lead])] + [
                (-v, M[i]) for i, v in row.items()], p)
        built.add(c)
        for x, (target, sources) in zip(gens, moves):
            pairs = sorted(sources.get(c, set()) & built)
            if target.get(c, c) != c and target[c] in built:
                pairs.append(c)
            for b in (b for src in pairs for b in classes[src]):
                lhs = _combine([(v, M[i]) for i, v in x.get(b, ())], p)
                rhs = _act(x, M[b], p)
                for i in lhs.keys() | rhs.keys():
                    left, right = lhs.get(i, {}), rhs.get(i, {})
                    row = {u: w for u in left.keys() | right.keys()
                           if (w := (left.get(u, 0) - right.get(u, 0)) % p)}
                    if row:
                        yield row


def certify_spin(split, heights, cols, lower_bound: int,
                 point=None) -> SpinCertificate | None:
    """Certificate that the commutant has dimension `lower_bound`, from the
    values of a commuting map M on the basis vectors J = `cols`.

    `split` is the `_weight_split` of the generators mod p that J was read
    from (`generating_columns`), and `heights` are as for
    `certify_primitive`.  First, from the top weight class down, each class
    must be spanned by the lowering images of the classes above and then
    by its vectors of J; if one stays short, _NotPrimitive, and the caller
    takes the row certificate.  Then M is built top down as linear forms
    in the unknowns M(e_j), j in J, each a vector of e_j's class: on each
    class, M(L e_k) = L M(e_k) on the picked lowering images, and M(e_b)
    follows by a sparse LU solve of the picked basis mod p.  Each
    constraint M(x e_b) = x M(e_b), for a generator x that is not diagonal
    (raising, lowering or sigma) and a basis vector b, is fed to the F_p
    `Echelon` as soon as M is built on the classes of b and of x e_b,
    pairs with x e_b = 0 included, until unknowns - rank meets
    `lower_bound`; no row is built past that stop.

    Soundness: J generates the module mod p and each basis change is
    invertible mod p, so a map that commutes mod p is fixed by its values
    on J, and the values of every such map satisfy the constraints; with
    every pair present, any values that satisfy them build a map that
    commutes.  So the nullity of the whole system is nullity_p(rows), the
    commutant dimension mod p, which is at least the dimension over Q at
    the point (module docstring), and unknowns - rank bounds it from above
    for any prefix of the rows.  A miss after every row therefore means
    nullity_p(rows) exceeds the span rank, so the rows would miss too:
    None, logged, and the caller takes the exact path.
    """
    p = superspace.PRIME
    classes, cls, raising, lowering, sigma = split
    seeds = [[] for _ in classes]
    for j in cols:
        seeds[cls[j]].append({j: 1})
    bases = _spin(classes, heights, cls, lowering, seeds)
    sizes = [len(classes[c]) for c, picked, _ in bases
             for L, _ in picked if L is None]
    unknowns = sum(sizes)
    gens = raising + lowering + ([] if sigma is None else [_columns(sigma[0])])
    ech, used = Echelon(), 0
    rows = _spin_rows(classes, cls, gens, bases, unknowns, p)
    while unknowns - ech.rank > lower_bound and (row := next(rows, None)):
        ech.add(row)
        used += 1
    if unknowns - ech.rank != lower_bound:
        log_fallback(__name__, "spin certificate: nullity bound %d after all "
                     "%d rows does not meet the lower bound %d; exact "
                     "fallback", unknowns - ech.rank, used, lower_bound)
        return None
    return SpinCertificate(p, None if point is None else str(point),
                           len(sizes), unknowns, used, ech.rank)


# ---------------------------------------------------------------------------
# Commutant dimensions.

def _check_unknowns(dim_v: int, factors: int, budget: int) -> int:
    """d = dim_v^factors, once the d^2 commutant unknowns fit the budget."""
    check_power(dim_v, 2 * factors, budget, "commutant unknowns")
    return dim_v ** factors


def _glq_generator_mats(datum: RootDatum, r: int, s: int = 0):
    rep = qgl.natural_rep(datum)
    signs = (1,) * r + (-1,) * s
    return [qgl.act_on_signs(rep, gen, signs)
            for gen in qgl.generator_names(datum)]


def _osp_generator_mats(m: int, n: int, r: int):
    lie, group = osp_mod.osp_generators(m, n)
    gens = [osp_mod.leibniz_tensor(X, r) for X in lie]
    if group is not None:
        gens.append(kron_chain([group] * r))
    return gens


def least_nullity(gens, d, points) -> int:
    """Least exact nullity of the system specialised at the points.

    Specialising q can only lower the rank of the constraint rows, so each
    specialised nullity bounds the nullity over Q(q) from above; at a
    generic point it is equal.
    """
    return min(commutant_nullity([g.specialize(p) for g in gens], d)
               for p in points)


def _certify(gens, d: int, lower_bound: int, heights, point, cols, split):
    """The first certificate of the chain that meets `lower_bound`, or None
    for the exact path: the primitive certificate, then the spin
    certificate on J = `cols`, then the rows (`certify_nullity`), which run
    only where no J was found or J fails the spin certificate's generation
    check.  On a J that generates, the spin system is complete, so the
    rows could not meet a bound that it misses."""
    cert = certify_primitive(gens, heights, lower_bound, point, split)
    if cert is not None:
        return cert
    if cols is not None:
        try:
            return certify_spin(split, heights, cols, lower_bound, point)
        except _NotPrimitive as exc:
            log_fallback(__name__, "spin certificate: %s; row certificate",
                         exc)
    if point is not None:
        gens = [g.specialize(point) for g in gens]
    return certify_nullity(gens, d, lower_bound, point)


def commutant_dim_glq(gens, d: int, points, lower_bound: int, heights,
                      cols=None, split=None):
    """(dim, certificate) for the quantum gl symmetry generators `gens`.

    dim End_{U_q} of the d-dimensional module whose basis vectors have the
    given `heights` (`module_heights`): at points[0] the certificates are
    tried in `_certify`'s order against the proved `lower_bound` (the span
    rank), with `cols` and `split` from `generating_columns`; the
    certificate is None where `least_nullity` decided.
    """
    cert = _certify(gens, d, lower_bound, heights, points[0], cols, split)
    if cert is None:
        return least_nullity(gens, d, points), None
    return lower_bound, cert


def commutant_dim_osp(gens, d: int, lower_bound: int, heights, cols=None,
                      split=None):
    """(dim, certificate) for the osp symmetry generators `gens`.

    dim End of the Harish-Chandra pair action on the d-dimensional module
    whose basis vectors have the given `heights`: the certificates are
    tried in `_certify`'s order against `lower_bound`, with `cols` and
    `split` from `generating_columns`; the certificate is None where the
    exact nullity over Q decided.
    """
    cert = _certify(gens, d, lower_bound, heights, None, cols, split)
    if cert is None:
        return commutant_nullity(gens, d), None
    return lower_bound, cert


# ---------------------------------------------------------------------------
# Membership.

def check_membership(images: dict, gens) -> None:
    """Every image must commute with every generator, exactly.

    `images` maps names to images, as `diagram_generators` returns them;
    the error names the failing one.  A diagonal generator K commutes with
    an image D exactly when K_ii = K_jj at every nonzero D_ij, so it is
    checked on D's entries without a product; any other generator by
    comparing D K with K D.
    """
    diagonals = [{i: v for (i, _), v in g.entries.items()}
                 if all(i == k for (i, k) in g.entries) else None
                 for g in gens]
    for name, img in images.items():
        for j, (gen, diag) in enumerate(zip(gens, diagonals)):
            if diag is None:
                commutes = (img @ gen) == (gen @ img)
            else:
                commutes = all(diag.get(i, 0) == diag.get(k, 0)
                               for (i, k) in img.entries)
            if not commutes:
                raise MembershipError(f"diagram generator {name} does not "
                                      f"centralise symmetry generator {j}")


# ---------------------------------------------------------------------------
# Reports.

@dataclass
class FftReport:
    flavor: str
    m: int
    n: int
    r: int
    s: int
    commutant_dim: int
    span_rank: int
    points: list[str]
    agreement: bool
    verdict: str
    bound: int | None = None
    bound_lhs: int | None = None
    bound_ok: bool | None = None
    wall_clock_ms: int | None = None
    #: proof of `equal`; None where the exact fallback decided (not in JSON)
    certificate: (PrimitiveCertificate | SpinCertificate | Certificate
                  | None) = None

    @property
    def equal(self) -> bool:
        return self.verdict == "equal"

    def to_dict(self, with_timing: bool = False) -> dict:
        out = {
            "flavor": self.flavor, "m": self.m, "n": self.n,
            "r": self.r, "s": self.s,
            "commutant_dim": self.commutant_dim, "span_rank": self.span_rank,
            "points": self.points, "agreement": self.agreement,
            "verdict": self.verdict,
        }
        if self.bound is not None:
            out["bound"] = self.bound
            out["bound_lhs"] = self.bound_lhs
            out["bound_ok"] = self.bound_ok
        if with_timing:
            out["wall_clock_ms"] = self.wall_clock_ms
        return out


# A gl cell keeps the images its closure kept mod p through the commutant
# stage, to rank its later points on them; the closure itself, not the
# commutant, sets the peak memory of the heavy cells.

def _pivot_ranks(images, ech: Echelon, points) -> list[int]:
    """Ranks mod p at the points of the images the gl closure kept in `ech`.

    The closure (`image_basis`) keeps, at points[0], the R images that
    raise the rank of `ech`; that echelon gives R and the R pivot columns,
    on which the kept images carry an R x R minor that is nonsingular mod
    p.  Every later point b reduces only the kept images' entries in those
    columns.  Dropping columns can only lower a rank, so each rank is a
    lower bound for the exact rank at its point and none exceeds R.  Once
    the commutant dimension is certified to be R,

        rank_p(minor at b) <= rank_p(span at b) <= rank_Q(span at b)
                           <= generic span rank <= commutant dim = R,

    so a later point that reaches R has the exact rank R.  A later point
    short of R, or one whose denominators vanish mod p (counted 0), is
    logged, and `fft_report` ranks it exactly on the same images.
    """
    keys = [divmod(c, images[0].cols) for c in ech.pivot_columns]
    ranks = [ech.rank]
    for point in points[1:]:
        ech = Echelon()
        try:
            for img in images:
                ech.add(vectorize(img.residues(point, keys)))
        except UnluckyPrime as exc:
            log_fallback(__name__, "span rank at q = %s: %s; exact rank",
                         point, exc)
            ranks.append(0)
            continue
        ranks.append(ech.rank)
        if ech.rank < len(images):
            log_fallback(__name__, "span rank at q = %s on %d pivot columns: "
                         "rank %d of %d; exact rank", point, len(keys),
                         ech.rank, len(images))
    return ranks


def _check_cell(flavor: str, r: int, s: int, points) -> None:
    """Reject a malformed cell before any work starts."""
    if flavor not in ("gl", "osp"):
        raise ValueError(f"unknown fft flavor {flavor!r}")
    if r < 1:
        raise ValueError(f"tensor power r must be at least 1, got {r}")
    if s < 0:
        raise ValueError(f"dual tensor factors s must be at least 0, got {s}")
    if flavor == "osp" and s:
        raise ValueError("dual tensor factors s apply to gl only; the osp "
                         "natural module is self-dual")
    values = [Fraction(p) for p in points]
    if not values:
        raise ValueError("at least one specialisation point is required")
    if len(set(values)) != len(values):
        raise ValueError("specialisation points repeat a point: "
                         + ", ".join(map(str, values)))
    if {0, 1, -1} & set(values):
        raise ValueError("specialisation points must avoid 0, 1 and -1")


def fft_report(flavor: str, m: int, n: int, r: int, s: int = 0,
               points=DEFAULT_POINTS,
               budget: int = DEFAULT_UNKNOWN_BUDGET) -> FftReport:
    """Run both sides of one fundamental-theorem cell and compare.

    flavor "gl": quantum gl(m|n), Hecke images (walled when s > 0).
    flavor "osp": classical osp(m|2n) with the sigma-extended pair and
    Brauer images; for even m the spanning bound 2r < m(2n+1) is recorded.
    The stages run in order: the symmetry generators, the diagram
    generators and membership, the set J of `generating_columns`, the span
    on J's columns (exact over Q for osp, the closure's first point for
    gl), the commutant certified against the first point's span rank, then
    the later gl points (see the module docstring).  A malformed
    cell (r < 1, s < 0, s > 0 for osp, or points that are empty, repeated,
    or among 0 and +-1) raises ValueError before any work starts.
    """
    t0 = time.monotonic()
    points = list(points)
    _check_cell(flavor, r, s, points)
    datum = distinguished(flavor, m, n)
    if flavor == "gl":
        d = _check_unknowns(qgl.natural_space(datum).dim, r + s, budget)
        ctx = make_context("glq", datum=datum, budget=budget)
        kind = "hecke" if s == 0 else "walled"
        check_image_cap(kind, r, s)  # before any generator is built
        gens, point = _glq_generator_mats(datum, r, s), points[0]
    else:
        d = _check_unknowns(osp_mod.natural_space(m, n).dim, r, budget)
        ctx = make_context("osp_classical", m=m, n=n, budget=budget)
        kind = "brauer"
        brauer_count(r)  # before any generator is built
        gens, point = _osp_generator_mats(m, n, r), None
    heights = module_heights(datum, (1,) * r + (-1,) * s)
    # Every image is a product of the diagram generators, so once those are
    # checked to centralise the symmetry generators, the span rank is a
    # lower bound for the commutant dimension.
    dgens = diagram_generators(kind, ctx, r, s)
    check_membership(dgens, gens)
    # the images are ranked on the columns of J, which generates the module
    # mod p (at points[0] for gl); None keeps every column
    cols, split = generating_columns(gens, heights, point)
    if flavor == "osp":
        # int generators that generate mod p generate over Q: the exact
        # rank on J's columns is the exact rank on every column
        images = image_basis(kind, ctx, r, s, points, None, cols, dgens)
        rows = [vectorize(img) for img in images]
        label = _rarest_first(rows)
        ranks = [int_rank([{label[k]: v for k, v in row.items()}
                           for row in rows])]
        cdim, cert = commutant_dim_osp(gens, d, ranks[0], heights, cols,
                                       split)
    else:
        ech = Echelon()
        try:
            images = image_basis(kind, ctx, r, s, points, ech, cols, dgens)
        except UnluckyPrime as exc:
            # no certificate can meet a span rank of 0: the exact path decides
            log_fallback(__name__, "span closure at q = %s: %s; exact path",
                         points[0], exc)
            images = []
        cdim, cert = commutant_dim_glq(gens, d, points, len(images), heights,
                                       cols, split)
        if cert is None:
            # the exact closure keeps the images independent at points[0],
            # so their count is its exact rank; every later point is short
            images = image_basis(kind, ctx, r, s, points)
            ranks = [len(images)] + [0] * len(points[1:])
        else:
            ranks = _pivot_ranks(images, ech, points)
        # rank_p <= rank_Q <= ranks[0] at every point: only the points short
        # of ranks[0] need an exact rank, of the same images
        short = [a for a, rk in zip(points, ranks) if rk < ranks[0]]
        exact = dict(zip(short, ranks_at(
            [vectorize(img) for img in images], short))) if short else {}
        short = [a for a in short if exact[a] < ranks[0]]
        if short and cert is not None and cols is not None:
            # dropping columns can only lower a rank, so an exact rank on
            # J's columns that reaches ranks[0] is exact; J may not generate
            # at the other points: rebuild the same images on every column
            log_fallback(__name__, "short on J's columns at q = %s; full "
                         "images", ", ".join(map(str, short)))
            images = image_basis(kind, ctx, r, s, points, Echelon(), None,
                                 dgens)
            exact.update(zip(short, ranks_at(
                [vectorize(img) for img in images], short)))
        ranks = [exact.get(a, rk) for a, rk in zip(points, ranks)]
    srank = max(ranks)
    agreement = len(set(ranks)) == 1
    bound = bound_lhs = bound_ok = None
    if flavor == "osp" and m % 2 == 0:
        bound, bound_lhs = m * (2 * n + 1), 2 * r
        bound_ok = bound_lhs < bound
    if srank > cdim:
        raise MembershipError(
            f"span rank {srank} exceeds commutant dimension {cdim}; "
            "this indicates a sign-convention bug")
    verdict = "equal" if srank == cdim else f"gap({cdim - srank})"
    ms = int((time.monotonic() - t0) * 1000)
    return FftReport(flavor, m, n, r, s, cdim, srank,
                     [str(p) for p in points], agreement, verdict,
                     bound, bound_lhs, bound_ok, ms, cert)


# ---------------------------------------------------------------------------
# Relation checks.

@dataclass
class RelationReport:
    kind: str
    items: list  # (name, ok, residual description)

    @property
    def all_zero(self) -> bool:
        return all(ok for _, ok, _ in self.items)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "all_zero": self.all_zero,
                "items": [{"name": nm, "zero": ok, "residual": res}
                          for nm, ok, res in self.items]}


def _placed_sum(ctx: EvalContext, relation, r: int, i: int) -> SparseMat:
    """Image of a 2-strand word relation at strands (i, i+1) of V^{(x) r}."""
    iV = SparseMat.identity(ctx.V)
    total = None
    for coeff, word in relation.terms:
        mat = evaluate(word, ctx)
        placed = kron_chain([iV] * (i - 1) + [mat] + [iV] * (r - i - 1))
        placed = placed.scale(coeff)
        total = placed if total is None else total + placed
    return total


#: The algebra whose natural module each relation family is checked on.
RELATION_ALGEBRA = {"hecke": "gl", "walledbmw": "gl", "bmw": "osp",
                    "brauer": "osp"}


def relation_check(kind: str, m: int, n: int, r: int = 2,
                   z=None, budget: int = 4096) -> RelationReport:
    """Push a quotient-relation family through the functor; assert zeros.

    V is the natural module of the family's algebra (RELATION_ALGEBRA).
    Relations are placed on r >= 2 strands, and BudgetError is raised
    before anything is built when dim(V)^r exceeds the budget.  `z` is the
    walled loop parameter (default [m-n]_q): UsageError for any family but
    walledbmw.  The bmw family is checked in the spectral model, which has
    no strands and builds no tensor power: it takes only r = 2 and no
    budget applies.
    """
    if kind not in RELATION_ALGEBRA:
        raise ValueError(f"unknown relation family {kind!r}")
    if z is not None and kind != "walledbmw":
        raise UsageError("z is the walled loop parameter; it applies to the "
                         "walledbmw family only")
    if r < 2:
        raise ValueError(f"a relation spans two strands; got r = {r}")
    if kind == "bmw" and r != 2:
        raise ValueError(f"the bmw family is checked in the spectral model, "
                         f"which has no strands; r must be 2, got {r}")
    d = m + n if RELATION_ALGEBRA[kind] == "gl" else m + 2 * n
    if kind != "bmw":
        check_power(d, r, budget, "dimension of V^(x)r")
    items = []
    if kind in ("hecke", "walledbmw"):
        ctx = make_context("glq", datum=distinguished("gl", m, n),
                           budget=budget)
        z = qint(m - n) if z is None else z
        for rel in quotient_relations(kind, {"z": z}):
            if rel.model == "word":
                for i in range(1, r):
                    res = _placed_sum(ctx, rel, r, i)
                    items.append((f"{rel.name} at position {i}", res.is_zero(),
                                  f"nnz={len(res.entries)}"))
            else:
                total = RatFunc(0)
                for coeff, word in rel.terms:
                    if word is None:
                        total = total + coeff
                    else:
                        val = evaluate(word, ctx).scalar_value()
                        total = total + coeff * val
                items.append((rel.name, not total, str(total)))
    elif kind == "bmw":
        checks = osp_mod.quantum_g_spectral(m, n)
        for name, ok in checks.items():
            items.append((name, ok, "spectral model"))
    else:
        delta = Fraction(m - 2 * n)
        rep = osp_mod.brauer_rep(m, n, r)
        V = osp_mod.natural_space(m, n)
        ident = SparseMat.identity(V.tensor_power(r))
        for i in range(1, r):
            s, e = rep[("s", i)], rep[("e", i)]
            items.append((f"s{i}^2 = 1", (s @ s) == ident, ""))
            items.append((f"e{i}^2 = delta e{i}", (e @ e) == e.scale(delta), ""))
            items.append((f"e{i} s{i} = e{i}", (e @ s) == e, ""))
            items.append((f"s{i} e{i} = e{i}", (s @ e) == e, ""))
        for i in range(1, r - 1):
            s1, s2 = rep[("s", i)], rep[("s", i + 1)]
            e1, e2 = rep[("e", i)], rep[("e", i + 1)]
            items.append((f"braid s{i} s{i + 1} s{i}",
                          (s1 @ s2 @ s1) == (s2 @ s1 @ s2), ""))
            items.append((f"e{i} e{i + 1} e{i} = e{i}", (e1 @ e2 @ e1) == e1, ""))
            items.append((f"e{i + 1} e{i} e{i + 1} = e{i + 1}",
                          (e2 @ e1 @ e2) == e2, ""))
            items.append((f"e{i} s{i + 1} e{i} = e{i}", (e1 @ s2 @ e1) == e1, ""))
        for i in range(1, r):
            for j in range(i + 2, r):
                si, sj = rep[("s", i)], rep[("s", j)]
                ei, ej = rep[("e", i)], rep[("e", j)]
                items.append((f"[s{i}, s{j}] = 0", (si @ sj) == (sj @ si), ""))
                items.append((f"[e{i}, e{j}] = 0", (ei @ ej) == (ej @ ei), ""))
    return RelationReport(kind, items)
