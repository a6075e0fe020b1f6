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
differ, which partitions the indices into classes; the exact path
assembles the other commutator rows over the surviving unknowns only.
This is an elimination order for the full system, not a reduction of it.

`fft_report` runs both flavors through one sequence of stages: the
symmetry generators, membership, the module mod p and its set J below,
the span, the commutant (`commutant_dim_glq` / `commutant_dim_osp`, over
the generators the cell built), then the later gl points.  One span
closure (`functor.image_basis`) multiplies every spanning image out of the
diagram generators (`functor.diagram_generators`: placed crossings,
turnbacks, s_i and e_i).  Each is id (x) T (x) id for a token T on two
slots, and only the span off the block route builds the placed ones.
Membership checks each token exactly on its own two slots, against the
symmetry generators there and their parity operator; that proves the
placed generator commutes with every symmetry generator on the whole
space (`check_membership`).  So every image does, and its span rank is a lower
bound for the commutant dimension.  The module mod p (at points[0] for
quantum gl) is read once per cell into one record, `weight_module`: its
weight classes, a set J of basis vectors that generates it (from the top
weight class down, the lowering images of the classes above completed by
the class's own basis vectors), the primitive spaces of the classes that
those lowering images leave short, and whether these generate it
(below).  Where they do, the quantum gl span is proved from its blocks
at every point (`_block_span`, below), so R is sum k_lam^2 without
ranking an image on J.  Elsewhere each image is kept only on J's columns: a
combination of images commutes with the generators, so if it vanishes on
J it vanishes.  For osp the generators
have int entries, so J generates over Q too, and the exact rank over Q
of the Brauer images on J's columns is their rank on all d columns; it
is ranked with the columns in rarest-first order (`_rarest_first`).  For
quantum gl off the block route the closure is its own first point: it
keeps only the R images whose residues mod p at points[0] raise the rank
of an F_p `Echelon`, the same images as on all d columns.  Either way
the commutant is certified against R.  Where no module is found, every
column is kept.  Reduction mod p and specialisation can only lower a
rank, so

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
kernel is that of every positive root vector they generate.  The one spin
that finds J reduces each class's lowering images once, in the class's own
`Echelon`, and reads P_lam only in a class they leave short (4 of the 63
classes of osp(3|4) r=3), checked on a copy of that echelon.  If, from
the top class down, each class is spanned by the lowering images of the
classes above and, where they fall short, its P_lam, then the P_lam read
generate the module.  A commuting map keeps each of them, the whole
kernel of the raising generators on its class, and is fixed by what it
does there, so its dimension is at most sum k_lam^2 over the classes
read (k_lam = 0 elsewhere).  For even-m osp sigma is not diagonal: the
functional vanishes on eps_l, sigma must square to 1 and map each P_lam
read into the P, also read, of its image class, and the sum runs over
the sigma-orbits: k^2 for a pair of classes that sigma swaps, a^2 + b^2
for a class it fixes (a, b: the dimensions of its +-1 eigenspaces on
P_lam).
When the sum meets the span rank, `equal` is proved and recorded as a
`PrimitiveCertificate` (prime, point, blocks, generation rank); only
vectors of length d are reduced, and no d^2 system is built.

If generation stops short, a sigma check fails, or the sum misses the
span rank, the fallback is logged and the spin certificate decides
(`certify_spin`): a commuting map is fixed by its U values on J, and the
constraints M(x e_b) = x M(e_b), built from the module's record of J
spanning it, go to an F_p `Echelon` until U - rank meets the span rank,
recorded as a `SpinCertificate`.  Of the benchmark cells, osp(2|2) r=2
and osp(3|2) r=3 take it: their primitive vectors do not generate the
module.  Where no module was found (logged once) or the bounds never
meet, the exact path decides: one nullity over Q for osp, or for quantum
gl the least of the exact nullities at the rational points, each an
upper bound for the nullity over Q(q), up to the first that meets the
span rank (`least_nullity`).  Both certificates are tried inside the one
commutant call of a cell (`_certify`).

The block route proves every point's blocks before the commutant, by one
rule.  Point b reads the diagram generators' k x k blocks on its P_lam
(points[0] on the module's; each later b on its own P_lam(b), from the
module's classes and the residues of the raising generators at b), each
from its token reduced once at b and applied on its own two slots
(`superspace.on_slots`); the first point's values seed the closure.  A
block of size k >= 2 is full once one element theta of the algebra A_b
the blocks generate has rank one (`_rank_one` tries g_i - mu and
(g_i - mu)(g_j - nu) on disjoint slots, mu and nu the roots of the
tokens' quadratics at b) and its image vector v and row vector w spin to
dimension k under the blocks and their transposes: then
a theta b = (a v)(w^T b) for a, b in A_b, and these span End(P_lam)
(`BlockSpan.fill`).  What that leaves (the 1 x 1 blocks, a block with no
rank-one element, the pairs of one size) goes to `BlockSpan.add`: at
points[0] the closure keeps an image only while it fills such a block or
tells such a pair apart by their traces, and each later point replays
those words.  Once every block is full and told apart, with the same sum
at every point, the span mod p has rank at least sum k_lam^2 at each
(Burnside and Jacobson density).  A miss anywhere (a block short, a pair
not told apart, a sum that differs, a denominator that vanishes mod p)
is logged, and the cell takes the J-column route, as if the P_lam did
not generate.  There the
closure runs once at points[0]: mod p where the module was read there, and
with exact ranks where it was not.  Every entry of the gl symmetry and
diagram generators is a Laurent polynomial in q, so its residues fail only
where the point itself vanishes mod p, and there no module is read.  Where
no certificate backs the count mod p, the closure runs once more with
exact ranks on every column; either way an exact closure's word count is
the exact rank at points[0].  One rule ranks the later points, after the
commutant (`_later_ranks`).  With the echelon mod p, the kept words are
replayed mod p at each later point from the generators' residues there,
and only their entries in the R pivot columns of the first point's echelon
are ranked; no product and no residue is taken over Q(q).  Dropping
columns can only lower a rank, so a point that reaches R has the exact
rank R.  A point short of R, one whose residues fail, and every later
point of an exact closure are ranked exactly: the words are replayed over
Q with the generators specialised there, on J's columns, and, since J is
only proved to generate at points[0], once more on every column where the
point is still short (logged).  So `agreement` compares exact ranks, and
gap verdicts always come from exact arithmetic.  span_rank <=
commutant_dim is asserted in every case.

The budget bounds d before any work starts; the systems that grow faster
are checked where they are built: the spin system's U unknowns in
`certify_spin`, and the surviving unknowns of the exact path in
`assemble_commutant_rows`.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain
from operator import mul

from . import osp as osp_mod
from . import qgl, superspace
from .diagrams import brauer_count, quotient_relations
from .errors import (BudgetError, MembershipError, UnluckyPrime, UsageError,
                     check_power)
from .functor import (EvalContext, check_image_cap, diagram_generators,
                      evaluate, identity_on, image_basis, make_context,
                      replay, walled_tokens)
from .rootdata import RootDatum, distinguished
from .scalar import RatFunc, qint, rational_residue
from .superspace import (DEFAULT_POINTS, Echelon, SparseMat, check_points,
                         int_rank, kron_chain, log_fallback, on_slots,
                         ranks_at, residue_at, vectorize)

__all__ = [
    "FftReport", "fft_report", "commutant_dim_glq", "commutant_dim_osp",
    "check_membership", "RelationReport", "relation_check",
    "RELATION_ALGEBRA", "MembershipError", "commutant_nullity",
    "least_nullity", "PrimitiveCertificate", "certify_primitive",
    "module_heights", "WeightModule", "weight_module", "SpinCertificate",
    "certify_spin", "BlockSpan",
]

#: The default budget of a commutant cell: it bounds the dimension d before
#: any work, the spin system's unknowns (`certify_spin`) and the surviving
#: unknowns of the exact path (`assemble_commutant_rows`).
DEFAULT_UNKNOWN_BUDGET = 150_000


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


def assemble_commutant_rows(gens: list[SparseMat], dim: int,
                            budget: int | None = None):
    """(survivor count, constraint rows) for the system [M, P] = 0.

    Diagonal P pin every unknown M[i,j] whose diagonal profiles differ;
    the commutator rows of the remaining generators are then assembled
    over the surviving unknowns only (unknown id = i*dim + j, row-major),
    generator by generator in the given order.  BudgetError, before any
    row is built, if the survivors exceed `budget`.
    """
    diag, other = _split_diagonal(gens, dim)
    classes = _profile_classes(diag, dim)
    classmates = {}
    for members in classes:
        for i in members:
            classmates[i] = members
    survivors = sum(len(members) ** 2 for members in classes)
    if budget is not None and survivors > budget:
        raise BudgetError(f"commutant unknowns {survivors} exceed budget "
                          f"{budget}")
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


def commutant_nullity(gens: list[SparseMat], dim: int,
                      budget: int | None = None) -> int:
    """Exact nullity over Q of the system [M, P] = 0 for all P in gens;
    BudgetError if its surviving unknowns exceed `budget`."""
    survivors, rows = assemble_commutant_rows(gens, dim, budget)
    return survivors - int_rank(rows)


def _rarest_first(rows) -> dict[int, int]:
    """column -> its place in the rarest-first (Markowitz) order of `rows`:
    by how often the column occurs, ties by column.  Relabelling by it
    keeps the rank of every row prefix; an elimination that pivots on the
    least column then pivots on the rarest, with less fill-in."""
    counts = Counter(k for row in rows for k in row)
    return {k: i for i, k in enumerate(
        sorted(counts, key=lambda k: (counts[k], k)))}


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
    k_lam = dim P_lam per class whose P_lam was read (`_spin`), or with
    sigma one k per swapped pair of classes and the dimensions a, b of the
    sigma = +-1 eigenspaces on the P_lam of a fixed class.

    Where the span was proved from its blocks (gl; see `BlockSpan`), the
    span side: `words`, the kept words of the block closure, which fill
    what the rank-one elements leave (the identity for the 1 x 1 blocks,
    every word of a block with no rank-one element), and `separating`, one
    (i, j, t) per pair of equal-size blocks i < j (in class order) whose
    traces the t-th kept image tells apart.  Empty where the span was
    ranked on J's columns.
    """
    prime: int
    point: str | None
    blocks: tuple[int, ...]
    generation_rank: int
    dim: int
    words: tuple = field(default=(), repr=False)
    separating: tuple = ()

    @property
    def kept(self) -> int:
        return len(self.words)

    @property
    def bound(self) -> int:
        return sum(k * k for k in self.blocks)


class _NotPrimitive(Exception):
    """A check of a certificate failed; the message says which."""


def _columns(mat: SparseMat) -> dict[int, list[tuple[int, int]]]:
    cols = {}
    for (i, k), v in mat.entries.items():
        cols.setdefault(k, []).append((i, v))
    return cols


def _residue_columns(mat: SparseMat, point, keep) -> dict:
    """`_columns` of the residues of `mat` at q = `point`, on the columns in
    `keep` only, in one pass that reduces only the entries there."""
    residue, cols = residue_at(point), {}
    for (i, k), v in mat.entries.items():
        if k in keep and (w := residue(v)):
            cols.setdefault(k, []).append((i, w))
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


def _primitive_spaces(classes, raising, dim: int) -> list[list[dict]]:
    """A basis of P_lam per class in reduced echelon form mod p (each vector
    1 at its least column, its lead, and 0 at the others' leads): the rows
    [E(v) for E raising | v] of the class's basis vectors v, eliminated
    with the E-part first; the kept rows that vanish there give the kernel,
    added to a second `Echelon` from the last lead back, each left of every
    stored pivot (so no stored row holds it, and `add` clears the rest)."""
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
        basis = Echelon()
        for row in sorted(ech.rows_from(off), key=min, reverse=True):
            basis.add(row)
        spaces.append([{c - off: v for c, v in row.items()}
                       for row in reversed(basis.rows_from(off))])
    return spaces


def _spin(classes, heights, cls, lowering, raising):
    """From the top class down, span each class by the lowering images of
    the classes above, then by its own basis vectors e_k; (bases,
    primitive, short): (class, picked) per class, the P_lam of each class
    whose lowering images run out before they fill it (empty for every
    other class), and the reason the first class, top down, that its P_lam
    and the lowering images leave short gives (None if the P_lam generate
    the module).

    P_lam is read (`_primitive_spaces`, killed by the `raising` column
    maps) only where the lowering images leave the class short: a class
    they fill needs nothing of its own to be generated.  So the P_lam read
    generate the module whenever `short` is None.

    `picked` lists, in order, the vectors that raised the rank of the
    class's `Echelon`: (L, k) for a lowering image L e_k, (None, k) for
    e_k.  The P_lam are checked on a copy of that echelon, so they pick
    nothing.
    """
    dim = len(heights)
    images = [[] for _ in classes]
    for L in lowering:
        for k, col in L.items():
            images[cls[col[0][0]]].append((L, k))
    bases, primitive, short = [], [[] for _ in classes], None
    for c in sorted(range(len(classes)), key=lambda c: -heights[classes[c][0]]):
        size = len(classes[c])
        ech, picked = Echelon(), []
        for t, (L, k) in enumerate(images[c] + [(None, k)
                                                for k in classes[c]]):
            if ech.rank == size:
                break
            if t == len(images[c]):  # the lowering images leave c short
                primitive[c] = _primitive_spaces([classes[c]], raising, dim)[0]
                check = ech.copy()
                for v in primitive[c]:
                    check.add(v)
                if check.rank < size and short is None:
                    short = (f"generation stops at a weight class of size "
                             f"{size} (height {heights[classes[c][0]]}) at "
                             f"rank {check.rank}")
            if ech.add({k: 1} if L is None else dict(L[k])):
                picked.append((L, k))
        bases.append((c, picked))
    return bases, primitive, short


def _sigma_blocks(sigma, prim, raising, p: int) -> list[int]:
    """Block sizes of the sigma-orbit sum, after checking sigma^2 = 1, that
    sigma maps each class whose P_lam was read to a class whose P was read
    (`_spin` reads only where the lowering images leave a class short), and
    that it maps each P_lam into the P of its image class."""
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
        if basis and not prim[target[c]]:
            raise _NotPrimitive("sigma maps a class whose P was read to one "
                                "whose P was not")
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
    the weight classes, each basis vector's class, the column maps of the
    raising and lowering generators, and sigma with its map of classes.

    `gens` have int/Fraction entries (osp), or RatFunc entries reduced at
    q = `point` (quantum gl).  Each other generator must map every weight
    class into one class and move the height by one amount: raising if
    positive, lowering if negative; at most one moves no height, sigma.
    UnluckyPrime if a denominator vanishes mod p; _NotPrimitive if the
    diagonal generators do not separate the heights or a check fails.
    """
    p = superspace.PRIME
    dim = len(heights)
    mats = []
    for g in gens:
        if point is None:  # osp entries are ints; a Fraction may be unlucky
            mat = SparseMat(g.src, g.dst)
            mat.entries = {key: w for key, v in g.entries.items() if (
                w := v % p if type(v) is int else rational_residue(v, p))}
        else:
            mat = g.residues(point)
        mats.append(mat)
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
    raising, lowering, sigma = [], [], None
    for j, g in enumerate(other):
        shifts, target, cols = set(), {}, {}
        for (i, k), v in g.entries.items():  # one sweep: shift, class, column
            shifts.add(heights[i] - heights[k])
            if target.setdefault(cls[k], cls[i]) != cls[i]:
                raise _NotPrimitive(f"generator {j} splits a weight class")
            cols.setdefault(k, []).append((i, v))
        if len(shifts) != 1:
            raise _NotPrimitive(f"generator {j} is not weight-homogeneous")
        shift = shifts.pop()
        if shift > 0:
            raising.append(cols)
        elif shift < 0:
            lowering.append(cols)
        elif sigma is None:
            sigma = (g, target)
        else:
            raise _NotPrimitive("two generators keep every height")
    return classes, cls, raising, lowering, sigma


@dataclass(frozen=True, eq=False)
class WeightModule:
    """The module mod p that both certificates read, built once per cell.

    At q = `point` for quantum gl (None for osp; a string, as the
    certificates record it): the basis vectors' `heights`, the fields of
    `_weight_split`, the `primitive` space P_lam of each class that the
    lowering images leave short (empty for every other class; `_spin`),
    the basis vectors `columns` of a set J that generates the module,
    `bases`, `_spin`'s (class, picked) per class: the lowering images and
    the vectors of J, in order, that span the class, and `blocks`: the
    sizes, largest first, whose squares sum to the primitive bound, or,
    where the P_lam read do not generate the module or a sigma check
    fails, the reason.
    """
    point: str | None
    heights: tuple[int, ...]
    classes: list
    cls: list
    raising: list
    lowering: list
    sigma: tuple | None
    primitive: list
    columns: tuple[int, ...]
    bases: list
    blocks: tuple[int, ...] | str


def weight_module(gens: list[SparseMat], heights,
                  point=None) -> WeightModule | None:
    """The `WeightModule` of the symmetry generators `gens` mod p.

    `gens` have int/Fraction entries (osp), or RatFunc entries reduced at
    q = `point` (quantum gl); `heights` gives each basis vector's weight
    under a functional that orients the generators (`module_heights`).
    J is read from the top weight class down: each class is spanned by the
    lowering images of the classes above and then by its own basis vectors
    e_k, and J is the e_k that raised the rank, so the lowering generators
    spin J into the whole module.  The same spin reads P_lam only in a
    class whose lowering images run out before they fill it, and checks
    it on a copy of their echelon; where the P_lam read generate, the blocks of
    the primitive bound are read off them.  None, with the reason
    logged once, if a denominator vanishes mod p or a check of
    `_weight_split` fails; the cell then keeps every column and takes the
    exact path.
    """
    try:
        split = _weight_split(gens, heights, point)
    except (UnluckyPrime, _NotPrimitive) as exc:
        log_fallback(__name__, "weight module at q = %s: %s; exact path",
                     point, exc)
        return None
    classes, cls, raising, lowering, sigma = split
    bases, prim, blocks = _spin(classes, heights, cls, lowering, raising)
    columns = tuple(sorted(k for _, picked in bases
                           for L, k in picked if L is None))
    if blocks is None:
        try:
            blocks = ([len(basis) for basis in prim] if sigma is None else
                      _sigma_blocks(sigma, prim, raising, superspace.PRIME))
            blocks = tuple(sorted((k for k in blocks if k), reverse=True))
        except _NotPrimitive as exc:
            blocks = str(exc)
    return WeightModule(None if point is None else str(point),
                        tuple(heights), *split, prim, columns, bases, blocks)


def certify_primitive(module: WeightModule,
                      lower_bound: int) -> PrimitiveCertificate | None:
    """Certificate that the commutant has dimension `lower_bound`, from the
    primitive spaces of `module`.

    None, with the failed check logged, if generation or a sigma check
    failed (`module.blocks`) or the bound misses `lower_bound`; the caller
    then takes the next certificate (`_certify`).  Only vectors of length
    dim are reduced; no d^2 system is built.
    """
    if isinstance(module.blocks, str):
        log_fallback(__name__, "primitive certificate: %s; next certificate",
                     module.blocks)
        return None
    dim = len(module.heights)
    cert = PrimitiveCertificate(superspace.PRIME, module.point, module.blocks,
                                dim, dim)
    if cert.bound != lower_bound:
        log_fallback(__name__, "primitive certificate: bound %d does not "
                     "meet the lower bound %d; next certificate", cert.bound,
                     lower_bound)
        return None
    return cert


def _block_product(x: tuple, y: tuple, p: int) -> tuple:
    """The product x y of two k x k blocks, mod p."""
    cols = list(zip(*y))
    return tuple(tuple(sum(map(mul, row, col)) % p for col in cols)
                 for row in x)


def _spins(vec, mats, p: int) -> bool:
    """Whether `vec` and its images under words in the k x k `mats` span
    F_p^k: each vector that raises the rank is queued, and its images are
    taken as the queue reaches them."""
    ech, spun = Echelon(), []
    images = (tuple(sum(map(mul, row, u)) % p for row in g)
              for u in spun for g in mats)
    for v in chain([vec], images):
        if ech.add({t: x for t, x in enumerate(v) if x}):
            spun.append(v)
            if ech.rank == len(vec):
                return True
    return False


def _rank_one(mats, roots) -> bool:
    """Whether a rank-one element of the algebra A that the k x k `mats`
    generate (with the identity) proves A = End(F_p^k).

    The candidates, in order: g_i - mu for each g_i and each of
    `roots[i]`, the residues of the roots of its token's quadratic; then
    (g_i - mu)(g_j - nu) for i < j - 1, two generators on disjoint slots.
    The roots only steer the search.  The first candidate theta of rank
    one decides: theta = v w^T, and if v spins to F_p^k under A (A v) and
    w under the transposes (w^T A), then the elements a theta b =
    (a v)(w^T b), a, b in A, span F_p^k (x) (F_p^k)^* = End(F_p^k).  If
    either spin falls short, F_p^k is a reducible A-module and no
    element proves it.
    """
    p = superspace.PRIME
    shifted = [[tuple(tuple((x - mu * (t == u)) % p
                            for u, x in enumerate(row))
                      for t, row in enumerate(g))
                for mu in dict.fromkeys(pair)]
               for g, pair in zip(mats, roots)]
    pairs = (_block_product(a, b, p)
             for i, left in enumerate(shifted) for right in shifted[i + 2:]
             for a in left for b in right)
    for theta in chain(chain.from_iterable(shifted), pairs):
        a, c = next(((t, u) for t, row in enumerate(theta)
                     for u, x in enumerate(row) if x), (None, None))
        if a is None:
            continue
        v, w = [row[c] for row in theta], theta[a]
        if any((x * theta[a][c] - v[t] * w[u]) % p
               for t, row in enumerate(theta) for u, x in enumerate(row)):
            continue
        return (_spins(v, mats, p)
                and _spins(w, [tuple(zip(*g)) for g in mats], p))
    return False


class BlockSpan:
    """The diagram span mod p read on the primitive spaces, block by block.

    `primitive` lists each class's P_lam in reduced echelon form
    (`_primitive_spaces`); each nonzero one gives a block.  `value` takes a
    linear map mod p on sparse vectors that keeps every P_lam (checked
    exactly mod p; else _NotPrimitive), a diagram generator's token placed
    on its own two slots at a point (`superspace.on_slots`), to its k x k
    blocks there, column t holding the coordinates of its image of the
    t-th basis vector, read at the leads.  `product` multiplies two such
    tuples block by block.  `fill` proves a block of size k >= 2 full
    by one rank-one element (`_rank_one`), and `add` takes what that
    leaves: it keeps a value when it raises the rank of a block not yet
    full, ranked in the block's own F_p `Echelon` of k^2 columns, or when
    its trace tells apart two blocks of one size not yet told apart
    (recorded in `separating` by the value's place among those kept; the
    first, the identity that a closure keeps either way, counts).

    Once `full` (every block full, every such pair told apart), each P_lam
    is an absolutely simple module for the algebra A that the values
    generate (Burnside), no two are isomorphic (isomorphic modules give
    every element one trace), and so A maps onto the product of the
    End(P_lam) (Jacobson density): dim A >= `bound` = sum k_lam^2.
    """

    def __init__(self, primitive):
        self.bases = [basis for basis in primitive if basis]
        self.leads = [[min(v) for v in basis] for basis in self.bases]
        sizes = [len(basis) for basis in self.bases]
        self.bound = sum(k * k for k in sizes)
        self.echelons = [Echelon() for _ in sizes]
        self.short = set(range(len(sizes)))
        self.alike = {(i, j) for j, k in enumerate(sizes) for i in range(j)
                      if sizes[i] == k}
        self.separating, self.kept = [], 0

    @property
    def full(self) -> bool:
        return not (self.short or self.alike)

    @property
    def identity(self) -> tuple:
        return tuple(tuple(tuple(int(i == j) for j in range(len(basis)))
                           for i in range(len(basis))) for basis in self.bases)

    def value(self, apply) -> tuple:
        p, blocks = superspace.PRIME, []
        for basis, leads in zip(self.bases, self.leads):
            images = [apply(v) for v in basis]
            block = tuple(tuple(w.get(lead, 0) for w in images)
                          for lead in leads)
            for t, w in enumerate(images):  # w must be its leads' combination
                for v, row in zip(basis, block):
                    if c := row[t]:
                        for k, x in v.items():
                            w[k] = (w.get(k, 0) - c * x) % p
                if any(w.values()):
                    raise _NotPrimitive("a diagram generator does not keep "
                                        "a primitive space")
            blocks.append(block)
        return tuple(blocks)

    @staticmethod
    def product(a: tuple, b: tuple) -> tuple:
        return tuple(_block_product(x, y, superspace.PRIME)
                     for x, y in zip(a, b))

    def add(self, value: tuple) -> bool:
        kept = False
        for i in list(self.short):
            ech, block = self.echelons[i], value[i]
            if ech.add({c: x for c, x in enumerate(chain.from_iterable(block))
                        if x}):
                kept = True
                if ech.rank == len(block) ** 2:
                    self.short.discard(i)
        if self.alike:
            traces = [sum(b[t][t] for t in range(len(b))) % superspace.PRIME
                      for b in value]
            told = sorted((i, j) for i, j in self.alike
                          if traces[i] != traces[j])
            self.alike.difference_update(told)
            self.separating += [(i, j, self.kept) for i, j in told]
            kept = kept or bool(told)
        self.kept += kept or not self.kept
        return kept

    def fill(self, values, roots, words) -> None:
        """Prove the blocks of size k >= 2 full from the `values` of the
        diagram generators and the residues `roots` of each one's quadratic
        (`_rank_one`), then replay the `words` on `values` through `add`
        on what is left alone: the 1 x 1 blocks, a block with no rank-one
        element and the pairs of one size (the other blocks are emptied,
        so their products cost nothing).  The first point passes no words;
        its closure finds them."""
        for i in list(self.short):
            if (len(self.bases[i]) > 1
                    and _rank_one([value[i] for value in values], roots)):
                self.short.discard(i)
        left = self.short.union(*self.alike)

        def only(value):
            return tuple(b if i in left else () for i, b in enumerate(value))
        for img in replay(words, [only(value) for value in values],
                          only(self.identity), self.product):
            self.add(img)


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


def _pair_rows(x, b: int, M: dict, p: int):
    """The nonzero rows of M(x e_b) = x M(e_b), for the generator with
    columns `x` and the forms `M` of `_spin_rows`."""
    lhs = _combine([(v, M[i]) for i, v in x.get(b, ())], p)
    rhs = _act(x, M[b], p)
    for i in lhs.keys() | rhs.keys():
        left, right = lhs.get(i, {}), rhs.get(i, {})
        row = {u: w for u in left.keys() | right.keys()
               if (w := (left.get(u, 0) - right.get(u, 0)) % p)}
        if row:
            yield row


def _spin_rows(classes, cls, gens, bases, unknowns: int, p: int):
    """The rows of M(x e_b) = x M(e_b) over the generators `gens` (column
    maps) and the basis vectors b, each as soon as M is built on the
    classes of b and of x e_b (`_pair_rows`).  Two kinds of pairs give
    only zero rows and are skipped: a generator that kills a whole class
    (M keeps the class), and (x = L, b = k) for a picked lowering image
    L e_k, since M(L e_k) is built as L M(e_k).  M is built class by class
    from `_spin`'s `bases`: fresh unknowns on a picked e_j, L M(e_k) on a
    picked L e_k.  The picked vectors are added again, in order, to a
    fresh `Echelon` whose transcripts give M on each stored row; each one
    raises the rank again, and the vectors that `_spin` also tried and
    dropped never touched its pivots, so the stored rows are `_spin`'s.
    Each e_b is solved back from them, from the largest pivot down.

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
    built_as = {(id(L), k) for _, picked in bases for L, k in picked
                if L is not None}  # M(L e_k) = L M(e_k) by construction
    M = {}  # basis vector b -> M(e_b) as {row: {unknown: coefficient}}
    built = set()
    for c, picked in bases:
        ech, stored = Echelon(), {}  # pivot -> M on the stored row there
        for L, k in picked:
            if L is None:
                unknowns -= len(classes[c])
                given = {i: {unknowns + u: 1}
                         for u, i in enumerate(classes[c])}
            else:
                given = _act(L, M[k], p)
            terms = []
            ech.add({k: 1} if L is None else dict(L[k]), terms)
            stored[ech.pivot_columns[-1]] = _combine(
                [(a, given if col is None else stored[col])
                 for a, col in terms], p)
        for row in sorted(ech.rows_from(0), key=min, reverse=True):
            lead = min(row)
            M[lead] = _combine([(1, stored[lead])] + [
                (-v, M[i]) for i, v in row.items() if i != lead], p)
        built.add(c)
        for x, (target, sources) in zip(gens, moves):
            pairs = sorted(sources.get(c, set()) & built)
            if target.get(c, c) != c and target[c] in built:
                pairs.append(c)
            for b in (b for src in pairs for b in classes[src]):
                if (id(x), b) not in built_as:
                    yield from _pair_rows(x, b, M, p)


def certify_spin(module: WeightModule, lower_bound: int,
                 budget: int | None = None) -> SpinCertificate | None:
    """Certificate that the commutant has dimension `lower_bound`, from the
    values of a commuting map M on the basis vectors J of `module`.

    Each constraint M(x e_b) = x M(e_b), for a generator x that is not
    diagonal (raising, lowering or sigma) and a basis vector b, is built
    from `module.bases` as a linear form in the unknowns M(e_j), j in J,
    each a vector of e_j's class (`_spin_rows`), and fed to the F_p
    `Echelon` until unknowns - rank meets `lower_bound`; no row is built
    past that stop.

    Soundness: J generates the module mod p and each basis change is
    invertible mod p, so a map that commutes mod p is fixed by its values
    on J, and the values of every such map satisfy the constraints; with
    every pair present, any values that satisfy them build a map that
    commutes.  So the nullity of the whole system is nullity_p(rows), the
    commutant dimension mod p, which is at least the dimension over Q at
    the point (module docstring), and unknowns - rank bounds it from above
    for any prefix of the rows.  A miss after every row therefore means
    nullity_p(rows) exceeds the span rank: None, logged, and the caller
    takes the exact path.  BudgetError, before any row is built, if the
    unknowns exceed `budget`.
    """
    p, classes, sigma = superspace.PRIME, module.classes, module.sigma
    unknowns = sum(len(classes[c]) for c, picked in module.bases
                   for L, _ in picked if L is None)
    if budget is not None and unknowns > budget:
        raise BudgetError(f"spin unknowns {unknowns} exceed budget {budget}")
    gens = module.raising + module.lowering + (
        [] if sigma is None else [_columns(sigma[0])])
    ech, used = Echelon(), 0
    rows = _spin_rows(classes, module.cls, gens, module.bases, unknowns, p)
    while unknowns - ech.rank > lower_bound and (row := next(rows, None)):
        ech.add(row)
        used += 1
    if unknowns - ech.rank != lower_bound:
        log_fallback(__name__, "spin certificate: nullity bound %d after all "
                     "%d rows does not meet the lower bound %d; exact "
                     "path", unknowns - ech.rank, used, lower_bound)
        return None
    return SpinCertificate(p, module.point, len(module.columns), unknowns,
                           used, ech.rank)


# ---------------------------------------------------------------------------
# Commutant dimensions.

def _check_dim(dim_v: int, factors: int, budget: int) -> int:
    """d = dim_v^factors, once it fits the budget."""
    check_power(dim_v, factors, budget, "dimension of the module")
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


def least_nullity(gens, d, points, lower_bound: int = 0,
                  budget: int | None = None) -> int:
    """Least exact nullity of the system specialised at the points.

    Specialising q can only lower the rank of the constraint rows, so each
    specialised nullity bounds the nullity over Q(q) from above; at a
    generic point it is equal.  No point goes below a proved `lower_bound`
    (the span rank), so the first point that meets it ends the search.
    Empty `points` is a ValueError; BudgetError if the surviving unknowns
    exceed `budget`.
    """
    least = None
    for p in check_points(points):
        nullity = commutant_nullity([g.specialize(p) for g in gens], d,
                                    budget)
        least = nullity if least is None else min(least, nullity)
        if least <= lower_bound:
            break
    return least


def _certify(module: WeightModule | None, lower_bound: int, budget):
    """The first certificate that meets `lower_bound`, or None for the
    exact path: the primitive certificate, then the spin certificate.  A
    None module has logged its reason (`weight_module`)."""
    if module is None:
        return None
    return (certify_primitive(module, lower_bound)
            or certify_spin(module, lower_bound, budget))


def commutant_dim_glq(gens, d: int, points, lower_bound: int,
                      module: WeightModule | None,
                      budget: int | None = None):
    """(dim, certificate) for the quantum gl symmetry generators `gens`.

    dim End_{U_q} of the d-dimensional module: the certificates on
    `module` (`weight_module` at points[0]) are tried in `_certify`'s
    order against the proved `lower_bound` (the span rank); the
    certificate is None where `least_nullity` decided.  `budget` bounds
    the spin and exact unknowns.
    """
    points = check_points(points)
    cert = _certify(module, lower_bound, budget)
    if cert is None:
        return least_nullity(gens, d, points, lower_bound, budget), None
    return lower_bound, cert


def commutant_dim_osp(gens, d: int, lower_bound: int,
                      module: WeightModule | None,
                      budget: int | None = None):
    """(dim, certificate) for the osp symmetry generators `gens`.

    dim End of the Harish-Chandra pair action on the d-dimensional module:
    the certificates on `module` (`weight_module`) are tried in
    `_certify`'s order against `lower_bound`; the certificate is None
    where the exact nullity over Q decided.  `budget` bounds the spin and
    exact unknowns.
    """
    cert = _certify(module, lower_bound, budget)
    if cert is None:
        return commutant_nullity(gens, d, budget), None
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

    `fft_report` calls it on two slots only (`_check_tokens`): each token
    T that a cell places (s1 and e1, X+, the wall turnback, the dual X+)
    against the symmetry generators of the same two slots and their parity
    operator.  That proves each placed id (x) T (x) id a module map on the
    whole tensor power.  There a symmetry generator is a sum of terms,
    graded Kronecker products of one `qgl._legs` leg through
    `qgl.act_on_signs`, of one Leibniz term of `osp.leibniz_tensor`, or
    sigma on every slot.  A Koszul sign factors slot by slot, so on T's
    two slots each term is one of two things.
    - Group-like there: I (x) I, k_i^+-1 (x) k_i^+-1 (a product of the
      K_a (x) K_a and their inverses) or sigma (x) sigma, times the parity
      operator where an odd factor stands to their right.  T commutes with
      each, as it does with the K_a, sigma and the parity operator.
    - Its leg lands on one of the two slots.  The two such terms share
      their factors on the other slots and sum there to the two-slot
      coproduct of the same generator, with which T commutes.
    T is even, so id (x) T (x) id is the plain Kronecker product and
    commutes with every term's factors on the other slots.
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


def _check_tokens(kind: str, ctx: EvalContext, r: int, s: int,
                  gens=None) -> None:
    """`check_membership` on two slots for each token the cell places: the
    diagram generators of the smallest cell that carries it, against that
    cell's symmetry generators after its parity operator (generator 0),
    or the cell's own `gens`, if given, where that cell is (r, s): (2, 0),
    (1, 1) and (0, 2), as r and s place X+ (or s_i, e_i), the turnback and
    the dual X+."""
    cells = [(2, 0)] * (r >= 2) + [(1, 1)] * (s >= 1) + [(0, 2)] * (s >= 2)
    for a, b in cells:
        space = ctx.space_of("+" * a + "-" * b)
        parity = SparseMat(space, space, {(i, i): 1 - 2 * p for i, p
                                          in enumerate(space.parities)})
        own = (gens if gens is not None and (a, b) == (r, s) else
               _osp_generator_mats(*ctx.mn, a) if kind == "brauer"
               else _glq_generator_mats(ctx.datum, a, b))
        check_membership(diagram_generators(kind, ctx, a, b),
                         [parity] + own)


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
    #: proof of `equal`; None where the exact path decided (not in JSON)
    certificate: PrimitiveCertificate | SpinCertificate | None = None

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


def _later_ranks(words, ech: Echelon | None, gens, space, cols,
                 points) -> list[int]:
    """The span ranks at the points of the R images the gl closure kept.

    The closure (`image_basis`) keeps the images independent at points[0],
    so R = len(words) is the rank there: mod p where it ranked them into
    `ech`, exactly where `ech` is None.  With `ech`, the kept images carry
    an R x R minor on its pivot columns that is nonsingular mod p, and
    each later point b replays the words mod p from the identity on the
    columns `cols` of J and the residues there of the diagram generators
    `gens`, ranking only their entries in the pivot columns.  Dropping
    columns can only lower a rank, so once the commutant dimension is
    certified to be R,

        rank_p(minor at b) <= rank_p(span at b) <= rank_Q(span at b)
                           <= generic span rank <= commutant dim = R,

    and a point that reaches R has the exact rank R.  A point short of R,
    or whose residues fail (both logged), or any later point without
    `ech`, replays the words over Q with `gens` specialised there, first
    on J's columns; J is only proved to generate at points[0], so a point
    still short is replayed once more on every column (logged).
    """
    def exact(point, columns):
        at = [g.specialize(point) for g in gens]
        return ranks_at([vectorize(img) for img in replay(
            words, at, identity_on(space, columns))], [point])[0]
    if ech is not None:
        pivots, start = ech.pivot_columns, identity_on(space, cols)
        keys = [divmod(c, start.cols) for c in pivots]
    ranks = [len(words)]
    for point in points[1:]:
        rank = 0
        if ech is not None:
            try:
                values = [g.residues(point) for g in gens]
            except UnluckyPrime as exc:
                log_fallback(__name__, "span rank at q = %s: %s; exact rank",
                             point, exc)
            else:
                later = Echelon()
                for img in replay(words, values, start, SparseMat.matmul_mod):
                    later.add({c: v for c, k in zip(pivots, keys)
                               if (v := img.entries.get(k))})
                rank = later.rank
                if rank < len(words):
                    log_fallback(__name__, "span rank at q = %s on %d pivot "
                                 "columns: rank %d of %d; exact rank", point,
                                 len(keys), rank, len(words))
        if rank < len(words):
            rank = exact(point, cols)
        if rank < len(words) and cols is not None:
            log_fallback(__name__, "short on J's columns at q = %s; full "
                         "images", point)
            rank = exact(point, None)
        ranks.append(rank)
    return ranks


def _check_full(span: BlockSpan, point, bound: int) -> None:
    """_NotPrimitive, saying how, unless `span` is full with `bound`."""
    if span.bound != bound:
        raise _NotPrimitive(f"the blocks at q = {point} square to "
                            f"{span.bound}, not {bound}")
    if not span.full:
        raise _NotPrimitive(
            f"at q = {point}, {len(span.short)} blocks fall short and "
            f"{len(span.alike)} pairs of equal size are not told apart")


def _token_roots(names, loop, point) -> list[tuple[int, int]]:
    """The residues at q = `point` of the roots of each diagram generator's
    quadratic, by its `names`: x and -x^-1 for X+ and the dual X+ (the
    Hecke quadratic), x the point's residue, and 0 and the residue of the
    loop value `loop` = Om- U+ for the wall turnback."""
    if not names:  # nothing to steer, and the point is not read
        return []
    p, residue = superspace.PRIME, residue_at(point)
    x = residue(Fraction(point))
    hecke = (x, -pow(x, -1, p) % p)
    return [(0, residue(loop)) if name == "wall turnback" else hecke
            for name in names]


def _block_span(kind, ctx, r, s, points, module: WeightModule,
                gens) -> tuple | None:
    """(words, span) of the block closure, where the diagram span has rank
    `span.bound` = sum k_lam^2 at every point; None, logged, at a miss.

    Each point b reads the diagram generators' blocks from their tokens
    (`functor.walled_tokens`: X+, the wall turnback and the dual X+), each
    reduced once at b and placed on its own two slots (`on_slots`), so no
    placed d x d generator is built.  Every point proves its blocks of
    size k >= 2 by one rank-one element of the algebra that those blocks
    generate there (`BlockSpan.fill`).  At points[0], on the P_lam of
    `module`, the closure (`image_basis` with `blocks`) then runs on the
    same blocks for what is left, from the identity, and stops once its
    `BlockSpan` is full; its kept words are the certificate.  Each later
    point b builds its own P_lam(b) from the module's classes and the
    residues at b of the raising generators among the symmetry generators
    `gens`, reads the blocks there, and must be full with the same bound,
    what the rank-one elements leave by the kept words replayed there.  At
    each point the span mod p then has rank at least the bound
    (`BlockSpan`), and its rank over Q(q) at most the commutant dimension,
    which the primitive certificate proves equal to the bound.
    """
    span, heights = BlockSpan(module.primitive), module.heights
    raising = [g for g in gens if any(heights[i] > heights[k]
                                      for i, k in g.entries)]
    classes = [members for members, basis
               in zip(module.classes, module.primitive) if basis]
    keep = set(chain.from_iterable(classes))
    tokens, slots = walled_tokens(ctx, r, s), r + s
    distinct = {id(T): T for _, T, _ in tokens}
    loop = (ctx.images["Om-"] @ ctx.images["U+"]).scalar_value() if s else 0

    def fill(at, point, words):
        reduced = {key: T.residues(point) for key, T in distinct.items()}
        values = [at.value(on_slots(reduced[id(T)], t, slots))
                  for _, T, t in tokens]
        at.fill(values, _token_roots([name for name, _, _ in tokens], loop,
                                     point), words)
        return values
    try:
        values = fill(span, points[0], ())
        words = image_basis(kind, ctx, r, s, points, None, None, values, span)
        _check_full(span, points[0], span.bound)
        for point in points[1:]:
            at = BlockSpan(_primitive_spaces(classes, [
                _residue_columns(g, point, keep) for g in raising],
                len(heights)))
            if at.bound == span.bound:
                fill(at, point, words)
            _check_full(at, point, span.bound)
    except (UnluckyPrime, _NotPrimitive) as exc:
        log_fallback(__name__, "block span: %s; span on J's columns", exc)
        return None
    return words, span


def _check_cell(flavor: str, m, n, r, s, points) -> None:
    """Reject a malformed cell before any work starts."""
    if flavor not in ("gl", "osp"):
        raise ValueError(f"unknown fft flavor {flavor!r}")
    for name, size in (("m", m), ("n", n), ("r", r), ("s", s)):
        if isinstance(size, bool) or not isinstance(size, int):
            raise ValueError(f"{name} must be an int, got {size!r}")
    if r < 1:
        raise ValueError(f"tensor power r must be at least 1, got {r}")
    if s < 0:
        raise ValueError(f"dual tensor factors s must be at least 0, got {s}")
    if flavor == "osp" and s:
        raise ValueError("dual tensor factors s apply to gl only; the osp "
                         "natural module is self-dual")
    values = [Fraction(p) for p in check_points(points)]
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
    The stages run in order: the symmetry generators, membership on the
    two slots of each token, the module mod p and its set J
    (`weight_module`), the span (for gl whose primitive spaces generate,
    from its blocks at every point, read from each token on its own two
    slots; else on J's columns from the placed diagram generators, exact
    over Q for osp, the closure's first point for gl, mod p where the
    module was read and exact where it was not), the commutant certified
    against the first point's span rank, then, off the block route, one
    exact gl closure on every column where no certificate backs the count
    mod p, and the later gl points (see the module docstring).  `budget`
    bounds d before any work, and the spin and exact unknowns where they
    are built (BudgetError).  A malformed cell (m, n, r or s not an int,
    or a bool; r < 1, s < 0, s > 0 for osp, or points that are empty,
    repeated, or among 0 and +-1) raises ValueError before any work
    starts.
    """
    t0 = time.monotonic()
    points = list(points)
    _check_cell(flavor, m, n, r, s, points)
    datum = distinguished(flavor, m, n)
    if flavor == "gl":
        d = _check_dim(qgl.natural_space(datum).dim, r + s, budget)
        ctx = make_context("glq", datum=datum, budget=budget)
        kind = "hecke" if s == 0 else "walled"
        check_image_cap(kind, r, s)  # before any generator is built
        gens, point = _glq_generator_mats(datum, r, s), points[0]
    else:
        d = _check_dim(osp_mod.natural_space(m, n).dim, r, budget)
        ctx = make_context("osp_classical", m=m, n=n, budget=budget)
        kind = "brauer"
        brauer_count(r)  # before any generator is built
        gens, point = _osp_generator_mats(m, n, r), None
    heights = module_heights(datum, (1,) * r + (-1,) * s)
    # Every image is a product of the diagram generators, so once their
    # tokens are checked to centralise the symmetry generators on two slots,
    # the span rank is a lower bound for the commutant dimension.
    _check_tokens(kind, ctx, r, s, gens)
    # the images are ranked on the columns of J, which generates the module
    # mod p (at points[0] for gl); no module keeps every column
    module = weight_module(gens, heights, point)
    cols = None if module is None else module.columns
    if flavor == "osp":
        # int generators that generate mod p generate over Q: the exact
        # rank on J's columns is the exact rank on every column
        images = image_basis(kind, ctx, r, s, points, None, cols)
        rows = [vectorize(img) for img in images]
        label = _rarest_first(rows)
        ranks = [int_rank([{label[k]: v for k, v in row.items()}
                           for row in rows])]
        cdim, cert = commutant_dim_osp(gens, d, ranks[0], module, budget)
    else:
        # where the P_lam generate, the span is proved from its blocks,
        # read from the tokens on their own two slots
        route = (None if module is None or isinstance(module.blocks, str)
                 else _block_span(kind, ctx, r, s, points, module, gens))
        if route is not None:
            words, span = route
            lower = span.bound
        else:
            # mod p at points[0] where the module was read there, whose
            # residues then exist (every generator entry is a Laurent
            # polynomial in q); exactly where it was not
            dgens = diagram_generators(kind, ctx, r, s)
            ech = None if module is None else Echelon()
            words = image_basis(kind, ctx, r, s, points, ech, cols, dgens)
            lower = len(words)
        cdim, cert = commutant_dim_glq(gens, d, points, lower, module, budget)
        if route is not None:
            cert = replace(cert, words=tuple(words),
                           separating=tuple(span.separating))
            ranks = [lower] * len(points)
        else:
            if cert is None and ech is not None:
                # no certificate backs the count mod p: the exact closure,
                # on every column, counts the first point's exact rank
                ech = None
                words = image_basis(kind, ctx, r, s, points, ech, None, dgens)
            ranks = _later_ranks(words, ech, list(dgens.values()),
                                 ctx.space_of("+" * r + "-" * s), cols, points)
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
