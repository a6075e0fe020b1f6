"""Centralizer dimensions versus diagram-image spans, exactly.

The commutant of a generator set on a tensor power is the nullspace of the
linear system [M, pi(x)] = 0 over all generators x.  Diagonal generators
(the K_a at a rational point, Cartan elements of osp, sigma = -1) are
processed first: each kills the unknowns M[i, j] whose diagonal profiles
differ, which partitions the indices into classes; the remaining
commutator rows are assembled only over the surviving unknowns.  This is
an elimination order for the full honest system, not a reduction of it.

`fft_report` runs both flavors through one sequence of stages: span ranks,
symmetry generators, membership, then the commutant (`commutant_dim_glq` /
`commutant_dim_osp`, over the generators the cell built).  One span
closure (`functor.image_basis`) multiplies every spanning image out of the
diagram generators (`functor.diagram_generators`: placed crossings,
turnbacks, s_i and e_i), and each of those is verified exactly to commute
with every symmetry generator; so every image does, and its span rank is
a lower bound for the commutant dimension.  For osp that
rank is exact over Q.  For quantum gl the images are reduced at each point
q = a straight to residues mod p and ranked in the F_p `Echelon`;
reduction mod p and specialisation can only lower a rank, so

    rank_p(span at a) <= rank_Q(span at a) <= generic span rank
                      <= commutant dim <= survivors - rank_p(rows),

where rank_p(rows) is the rank mod p of any prefix of the commutant rows.
The commutant rows are therefore assembled one symmetry generator at a
time and fed to the F_p `Echelon` until the two ends of the chain meet; no
rows are built past that stop, which proves `equal` and is recorded as a
`Certificate` (prime, point, rows used of rows assembled, survivors, rank).
If the bounds never meet, or a denominator vanishes mod p, the fallback
is logged and the exact path decides: one nullity over Q for osp, or for
quantum gl the least of the exact nullities at the rational points, each
of which is an upper bound for the nullity over Q(q) (`least_nullity`).
The gl cell then has one exact re-rank step: with a certificate, every
point whose rank mod p meets the bound has that exact rank too, and only
the points short of it are ranked exactly; without one, every point is,
of images rebuilt by an exact walled closure.  So `agreement` compares
exact ranks, and gap verdicts always come from exact arithmetic.
span_rank <= commutant_dim is asserted in every case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from . import osp as osp_mod
from . import qgl
from .diagrams import quotient_relations
from .errors import MembershipError, UnluckyPrime, UsageError, check_power
from .functor import (EvalContext, diagram_generators, evaluate, image_basis,
                      make_context)
from .rootdata import RootDatum, distinguished
from .scalar import RatFunc, qint
from .superspace import (DEFAULT_POINTS, Echelon, SparseMat, int_rank,
                         kron_chain, log_fallback, ranks_at, vectorize)

__all__ = [
    "FftReport", "fft_report", "commutant_dim_glq", "commutant_dim_osp",
    "check_membership", "RelationReport", "relation_check",
    "RELATION_ALGEBRA", "MembershipError", "commutant_nullity",
    "least_nullity", "Certificate", "certify_nullity",
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


def assemble_commutant_rows(gens: list[SparseMat], dim: int):
    """(survivor count, constraint rows) for the system [M, P] = 0.

    Diagonal P pin every unknown M[i,j] whose diagonal profiles differ;
    the commutator rows of the remaining generators are then assembled
    over the surviving unknowns only (unknown id = i*dim + j, row-major),
    generator by generator in the given order.
    """
    diag, other = _split_diagonal(gens, dim)
    profiles = {}
    for i in range(dim):
        profiles.setdefault(
            tuple(g.entries.get((i, i), 0) for g in diag), []).append(i)
    classmates = {}
    for members in profiles.values():
        for i in members:
            classmates[i] = members
    survivors = sum(len(members) ** 2 for members in profiles.values())
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


def certify_nullity(gens: list[SparseMat], dim: int, lower_bound: int,
                    point=None) -> Certificate | None:
    """Certificate that the nullity of [M, P] = 0 equals `lower_bound`.

    `gens` have int/Fraction entries (specialised at `point` if quantum).
    The rows of one non-diagonal generator at a time (with the diagonal
    ones, which fix the survivors) are assembled and fed to the F_p
    echelon, in the order `assemble_commutant_rows(gens, dim)` gives them,
    until survivors - rank meets the bound; no further rows are built.
    None, with the reason logged, if the bound is never met or a
    denominator vanishes mod p; the caller then takes the exact path.
    """
    diag, other = _split_diagonal(gens, dim)
    ech = Echelon()
    used = assembled = 0
    try:
        for batch in [diag + [P] for P in other] or [diag]:
            survivors, rows = assemble_commutant_rows(batch, dim)
            assembled += len(rows)
            for row in rows:
                if survivors - ech.rank <= lower_bound:
                    break
                ech.add(row)
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
    gens = [osp_mod.leibniz_tensor(X, r) for X in osp_mod.osp_basis(m, n)]
    gens.append(kron_chain([osp_mod.sigma(m, n)] * r))
    return gens


def least_nullity(gens, d, points) -> int:
    """Least exact nullity of the system specialised at the points.

    Specialising q can only lower the rank of the constraint rows, so each
    specialised nullity bounds the nullity over Q(q) from above; at a
    generic point it is equal.
    """
    return min(commutant_nullity([g.specialize(p) for g in gens], d)
               for p in points)


def commutant_dim_glq(gens, d: int, points, lower_bound: int):
    """(dim, certificate) for the quantum gl symmetry generators `gens`.

    dim End_{U_q} of the d-dimensional module: the rows specialised at
    points[0] are eliminated mod p until the proved `lower_bound` (the span
    rank) is met; the certificate is None where `least_nullity` decided.
    """
    point = points[0]
    cert = certify_nullity([g.specialize(point) for g in gens], d,
                           lower_bound, point)
    if cert is None:
        return least_nullity(gens, d, points), None
    return lower_bound, cert


def commutant_dim_osp(gens, d: int, lower_bound: int):
    """(dim, certificate) for the osp symmetry generators `gens`.

    dim End of the Harish-Chandra pair action on the d-dimensional module:
    the rows are eliminated mod p until `lower_bound` is met; the
    certificate is None where the exact nullity over Q decided.
    """
    cert = certify_nullity(gens, d, lower_bound)
    if cert is None:
        return commutant_nullity(gens, d), None
    return lower_bound, cert


# ---------------------------------------------------------------------------
# Membership.

def check_membership(images, gens) -> None:
    """Every image must commute with every generator, exactly.

    `images` is a list, or a dict from names to images (such as
    `diagram_generators` returns); the error names the failing one.
    """
    if isinstance(images, dict):
        named = {f"diagram generator {k}": v for k, v in images.items()}
    else:
        named = {f"image {idx}": v for idx, v in enumerate(images)}
    for name, img in named.items():
        for j, gen in enumerate(gens):
            if (img @ gen) != (gen @ img):
                raise MembershipError(
                    f"{name} does not centralise symmetry generator {j}")


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
    certificate: Certificate | None = None

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


# The images of a cell live only inside these functions, so that they are
# freed before the symmetry generators are built and the commutant
# elimination runs: the images or the elimination set the peak memory.

def _glq_span_ranks(ctx: EvalContext, kind: str, r: int, s: int,
                    points) -> list[int]:
    """Ranks mod p at the points of the Hecke or walled images.

    Each rank is a lower bound for the exact rank at its point; a point
    where a denominator vanishes mod p counts 0.
    """
    images = image_basis(kind, ctx, r, s, points=points)
    ranks = []
    for point in points:
        ech = Echelon()
        try:
            for img in images:
                ech.add(vectorize(img.residues(point)))
            ranks.append(ech.rank)
        except UnluckyPrime as exc:
            log_fallback(__name__, "span rank at q = %s: %s; exact rank",
                         point, exc)
            ranks.append(0)
    return ranks


def _glq_exact_ranks(ctx: EvalContext, kind: str, r: int, s: int, points,
                     at, exact: bool = False) -> list[int]:
    """Exact ranks at the points `at` of the images, rebuilt as
    `_glq_span_ranks` built them (the walled closure runs at points[0]),
    or with `exact` from a walled closure tested by exact re-ranks."""
    images = image_basis(kind, ctx, r, s, points=points, exact=exact)
    return ranks_at([vectorize(img) for img in images], at)


def _osp_span_rank(ctx: EvalContext, r: int) -> int:
    """Rank over Q of the Brauer images."""
    images = image_basis("brauer", ctx, r)
    return int_rank([vectorize(img) for img in images])


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
    The span rank is computed first and bounds the commutant elimination
    from below (see the module docstring).  A malformed cell (r < 1, s < 0,
    s > 0 for osp, or points that are empty, repeated, or among 0 and +-1)
    raises ValueError before any work starts.
    """
    t0 = time.monotonic()
    points = list(points)
    _check_cell(flavor, r, s, points)
    if flavor == "gl":
        datum = distinguished("gl", m, n)
        d = _check_unknowns(qgl.natural_space(datum).dim, r + s, budget)
        ctx = make_context("glq", datum=datum, budget=budget)
        kind = "hecke" if s == 0 else "walled"
        ranks = _glq_span_ranks(ctx, kind, r, s, points)
        gens = _glq_generator_mats(datum, r, s)
    else:
        d = _check_unknowns(osp_mod.natural_space(m, n).dim, r, budget)
        ctx = make_context("osp_classical", m=m, n=n, budget=budget)
        kind = "brauer"
        ranks = [_osp_span_rank(ctx, r)]
        gens = _osp_generator_mats(m, n, r)
    # Every image is a product of the diagram generators, so once those are
    # checked to centralise the symmetry generators, the span rank is a
    # lower bound for the commutant dimension.
    check_membership(diagram_generators(kind, ctx, r, s), gens)
    srank = max(ranks)
    if flavor == "gl":
        cdim, cert = commutant_dim_glq(gens, d, points, srank)
        # Once certified, rank_p <= rank_Q <= srank at every point, so only
        # the points short of srank need an exact rank; without a
        # certificate every point does, on images from the exact closure.
        short = [a for a, rk in zip(points, ranks)
                 if cert is None or rk < srank]
        if short:
            exact = dict(zip(short, _glq_exact_ranks(
                ctx, kind, r, s, points, short, exact=cert is None)))
            ranks = [exact.get(a, rk) for a, rk in zip(points, ranks)]
            srank = max(ranks)
    else:
        cdim, cert = commutant_dim_osp(gens, d, srank)
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
