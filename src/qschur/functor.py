"""Evaluation of ribbon words to exact matrices, and diagram image bases.

A context fixes the flavor: "glq" interprets directed words over Q(q) with
V the natural quantum gl(m|n) module (crossings are the braiding, cups and
caps the duality maps); "osp_classical" interprets non-directed words over
Q with V the natural osp(m|2n) module (crossings are the signed flip, cup
and cap the invariant form and its snake inverse).

evaluate() maps each layer to a graded Kronecker product of token images
and multiplies the layers bottom to top.  invariant() evaluates the trace
closure of a braid word, a framed link invariant; the empty braid closes
to sdim_q per strand.

image_basis() produces the spanning sets the centralizer comparisons use:
Hecke (braiding lifts of reduced permutation words), Brauer (classical
diagram images via the certified diagram factorisation), and walled (the
algebra generated by V-side crossings, dualised V*-side crossings and the
wall turnback on V^{(x) r} (x) V*^{(x) s}).  Each set is multiplied out of
the placed elementary tangles that diagram_generators() returns, so every
image is a product of those generators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import osp as osp_mod
from . import qgl
from .diagrams import (BraidWord, BrauerDiagram, RibbonWord, brauer_basis,
                       closure, diagram_factor, perm_word)
from .errors import BudgetError, VerificationError, check_power
from .rootdata import RootDatum
from .scalar import RatFunc, qpow
from .superspace import (DEFAULT_POINTS, Echelon, SparseMat, SuperSpace,
                         UnluckyPrime, kron_chain, log_fallback, rank_at, tau,
                         unit_space, vectorize)

__all__ = [
    "EvalContext", "make_context", "evaluate", "invariant", "image_basis",
    "diagram_generators", "BudgetError", "brauer_diagram_matrix",
    "hecke_word_matrices", "dual_braiding",
]

DEFAULT_BUDGET = 625  # max dimension of any space met during evaluation
IMAGE_CAP = 5000  # max number of Hecke or walled images, r! or (r+s)!


@dataclass(frozen=True, eq=False)
class EvalContext:
    flavor: str                    # "glq" or "osp_classical"
    mode: str                      # "directed" or "nondirected"
    V: SuperSpace
    images: dict                   # token -> SparseMat
    budget: int = DEFAULT_BUDGET
    datum: RootDatum | None = None  # glq only
    mn: tuple[int, int] | None = None  # osp only

    def space_of(self, signs) -> SuperSpace:
        """Tensor space of a directed sign tuple (+ is V, - is V*)."""
        if not signs:
            return unit_space()
        out = None
        for s in signs:
            sp = self.V if s == "+" else self.V.dual()
            out = sp if out is None else out.tensor(sp)
        return out


def make_context(flavor: str, datum: RootDatum | None = None,
                 m: int | None = None, n: int | None = None,
                 budget: int = DEFAULT_BUDGET) -> EvalContext:
    """glq: directed words (V is not self-dual); osp_classical: non-directed."""
    if flavor == "glq":
        if datum is None or datum.algebra != "gl":
            raise ValueError("glq context needs a gl root datum")
        V = qgl.natural_space(datum)
        dm = qgl.duality_maps(datum)
        images = {
            "I+": SparseMat.identity(V),
            "I-": SparseMat.identity(V.dual()),
            "X+": qgl.braiding(datum),
            "X-": qgl.braiding_inverse(datum),
            "Om+": dm.omega,
            "Om-": dm.omega_p,
            "U+": dm.upsilon,
            "U-": dm.upsilon_p,
        }
        return EvalContext("glq", "directed", V, images, budget, datum=datum)
    if flavor == "osp_classical":
        if m is None or n is None:
            raise ValueError("osp_classical context needs m and n")
        V = osp_mod.natural_space(m, n)
        chat, ccheck = osp_mod.cupcap_maps(m, n)
        t = tau(V, V)
        images = {
            "I": SparseMat.identity(V),
            "X+": t,
            "X-": t,
            "Om": chat,
            "U": ccheck,
        }
        return EvalContext("osp_classical", "nondirected", V, images, budget,
                           mn=(m, n))
    raise ValueError(f"unknown flavor {flavor!r}")


def evaluate(word: RibbonWord, ctx: EvalContext) -> SparseMat:
    """Layer-wise graded Kronecker products, multiplied bottom to top."""
    if word.mode != ctx.mode:
        raise ValueError(f"word mode {word.mode!r} does not fit context "
                         f"mode {ctx.mode!r}")
    word.validate()
    total = None
    for layer in word.layers:
        mats = [ctx.images[tok] for tok in layer]
        lm = kron_chain(mats) if mats else SparseMat.identity(unit_space())
        if lm.src.dim > ctx.budget or lm.dst.dim > ctx.budget:
            raise BudgetError(
                f"layer dimension {max(lm.src.dim, lm.dst.dim)} exceeds "
                f"budget {ctx.budget}")
        total = lm if total is None else lm @ total
    return total


def invariant(w: BraidWord, ctx: EvalContext) -> RatFunc:
    """Framed invariant of the trace closure of a braid word.

    The closure passes through V^{(x) r} (x) V*^{(x) r}, so BudgetError is
    raised before it is built when dim(V)^{2r} exceeds the budget.
    """
    if ctx.flavor != "glq":
        raise ValueError("link invariants use the directed glq context")
    check_power(ctx.V.dim, 2 * w.strands, ctx.budget,
                "the closure's dimension")
    value = evaluate(closure(w), ctx).scalar_value()
    return value if isinstance(value, RatFunc) else RatFunc(value)


# ---------------------------------------------------------------------------
# Spanning sets.

def _placed(ctx: EvalContext, mat: SparseMat, i: int, r: int) -> SparseMat:
    iV = SparseMat.identity(ctx.V)
    return kron_chain([iV] * (i - 1) + [mat] + [iV] * (r - i - 1))


def hecke_word_matrices(ctx: EvalContext, r: int) -> list[SparseMat]:
    """Images of positive braid lifts of reduced words, one per permutation."""
    gi = [None] + list(diagram_generators("hecke", ctx, r).values())
    out = []
    for perm in itertools.permutations(range(r)):
        mat = SparseMat.identity(ctx.V.tensor_power(r))
        for i in perm_word(perm):
            mat = gi[i] @ mat
        out.append(mat)
    return out


def brauer_diagram_matrix(d: BrauerDiagram, m: int, n: int) -> SparseMat:
    """nu(d) through the certified factorisation d = alpha o M_k o beta."""
    r = d.strands
    rep = osp_mod.brauer_rep(m, n, r)
    V = osp_mod.natural_space(m, n)
    ident = SparseMat.identity(V.tensor_power(r))

    def perm_mat(perm):
        mat = ident
        for i in perm_word(perm):
            mat = rep[("s", i)] @ mat
        return mat

    alpha, k, beta = diagram_factor(d)
    mid = ident
    for t in range(k):
        mid = rep[("e", 2 * t + 1)] @ mid
    return perm_mat(alpha) @ mid @ perm_mat(beta)


def dual_braiding(ctx: EvalContext) -> SparseMat:
    """The positive braiding on V* (x) V*, transported through right duality.

    One right-duality sandwich turns c_{V,V} into the mixed crossing
    c_{V,V*} = (1 (x) 1 (x) Om')(1 (x) c_{V,V} (x) 1)(U' (x) 1 (x) 1),
    and a second turns that into
    c_{V*,V*} = (1 (x) 1 (x) Om')(1 (x) c_{V,V*} (x) 1)(U' (x) 1 (x) 1).
    The left-duality sandwich with the inverse middle yields the opposite
    handedness (it satisfies the inverse Hecke quadratic); this one matches
    the V-side convention, certified by the Hecke and braid-relation tests.
    """
    if ctx.flavor != "glq":
        raise ValueError("dual braiding lives in the glq context")
    iV, iVd = SparseMat.identity(ctx.V), SparseMat.identity(ctx.V.dual())
    omp, upp = ctx.images["Om-"], ctx.images["U-"]
    c_v_vd = (kron_chain([iVd, iV, omp])
              @ kron_chain([iVd, ctx.images["X+"], iVd])
              @ kron_chain([upp, iV, iVd]))
    return (kron_chain([iVd, iVd, omp])
            @ kron_chain([iVd, c_v_vd, iVd])
            @ kron_chain([upp, iVd, iVd]))


def _walled_generators(ctx: EvalContext, r: int,
                       s: int) -> dict[str, SparseMat]:
    V, Vd = ctx.V, ctx.V.dual()
    iV, iVd = SparseMat.identity(V), SparseMat.identity(Vd)
    out = {}
    for i in range(1, r):
        for tok in ("X+", "X-"):
            out[f"{tok} at strand {i}"] = kron_chain(
                [iV] * (i - 1) + [ctx.images[tok]] + [iV] * (r - i - 1)
                + [iVd] * s)
    if r >= 1 and s >= 1:
        turn = ctx.images["U+"] @ ctx.images["Om-"]  # V (x) V* -> V (x) V*
        out["wall turnback"] = kron_chain([iV] * (r - 1) + [turn]
                                          + [iVd] * (s - 1))
    if s >= 2:
        # the dual braiding obeys the Hecke quadratic of the V-side one,
        # so its inverse is gd - (q - q^-1), as in qgl.braiding_inverse
        gd = dual_braiding(ctx)
        ident = SparseMat.identity(gd.src)
        gd_inv = gd - ident.scale(qpow(1) - qpow(-1))
        if gd @ gd_inv != ident:
            raise VerificationError("the dual braiding fails the Hecke "
                                    "quadratic")
        for j in range(1, s):
            for tok, mat in (("X+", gd), ("X-", gd_inv)):
                out[f"dual {tok} at strand {r + j}"] = kron_chain(
                    [iV] * r + [iVd] * (j - 1) + [mat] + [iVd] * (s - j - 1))
    return out


def _walled_images(ctx: EvalContext, r: int, s: int, points,
                   exact: bool = False) -> list[SparseMat]:
    """Span closure of the walled generator algebra (contains the identity).

    A candidate g @ b is kept when its value at the first point is
    independent of the kept images' values.  The test runs on residues mod
    p: residue(g) o residue(b) is reduced incrementally against the kept
    ones, and only a kept candidate is multiplied out over Q(q).
    Independence mod p implies independence over Q, so every kept image is
    new, but a candidate independent over Q may be dropped.  If a
    denominator vanishes mod p, or with `exact`, the closure is redone with
    exact re-ranks of the specialised images instead.
    """
    gens = list(diagram_generators("walled", ctx, r, s).values())
    ident = SparseMat.identity(ctx.space_of(("+",) * r + ("-",) * s))
    point = list(points)[0]
    cap = math.factorial(r + s)
    if not exact:
        try:
            return _span_closure(ident, gens, cap,
                                 lambda mat: mat.residues(point),
                                 SparseMat.matmul_mod, Echelon().add)
        except UnluckyPrime as exc:
            log_fallback(__name__, "walled closure: %s; exact re-ranks", exc)
    rows = []

    def exact_add(row):
        if rank_at(rows + [row], [point]) > len(rows):
            rows.append(row)
            return True
        return False

    return _span_closure(ident, gens, cap, lambda mat: mat.specialize(point),
                         SparseMat.__matmul__, exact_add)


def _span_closure(ident, gens, cap, value, mul, add) -> list[SparseMat]:
    """Breadth-first products of gens on ident, until `cap` are kept.

    `value` maps an image over Q(q) to its value at the point (residues or
    a specialisation), and mul(value(g), value(b)) is the value of g @ b.
    The candidate is kept, and only then multiplied out over Q(q), where
    `add` accepts the row of its value.
    """
    gen_values = [(g, value(g)) for g in gens]
    ident_value = value(ident)
    add(vectorize(ident_value))
    basis = [ident]
    frontier = [(ident, ident_value)]
    while frontier and len(basis) < cap:
        new_frontier = []
        for b, b_value in frontier:
            for g, g_value in gen_values:
                c_value = mul(g_value, b_value)
                if add(vectorize(c_value)):
                    cand = g @ b
                    basis.append(cand)
                    new_frontier.append((cand, c_value))
                    if len(basis) >= cap:
                        return basis
        frontier = new_frontier
    return basis


#: The context flavor each kind of spanning set lives in.
_IMAGE_FLAVOR = {"hecke": "glq", "brauer": "osp_classical", "walled": "glq"}


def _check_kind(kind: str, ctx: EvalContext, r: int, s: int) -> None:
    if kind not in _IMAGE_FLAVOR:
        raise ValueError(f"unknown image basis kind {kind!r}")
    if ctx.flavor != _IMAGE_FLAVOR[kind]:
        raise ValueError(f"{kind} images live in the {_IMAGE_FLAVOR[kind]} "
                         "context")
    check_power(ctx.V.dim, r + s, ctx.budget, "dimension of the images")


def diagram_generators(kind: str, ctx: EvalContext, r: int,
                       s: int = 0) -> dict[str, SparseMat]:
    """The placed elementary tangles that image_basis multiplies out, by name.

    Hecke: the braiding X+ at strands i, i+1 for i = 1..r-1.  Brauer: the
    `osp.brauer_rep` images s_i and e_i.  Walled: X+ and X- on the V side,
    the wall turnback, and X+ and X- on the V* side.  Every image of the
    same kind is a product of these (the identity is the empty product), so
    a map that commutes with all of them commutes with the whole span.
    """
    _check_kind(kind, ctx, r, s)
    if kind == "hecke":
        return {f"X+ at strand {i}": _placed(ctx, ctx.images["X+"], i, r)
                for i in range(1, r)}
    if kind == "brauer":
        return {f"{g}{i}": mat
                for (g, i), mat in osp_mod.brauer_rep(*ctx.mn, r).items()}
    return _walled_generators(ctx, r, s)


def image_basis(kind: str, ctx: EvalContext, r: int, s: int = 0,
                points=None, exact: bool = False) -> list[SparseMat]:
    """Spanning set of diagram images on the r-th (mixed) tensor power, each
    a product of the matrices `diagram_generators` returns (Brauer images
    through the same cached `osp.brauer_rep`).

    The walled set is a span closure at the first point, tested mod p
    unless `exact` (see `_walled_images`); other kinds ignore `exact`.
    """
    _check_kind(kind, ctx, r, s)
    if kind != "brauer":
        count = 1
        for k in range(2, r + s + 1):  # stops as soon as k! > IMAGE_CAP
            count *= k
            if count > IMAGE_CAP:
                raise BudgetError(f"{r + s}! {kind} images exceed {IMAGE_CAP}")
    if kind == "hecke":
        return hecke_word_matrices(ctx, r)
    if kind == "brauer":
        return [brauer_diagram_matrix(d, *ctx.mn) for d in brauer_basis(r)]
    return _walled_images(ctx, r, s, points or DEFAULT_POINTS, exact)
