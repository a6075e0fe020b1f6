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
walled (the algebra generated by V-side crossings, dualised V*-side
crossings and the wall turnback on V^{(x) r} (x) V*^{(x) s}), Hecke (its
s = 0 case) and Brauer (the classical diagram images).  One breadth-first
span closure builds all three out of the placed elementary tangles that
diagram_generators() returns, so every image is a product of those
generators.  The closure works on keys alone and records each kept image
as its word, the pair (generator, earlier kept image); replay()
multiplies the words out, over Q(q), mod p or exactly at a point.  A
Brauer candidate is kept when its diagram is new (diagram_images()
returns that map).  The gl closure (Hecke and walled) is its own first
point and returns the words it kept: a candidate is kept when its value
at that point raises the rank of the kept ones, mod p in the caller's
`Echelon` or exactly by `rank_at`; or, given the caller's blocks
(`centralizer.BlockSpan`), its value is its k x k blocks on the module's
primitive spaces, kept while it fills a block or tells two blocks apart,
and the closure stops once they are full.  A candidate g_i @ b is tried
only when b's word does not end in g_i or in a generator on slots left
of g_i's (they commute).  Given the basis vectors of a set J that
generates the module, every closure (Brauer too) keeps each image as its
d x |J| columns on J, which fix an image that commutes with the symmetry
generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import osp as osp_mod
from . import qgl
from .diagrams import (BraidWord, BrauerDiagram, RibbonWord, brauer_count,
                       closure, compose_brauer, elementary_diagram,
                       identity_diagram)
from .errors import BudgetError, VerificationError, check_power
from .rootdata import RootDatum
from .scalar import RatFunc, qpow
from .superspace import (DEFAULT_POINTS, Echelon, SparseMat, SuperSpace,
                         check_points, kron_chain, rank_at, tau, unit_space,
                         vectorize)

__all__ = [
    "EvalContext", "make_context", "evaluate", "invariant", "image_basis",
    "diagram_images", "diagram_generators", "BudgetError", "dual_braiding",
    "check_image_cap", "identity_on", "replay", "walled_tokens",
]

DEFAULT_BUDGET = 625  # max dimension of any space met during evaluation
IMAGE_CAP = 5000  # max number of Hecke or walled images, r! or (r+s)!


@dataclass(frozen=True, eq=False)
class EvalContext:
    flavor: str                    # "glq" or "osp_classical"
    V: SuperSpace
    images: dict                   # token -> SparseMat
    budget: int = DEFAULT_BUDGET
    datum: RootDatum | None = None  # glq only
    mn: tuple[int, int] | None = None  # osp only
    #: maps built from `images` on first use (`dual_braiding`, the wall
    #: turnback of `walled_tokens`)
    derived: dict = field(default_factory=dict, init=False, repr=False)

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
        return EvalContext("glq", V, images, budget, datum=datum)
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
        return EvalContext("osp_classical", V, images, budget, mn=(m, n))
    raise ValueError(f"unknown flavor {flavor!r}")


def evaluate(word: RibbonWord, ctx: EvalContext) -> SparseMat:
    """Layer-wise graded Kronecker products, multiplied bottom to top."""
    mode = "directed" if ctx.flavor == "glq" else "nondirected"
    if word.mode != mode:
        raise ValueError(f"word mode {word.mode!r} does not fit context "
                         f"mode {mode!r}")
    word.validate()
    total = None
    for layer in word.layers:
        mats = [ctx.images[tok] for tok in layer]
        for side in ("src", "dst"):  # before the layer is built
            dim = 1
            for mat in mats:
                dim *= getattr(mat, side).dim
                if dim > ctx.budget:
                    raise BudgetError(f"a layer's dimension reaches {dim}, "
                                      f"past the budget {ctx.budget}")
        lm = kron_chain(mats) if mats else SparseMat.identity(unit_space())
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

def dual_braiding(ctx: EvalContext) -> SparseMat:
    """The positive braiding on V* (x) V*, transported through right duality.

    One right-duality sandwich turns c_{V,V} into the mixed crossing
    c_{V,V*} = (1 (x) 1 (x) Om')(1 (x) c_{V,V} (x) 1)(U' (x) 1 (x) 1),
    and a second turns that into
    c_{V*,V*} = (1 (x) 1 (x) Om')(1 (x) c_{V,V*} (x) 1)(U' (x) 1 (x) 1).
    The left-duality sandwich with the inverse middle yields the opposite
    handedness (it satisfies the inverse Hecke quadratic); this one matches
    the V-side convention, certified by the Hecke and braid-relation tests.
    It is built once per context, on first use, and kept in `ctx.derived`.
    """
    if ctx.flavor != "glq":
        raise ValueError("dual braiding lives in the glq context")
    if "dual X+" in ctx.derived:
        return ctx.derived["dual X+"]
    iV, iVd = SparseMat.identity(ctx.V), SparseMat.identity(ctx.V.dual())
    omp, upp = ctx.images["Om-"], ctx.images["U-"]
    c_v_vd = (kron_chain([iVd, iV, omp])
              @ kron_chain([iVd, ctx.images["X+"], iVd])
              @ kron_chain([upp, iV, iVd]))
    out = ctx.derived["dual X+"] = (kron_chain([iVd, iVd, omp])
                                    @ kron_chain([iVd, c_v_vd, iVd])
                                    @ kron_chain([upp, iVd, iVd]))
    return out


def walled_tokens(ctx: EvalContext, r: int,
                  s: int) -> list[tuple[str, SparseMat, int]]:
    """(name, T, t) for each diagram generator of the walled cell (r, s), in
    the gl closure's order: the token T on two slots and the first slot t
    (from 0) of the r + s it acts on.  X+ at each V-side strand, the wall
    turnback U+ Om- across the wall and the dual X+ at each V*-side strand
    (s = 0 gives Hecke's).  The turnback, like the dual braiding, is built
    once per context and kept in `ctx.derived`.

    No X- is placed: either braiding obeys the Hecke quadratic, checked
    exactly by the gl closure, so X- = X+ - (q - q^-1) lies in the span
    of X+ and the identity, and the algebra the closure spans, which
    contains the identity, is the same.
    """
    out = [(f"X+ at strand {i}", ctx.images["X+"], i - 1)
           for i in range(1, r)]
    if r >= 1 and s >= 1:
        if "wall turnback" not in ctx.derived:  # V (x) V* -> V (x) V*
            ctx.derived["wall turnback"] = ctx.images["U+"] @ ctx.images["Om-"]
        out.append(("wall turnback", ctx.derived["wall turnback"], r - 1))
    if s >= 2:
        gd = dual_braiding(ctx)
        out += [(f"dual X+ at strand {r + j}", gd, r + j - 1)
                for j in range(1, s)]
    return out


def _walled_generators(ctx: EvalContext, r: int,
                       s: int) -> dict[str, SparseMat]:
    """Each of the `walled_tokens` placed as id (x) T (x) id on the whole
    V^{(x) r} (x) V*^{(x) s}, as the gl closure multiplies them out."""
    iV, iVd = SparseMat.identity(ctx.V), SparseMat.identity(ctx.V.dual())
    ids = [iV] * r + [iVd] * s
    return {name: kron_chain(ids[:t] + [T] + ids[t + 2:])
            for name, T, t in walled_tokens(ctx, r, s)}


def _check_hecke_quadratic(g: SparseMat, what: str) -> None:
    """g (g - (q - q^-1)) = 1 exactly, the quadratic of
    `qgl.braiding_inverse`; VerificationError names `what` fails it."""
    ident = SparseMat.identity(g.src)
    if g @ (g - ident.scale(qpow(1) - qpow(-1))) != ident:
        raise VerificationError(f"{what} fails the Hecke quadratic")


def check_image_cap(kind: str, r: int, s: int) -> int:
    """(r+s)!, the most Hecke or walled images, once it is at most
    IMAGE_CAP; BudgetError as soon as the product passes the cap."""
    cap = 1
    for k in range(2, r + s + 1):
        cap *= k
        if cap > IMAGE_CAP:
            raise BudgetError(f"the {kind} images on {r + s} strands exceed "
                              f"{IMAGE_CAP}")
    return cap


def _gl_images(kind: str, ctx: EvalContext, r: int, s: int, point,
               echelon: Echelon | None, columns=None, gens=None,
               blocks=None) -> list:
    """Span closure of the Hecke or walled generators at q = `point`.

    A candidate g @ b is tested by its value at the point, the product of
    the kept values, and kept only when it raises the rank there: mod p in
    `echelon` (residues multiplied by `matmul_mod`), or with no echelon
    exactly, by `rank_at` on specialised values.  Independence at the point
    implies independence over Q(q), so every kept image is new;
    UnluckyPrime if a denominator vanishes mod p.  With `blocks` (a
    `centralizer.BlockSpan`) the value is instead the tuple of the k x k
    blocks on the primitive spaces, multiplied block by block: `gens` are
    then the generators' values, already read (`BlockSpan.value`), and the
    closure starts from `blocks.identity`; a candidate is kept by
    `blocks.add`, and the closure stops once `blocks.full`.  Either way
    the kept words are returned, for `replay`, and nothing is multiplied
    over Q(q).

    Generator g_i acts on strands i, i+1 (X+ for i < r, the wall turnback
    for i = r, the dual X+ beyond; a Hecke cell is the walled cell s = 0,
    with X+ alone).  A candidate g_i @ b is not tried when b = g_h @ b'
    (b's word ends in g_h) with h = i or h <= i - 2.
    Call b of level l (its word's length) closed under g_i when g_i @ b is
    in the span of the kept images of level <= l + 1, as every tried
    candidate is; by induction on (l, i) every kept b is closed under every
    g_i, so the kept images span the algebra.
    - h = i: each token obeys a quadratic on its two slots, so g_i @ b is
      in the span of b and b'.  X+ and the dual X+ are checked here against
      the Hecke quadratic, after membership (`fft_report`), which names a
      token that is no module map; the wall turnback e = U+ Om- obeys
      e e = U+ (Om- U+) Om- = delta e, delta = Om- U+ the loop value.
    - h <= i - 2: g_h and g_i act on disjoint slots and their tokens are
      even (membership checks them against the parity operator), so
      g_i @ b = g_h @ (g_i @ b'); g_i @ b' is a sum of kept k of level
      <= l, and each g_h @ k is closed, as (level of k, h) < (l, i).

    With `columns` (the basis vectors of a set J), the closure starts from
    the identity restricted to J, so every image is kept as its d x |J|
    columns on J: g @ (b on J) is (g @ b) on J.  Dropping columns can only
    lower a rank; where J generates the module under maps that every image
    commutes with, a combination of images that vanishes on J vanishes, so
    the same words are kept in the same order.  Without `blocks`, `gens`
    are the `diagram_generators` (built here when None).  With `blocks`
    the kept images need not span the algebra, only fill the blocks, which
    the caller checks; there the rules above only prune candidates.
    """
    cap = check_image_cap(kind, r, s)
    if r >= 2:
        _check_hecke_quadratic(ctx.images["X+"], "the braiding")
    if s >= 2:
        _check_hecke_quadratic(dual_braiding(ctx), "the dual braiding")
    if blocks is not None:
        values, start = list(gens), blocks.identity
        product, raises = blocks.product, blocks.add
    else:
        if echelon is None:
            rows = []

            def raises(img):
                row = vectorize(img)
                if rank_at(rows + [row], [point]) > len(rows):
                    rows.append(row)
                    return True
                return False
            value, product = SparseMat.specialize, SparseMat.__matmul__
        else:
            def raises(img):
                return echelon.add(vectorize(img))
            value, product = SparseMat.residues, SparseMat.matmul_mod
        if gens is None:
            gens = diagram_generators(kind, ctx, r, s)
        values = [value(g, point) for g in gens.values()]
        start = value(identity_on(ctx.space_of(("+",) * r + ("-",) * s),
                                  columns), point)

    def mul(g_key, b_key):
        # a key's tag: the last generator of its word, 0 for the identity
        (i, g), (h, b) = g_key, b_key
        if h == i or 0 < h <= i - 2:
            return None
        return i, product(g, b)

    return [word for _, word in _span_closure(
        list(enumerate(values, 1)), (0, start),
        cap, mul, lambda key: raises(key[1]),
        (lambda: blocks.full) if blocks is not None else bool)]


def identity_on(space: SuperSpace, columns) -> SparseMat:
    """The identity of `space`, or with `columns` (the basis vectors of a set
    J) its d x |J| columns on J, from which a span closure starts."""
    if columns is None:
        return SparseMat.identity(space)
    return SparseMat(SuperSpace(tuple(space.parities[j] for j in columns)),
                     space, {(j, c): 1 for c, j in enumerate(columns)})


def _loop_free(upper: BrauerDiagram, lower: BrauerDiagram):
    """upper o lower, or None where stacking them closes a loop."""
    d, weight = compose_brauer(upper, lower, 0)  # 0 ** loops
    return d if weight else None


def diagram_images(ctx: EvalContext, r: int, columns=None,
                   gens=None) -> dict[BrauerDiagram, SparseMat]:
    """nu(d) for every Brauer diagram d on r strands.

    The span closure keys each image by its diagram: g @ b is new when
    diagram(g) o d(b) is, and a product that closes a loop is skipped, so
    each image is nu(g) nu(b) = nu(diagram(g) o d(b)).  With `columns` (the
    basis vectors of a set J) the closure starts from the identity
    restricted to J, as the gl closure does, so each image is kept as its
    d x |J| columns on J.  `gens` are the `diagram_generators` (built here
    when None).
    """
    _check_kind("brauer", ctx, r, 0)
    cap = brauer_count(r)
    if gens is None:
        gens = diagram_generators("brauer", ctx, r)
    keys = [elementary_diagram(letter, i, r)
            for letter, i in osp_mod.brauer_rep(*ctx.mn, r)]
    seen = set()

    def is_new(d):
        if d in seen:
            return False
        seen.add(d)
        return True

    kept = _span_closure(keys, identity_diagram(r), cap, _loop_free, is_new)
    images = replay([word for _, word in kept], list(gens.values()),
                    identity_on(ctx.V.tensor_power(r), columns))
    return {key: img for (key, _), img in zip(kept, images)}


def _span_closure(gens, ident, cap, mul, keep, done=bool) -> list:
    """Breadth-first products g @ b of gens on ident, on their keys alone.

    `ident` and each of `gens` is a key; mul(g, b) is the key of g @ b, or
    None to skip it, and keep(key) accepts a new key.  Returns the kept
    (key, word) pairs level by level, stopping once `cap` are kept or
    done() holds: the word None for the identity, (i, k) for gens[i]
    applied to the k-th kept image, which `replay` multiplies out.
    """
    keep(ident)
    kept = [(ident, None)]
    for k, (b, _) in enumerate(kept):  # a queue: kept grows while it is walked
        for i, g in enumerate(gens):
            if done():
                return kept
            c = mul(g, b)
            if c is not None and keep(c):
                kept.append((c, (i, k)))
                if len(kept) >= cap:
                    return kept
    return kept


def replay(words, gens, start, product=None) -> list:
    """The images that a span closure's kept words spell, in order: the word
    None is `start`, and (i, k) is gens[i] applied to the k-th image.

    Given the generators over Q(q) (and `product` None, for `@`), it gives
    the images over Q(q); given their residues at a point and
    `SparseMat.matmul_mod`, the images mod p there; given their
    specialisations, the exact images there.
    """
    product = product or SparseMat.__matmul__
    images = []
    for word in words:
        images.append(start if word is None
                      else product(gens[word[0]], images[word[1]]))
    return images


#: The context flavor each kind of spanning set lives in.
_IMAGE_FLAVOR = {"hecke": "glq", "brauer": "osp_classical", "walled": "glq"}


def _check_kind(kind: str, ctx: EvalContext, r: int, s: int) -> None:
    if kind not in _IMAGE_FLAVOR:
        raise ValueError(f"unknown image basis kind {kind!r}")
    if ctx.flavor != _IMAGE_FLAVOR[kind]:
        raise ValueError(f"{kind} images live in the {_IMAGE_FLAVOR[kind]} "
                         "context")
    if s and kind != "walled":
        raise ValueError(f"{kind} images have no V* strands: s is {s}, not 0")
    check_power(ctx.V.dim, r + s, ctx.budget, "dimension of the images")


def diagram_generators(kind: str, ctx: EvalContext, r: int,
                       s: int = 0) -> dict[str, SparseMat]:
    """The placed elementary tangles that image_basis multiplies out, by name.

    Walled, and Hecke as its s = 0 case: X+ on the V side, the wall
    turnback, and the dual X+ on the V* side (`_walled_generators`).
    Brauer: the `osp.brauer_rep` images s_i and e_i.  Every image of the
    same kind is a product of these (the identity is the empty product),
    so a map that commutes with all of them commutes with the whole span.
    """
    _check_kind(kind, ctx, r, s)
    if kind == "brauer":
        return {f"{g}{i}": mat
                for (g, i), mat in osp_mod.brauer_rep(*ctx.mn, r).items()}
    return _walled_generators(ctx, r, s)


def image_basis(kind: str, ctx: EvalContext, r: int, s: int = 0,
                points=None, echelon: Echelon | None = None, columns=None,
                gens=None, blocks=None) -> list:
    """Spanning set of diagram images on the r-th (mixed) tensor power, each
    a product of the matrices `diagram_generators` returns: for Brauer the
    images, the values of `diagram_images`; for Hecke and walled the words
    of the images `_gl_images` keeps at the first of `points`, which
    `replay` multiplies out.  With an `echelon` the gl closure ranks them
    mod p into it, where the caller reads that point's rank and pivot
    columns; with none it ranks exactly, so their count is the exact rank
    there.  With `blocks` (a `centralizer.BlockSpan`, and no `columns`) it
    runs on the images' blocks on the primitive spaces and stops once they
    are full; `gens` are then required: the diagram generators' blocks at
    the first point, in `diagram_generators`' order, as `BlockSpan.value`
    reads them from each token on its own two slots, so no placed
    generator is built.  The caller reads `blocks.full`, and the count of
    words is then no rank.  Otherwise every caller may pass the generators
    it already built as `gens`, and the basis vectors of a generating set
    J as `columns`: each image, Brauer ones included, is then kept as its
    columns on J only.
    `points` None means DEFAULT_POINTS; an empty sequence is a ValueError.
    """
    points = check_points(DEFAULT_POINTS if points is None else points)
    _check_kind(kind, ctx, r, s)
    if kind == "brauer":
        return list(diagram_images(ctx, r, columns, gens).values())
    return _gl_images(kind, ctx, r, s, points[0], echelon, columns, gens,
                      blocks)
