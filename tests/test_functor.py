import functools
import itertools
import math
import random

import pytest

from conftest import closure_words
from qschur import diagrams
from qschur.diagrams import (BraidWord, RibbonWord,
                             braid_to_ribbon, brauer_basis, brauer_count,
                             closure, parse_braid)
from qschur.errors import VerificationError
from qschur.functor import (BudgetError, diagram_generators, diagram_images,
                            dual_braiding, evaluate, image_basis, invariant,
                            make_context, replay)
from qschur.osp import e_map
from qschur.qgl import braiding, natural_space, twist_scalar
from qschur.rootdata import distinguished, sdim_q
from qschur.scalar import ONE, Q, RatFunc, qint
from qschur.superspace import (DEFAULT_POINTS, Echelon, SparseMat,
                               graded_kron, int_rank, rank_at, tau, vectorize)


def test_make_context_glq():
    ctx = make_context("glq", datum=distinguished("gl", 1, 1))
    V2 = ctx.V.tensor(ctx.V)
    assert ctx.images["X+"] @ ctx.images["X-"] == SparseMat.identity(V2)
    # zigzags hold among the cached images
    iV = SparseMat.identity(ctx.V)
    assert graded_kron(iV, ctx.images["Om+"]) @ graded_kron(ctx.images["U+"], iV) == iV


def test_make_context_osp():
    ctx = make_context("osp_classical", m=3, n=1)
    t = tau(ctx.V, ctx.V)
    assert ctx.images["X+"] == t and ctx.images["X-"] == t
    assert ctx.images["U"] @ ctx.images["Om"] == e_map(3, 1)


def test_evaluate_nondirected_words():
    ctx = make_context("osp_classical", m=3, n=1)
    V = ctx.V
    d_v = V.dim
    w = RibbonWord("nondirected", (("X+", "I"), ("I", "X+")))
    got = evaluate(w, ctx)
    t = tau(V, V)
    iV = SparseMat.identity(V)
    assert got == graded_kron(iV, t) @ graded_kron(t, iV)
    loop = RibbonWord("nondirected", (("U",), ("Om",)))
    assert evaluate(loop, ctx).scalar_value() == 3 - 2  # m - 2n
    # cap then cup in the middle slot equals E placed there
    word = RibbonWord("nondirected", (("I", "Om", "I"), ("I", "U", "I")))
    placed = graded_kron(graded_kron(iV, e_map(3, 1)), iV)
    assert evaluate(word, ctx) == placed


def test_unsupported_mode_combinations():
    with pytest.raises(ValueError):
        make_context("mystery")


def test_evaluate_examples():
    d = distinguished("gl", 1, 1)
    ctx = make_context("glq", datum=d)
    ident_layer = RibbonWord("directed", (("I+", "I+"),))
    assert evaluate(ident_layer, ctx) == SparseMat.identity(ctx.V.tensor(ctx.V))
    w = braid_to_ribbon(parse_braid("s1", strands=2))
    assert evaluate(w, ctx) == braiding(d)
    loop = RibbonWord("directed", (("U+",), ("Om-",)))
    assert evaluate(loop, ctx).scalar_value() == sdim_q(d)


def test_evaluate_mode_mismatch():
    ctx = make_context("osp_classical", m=3, n=1)
    with pytest.raises(ValueError):
        evaluate(RibbonWord("directed", (("I+",),)), ctx)


def test_budget_guard():
    ctx = make_context("glq", datum=distinguished("gl", 2, 1), budget=8)
    with pytest.raises(BudgetError):
        evaluate(braid_to_ribbon(parse_braid("s1 s2", strands=3)), ctx)


def test_invariant_examples():
    ctx21 = make_context("glq", datum=distinguished("gl", 2, 1))
    assert invariant(parse_braid("", strands=1), ctx21) == ONE  # unknot [1]_q
    th = twist_scalar(distinguished("gl", 2, 1))
    assert invariant(parse_braid("s1"), ctx21) == th * qint(1)
    # regression fixture, computed by direct evaluation
    assert invariant(parse_braid("s1 s1"), ctx21) == Q**2
    ctx11 = make_context("glq", datum=distinguished("gl", 1, 1))
    for word in ("s1", "s1 s1", "s1 s2^-1 s1"):
        assert invariant(parse_braid(word), ctx11) == RatFunc(0)


def test_invariant_needs_glq():
    ctx = make_context("osp_classical", m=3, n=1)
    with pytest.raises(ValueError):
        invariant(parse_braid("s1"), ctx)


def test_framing_factor_per_kink():
    # one positive kink multiplies the unknot by the twist scalar
    for (m, n) in [(2, 1), (3, 1), (2, 0)]:
        d = distinguished("gl", m, n)
        ctx = make_context("glq", datum=d)
        th = twist_scalar(d)
        sd = sdim_q(d)
        assert invariant(parse_braid("s1"), ctx) == th * sd
        assert invariant(parse_braid("s1^-1"), ctx) == th.inverse() * sd
        assert invariant(parse_braid("s1 s1 s1"), ctx) != RatFunc(0)


def test_framed_trefoil_value():
    # g^3 = (z^2 + 1) g + z with z = q - q^-1, so the closure of s1 s1 s1 on
    # gl(2|1) evaluates to (z^2 + 1) theta sdim + z sdim^2 = q^3
    ctx = make_context("glq", datum=distinguished("gl", 2, 1))
    assert invariant(parse_braid("s1 s1 s1"), ctx) == Q**3


def test_markov_stabilization_adds_one_twist():
    d = distinguished("gl", 2, 1)
    ctx2 = make_context("glq", datum=d, budget=3**6)
    ctx3 = make_context("glq", datum=d, budget=3**6)
    th = twist_scalar(d)
    base = invariant(parse_braid("s1 s1", strands=2), ctx2)
    stab_pos = invariant(parse_braid("s1 s1 s2", strands=3), ctx3)
    stab_neg = invariant(parse_braid("s1 s1 s2^-1", strands=3), ctx3)
    assert stab_pos == th * base
    assert stab_neg == th.inverse() * base


def test_functoriality_and_monoidality_random_words():
    rng = random.Random(42)
    d = distinguished("gl", 1, 1)
    ctx = make_context("glq", datum=d)

    def random_word(strands, length):
        letters = tuple((rng.randint(1, strands - 1), rng.choice((1, -1)))
                        for _ in range(length))
        return braid_to_ribbon(BraidWord(strands, letters))

    for _ in range(50):
        strands = rng.randint(2, 3)
        w1 = random_word(strands, rng.randint(1, 3))
        w2 = random_word(strands, rng.randint(1, 3))
        stacked = w1.stack(w2)
        assert evaluate(stacked, ctx) == evaluate(w2, ctx) @ evaluate(w1, ctx)
        w3 = random_word(2, rng.randint(1, 2))
        juxt = w1.juxtapose(w3)
        assert evaluate(juxt, ctx) == graded_kron(evaluate(w1, ctx),
                                                  evaluate(w3, ctx))


def test_reidemeister_two_word_invariance():
    d = distinguished("gl", 2, 1)
    ctx = make_context("glq", datum=d)
    base = parse_braid("s1 s2^-1", strands=3)
    padded = BraidWord(3, base.letters + ((2, 1), (2, -1)))
    assert (evaluate(braid_to_ribbon(base), ctx)
            == evaluate(braid_to_ribbon(padded), ctx))


def test_markov_conjugation_invariance():
    d = distinguished("gl", 2, 1)
    # a 3-strand closure crosses V^3 (x) V*^3 = 3^6; raise the budget for it
    ctx = make_context("glq", datum=d, budget=3**6)
    for word in ("s1", "s1 s1", "s1 s2 s1"):
        w = parse_braid(word, strands=3)
        for conj in (1, 2):
            conjugated = BraidWord(
                3, ((conj, 1),) + w.letters + ((conj, -1),))
            assert invariant(conjugated, ctx) == invariant(w, ctx)


def test_image_basis_hecke():
    d = distinguished("gl", 1, 1)
    ctx = make_context("glq", datum=d)
    words, images = closure_words("hecke", ctx, 2, 0, None)
    assert words == image_basis("hecke", ctx, 2) == [None, (0, 0)]
    assert images[0] == SparseMat.identity(ctx.V.tensor(ctx.V))
    assert images[1] == braiding(d)


def test_image_basis_brauer():
    ctx = make_context("osp_classical", m=3, n=1)
    images = image_basis("brauer", ctx, 2)
    assert len(images) == 3
    assert int_rank([vectorize(im) for im in images]) == 3


def test_image_basis_walled_11():
    d = distinguished("gl", 2, 1)
    ctx = make_context("glq", datum=d)
    words, images = closure_words("walled", ctx, 1, 1, None)
    assert len(words) == 2  # id and the turnback
    assert rank_at([vectorize(im) for im in images], DEFAULT_POINTS) == 2
    turn = ctx.images["U+"] @ ctx.images["Om-"]
    assert any(im == turn for im in images)


@pytest.mark.parametrize("kind, m, n, r, s", [
    ("walled", 1, 1, 2, 1), ("walled", 1, 1, 2, 2), ("walled", 2, 1, 2, 2),
    ("hecke", 2, 1, 3, 0), ("hecke", 1, 1, 4, 0)])
def test_exact_and_mod_p_closures_keep_the_same_images(kind, m, n, r, s):
    # both closures return words, and the exact closure keeps the words
    # the mod-p closure keeps
    kept = {(1, 1, 2, 1): 6, (1, 1, 2, 2): 20, (2, 1, 2, 2): 24,
            (2, 1, 3, 0): 6, (1, 1, 4, 0): 20}[m, n, r, s]
    ctx = make_context("glq", datum=distinguished("gl", m, n))
    ech = Echelon()
    words, images = closure_words(kind, ctx, r, s, ech)
    assert len(words) == ech.rank == kept
    assert words[0] is None and all(k < j for j, (_, k)
                                    in enumerate(words[1:], 1))
    assert image_basis(kind, ctx, r, s) == words


def test_closure_keys_every_brauer_diagram():
    # delta = 1, 0 and -2: a product that closes a loop is skipped, and the
    # loop-free products still reach every diagram
    for (m, n), top in (((1, 1), 5), ((2, 1), 4), ((0, 1), 4)):
        ctx = make_context("osp_classical", m=m, n=n)
        for r in range(1, top + 1):
            images = diagram_images(ctx, r)
            assert set(images) == set(brauer_basis(r)), (m, n, r)
            assert list(images.values()) == image_basis("brauer", ctx, r)


def test_one_brauer_cap_bounds_the_diagrams_and_the_images(monkeypatch):
    assert brauer_count(6) == diagrams.BRAUER_CAP == 10395
    ctx = make_context("osp_classical", m=1, n=0)
    monkeypatch.setattr(diagrams, "BRAUER_CAP", 15)
    assert len(brauer_basis(3)) == len(image_basis("brauer", ctx, 3)) == 15
    for build in (brauer_basis, lambda r: image_basis("brauer", ctx, r)):
        with pytest.raises(BudgetError, match="exceed 15"):
            build(4)


def test_hecke_closure_keeps_one_lift_per_permutation_of_a_faithful_cell():
    ctx = make_context("glq", datum=distinguished("gl", 2, 1))
    for r in (1, 2, 3, 4):
        ech = Echelon()
        assert (len(image_basis("hecke", ctx, r, echelon=ech)) == ech.rank
                == math.factorial(r)), r
    # the longest element of S_3 comes last; the lifts of both of its
    # reduced words are one image (the braid relation)
    g1, g2 = diagram_generators("hecke", ctx, 3).values()
    assert closure_words("hecke", ctx, 3, 0, Echelon())[1][-1] == g1 @ g2 @ g1


def _reduced_word(perm):
    """The adjacent swaps (1-based) that bubble-sort `perm`: a reduced word."""
    perm, word = list(perm), []
    while True:
        i = next((i for i in range(len(perm) - 1) if perm[i] > perm[i + 1]),
                 None)
        if i is None:
            return word
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        word.append(i + 1)


@pytest.mark.parametrize("m, n, r", [(1, 1, 4), (1, 1, 5), (1, 0, 4)])
def test_hecke_closure_spans_every_reduced_word_lift(m, n, r):
    # not faithful: the kept images are fewer than r!, and each default
    # point ranks all r! lifts, built here as plain products of X+, to as
    # many
    ctx = make_context("glq", datum=distinguished("gl", m, n))
    gens = list(diagram_generators("hecke", ctx, r).values())
    ident = SparseMat.identity(ctx.V.tensor_power(r))
    lifts = [functools.reduce(lambda b, i: gens[i - 1] @ b,
                              _reduced_word(perm), ident)
             for perm in itertools.permutations(range(r))]
    kept = image_basis("hecke", ctx, r, echelon=Echelon())
    assert len(kept) < len(lifts) == math.factorial(r)
    for point in DEFAULT_POINTS:
        ech = Echelon()
        for lift in lifts:
            ech.add(vectorize(lift.residues(point)))
        assert ech.rank == len(kept), point


def test_image_basis_argument_checks():
    ctx = make_context("osp_classical", m=3, n=1)
    with pytest.raises(ValueError):
        image_basis("hecke", ctx, 2)
    with pytest.raises(ValueError):
        image_basis("walled", ctx, 1, 1)
    with pytest.raises(ValueError):
        image_basis("mystery", ctx, 2)
    # a Hecke cell is the walled cell s = 0, so s > 0 is no Hecke cell
    gl = make_context("glq", datum=distinguished("gl", 2, 1))
    with pytest.raises(ValueError, match="no V\\* strands"):
        image_basis("hecke", gl, 2, 1)
    # nor a Brauer cell: the osp natural module is self-dual
    with pytest.raises(ValueError, match="no V\\* strands"):
        image_basis("brauer", ctx, 2, 1)
    # no points is an error, not the default points; None means the defaults
    for kind, r, s in (("hecke", 3, 0), ("walled", 1, 1), ("brauer", 2, 0)):
        kind_ctx = ctx if kind == "brauer" else gl
        with pytest.raises(ValueError, match="specialisation point"):
            image_basis(kind, kind_ctx, r, s, [], Echelon())
        assert image_basis(kind, kind_ctx, r, s, None)


def test_dual_braiding_is_a_braiding():
    for (m, n) in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]:
        d = distinguished("gl", m, n)
        ctx = make_context("glq", datum=d)
        gd = dual_braiding(ctx)
        ident = SparseMat.identity(gd.src)
        # Hecke identity transports to the dual side
        lhs = (gd - ident.scale(Q)) @ (gd + ident.scale(Q**-1))
        assert lhs.is_zero(), (m, n)
        Vd = ctx.V.dual()
        iVd = SparseMat.identity(Vd)
        g1, g2 = graded_kron(gd, iVd), graded_kron(iVd, gd)
        assert g1 @ g2 @ g1 == g2 @ g1 @ g2


class _CountingEchelon(Echelon):
    """An `Echelon` that counts the rows offered to it and keeps the rows
    that raised its rank."""

    def __init__(self):
        super().__init__()
        self.offered, self.kept = 0, []

    def add(self, row):
        self.offered += 1
        if super().add(row):
            self.kept.append(row)
            return True
        return False


def _walled_closure_trying_every_product(gens, start):
    """The walled closure mod p without the skips: every g @ b is tried.
    Returns the kept residues, the echelon and the rows it offered to it."""
    ech = Echelon()
    kept = [start]
    ech.add(vectorize(start))
    offered = 1
    for b in kept:
        for g in gens:
            offered += 1
            c = g.matmul_mod(b)
            if ech.add(vectorize(c)):
                kept.append(c)
    return kept, ech, offered


@pytest.mark.parametrize("m, n, r, s", [
    (1, 1, 1, 1), (1, 1, 2, 1), (1, 1, 2, 2), (1, 1, 3, 2), (2, 1, 1, 1),
    (2, 1, 2, 1), (1, 2, 2, 1), (2, 2, 1, 1), (2, 0, 2, 2)])
def test_walled_closure_skips_a_generator_its_word_ends_in(m, n, r, s):
    # g_i @ b is not tried when b's word ends in g_i (the quadratic) or in
    # a g_h with h <= i - 2 (they commute).  Against the closure that tries
    # every product: the same rank, every residue it keeps is in the span,
    # and the span is closed under every generator
    ctx = make_context("glq", datum=distinguished("gl", m, n))
    point = DEFAULT_POINTS[0]
    gens = [g.residues(point)
            for g in diagram_generators("walled", ctx, r, s).values()]
    start = SparseMat.identity(ctx.space_of("+" * r + "-" * s))
    want, want_ech, offered = _walled_closure_trying_every_product(gens,
                                                                   start)
    ech = _CountingEchelon()
    words = image_basis("walled", ctx, r, s, echelon=ech)
    tried = ech.offered
    kept = replay(words, gens, start, SparseMat.matmul_mod)
    # the words, replayed mod p, are the residues the closure kept
    assert [vectorize(b) for b in kept] == ech.kept
    assert len(words) == ech.rank == want_ech.rank
    assert not any(ech.add(vectorize(c)) for c in want)
    assert not any(ech.add(vectorize(g.matmul_mod(b)))
                   for b in kept for g in gens)
    assert tried <= offered
    if (m, n, r, s) == (1, 1, 3, 2):
        assert (len(words), tried, offered) == (70, 136, 281)


def test_placed_walled_generators_on_disjoint_slots_commute():
    # the walled closure's commutation skip: g_i g_h = g_h g_i for
    # |i - h| >= 2, exactly over Q(q), on modules with both parities
    for m, n, r, s in ((1, 1, 3, 2), (2, 1, 2, 2), (1, 2, 2, 3)):
        ctx = make_context("glq", datum=distinguished("gl", m, n))
        gens = list(diagram_generators("walled", ctx, r, s).values())
        pairs = [(h, i) for i in range(len(gens)) for h in range(i - 1)]
        assert pairs
        for h, i in pairs:
            assert gens[i] @ gens[h] == gens[h] @ gens[i], (m, n, r, s, h, i)


def test_the_hecke_closure_is_the_walled_closure_at_s_0():
    # one rule for both gl kinds: the same generators, by name, and the
    # same candidates tried and words kept mod p (24 of 34 at r = 4)
    ctx = make_context("glq", datum=distinguished("gl", 2, 1))
    for r in (3, 4):
        assert (diagram_generators("hecke", ctx, r)
                == diagram_generators("walled", ctx, r, 0))
        runs = []
        for kind in ("hecke", "walled"):
            ech = _CountingEchelon()
            runs.append((image_basis(kind, ctx, r, 0, echelon=ech),
                         ech.offered))
        assert runs[0] == runs[1], r
    assert (len(runs[0][0]), runs[0][1]) == (24, 34)


def test_the_walled_closure_checks_the_hecke_quadratics(monkeypatch):
    # X+ and the dual X+ are checked against the Hecke quadratic before the
    # gl closure, Hecke or walled, relies on it; an involution fails it
    ctx = make_context("glq", datum=distinguished("gl", 2, 1))
    monkeypatch.setitem(ctx.images, "X+", tau(ctx.V, ctx.V))
    with pytest.raises(VerificationError, match="the braiding fails"):
        image_basis("walled", ctx, 2, 1)
    with pytest.raises(VerificationError, match="the braiding fails"):
        image_basis("hecke", ctx, 2)
    image_basis("walled", ctx, 1, 1)  # no X+ placed: nothing to check
    with pytest.raises(VerificationError, match="the dual braiding fails"):
        image_basis("walled", ctx, 1, 2)
