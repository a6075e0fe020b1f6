import itertools
from fractions import Fraction

import pytest

from qschur.diagrams import (BraidWord, BrauerDiagram, RibbonWord,
                             braid_to_ribbon, brauer_basis, closure,
                             compose_brauer, elementary_diagram,
                             identity_diagram, parse_braid,
                             quotient_relations)
from qschur.errors import BudgetError
from qschur.scalar import RatFunc, qint, qpow


def test_compose_examples():
    e = BrauerDiagram((1, 0, 3, 2))  # e_1 on two strands
    assert compose_brauer(e, e, 7) == (e, 7)  # one loop
    ident = identity_diagram(2)
    for d in brauer_basis(2):
        assert compose_brauer(ident, d, 7) == (d, 1)
        assert compose_brauer(d, ident, 7) == (d, 1)
    s = elementary_diagram("s", 1, 2)
    assert compose_brauer(s, s, 7) == (ident, 1)
    e1e3 = BrauerDiagram((1, 0, 3, 2, 5, 4, 7, 6))
    assert compose_brauer(e1e3, e1e3, 7) == (e1e3, 49)  # two loops


def test_compose_associative_exhaustive():
    for r in (2, 3):
        basis = brauer_basis(r)
        delta = Fraction(5)
        for d1, d2, d3 in itertools.product(basis, repeat=3):
            a12, s12 = compose_brauer(d1, d2, delta)
            left, sl = compose_brauer(a12, d3, delta)
            a23, s23 = compose_brauer(d2, d3, delta)
            right, sr = compose_brauer(d1, a23, delta)
            assert left == right and s12 * sl == s23 * sr


def test_basis_counts():
    assert len(brauer_basis(1)) == 1
    assert len(brauer_basis(2)) == 3
    assert len(brauer_basis(3)) == 15
    assert len(brauer_basis(5)) == 945
    with pytest.raises(BudgetError):
        brauer_basis(7)


def test_diagram_validation():
    with pytest.raises(ValueError):
        BrauerDiagram((1, 0, 3))  # odd size
    with pytest.raises(ValueError):
        BrauerDiagram((0, 1, 3, 2))  # fixed point


def test_elementary_diagrams():
    assert elementary_diagram("s", 1, 2) == BrauerDiagram((3, 2, 1, 0))
    assert elementary_diagram("e", 1, 2) == BrauerDiagram((1, 0, 3, 2))
    s2 = elementary_diagram("s", 2, 3)
    assert compose_brauer(s2, s2, 7) == (identity_diagram(3), 1)
    for bad in (("s", 0, 3), ("s", 3, 3), ("x", 1, 3)):
        with pytest.raises(ValueError):
            elementary_diagram(*bad)


def test_matrix_model_is_algebra_homomorphism():
    # compose_brauer matches matrix products in the osp model, delta = m - 2n
    from qschur.functor import diagram_images, make_context
    for (m, n) in [(3, 1), (2, 1)]:
        delta = Fraction(m - 2 * n)
        for r in (2, 3):
            ctx = make_context("osp_classical", m=m, n=n)
            mats = diagram_images(ctx, r)
            for d1, d2 in itertools.product(mats, repeat=2):
                dd, sc = compose_brauer(d1, d2, delta)
                assert mats[d1] @ mats[d2] == mats[dd].scale(sc), (m, n, r)
    # osp(0|2), delta = -2: the pairs at r = 4 that close two loops, where
    # a wrong loop count changes the scalar
    mats = diagram_images(make_context("osp_classical", m=0, n=1), 4)
    pairs = [(d1, d2) for d1, d2 in itertools.product(mats, repeat=2)
             if compose_brauer(d1, d2, 2)[1] == 4]
    assert len(pairs) == 27
    for d1, d2 in pairs:
        dd, sc = compose_brauer(d1, d2, Fraction(-2))
        assert sc == 4
        assert mats[d1] @ mats[d2] == mats[dd].scale(sc)


def test_braid_word_parsing():
    w = parse_braid("s1 s2^-1 s1")
    assert w.strands == 3
    assert w.letters == ((1, 1), (2, -1), (1, 1))
    assert parse_braid("", strands=2) == BraidWord(2, ())
    with pytest.raises(ValueError):
        parse_braid("t1")
    with pytest.raises(ValueError):
        parse_braid("s1^2")
    with pytest.raises(ValueError):
        parse_braid("s3", strands=2)
    assert w.inverse().letters == ((1, -1), (2, 1), (1, -1))


def test_braid_to_ribbon_examples():
    rw = braid_to_ribbon(parse_braid("", strands=2))
    assert rw.layers == (("I+", "I+"),)
    rw = braid_to_ribbon(BraidWord(3, ((1, 1),)))
    assert rw.layers == (("X+", "I+"),)
    rw = braid_to_ribbon(BraidWord(3, ((1, 1), (2, -1))))
    assert rw.layers == (("X+", "I+"), ("I+", "X-"))
    assert rw.source == ("+", "+", "+") and rw.target == ("+", "+", "+")


def test_ribbon_word_validation():
    with pytest.raises(ValueError):
        RibbonWord("directed", (("X+",), ("Om-",)))  # (+,+) into (+,-) cap
    with pytest.raises(ValueError):
        RibbonWord("directed", (("Z",),))
    with pytest.raises(ValueError):
        RibbonWord("sideways", (("I+",),))
    with pytest.raises(ValueError):
        RibbonWord("nondirected", (("Z",),))
    RibbonWord("directed", (("U+",), ("Om-",)))  # the unknot validates


def test_closure_examples():
    c = closure(parse_braid("", strands=1))
    assert c.source == () and c.target == ()
    assert c.layers[0] == ("U+",) and c.layers[-1] == ("Om-",)
    c2 = closure(parse_braid("s1"))
    assert c2.source == () and c2.target == ()
    # braid block sits between r cups and r caps
    assert len(c2.layers) == 2 + 2 + 1


def test_ribbon_json_roundtrip():
    w = closure(parse_braid("s1 s1"))
    assert RibbonWord.from_json(w.to_json()) == w


@pytest.mark.parametrize("text", [
    '[1]', '"s"', '{"mode": "directed"}', '{"mode": "directed", "layers": 5}',
    '{"mode": null, "layers": []}',
    '{"mode": "directed", "layers": [["I+", 2]]}',
    '{"mode": "directed", "layers": [[["I+"]]]}',
])
def test_ribbon_json_wrong_shape_raises_value_error(text):
    with pytest.raises(ValueError):
        RibbonWord.from_json(text)


def test_stack_and_juxtapose():
    a = braid_to_ribbon(parse_braid("s1", strands=2))
    b = braid_to_ribbon(parse_braid("s1^-1", strands=2))
    st = a.stack(b)
    assert st.layers == (("X+",), ("X-",))
    j = a.juxtapose(b)
    assert j.layers == (("X+", "X-"),)
    c = braid_to_ribbon(parse_braid("s1 s1", strands=2))
    j2 = a.juxtapose(c)  # shorter side padded with identities
    assert j2.layers == (("X+", "X+"), ("I+", "I+", "X+"))


def test_braid_to_ribbon_always_validates():
    import random
    rng = random.Random(77)
    for _ in range(60):
        strands = rng.randint(1, 5)
        letters = tuple((rng.randint(1, strands - 1), rng.choice((1, -1)))
                        for _ in range(rng.randint(0, 6))) if strands > 1 else ()
        w = BraidWord(strands, letters)
        rw = braid_to_ribbon(w)
        rw.validate()
        assert rw.source == ("+",) * strands
        closure(w).validate()


def test_quotient_relations():
    (hecke,) = quotient_relations("hecke")
    assert len(hecke.terms) == 3
    walled = quotient_relations("walledbmw", {"z": qint(1)})
    assert [r.name for r in walled] == [
        "X+ - X- - (q - q^-1) I", "Om- U+ - z", "Om+ U- - z"]
    with pytest.raises(ValueError):
        quotient_relations("bmw")  # checked in the osp spectral model
    with pytest.raises(ValueError):
        quotient_relations("walledbmw")
    with pytest.raises(ValueError):
        quotient_relations("temperleylieb")
