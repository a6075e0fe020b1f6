import math

import pytest

from conftest import casimir
from qschur.rootdata import (RootDatum, admissible_orderings, distinguished,
                             odd_reflection, sdim_q, sdim_q_osp_closed_form)
from qschur.scalar import ONE, RatFunc, qint

GL_PAIRS_5 = [(m, n) for m in range(6) for n in range(6) if 1 <= m + n <= 5]
OSP_PAIRS = [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2)]


def test_form_examples():
    d = distinguished("gl", 2, 2)
    e1 = d.weight_of(("e", 1))
    d1 = d.weight_of(("d", 1))
    assert d.form(e1, e1) == 1
    assert d.form(d1, d1) == -1
    assert d.form(e1, d1) == 0
    with pytest.raises(ValueError):
        d.form((1, 0), e1)


def test_positive_roots_gl_examples():
    d = distinguished("gl", 1, 1)
    assert d.positive_roots() == [(1, -1)]  # e1 - d1
    d2 = distinguished("gl", 2, 0)
    assert d2.positive_roots() == [(1, -1)]  # e1 - e2


def test_positive_roots_osp32():
    # osp(3|2), ordering (d1, e1): positives {2d1, d1, d1 +- e1, e1}
    d = distinguished("osp", 3, 1)
    assert d.ordering == (("d", 1), ("e", 1))
    pos = set(d.positive_roots())
    assert pos == {(0, 2), (0, 1), (1, 1), (-1, 1), (1, 0)}
    evens = {r for r in pos if d.root_parity(r) == 0}
    odds = pos - evens
    assert evens == {(0, 2), (1, 0)}
    assert odds == {(0, 1), (1, 1), (-1, 1)}


def test_simple_roots_are_indecomposables():
    data = [distinguished("osp", m, n) for (m, n) in OSP_PAIRS + [(1, 1)]]
    data += admissible_orderings("osp", 5, 1) + admissible_orderings("osp", 4, 1)
    data += admissible_orderings("osp", 3, 2)
    data += [distinguished("gl", 2, 1), distinguished("gl", 2, 2)]
    for d in data:
        pos = set(d.positive_roots())
        # the positive roots that are not a sum of two positive roots
        indecomposable = [a for a in pos if not any(
            tuple(x - y for x, y in zip(a, b)) in pos for b in pos if b != a)]
        assert sorted(d.simple_roots()) == sorted(indecomposable), d.describe()


def test_simple_roots_are_roots():
    # so(2) has no roots, so osp(2|0) has no simple root
    for algebra in ("gl", "osp"):
        for m in range(7):
            for n in range(7 - m):
                if m + n:
                    datum = distinguished(algebra, m, n)
                    roots = set(datum.all_roots())
                    for alpha in datum.simple_roots():
                        assert alpha in roots, (datum.describe(), alpha)
    assert distinguished("osp", 2, 0).simple_roots() == []


def test_rho2_examples():
    d = distinguished("gl", 1, 1)
    assert d.rho2() == (-1, 1)  # -(e1 - d1): the single positive root is odd
    assert distinguished("gl", 2, 0).rho2() == (1, -1)  # e1 - e2


def test_rho2_orthogonal_to_isotropic_simples():
    for (m, n) in GL_PAIRS_5:
        for datum in admissible_orderings("gl", m, n):
            r2 = datum.rho2()
            for alpha in datum.simple_roots():
                if datum.form(alpha, alpha) == 0:
                    assert datum.form(r2, alpha) == 0
    for (m, n) in OSP_PAIRS:
        for datum in admissible_orderings("osp", m, n):
            r2 = datum.rho2()
            for alpha in datum.simple_roots():
                if datum.form(alpha, alpha) == 0 and datum.root_parity(alpha):
                    assert datum.form(r2, alpha) == 0


def test_casimir_examples():
    d = distinguished("gl", 2, 1)
    zero = (0,) * d.rank
    assert casimir(d, zero) == 0
    for (m, n) in OSP_PAIRS:
        datum = distinguished("osp", m, n)
        assert casimir(datum, datum.weight_of(datum.ordering[0])) \
            == m - 2 * n - 1
    # chi_s - chi_a = 2 on the gl natural tensor square
    for (m, n) in [(2, 1), (1, 2), (2, 2), (3, 1)]:
        datum = distinguished("gl", m, n)
        e1 = datum.weight_of(("e", 1))
        if m >= 2:
            lam_a = tuple(a + b for a, b in
                          zip(e1, datum.weight_of(("e", 2))))
        else:
            lam_a = tuple(a + b for a, b in
                          zip(e1, datum.weight_of(("d", 1))))
        lam_s = tuple(2 * a for a in e1)
        omega_v = casimir(datum, e1)
        chi_s = casimir(datum, lam_s) // 2 - omega_v
        chi_a = casimir(datum, lam_a) // 2 - omega_v
        assert chi_s == 1 and chi_a == -1


def test_admissible_ordering_counts():
    assert len(admissible_orderings("gl", 1, 1)) == 2
    assert len(admissible_orderings("gl", 2, 1)) == 3
    assert len(admissible_orderings("osp", 5, 1)) == 3  # l = 2, n = 1
    for (m, n) in GL_PAIRS_5:
        assert len(admissible_orderings("gl", m, n)) == math.comb(m + n, m)
    with pytest.raises(ValueError):
        admissible_orderings("gl", 7, 6)


def test_ordering_validation():
    with pytest.raises(ValueError):
        RootDatum("gl", 1, 1, (("e", 1),))
    with pytest.raises(ValueError):
        RootDatum("gl", 2, 0, (("e", 2), ("e", 1)))
    with pytest.raises(ValueError):
        RootDatum("sp", 1, 1, (("e", 1), ("d", 1)))


def test_odd_reflection_gl11():
    d = distinguished("gl", 1, 1)
    r = odd_reflection(d, 0)
    assert r.ordering == (("d", 1), ("e", 1))
    assert odd_reflection(r, 0) == d


def test_odd_reflection_shifts_rho2():
    for (m, n) in GL_PAIRS_5:
        for datum in admissible_orderings("gl", m, n):
            simples = datum.simple_roots()
            for s, alpha in enumerate(simples):
                if datum.form(alpha, alpha) != 0:
                    continue
                out = odd_reflection(datum, s)
                want = tuple(a + 2 * b for a, b in zip(datum.rho2(), alpha))
                assert out.rho2() == want
                assert sdim_q(out) == sdim_q(datum)
                assert odd_reflection(out, s).ordering == datum.ordering


def test_odd_reflection_rejects_non_isotropic():
    d = distinguished("gl", 2, 0)
    with pytest.raises(ValueError):
        odd_reflection(d, 0)
    with pytest.raises(IndexError):
        odd_reflection(d, 5)


def test_odd_reflection_rejects_sum_type_tail():
    # even osp with ordering ending (d_n, e_l): the tail simple root d_n + e_l
    # is isotropic odd but its reflection is not an admissible reordering
    datum = RootDatum("osp", 2, 1, (("d", 1), ("e", 1)))
    alpha = datum.simple_roots()[-1]
    assert datum.form(alpha, alpha) == 0 and datum.root_parity(alpha) == 1
    with pytest.raises(ValueError):
        odd_reflection(datum, 1)


def test_sdim_gl_is_root_datum_independent():
    for (m, n) in GL_PAIRS_5:
        for datum in admissible_orderings("gl", m, n):
            assert sdim_q(datum) == qint(m - n), datum.describe()


def test_sdim_osp_examples():
    assert sdim_q(distinguished("osp", 2, 1)) == RatFunc(0)
    assert sdim_q(distinguished("osp", 3, 1)) == ONE


def test_sdim_osp_closed_form_all_orderings():
    for (m, n) in OSP_PAIRS:
        closed = sdim_q_osp_closed_form(m, n)
        for datum in admissible_orderings("osp", m, n):
            assert sdim_q(datum) == closed, datum.describe()
        assert (closed == RatFunc(0)) == (m == 2 * n)


def test_describe_roundtrip_syntax():
    assert distinguished("gl", 2, 1).describe() == "gl 2|1 order=e1,e2,d1"
    assert distinguished("osp", 3, 2).describe() == "osp 3|4 order=d1,d2,e1"
