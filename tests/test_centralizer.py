import math
import re
from fractions import Fraction

import pytest

import dataclasses

import conftest
from conftest import (assert_certified, closure_words, commutator_rows,
                      dense_nullity, dense_rank, ratfunc_rank, token_values)
from qschur import centralizer
from qschur import osp as osp_mod
from qschur import functor, qgl, superspace
from qschur.centralizer import (DEFAULT_UNKNOWN_BUDGET, MembershipError,
                                PrimitiveCertificate,
                                SpinCertificate, _glq_generator_mats,
                                _osp_generator_mats, assemble_commutant_rows,
                                certify_primitive, certify_spin,
                                check_membership,
                                commutant_dim_glq, commutant_dim_osp,
                                commutant_nullity, fft_report,
                                least_nullity, module_heights,
                                relation_check, weight_module)
from qschur.errors import UnluckyPrime, UsageError, VerificationError
from qschur.functor import (BudgetError, diagram_generators, identity_on,
                            image_basis, make_context, replay, walled_tokens)
from qschur.qgl import act_on_signs, generator_names, natural_rep
from qschur.rootdata import distinguished
from qschur.scalar import Q, RatFunc, qint
from qschur.superspace import (DEFAULT_POINTS, PRIME, Echelon, SparseMat,
                               SuperSpace, kron_chain, on_slots, ranks_at,
                               tau, vectorize)

# Oracle-produced commutant dimensions, frozen (brute-force nullspace at the
# default points; cross-checked against the dense oracle on the small cells).
GLQ_DIMS = {
    (1, 1, 1): 1, (1, 1, 2): 2, (1, 1, 3): 6,
    (2, 1, 2): 2, (2, 1, 3): 6,
    (1, 2, 2): 2, (2, 2, 2): 2,
}
OSP_DIMS = {
    (1, 1, 2): 3, (1, 1, 3): 15,
    (2, 1, 2): 3,
    (3, 1, 2): 3, (3, 1, 3): 15,
    (4, 1, 2): 3,
    (3, 2, 2): 3,
}


def glq_exact_dim(m, n, r):
    gens = _glq_generator_mats(distinguished("gl", m, n), r)
    return least_nullity(gens, (m + n) ** r, DEFAULT_POINTS)


def osp_exact_dim(m, n, r):
    return commutant_nullity(_osp_generator_mats(m, n, r), (m + 2 * n) ** r)


def _whole_osp_basis_mats(m, n, r):
    """Every element of osp_basis and sigma^{(x) r} on V^{(x) r}."""
    gens = [osp_mod.leibniz_tensor(X, r) for X in osp_mod.osp_basis(m, n)]
    gens.append(kron_chain([osp_mod.sigma(m, n)] * r))
    return gens


def test_commutant_glq_schur():
    assert glq_exact_dim(1, 1, 1) == 1
    assert glq_exact_dim(2, 1, 1) == 1


def test_commutant_glq_frozen_dims():
    for (m, n, r), want in GLQ_DIMS.items():
        assert glq_exact_dim(m, n, r) == want


def test_commutant_glq_exact_mode_agrees():
    # exact Q(q) elimination must reproduce the specialised values
    for (m, n, r) in [(1, 1, 1), (1, 1, 2), (2, 1, 2), (1, 2, 2), (1, 1, 3)]:
        d = distinguished("gl", m, n)
        gens = _glq_generator_mats(d, r)
        dim = gens[0].rows
        exact = dim * dim - ratfunc_rank(commutator_rows(gens, dim))
        assert exact == GLQ_DIMS[(m, n, r)]


def test_commutant_against_dense_oracle():
    # gl(1|1), r = 2, assembled densely and solved by the independent oracle
    d = distinguished("gl", 1, 1)
    rep = natural_rep(d)
    pt = Fraction(7, 5)
    gens = [act_on_signs(rep, gen, (1, 1)).specialize(pt)
            for gen in generator_names(d)]
    assert dense_nullity(commutator_rows(gens, 4), 16) == GLQ_DIMS[(1, 1, 2)]


def test_commutant_osp_frozen_dims():
    assert osp_exact_dim(3, 1, 1) == 1
    for (m, n, r), want in OSP_DIMS.items():
        assert osp_exact_dim(m, n, r) == want


def test_classical_quantum_dimension_match():
    # the classical gl(m|n) commutant: Leibniz action of all matrix units
    for (m, n, r) in [(1, 1, 2), (2, 1, 2), (1, 1, 3), (2, 1, 3)]:
        V = qgl.natural_space(distinguished("gl", m, n))
        gens = [osp_mod.leibniz_tensor(SparseMat(V, V, {(a, b): 1}), r)
                for a in range(V.dim) for b in range(V.dim)]
        assert commutant_nullity(gens, V.dim ** r) == GLQ_DIMS[(m, n, r)]


def test_span_rank_examples():
    d = distinguished("gl", 1, 1)
    ctx = make_context("glq", datum=d)
    ident = SparseMat.identity(ctx.V.tensor(ctx.V))
    assert max(ranks_at([vectorize(ident)], DEFAULT_POINTS)) == 1
    images = closure_words("hecke", ctx, 2, 0, None)[1]
    assert max(ranks_at([vectorize(i) for i in images], DEFAULT_POINTS)) == 2


def test_membership_detects_non_centralizing():
    d = distinguished("gl", 1, 1)
    rep = natural_rep(d)
    gens = [act_on_signs(rep, g, (1, 1)) for g in generator_names(d)]
    bad = act_on_signs(rep, "e1", (1, 1))  # not central
    with pytest.raises(MembershipError):
        check_membership({"e1": bad}, gens)


def test_fft_report_gl_cells():
    for (m, n, r), want in GLQ_DIMS.items():
        if r == 1:
            continue
        rep = fft_report("gl", m, n, r)
        assert rep.verdict == "equal"
        assert rep.commutant_dim == rep.span_rank == want
        assert rep.agreement
        assert_certified(rep)
        assert rep.certificate.point == str(DEFAULT_POINTS[0])


def test_fft_report_walled_cell():
    rep = fft_report("gl", 2, 1, 1, s=1)
    assert rep.verdict == "equal"
    assert rep.commutant_dim == 2
    assert_certified(rep)


def test_fft_report_osp_cells():
    for (m, n, r), want in OSP_DIMS.items():
        rep = fft_report("osp", m, n, r)
        assert rep.verdict == "equal"
        assert rep.commutant_dim == rep.span_rank == want
        assert_certified(rep)
        assert rep.certificate.point is None
        if m % 2 == 0:
            assert rep.bound == m * (2 * n + 1)
            assert rep.bound_ok == (2 * r < rep.bound)


def test_fft_report_even_m_out_of_bound_experiment():
    # osp(2|2) at r = 3 sits outside the spanning bound (2r = 6 = m(2n+1)).
    # The bound is sufficient, not necessary: record, do not assert equality.
    rep = fft_report("osp", 2, 1, 3)
    assert rep.bound_ok is False
    assert rep.span_rank <= rep.commutant_dim


def test_fft_report_json_shape():
    rep = fft_report("gl", 1, 1, 2)
    data = rep.to_dict()
    for key in ("flavor", "m", "n", "r", "s", "commutant_dim", "span_rank",
                "points", "agreement", "verdict"):
        assert key in data
    assert "wall_clock_ms" not in data
    assert "wall_clock_ms" in rep.to_dict(with_timing=True)
    assert rep.certificate is not None and "certificate" not in data


def test_relation_check_hecke():
    report = relation_check("hecke", 2, 1, r=3)
    assert report.all_zero
    assert len(report.items) == 2


def test_relation_check_walledbmw():
    for (m, n) in [(2, 1), (1, 1)]:
        report = relation_check("walledbmw", m, n, z=qint(m - n))
        assert report.all_zero, (m, n)
    # default z is [m-n]_q
    assert relation_check("walledbmw", 2, 1).all_zero
    # a wrong loop parameter must be caught
    bad = relation_check("walledbmw", 2, 1, z=qint(3))
    assert not bad.all_zero


def test_relation_check_bmw_and_brauer():
    for (m, n) in [(1, 1), (2, 1), (3, 1), (4, 1), (3, 2)]:
        assert relation_check("bmw", m, n).all_zero
    assert relation_check("brauer", 3, 1, r=3).all_zero
    with pytest.raises(ValueError):
        relation_check("mystery", 1, 1)


@pytest.mark.parametrize("kind", ["hecke", "bmw", "brauer"])
def test_relation_check_rejects_z_outside_walledbmw(kind):
    # the loop parameter is rejected, not ignored: it used to leave all_zero
    with pytest.raises(UsageError, match="walledbmw family only"):
        relation_check(kind, 3, 1, z=qint(5))


@pytest.mark.parametrize("kind", ["hecke", "walledbmw", "bmw", "brauer"])
@pytest.mark.parametrize("r", [1, 0, -3])
def test_relation_check_rejects_fewer_than_two_strands(kind, r):
    with pytest.raises(ValueError):
        relation_check(kind, 2, 1, r=r)


def test_relation_check_places_on_r_strands():
    names = [nm for nm, _, _ in relation_check("walledbmw", 2, 1, r=3).items]
    assert any(nm.endswith("at position 2") for nm in names)
    assert not any(nm.endswith("at position 3") for nm in names)
    names = [nm for nm, _, _ in relation_check("brauer", 1, 1, r=3).items]
    assert "s2^2 = 1" in names and "s3^2 = 1" not in names


def test_relation_check_budget():
    # gl(2|1): dim V^(x)3 = 27; osp(3|2): dim V^(x)3 = 125
    with pytest.raises(BudgetError):
        relation_check("hecke", 2, 1, r=3, budget=26)
    assert relation_check("hecke", 2, 1, r=3, budget=27).all_zero
    with pytest.raises(BudgetError):
        relation_check("brauer", 3, 1, r=3, budget=124)
    with pytest.raises(BudgetError):
        relation_check("walledbmw", 2, 1, r=2, budget=8)


def test_commutant_nullity_trivial_cases():
    from qschur.superspace import SuperSpace
    V = SuperSpace((0, 0))
    ident = SparseMat.identity(V)
    assert commutant_nullity([ident], 2) == 4  # identity centralises all
    diag = SparseMat(V, V, {(0, 0): 1, (1, 1): 2})
    assert commutant_nullity([diag], 2) == 2  # only diagonals survive


def test_least_nullity_skips_a_degenerate_point():
    # a generator that vanishes at q = 7/5 drops its constraints there, so
    # the nullity at that point is 4; the least over the points is generic
    V = SuperSpace((0, 0))
    bad = SparseMat(V, V, {(0, 1): Q - RatFunc({0: 7}, {0: 5})})
    assert commutant_nullity([bad.specialize(DEFAULT_POINTS[0])], 2) == 4
    assert least_nullity([bad], 2, DEFAULT_POINTS) == 2
    # at generic points the commutant of a single Jordan nilpotent is 2-dim
    good = SparseMat(V, V, {(0, 1): Q})
    assert least_nullity([good], 2, DEFAULT_POINTS) == 2


def test_empty_points_are_rejected_by_name():
    # the public commutant entry points reject empty points with the
    # parameter's name, not an IndexError or min()'s message
    gl = distinguished("gl", 1, 1)
    gens = _glq_generator_mats(gl, 2)
    module = weight_module(gens, module_heights(gl, (1, 1)), DEFAULT_POINTS[0])
    calls = [lambda: commutant_dim_glq(gens, 4, [], 2, module),
             lambda: commutant_dim_glq(gens, 4, iter(()), 2, module),
             lambda: least_nullity(gens, 4, []), lambda: ranks_at([], [])]
    for call in calls:
        with pytest.raises(ValueError, match="^points: at least one "
                           "specialisation point"):
            call()
    # any iterable of points is read once, as a list
    dim, cert = commutant_dim_glq(gens, 4, iter(DEFAULT_POINTS), 2, module)
    assert dim == 2 and cert.point == "7/5"
    assert least_nullity(gens, 4, iter(DEFAULT_POINTS)) == 2


def test_certified_and_exact_nullities_match_dense_oracle():
    # the spin certificate on J, and the exact nullity over Q, against the
    # dense nullity of every commutator row
    pt = DEFAULT_POINTS[0]
    cells = [(_osp_generator_mats(1, 1, 2), None, distinguished("osp", 1, 1))]
    for (m, n) in [(1, 1), (2, 1)]:
        datum = distinguished("gl", m, n)
        cells.append((_glq_generator_mats(datum, 2), pt, datum))
    for gens, point, datum in cells:
        heights = module_heights(datum, (1, 1))
        dim = len(heights)
        exact = gens if point is None else [g.specialize(point) for g in gens]
        want = dense_nullity(commutator_rows(exact, dim), dim * dim)
        assert commutant_nullity(exact, dim) == want
        module = weight_module(gens, heights, point)
        cert = certify_spin(module, want)
        assert cert is not None and cert.unknowns - cert.rank == want
        assert cert.columns == len(module.columns) and cert.prime == PRIME


def test_unmet_lower_bound_takes_the_exact_path(caplog):
    # the commutant of a single Jordan block on a 2-dim space is 2-dim;
    # elimination can never bring the upper bound down to 1
    V = SuperSpace((0, 0))
    jordan = [SparseMat(V, V, {(0, 1): 1})]
    assert commutant_nullity(jordan, 2) == 2
    osp_gens = _osp_generator_mats(1, 1, 2)
    osp_heights = module_heights(distinguished("osp", 1, 1), (1, 1))
    module = weight_module(osp_gens, osp_heights)
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        assert commutant_dim_osp(osp_gens, 9, 1, None) == (3, None)
        assert not caplog.text  # no module: its reason is logged once
        assert commutant_dim_osp(osp_gens, 9, 1, module) == (3, None)
    assert "bound 3 does not meet the lower bound 1" in caplog.text
    assert ("spin certificate: nullity bound 3 after all" in caplog.text
            and caplog.text.rstrip().endswith("; exact path"))
    gl = distinguished("gl", 1, 1)
    gl_gens = _glq_generator_mats(gl, 2)
    assert commutant_dim_glq(gl_gens, 4, DEFAULT_POINTS, 1, weight_module(
        gl_gens, module_heights(gl, (1, 1)), DEFAULT_POINTS[0])) == (2, None)
    dim, cert = commutant_dim_osp(osp_gens, 9, 3, module)
    assert dim == 3 and cert.bound == 3


def test_denominator_divisible_by_prime_takes_the_exact_path(caplog):
    # no module mod p is found, logged once, so the exact nullity over Q
    # decides
    V = SuperSpace((0, 0))
    unlucky = [SparseMat(V, V, {(0, 1): Fraction(1, PRIME)})]
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        assert weight_module(unlucky, (0, 0)) is None
        assert commutant_dim_osp(unlucky, 2, 2, None) == (2, None)
    assert [rec.getMessage().split(":")[0] for rec in caplog.records] == [
        "weight module at q = None"]
    assert "vanishes mod" in caplog.text
    assert caplog.text.rstrip().endswith("; exact path")
    assert commutant_nullity(unlucky, 2) == 2


def test_budget_guards():
    # the budget bounds d before any work (64, 16 and 25 here)
    with pytest.raises(BudgetError):
        fft_report("gl", 2, 2, 3, budget=10)
    with pytest.raises(BudgetError):
        fft_report("gl", 1, 1, 1, s=3, budget=10)
    with pytest.raises(BudgetError):
        fft_report("osp", 3, 1, 2, budget=10)


@pytest.mark.parametrize("args, kwargs", [
    (("gl", 1, 1, 0), {}),
    (("osp", 3, 1, 0), {}),
    (("osp", 3, 1, 2), {"s": 1}),
    (("gl", 1, 1, 2), {"s": -1}),
    (("gl", 1, 1, 2), {"points": []}),
    (("gl", 1, 1, 2), {"points": [7, 7]}),
    (("gl", 1, 1, 2), {"points": [Fraction(7, 5), "7/5"]}),
    (("gl", 1, 1, 2), {"points": [1]}),
    (("gl", 1, 1, 2), {"points": [Fraction(7, 5), -1]}),
    (("gl", 1, 1, 2), {"points": [0]}),
    (("sl", 1, 1, 2), {}),
    (("gl", 1, 1, 2.5), {}),
    (("gl", True, 1, 2), {}),
    (("gl", 1, 1, 2), {"s": 1.0}),
])
def test_fft_report_rejects_malformed_cells(monkeypatch, args, kwargs):
    def no_work(*a, **k):
        raise AssertionError("work started before the cell was checked")

    # the datum is the first work of both flavors; the osp generators are
    # the first work of the osp branch alone
    monkeypatch.setattr(centralizer, "distinguished", no_work)
    monkeypatch.setattr(centralizer, "_osp_generator_mats", no_work)
    with pytest.raises(ValueError):
        fft_report(*args, **kwargs)


@pytest.mark.parametrize("prime", [5, 7, 11, 13, 17, 37, 101])
def test_fallbacks_keep_the_bytes_at_a_small_prime(monkeypatch, prime):
    # 5 and 7 divide the default point 7/5; 13 and 17 divide the later
    # points 13/9 and 23/17, so a certified gl cell has a point short of
    # the span rank that only an exact re-rank settles; at 37 the walled
    # closure mod p drops candidates that are independent over Q, so the
    # certificate fails and the exact closure must decide
    cells = [("gl", 1, 1, 2, 1), ("gl", 2, 1, 1, 1), ("gl", 2, 1, 3, 0),
             ("osp", 3, 1, 2, 0)]
    want = [fft_report(f, m, n, r, s=s).to_dict() for f, m, n, r, s in cells]
    monkeypatch.setattr(superspace, "PRIME", prime)
    got = [fft_report(f, m, n, r, s=s).to_dict() for f, m, n, r, s in cells]
    assert got == want


def test_fft_report_calls_each_commutant_once_per_cell(monkeypatch):
    calls = []
    for name in ("commutant_dim_osp", "commutant_dim_glq"):
        def spy(*args, _name=name, _fn=getattr(centralizer, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(centralizer, name, spy)
    fft_report("osp", 3, 1, 2)
    assert calls == ["commutant_dim_osp"]
    fft_report("gl", 2, 1, 1, s=1)
    assert calls == ["commutant_dim_osp", "commutant_dim_glq"]


def test_relation_check_bmw_takes_two_strands_and_no_budget():
    # the spectral model has no strands: r = 2 only, and no tensor power is
    # built, so the dim(V)^r budget does not apply
    for r in (3, 5, 9):
        with pytest.raises(ValueError, match="spectral model"):
            relation_check("bmw", 3, 1, r=r)
    assert relation_check("bmw", 3, 1, r=2, budget=1).all_zero


# ---------------------------------------------------------------------------
# Membership on diagram generators.

def test_diagram_generators_and_image_counts():
    gl21 = make_context("glq", datum=distinguished("gl", 2, 1))
    osp31 = make_context("osp_classical", m=3, n=1)
    cases = [
        ("hecke", gl21, 3, 0, 6, ["X+ at strand 1", "X+ at strand 2"]),
        ("brauer", osp31, 3, 0, 15, ["s1", "e1", "s2", "e2"]),
        ("walled", gl21, 2, 1, 6, ["X+ at strand 1", "wall turnback"]),
    ]
    for kind, ctx, r, s, n_images, names in cases:
        assert len(image_basis(kind, ctx, r, s)) == n_images, kind
        assert list(diagram_generators(kind, ctx, r, s)) == names, kind
    # one strand: the identity is the only image, and no generator is placed
    assert diagram_generators("hecke", gl21, 1) == {}
    assert diagram_generators("brauer", osp31, 1) == {}


def _inverse_walled_generators(ctx, r, s):
    """X- at each V-side strand and the inverse dual braiding at each V*-side
    strand, placed as the walled closure places X+."""
    from qschur.functor import dual_braiding
    iV, iVd = SparseMat.identity(ctx.V), SparseMat.identity(ctx.V.dual())
    out = {}
    for i in range(1, r):
        out[f"X- at strand {i}"] = kron_chain(
            [iV] * (i - 1) + [ctx.images["X-"]] + [iV] * (r - i - 1)
            + [iVd] * s)
    if s >= 2:
        gd = dual_braiding(ctx)
        ident = SparseMat.identity(gd.src)
        gd_inv = gd - ident.scale(Q - Q.inverse())
        assert gd @ gd_inv == ident
        for j in range(1, s):
            out[f"dual X- at strand {r + j}"] = kron_chain(
                [iV] * r + [iVd] * (j - 1) + [gd_inv] + [iVd] * (s - j - 1))
    return out


@pytest.mark.parametrize("m, n, r, s", [(1, 1, 2, 1), (2, 1, 1, 2),
                                        (1, 1, 2, 2)])
def test_walled_closure_without_x_minus_loses_nothing(monkeypatch, m, n, r, s):
    import qschur.functor as functor
    datum = distinguished("gl", m, n)
    ctx = make_context("glq", datum=datum)
    inverses = _inverse_walled_generators(ctx, r, s)
    assert inverses
    check_membership(inverses, _glq_generator_mats(datum, r, s))
    plus = closure_words("walled", ctx, r, s, None)[1]
    plain = functor._walled_generators
    monkeypatch.setattr(functor, "_walled_generators",
                        lambda *a: {**plain(*a), **inverses})
    both = closure_words("walled", ctx, r, s, None)[1]
    assert len(both) == len(plus)
    assert (ranks_at([vectorize(img) for img in both], DEFAULT_POINTS)
            == ranks_at([vectorize(img) for img in plus], DEFAULT_POINTS))


def _ungraded_flip(V, W):
    """v (x) w -> w (x) v without the Koszul sign: not a module map."""
    return SparseMat(V.tensor(W), W.tensor(V),
                     {(w * V.dim + v, v * W.dim + w): 1
                      for v in range(V.dim) for w in range(W.dim)})


@pytest.fixture
def ungraded_tau(monkeypatch):
    monkeypatch.setattr(osp_mod, "tau", _ungraded_flip)
    osp_mod.brauer_rep.cache_clear()
    yield
    osp_mod.brauer_rep.cache_clear()


@pytest.mark.parametrize("m, n", [(1, 1), (3, 1)])
def test_membership_catches_an_ungraded_brauer_flip(ungraded_tau, m, n):
    with pytest.raises(MembershipError, match="diagram generator s1"):
        fft_report("osp", m, n, 2)


@pytest.mark.parametrize("m, n, r, s", [(2, 1, 2, 0), (1, 1, 2, 1)])
def test_membership_catches_an_ungraded_gl_braiding(monkeypatch, m, n, r, s):
    def flip(datum):
        V = qgl.natural_space(datum)
        return _ungraded_flip(V, V)
    monkeypatch.setattr(qgl, "braiding", flip)
    monkeypatch.setattr(qgl, "braiding_inverse", flip)
    with pytest.raises(MembershipError, match="diagram generator X"):
        fft_report("gl", m, n, r, s)


def test_membership_names_the_failing_image():
    d = distinguished("gl", 1, 1)
    rep = natural_rep(d)
    gens = [act_on_signs(rep, g, (1, 1)) for g in generator_names(d)]
    ident = SparseMat.identity(gens[0].src)
    images = {"id": ident, "e1": act_on_signs(rep, "e1", (1, 1))}
    with pytest.raises(MembershipError, match="diagram generator e1 "):
        check_membership(images, gens)


def test_membership_against_diagonal_generators_takes_no_products(
        monkeypatch):
    # the ungraded flip keeps every weight and e1 moves it: against the K_a
    # alone (diagonal), only e1 fails, and no product is built to tell
    d = distinguished("gl", 1, 1)
    rep = natural_rep(d)
    gens = [act_on_signs(rep, g, (1, 1)) for g in generator_names(d)]
    diag = [g for g in gens if all(i == k for (i, k) in g.entries)]
    assert 0 < len(diag) < len(gens)
    V = qgl.natural_space(d)
    flip, e1 = _ungraded_flip(V, V), act_on_signs(rep, "e1", (1, 1))

    def no_product(*args):
        raise AssertionError("a product was built")
    monkeypatch.setattr(SparseMat, "__matmul__", no_product)
    check_membership({"flip": flip}, diag)
    with pytest.raises(MembershipError,
                       match="diagram generator e1 does not centralise"):
        check_membership({"flip": flip, "e1": e1}, diag)


# The 24 benchmark cells (perfbench/workloads.py) and the cheap CI cells.
MEMBERSHIP_CELLS = (
    [("osp", m, n, r, 0)
     for (m, n) in [(1, 1), (2, 1), (3, 1), (4, 1), (3, 2)] for r in (1, 2, 3)]
    + [("gl", 2, 1, 4, 0), ("gl", 1, 1, 3, 2), ("gl", 1, 1, 2, 0),
       ("gl", 1, 1, 3, 0), ("gl", 2, 1, 2, 0), ("gl", 2, 1, 3, 0),
       ("gl", 1, 2, 2, 0), ("gl", 2, 2, 2, 0), ("gl", 2, 1, 1, 1)]
    + [("gl", 1, 1, 4, 0), ("gl", 1, 1, 5, 0), ("gl", 1, 1, 2, 2),
       ("gl", 2, 1, 2, 2), ("gl", 2, 0, 2, 2), ("gl", 1, 1, 1, 2),
       ("osp", 0, 1, 3, 0), ("osp", 4, 0, 3, 0), ("osp", 2, 2, 2, 0)])


def _failing_token(check):
    """The token a membership check names, strand numbers dropped; None
    where it passes."""
    try:
        check()
    except MembershipError as exc:
        name = re.match("diagram generator (.+) does not", str(exc))[1]
        return re.sub(r"\d+", "", name)
    return None


def _both_membership_checks(flavor, m, n, r, s):
    """(global verdict, two-slot verdict) of `_failing_token` on a cell."""
    datum = distinguished(flavor, m, n)
    if flavor == "gl":
        ctx = make_context("glq", datum=datum)
        kind = "walled" if s else "hecke"
        gens = _glq_generator_mats(datum, r, s)
    else:
        ctx, kind = make_context("osp_classical", m=m, n=n), "brauer"
        gens = _osp_generator_mats(m, n, r)
    dgens = diagram_generators(kind, ctx, r, s)
    return (_failing_token(lambda: check_membership(dgens, gens)),
            _failing_token(lambda: centralizer._check_tokens(kind, ctx, r, s)))


@pytest.mark.parametrize("cell", MEMBERSHIP_CELLS)
def test_two_slot_membership_agrees_with_the_global_check(cell):
    assert _both_membership_checks(*cell) == (None, None)


@pytest.mark.parametrize("cell, built", [
    (("osp", 3, 1, 2, 0), 1), (("gl", 2, 1, 2, 0), 1), (("gl", 2, 1, 1, 1), 1),
    (("osp", 3, 1, 3, 0), 2), (("gl", 2, 1, 2, 1), 3)])
def test_a_token_cell_that_is_the_cell_reuses_its_generators(monkeypatch,
                                                             cell, built):
    # the symmetry generators are built once for the cell, and once more
    # for each token cell that is not the cell itself
    name = "_glq_generator_mats" if cell[0] == "gl" else "_osp_generator_mats"
    calls = _spy_calls(monkeypatch, name)
    assert fft_report(*cell).equal
    assert len(calls) == built


def test_the_reused_generators_still_name_a_bad_token(monkeypatch):
    def flip(datum):
        V = qgl.natural_space(datum)
        return _ungraded_flip(V, V)
    monkeypatch.setattr(qgl, "braiding", flip)
    datum = distinguished("gl", 2, 1)
    ctx, gens = make_context("glq", datum=datum), _glq_generator_mats(datum, 2)
    assert _failing_token(lambda: centralizer._check_tokens(
        "hecke", ctx, 2, 0, gens)) == "X+ at strand "


@pytest.mark.parametrize("cell", [("osp", 1, 1, 2, 0), ("osp", 3, 1, 3, 0),
                                  ("osp", 4, 1, 3, 0), ("osp", 3, 2, 2, 0)])
def test_both_membership_checks_name_an_ungraded_brauer_flip(ungraded_tau,
                                                             cell):
    assert _both_membership_checks(*cell) == ("s", "s")


@pytest.mark.parametrize("cell", [("gl", 2, 1, 3, 0), ("gl", 1, 1, 2, 1),
                                  ("gl", 2, 1, 2, 2), ("gl", 1, 1, 1, 2)])
def test_both_membership_checks_name_an_ungraded_gl_braiding(monkeypatch,
                                                             cell):
    def flip(datum):
        V = qgl.natural_space(datum)
        return _ungraded_flip(V, V)
    monkeypatch.setattr(qgl, "braiding", flip)
    monkeypatch.setattr(qgl, "braiding_inverse", flip)
    want = "dual X+ at strand " if cell[3] == 1 else "X+ at strand "
    assert _both_membership_checks(*cell) == (want, want)


@pytest.mark.parametrize("cell", [("gl", 1, 1, 1, 1), ("gl", 2, 1, 2, 1),
                                  ("gl", 1, 2, 2, 2)])
def test_both_membership_checks_name_an_unsigned_turnback(monkeypatch, cell):
    # the evaluation V (x) V* -> 1 without its supertrace sign
    plain = qgl.duality_maps

    def unsigned(datum):
        dm = plain(datum)
        V = qgl.natural_space(datum)
        om = SparseMat(dm.omega_p.src, dm.omega_p.dst,
                       {(0, c): -v if V.parities[c // V.dim] else v
                        for (_, c), v in dm.omega_p.entries.items()})
        return qgl.DualityMaps(dm.omega, dm.upsilon, om, dm.upsilon_p)
    monkeypatch.setattr(qgl, "duality_maps", unsigned)
    assert _both_membership_checks(*cell) == ("wall turnback",) * 2


def _odd_map(V, W):
    """Swap the first even and the first odd basis vector of the first slot
    and kill the others there: a parity-odd map of V (x) W."""
    even, odd = V.parities.index(0), V.parities.index(1)
    return SparseMat(V.tensor(W), V.tensor(W),
                     {(a * W.dim + w, b * W.dim + w): 1
                      for a, b in ((even, odd), (odd, even))
                      for w in range(W.dim)})


@pytest.mark.parametrize("flavor, name", [("gl", "X+ at strand 1"),
                                          ("osp", "s1")])
def test_a_parity_odd_token_fails_against_the_parity_operator(monkeypatch,
                                                              flavor, name):
    # evenness is one step of the two-slot argument: the parity operator is
    # the first generator each token is checked against
    if flavor == "gl":
        def odd(datum):
            V = qgl.natural_space(datum)
            return _odd_map(V, V)
        monkeypatch.setattr(qgl, "braiding", odd)
        monkeypatch.setattr(qgl, "braiding_inverse", odd)
    else:
        monkeypatch.setattr(osp_mod, "tau", _odd_map)
        osp_mod.brauer_rep.cache_clear()
    try:
        with pytest.raises(MembershipError, match=re.escape(
                f"diagram generator {name} does not centralise symmetry "
                "generator 0")):
            fft_report(flavor, 1, 1, 3)
    finally:
        osp_mod.brauer_rep.cache_clear()


@pytest.mark.parametrize("flavor, m, n, r, s, tokens", [
    ("gl", 2, 1, 2, 2, [["X+ at strand 1"], ["wall turnback"],
                        ["dual X+ at strand 1"]]),
    ("gl", 1, 1, 3, 0, [["X+ at strand 1"]]),
    ("osp", 3, 1, 3, 0, [["s1", "e1"]]),
    ("osp", 3, 1, 1, 0, [])])
def test_each_token_is_checked_on_two_slots_after_their_parity(
        monkeypatch, flavor, m, n, r, s, tokens):
    calls = []
    monkeypatch.setattr(centralizer, "check_membership",
                        lambda images, gens: calls.append((images, gens)))
    fft_report(flavor, m, n, r, s)
    assert [list(images) for images, _ in calls] == tokens
    dim_v = m + n if flavor == "gl" else m + 2 * n
    for images, gens in calls:
        space = next(iter(images.values())).src
        assert space.dim == gens[1].src.dim == dim_v ** 2
        assert gens[0] == SparseMat(space, space, {
            (i, i): -1 if p else 1 for i, p in enumerate(space.parities)})


def test_a_walled_cell_builds_the_dual_braiding_once(monkeypatch):
    # the (0, 2) token check, the placed generators and the closure's Hecke
    # quadratic share one dual braiding, built on first use (as is the one
    # wall turnback)
    class Builds(dict):
        def __setitem__(self, key, value):
            self.count = getattr(self, "count", 0) + (key == "dual X+")
            super().__setitem__(key, value)

    ctxs, calls, dual = [], [], functor.dual_braiding

    def with_builds(*args, **kwargs):
        ctxs.append(make_context(*args, **kwargs))
        object.__setattr__(ctxs[-1], "derived", Builds())
        return ctxs[-1]

    def counted(ctx):
        calls.append(ctx)
        return dual(ctx)
    monkeypatch.setattr(centralizer, "make_context", with_builds)
    monkeypatch.setattr(functor, "dual_braiding", counted)
    fft_report("gl", 2, 1, 2, s=2)
    (ctx,) = ctxs
    assert calls == [ctx] * 3 and ctx.derived.count == 1


# ---------------------------------------------------------------------------
# Commutant rows assembled one generator at a time.

def test_per_generator_batches_concatenate_to_the_full_assembly():
    pt = DEFAULT_POINTS[0]
    glq = _glq_generator_mats(distinguished("gl", 2, 1), 2)
    for gens in (_osp_generator_mats(3, 1, 2), [g.specialize(pt) for g in glq]):
        dim = gens[0].rows
        diag = [g for g in gens if all(i == j for (i, j) in g.entries)]
        other = [g for g in gens if g not in diag]
        assert diag and other
        survivors, rows = assemble_commutant_rows(gens, dim)
        batched = []
        for P in other:
            batch_survivors, batch = assemble_commutant_rows(diag + [P], dim)
            assert batch_survivors == survivors
            batched += batch
        assert batched == rows


# ---------------------------------------------------------------------------
# The primitive-vector certificate.

# The 24 benchmark cells, (flavor, m, n, r, s) as fft_report takes them: 22
# carry the primitive certificate, given by its blocks; osp(2|2) r=2 and
# osp(3|2) r=3 are not generated by their primitive vectors and carry the
# spin certificate, given by (|J|, unknowns, rows used, rank).
BENCHMARK_CERTIFICATES = {
    ("osp", 1, 1, 1, 0): (1,), ("osp", 1, 1, 2, 0): (1, 1, 1),
    ("osp", 1, 1, 3, 0): (3, 2, 1, 1),
    ("osp", 2, 1, 1, 0): (1,), ("osp", 2, 1, 2, 0): ("spin", 4, 9, 23, 6),
    ("osp", 2, 1, 3, 0): (3, 2, 1, 1),
    ("osp", 3, 1, 1, 0): (1,), ("osp", 3, 1, 2, 0): (1, 1, 1),
    ("osp", 3, 1, 3, 0): ("spin", 7, 46, 126, 31),
    ("osp", 4, 1, 1, 0): (1,), ("osp", 4, 1, 2, 0): (1, 1, 1),
    ("osp", 4, 1, 3, 0): (3, 2, 1, 1),
    ("osp", 3, 2, 1, 0): (1,), ("osp", 3, 2, 2, 0): (1, 1, 1),
    ("osp", 3, 2, 3, 0): (3, 2, 1, 1),
    ("gl", 2, 1, 4, 0): (3, 3, 2, 1, 1), ("gl", 1, 1, 3, 2): (6, 4, 4, 1, 1),
    ("gl", 1, 1, 2, 0): (1, 1), ("gl", 1, 1, 3, 0): (2, 1, 1),
    ("gl", 2, 1, 2, 0): (1, 1), ("gl", 2, 1, 3, 0): (2, 1, 1),
    ("gl", 1, 2, 2, 0): (1, 1), ("gl", 2, 2, 2, 0): (1, 1),
    ("gl", 2, 1, 1, 1): (1, 1),
}


def test_certificate_kind_per_benchmark_cell():
    for (flavor, m, n, r, s), want in BENCHMARK_CERTIFICATES.items():
        rep = fft_report(flavor, m, n, r, s=s)
        assert rep.equal, (flavor, m, n, r, s)
        assert_certified(rep)
        cert = rep.certificate
        if want[0] == "spin":
            assert isinstance(cert, SpinCertificate), (m, n, r)
            assert ("spin", cert.columns, cert.unknowns, cert.rows_used,
                    cert.rank) == want
            assert cert.prime == PRIME and cert.point is None
        else:
            assert isinstance(cert, PrimitiveCertificate), (m, n, r, s)
            assert cert.blocks == want and cert.prime == PRIME
            assert cert.point == (None if flavor == "osp" else "7/5")
        assert "certificate" not in rep.to_dict()


@pytest.mark.parametrize("cell, dim, point, want", [
    (("osp", 2, 2, 3, 0), 15, None, (8, 64, 369, 49)),
    (("gl", 2, 1, 2, 2), 24, "7/5", (10, 75, 318, 51)),
    (("gl", 1, 1, 2, 2), 20, "7/5", (8, 35, 31, 15))],
    ids=["osp-2-2-r3", "gl-2-1-r2-s2", "gl-1-1-r2-s2"])
def test_the_spin_cells_off_the_benchmark_are_pinned(cell, dim, point, want):
    # osp(2|4) r=3 (CI): sigma-extended; walled gl(2|1) r=2 s=2 and
    # gl(1|1) r=2 s=2 (CI): at q = 7/5.  Their primitive vectors do not
    # generate the module, so each takes the spin certificate:
    # (|J|, unknowns, rows used, rank)
    flavor, m, n, r, s = cell
    rep = fft_report(flavor, m, n, r, s=s)
    cert = rep.certificate
    assert rep.equal and rep.commutant_dim == dim
    assert isinstance(cert, SpinCertificate) and cert.point == point
    assert (cert.columns, cert.unknowns, cert.rows_used, cert.rank) == want


# The module record of the 24 benchmark cells and the CI spin and
# non-semisimple cells: (|J|, blocks, or the reason the P_lam do not
# generate).
_SHORT = "generation stops at a weight class of size {} (height {}) at rank {}"
MODULE_RECORDS = {
    ("osp", 1, 1, 1, 0): (1, (1,)), ("osp", 1, 1, 2, 0): (3, (1, 1, 1)),
    ("osp", 1, 1, 3, 0): (7, (3, 2, 1, 1)),
    ("osp", 2, 1, 1, 0): (1, (1,)),
    ("osp", 2, 1, 2, 0): (4, _SHORT.format(4, 0, 3)),
    ("osp", 2, 1, 3, 0): (10, (3, 2, 1, 1)),
    ("osp", 3, 1, 1, 0): (1, (1,)), ("osp", 3, 1, 2, 0): (3, (1, 1, 1)),
    ("osp", 3, 1, 3, 0): (7, _SHORT.format(12, 3, 10)),
    ("osp", 4, 1, 1, 0): (1, (1,)), ("osp", 4, 1, 2, 0): (3, (1, 1, 1)),
    ("osp", 4, 1, 3, 0): (7, (3, 2, 1, 1)),
    ("osp", 3, 2, 1, 0): (1, (1,)), ("osp", 3, 2, 2, 0): (3, (1, 1, 1)),
    ("osp", 3, 2, 3, 0): (7, (3, 2, 1, 1)),
    ("gl", 2, 1, 4, 0): (10, (3, 3, 2, 1, 1)),
    ("gl", 1, 1, 3, 2): (16, (6, 4, 4, 1, 1)),
    ("gl", 1, 1, 2, 0): (2, (1, 1)), ("gl", 1, 1, 3, 0): (4, (2, 1, 1)),
    ("gl", 2, 1, 2, 0): (2, (1, 1)), ("gl", 2, 1, 3, 0): (4, (2, 1, 1)),
    ("gl", 1, 2, 2, 0): (2, (1, 1)), ("gl", 2, 2, 2, 0): (2, (1, 1)),
    ("gl", 2, 1, 1, 1): (2, (1, 1)),
    ("gl", 2, 1, 2, 2): (10, _SHORT.format(15, 0, 14)),
    ("gl", 2, 1, 3, 2): (26, _SHORT.format(31, 9, 26)),
    ("gl", 1, 1, 3, 3): (32, _SHORT.format(6, 4, 5)),
}


def _cell_module(cell):
    # (the cell's weight module, its symmetry generators mod p)
    flavor, m, n, r, s = cell
    datum = distinguished(flavor, m, n)
    heights = module_heights(datum, (1,) * r + (-1,) * s)
    if flavor == "gl":
        point = DEFAULT_POINTS[0]
        gens = _glq_generator_mats(datum, r, s)
        mats = [g.residues(point) for g in gens]
    else:
        point, gens = None, _osp_generator_mats(m, n, r)
        mats = gens
    return weight_module(gens, heights, point), mats


@pytest.mark.parametrize("cell", MODULE_RECORDS)
def test_the_module_record_is_pinned(cell):
    # |J| and the blocks or reason; and, checked here with a fresh Echelon
    # per class, the lowering images and the P_lam span each class exactly
    # where the record gives blocks
    module, mats = _cell_module(cell)
    heights = module.heights
    assert (len(module.columns), module.blocks) == MODULE_RECORDS[cell]
    images = {}  # class -> the lowering images L e_k that land in it
    for g in mats:
        if g.entries and all(heights[i] < heights[k] for i, k in g.entries):
            cols = {}
            for (i, k), v in g.entries.items():
                cols.setdefault(k, {})[i] = v
            for image in cols.values():
                images.setdefault(module.cls[min(image)], []).append(image)
    generated = []
    for c, (members, basis) in enumerate(zip(module.classes,
                                             module.primitive)):
        ech = Echelon()
        for vec in images.get(c, []) + basis:
            ech.add(vec)
        generated.append(ech.rank == len(members))
    assert all(generated) == isinstance(module.blocks, tuple), cell


@pytest.mark.parametrize("cell", MODULE_RECORDS)
def test_a_primitive_space_is_read_only_where_the_lowering_images_fall_short(
        cell):
    # each class has the P_lam of the eager `_primitive_spaces`, or lowering
    # images (from the classes above) that span it; where the P_lam
    # generate, the sum k^2 over the classes read is the eager sum
    module, _ = _cell_module(cell)
    eager = centralizer._primitive_spaces(module.classes, module.raising,
                                          len(module.heights))
    images = {}  # class -> the lowering images L e_k that land in it
    for L in module.lowering:
        for col in L.values():
            images.setdefault(module.cls[col[0][0]], []).append(dict(col))
    for c, (members, lazy, full) in enumerate(zip(module.classes,
                                                  module.primitive, eager)):
        if lazy != full:
            assert lazy == []
            assert centralizer._rank(images.get(c, [])) == len(members)
    if isinstance(module.blocks, tuple):
        blocks = ([len(basis) for basis in eager] if module.sigma is None
                  else centralizer._sigma_blocks(module.sigma, eager,
                                                 module.raising, PRIME))
        assert sum(k * k for k in blocks) == sum(k * k for k in module.blocks)


@pytest.mark.parametrize("m, n, r, classes", [(3, 2, 3, 63), (4, 1, 3, 44),
                                              (3, 1, 3, 25)])
def test_four_classes_read_their_primitive_space(m, n, r, classes,
                                                 monkeypatch):
    # osp(3|4), osp(4|2) and osp(3|2) r=3: the lowering images leave only
    # four weight classes short, one P_lam computed for each
    calls = _spy_calls(monkeypatch, "_primitive_spaces")
    module = weight_module(_osp_generator_mats(m, n, r), module_heights(
        distinguished("osp", m, n), (1,) * r))
    assert len(module.classes) == classes
    assert [len(args[0]) for args, _ in calls] == [1] * 4


def test_sigma_onto_a_class_whose_primitive_space_was_not_read_fails():
    # osp(4|2) r=3: sigma maps the classes whose P_lam was read among
    # themselves; a target faked to send one of them to a class whose P was
    # not read trips the check, though sigma keeps the primitive vectors
    module, _ = _cell_module(("osp", 4, 1, 3, 0))
    g, target = module.sigma
    read = [c for c, basis in enumerate(module.primitive) if basis]
    assert 0 < len(read) < len(module.classes)
    assert all(module.primitive[target[c]] for c in read)
    blocks = centralizer._sigma_blocks(module.sigma, module.primitive,
                                       module.raising, PRIME)
    assert sorted((k for k in blocks if k), reverse=True) == list(
        module.blocks)
    faked = dict(target)
    faked[read[0]] = next(c for c in range(len(module.classes))
                          if c not in read)
    with pytest.raises(centralizer._NotPrimitive,
                       match="sigma maps a class whose P was read to one "
                             "whose P was not"):
        centralizer._sigma_blocks((g, faked), module.primitive,
                                  module.raising, PRIME)


@pytest.mark.parametrize("m, n, r", [(2, 0, 1), (2, 0, 2), (4, 0, 2),
                                     (4, 0, 3), (2, 1, 3), (0, 1, 3)])
def test_sigma_orbit_bound_is_the_exact_commutant(m, n, r):
    # osp(2|0), osp(4|0), osp(2|2) and osp(0|2): the orbit sum over the
    # sigma-stable positive system meets the exact sigma-extended nullity
    gens = _osp_generator_mats(m, n, r)
    d = (m + 2 * n) ** r
    exact = commutant_nullity(gens, d)
    heights = module_heights(distinguished("osp", m, n), (1,) * r)
    cert = certify_primitive(weight_module(gens, heights), exact)
    assert cert is not None and cert.bound == exact
    assert cert.generation_rank == d


@pytest.mark.parametrize("m, n, r", [(1, 1, 1), (1, 1, 2), (1, 1, 3),
                                     (2, 1, 2), (2, 1, 3), (3, 1, 2),
                                     (2, 0, 2), (4, 0, 2), (0, 1, 3)])
def test_generator_set_keeps_the_whole_basis_commutant(m, n, r):
    # the Cartan and simple root vectors (and sigma for even m >= 2) have
    # the commutant of every element of osp_basis and sigma^{(x) r}
    d = (m + 2 * n) ** r
    assert (commutant_nullity(_osp_generator_mats(m, n, r), d)
            == commutant_nullity(_whole_osp_basis_mats(m, n, r), d))


def test_generator_set_sizes():
    # osp(3|4): 3 Cartan elements and 6 simple root vectors of its 25;
    # osp(4|2): 3 and 6 of its 17, and sigma
    assert len(_osp_generator_mats(3, 2, 1)) == 9
    assert len(_whole_osp_basis_mats(3, 2, 1)) == 26
    assert len(_osp_generator_mats(4, 1, 1)) == 10
    assert len(_whole_osp_basis_mats(4, 1, 1)) == 18


@pytest.mark.parametrize("m, n", [(1, 1), (3, 1), (4, 1), (3, 2), (0, 2)])
def test_a_set_short_of_a_simple_root_is_rejected(monkeypatch, m, n):
    from qschur.rootdata import RootDatum
    full = RootDatum.simple_roots
    for k in range(distinguished("osp", m, n).rank):
        # a failed build is not cached, so only the cached full set goes
        osp_mod.osp_generators.cache_clear()
        monkeypatch.setattr(RootDatum, "simple_roots", lambda self, k=k:
                            full(self)[:k] + full(self)[k + 1:])
        with pytest.raises(VerificationError, match=" generate \\d+ of "
                           f"{len(osp_mod.osp_basis(m, n))} dimensions$"):
            osp_mod.osp_generators(m, n)


def test_a_bracket_that_leaves_the_basis_span_is_rejected(monkeypatch):
    # each bracket b gains lam(b) I, lam(b) its entry at an even position
    # that no Lie generator has: the brackets span {b + lam(b) I}, which
    # has the rank of osp(3|2) but does not lie in its basis span
    m, n = 3, 1
    real, par = osp_mod._superbracket, osp_mod.natural_space(m, n).parities
    lie, _ = osp_mod.osp_generators(m, n)
    pos = next(key for X in osp_mod.osp_basis(m, n) for key in X.entries
               if key[0] != key[1] and par[key[0]] == par[key[1]]
               and not any(key in L.entries for L in lie))
    ident = SparseMat.identity(osp_mod.natural_space(m, n))

    def leaves(X, Y, parities):
        Z = real(X, Y, parities)
        return Z + ident.scale(Z.entries.get(pos, 0))

    osp_mod.osp_generators.cache_clear()
    monkeypatch.setattr(osp_mod, "_superbracket", leaves)
    basis = osp_mod.osp_basis(m, n)
    with pytest.raises(VerificationError, match="^the superbrackets of the "
                       r"Cartan and simple root vectors of osp\(3\|2\) "
                       "leave the span of its basis$"):
        osp_mod.osp_generators(m, n)


def _partitions(r, largest=None):
    largest = r if largest is None else largest
    if r == 0:
        yield ()
    for k in range(min(r, largest), 0, -1):
        for rest in _partitions(r - k, k):
            yield (k,) + rest


def _hook_length_count(lam) -> int:
    """f^lam, the number of standard tableaux, by the hook-length formula."""
    conj = [sum(1 for row in lam if row > j) for j in range(lam[0])]
    hooks = math.prod(row - j + conj[j] - i - 1
                      for i, row in enumerate(lam) for j in range(row))
    return math.factorial(sum(lam)) // hooks


def _hook_sum(m, n, r) -> int:
    """Sum of (f^lam)^2 over the partitions of r in the (m, n)-hook
    (lam_{m+1} <= n): dim End of the gl(m|n) tensor power (Berele-Regev)."""
    return sum(_hook_length_count(lam) ** 2 for lam in _partitions(r)
               if len(lam) <= m or lam[m] <= n)


@pytest.mark.parametrize("m, n, r_max", [(2, 1, 6), (1, 1, 5), (2, 2, 4)])
def test_gl_bound_is_the_hook_formula(m, n, r_max):
    datum = distinguished("gl", m, n)
    for r in range(1, r_max + 1):
        want = _hook_sum(m, n, r)
        cert = certify_primitive(weight_module(
            _glq_generator_mats(datum, r), module_heights(datum, (1,) * r),
            DEFAULT_POINTS[0]), want)
        assert cert is not None and cert.bound == want, (m, n, r)
    assert _hook_sum(2, 1, 6) == 695


def test_a_lower_bound_one_short_gets_no_primitive_certificate(caplog):
    gl = distinguished("gl", 2, 1)
    gl_gens = _glq_generator_mats(gl, 3)
    gl_module = weight_module(gl_gens, module_heights(gl, (1, 1, 1)),
                              DEFAULT_POINTS[0])
    osp_gens = _osp_generator_mats(3, 1, 2)
    osp_module = weight_module(osp_gens, module_heights(
        distinguished("osp", 3, 1), (1, 1)))
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        assert certify_primitive(gl_module, 5) is None
        assert certify_primitive(osp_module, 2) is None
        # the same verdicts as the exact path gives
        assert commutant_dim_glq(gl_gens, 27, DEFAULT_POINTS, 5,
                                 gl_module) == (6, None)
        assert commutant_dim_osp(osp_gens, 25, 2, osp_module) == (3, None)
    assert "bound 6 does not meet the lower bound 5" in caplog.text
    assert "bound 3 does not meet the lower bound 2" in caplog.text


def test_a_module_not_generated_takes_the_spin_certificate(monkeypatch,
                                                           caplog):
    # osp(3|2) r=3: the primitive vectors do not generate the module, and
    # a map is fixed by its 46 values on the 7 columns of J
    gens = _osp_generator_mats(3, 1, 3)
    heights = module_heights(distinguished("osp", 3, 1), (1, 1, 1))
    module = weight_module(gens, heights)
    assemblies = _spy_calls(monkeypatch, "assemble_commutant_rows")
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        assert certify_primitive(module, 15) is None
        dim, cert = commutant_dim_osp(gens, 125, 15, module)
    assert "generation stops at a weight class of size" in caplog.text
    assert "spin certificate" not in caplog.text and not assemblies
    assert dim == 15 and isinstance(cert, SpinCertificate)
    assert (cert.columns, cert.unknowns, cert.rank) == (7, 46, 31)


def _no_weight_module(monkeypatch):
    # the weight split fails a check, so no module and no J are found
    def fail(*args):
        raise centralizer._NotPrimitive("a failed check")
    monkeypatch.setattr(centralizer, "_weight_split", fail)


def test_a_cell_without_j_takes_the_exact_path(monkeypatch, caplog):
    # with no module no certificate is tried: the exact nullity over Q
    # decides osp(3|2) r=3, the reason is logged once, and the report
    # keeps its bytes
    want = fft_report("osp", 3, 1, 3).to_dict()
    _no_weight_module(monkeypatch)
    exact = _spy_calls(monkeypatch, "commutant_nullity")
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        report = fft_report("osp", 3, 1, 3)
    assert report.to_dict() == want and report.certificate is None
    assert [result for _, result in exact] == [15]
    assert [rec.getMessage() for rec in caplog.records] == [
        "weight module at q = None: a failed check; exact path"]


def test_the_gl_exact_path_stops_at_the_first_point_meeting_the_span(
        monkeypatch):
    # no point's nullity goes below the span rank, so walled gl(2|1) r=2
    # s=1 with no J is decided by one exact nullity, not one per point
    want = fft_report("gl", 2, 1, 2, s=1).to_dict()
    _no_weight_module(monkeypatch)
    exact = _spy_calls(monkeypatch, "commutant_nullity")
    report = fft_report("gl", 2, 1, 2, s=1)
    assert report.to_dict() == want and report.certificate is None
    assert report.commutant_dim == 6
    assert [result for _, result in exact] == [6]


def test_each_failed_check_falls_back(caplog):
    gl = distinguished("gl", 2, 1)
    gens = _glq_generator_mats(gl, 2)
    heights = module_heights(gl, (1, 1))
    e1, f1 = gens[0], gens[2]
    one = _glq_generator_mats(gl, 1)
    osp_gens = _osp_generator_mats(2, 0, 2)
    sigma = osp_gens[-1]
    # on four weight classes: E raises v1 to v0, F lowers v0 to v1, and an
    # involution that keeps the heights swaps v1 with the primitive v2
    V = SuperSpace((0, 0, 0, 0))
    swap = [SparseMat(V, V, {(i, i): i + 1 for i in range(4)}),
            SparseMat(V, V, {(0, 1): 1}), SparseMat(V, V, {(1, 0): 1}),
            SparseMat(V, V, {(0, 0): 1, (1, 2): 1, (2, 1): 1, (3, 3): 1})]
    cases = [
        # a generator that both raises and lowers
        (gens + [e1 + f1], heights, 2, DEFAULT_POINTS[0],
         "generator 4 splits a weight class"),
        # on one strand e1 + e2 keeps the classes apart but moves the
        # heights by two amounts
        (one + [one[0] + one[1]], module_heights(gl, (1,)), 1,
         DEFAULT_POINTS[0], "generator 4 is not weight-homogeneous"),
        # heights that the diagonal generators do not separate
        (gens, heights[:1] + (heights[1] + 1,) + heights[2:], 2,
         DEFAULT_POINTS[0], "do not separate"),
        # a sigma that is not an involution, or one that is doubled
        (osp_gens[:-1] + [sigma.scale(2)],
         module_heights(distinguished("osp", 2, 0), (1, 1)), 3, None,
         "sigma^2 != 1"),
        (osp_gens + [sigma], module_heights(distinguished("osp", 2, 0),
                                            (1, 1)), 3, None,
         "two generators keep every height"),
        # a functional that does not vanish on eps_1: sigma swaps the
        # heights 20 and -20 and fixes 0, so it moves heights by two amounts
        (osp_gens, (20, 0, 0, -20), 3, None,
         "generator 0 is not weight-homogeneous"),
        (swap, (1, 0, 0, -5), 3, None,
         "sigma does not map primitive vectors to primitive vectors"),
    ]
    for gen_list, hts, bound, point, reason in cases:
        caplog.clear()
        with caplog.at_level("INFO", logger="qschur.centralizer"):
            module = weight_module(gen_list, hts, point)
            assert module is None or certify_primitive(module, bound) is None
        assert reason in caplog.text, reason


# ---------------------------------------------------------------------------
# Gl span ranks on the first ranked point's pivot columns.

SPAN_CELLS = [(2, 1, 4, 0), (1, 1, 3, 2), (2, 1, 2, 2), (1, 1, 4, 0)]


def _span_args(m, n, r, s):
    ctx = make_context("glq", datum=distinguished("gl", m, n))
    return ctx, "hecke" if s == 0 else "walled", r, s, DEFAULT_POINTS


def _closure(ctx, kind, r, s, points, columns=None):
    # what fft_report hands to _later_ranks: the kept words, their echelon,
    # the diagram generators, the space, the columns the words start from
    # and the points
    ech = Echelon()
    words = image_basis(kind, ctx, r, s, points, ech, columns)
    gens = list(diagram_generators(kind, ctx, r, s).values())
    return (words, ech, gens, ctx.space_of("+" * r + "-" * s), columns,
            points)


def _full_row_ranks(ctx, kind, r, s, points):
    # the oracle: every point ranked on all residue rows of the images
    # over Q(q)
    images = closure_words(kind, ctx, r, s, Echelon())[1]
    ranks = []
    for point in points:
        ech = Echelon()
        for img in images:
            ech.add(vectorize(img.residues(point)))
        ranks.append(ech.rank)
    return ranks


@pytest.mark.parametrize("cell", SPAN_CELLS)
def test_later_ranks_on_pivot_columns_match_full_rows(cell):
    args = _span_args(*cell)
    assert (centralizer._later_ranks(*_closure(*args))
            == _full_row_ranks(*args))


@pytest.mark.parametrize("m, n, r, kept", [(2, 1, 4, 24), (1, 1, 4, 20),
                                           (1, 1, 5, 70)])
def test_later_ranks_reduce_no_image_at_the_first_point(monkeypatch, m, n,
                                                        r, kept):
    # the closure ranks the first point itself; each later point replays
    # the words mod p and ranks only the kept images' entries on the pivot
    # columns, with no residue over Q(q) but the generators' (gl(1|1)
    # r >= 4 is not faithful: 20 of 24 and 70 of 120 permutations)
    args = _span_args(m, n, r, 0)
    want = _full_row_ranks(*args)
    closed = _closure(*args)
    pivots = set(closed[1].pivot_columns)
    rows, add, residues = [], Echelon.add, SparseMat.residues

    def spy(self, row):
        rows.append(row)
        return add(self, row)

    def generators_only(self, point):
        assert any(self is g for g in closed[2]), "a residue over Q(q)"
        return residues(self, point)
    monkeypatch.setattr(Echelon, "add", spy)
    monkeypatch.setattr(SparseMat, "residues", generators_only)
    assert centralizer._later_ranks(*closed) == want == [kept] * 3
    assert len(rows) == 2 * kept and all(set(row) <= pivots for row in rows)


def _parent_pivot_ranks(images, ech, points):
    # the ranks before replay: the Q(q) images' residues at the pivot
    # positions, at each later point
    pivots = set(ech.pivot_columns)
    ranks = [ech.rank]
    for point in points[1:]:
        later = Echelon()
        for img in images:
            later.add({c: v for c, v in vectorize(img.residues(point)).items()
                       if c in pivots})
        ranks.append(later.rank)
    return ranks


@pytest.mark.parametrize("m, n, r, s, rank", [
    (2, 1, 4, 0, 24), (1, 1, 3, 2, 70), (1, 1, 2, 0, 2), (1, 1, 3, 0, 6),
    (2, 1, 2, 0, 2), (2, 1, 3, 0, 6), (1, 2, 2, 0, 2), (2, 2, 2, 0, 2),
    (2, 1, 1, 1, 2)])
def test_replayed_later_ranks_match_the_q_of_q_residues(m, n, r, s, rank):
    # the benchmark's gl cells, on J's columns as fft_report ranks them: the
    # replayed words give the ranks that the Q(q) images' residues give
    # (the benchmark's osp cells rank no later point)
    ctx, kind, _, _, points = _span_args(m, n, r, s)
    cols = _j_args(m, n, r, s)[2]
    closed = _closure(ctx, kind, r, s, points, cols)
    images = closure_words(kind, ctx, r, s, Echelon(), cols)[1]
    assert (centralizer._later_ranks(*closed)
            == _parent_pivot_ranks(images, closed[1], points) == [rank] * 3)


def _off_q_of_q(monkeypatch):
    # no product over Q(q) in the closure or its replays, and no residue
    # over Q(q) but the diagram generators' when the later points are
    # ranked on pivot columns; on the block route, no residue over Q(q) but
    # of columns of the diagram or symmetry generators; the generators and
    # the two-slot checks stay over Q(q)
    where, placed, symmetry = [], [], []
    matmul, residues = SparseMat.__matmul__, SparseMat.residues
    generators = centralizer.diagram_generators
    build = centralizer._glq_generator_mats

    def inside(name, fn):
        def spy(*args):
            where.append(name)
            try:
                return fn(*args)
            finally:
                where.pop()
        return spy

    def q_of_q(mat):
        return any(isinstance(v, RatFunc) for v in mat.entries.values())

    def no_q_product(self, other):
        assert not ("closure" in where and (q_of_q(self) or q_of_q(other)))
        return matmul(self, other)

    def placed_generators(*args):
        out = generators(*args)
        placed.extend(out.values())
        return out

    def symmetry_generators(*args):
        out = build(*args)
        symmetry.extend(out)
        return out

    def columns_of(mat, gens):
        return any(all(g.entries.get(k) is v for k, v in mat.entries.items())
                   for g in gens)

    def generators_only(self, point):
        assert "later ranks" not in where or any(self is g for g in placed)
        assert "block span" not in where or not q_of_q(self) or columns_of(
            self, placed + symmetry)
        return residues(self, point)
    monkeypatch.setattr(centralizer, "diagram_generators", placed_generators)
    monkeypatch.setattr(centralizer, "_glq_generator_mats",
                        symmetry_generators)
    monkeypatch.setattr(centralizer, "_block_span",
                        inside("block span", centralizer._block_span))
    monkeypatch.setattr(functor, "_span_closure",
                        inside("closure", functor._span_closure))
    monkeypatch.setattr(functor, "replay", inside("closure", functor.replay))
    monkeypatch.setattr(centralizer, "replay",
                        inside("closure", centralizer.replay))
    monkeypatch.setattr(centralizer, "_later_ranks",
                        inside("later ranks", centralizer._later_ranks))
    monkeypatch.setattr(SparseMat, "__matmul__", no_q_product)
    monkeypatch.setattr(SparseMat, "residues", generators_only)


@pytest.mark.parametrize("cell", [("gl", 1, 1, 3, 2), ("gl", 2, 1, 4, 0),
                                  ("gl", 2, 1, 2, 2)])
def test_a_certified_gl_cell_stays_off_q_of_q(monkeypatch, cell):
    want = fft_report(cell[0], *cell[1:4], s=cell[4]).to_dict()
    _off_q_of_q(monkeypatch)
    report = fft_report(cell[0], *cell[1:4], s=cell[4])
    assert report.certificate is not None and report.to_dict() == want


def test_an_uncertified_gl_cell_stays_off_q_of_q(monkeypatch):
    # q = p/7 is 0 mod p: no module, so the closure is exact, and the exact
    # path decides; its closure keeps words, and the later point replays
    # them from the generators specialised there
    points = [Fraction(PRIME, 7), Fraction(13, 9)]
    want = fft_report("gl", 2, 1, 2, s=1, points=points).to_dict()
    _off_q_of_q(monkeypatch)
    report = fft_report("gl", 2, 1, 2, s=1, points=points)
    assert report.certificate is None and report.to_dict() == want
    assert report.equal and report.agreement


def _spy_calls(monkeypatch, name):
    # the (args, result) of every call fft_report makes to centralizer.name
    calls, fn = [], getattr(centralizer, name)

    def spy(*args):
        calls.append((args, fn(*args)))
        return calls[-1][1]
    monkeypatch.setattr(centralizer, name, spy)
    return calls


def test_an_unlucky_first_point_takes_the_exact_path(monkeypatch, caplog):
    # 5 divides the denominator of the first point 7/5: no module is read
    # there (logged once), so the closure is exact and ranks the cell to
    # the same bytes, with no mod p closure to stop
    want = fft_report("gl", 1, 1, 2, s=1).to_dict()
    monkeypatch.setattr(superspace, "PRIME", 5)
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        report = fft_report("gl", 1, 1, 2, s=1)
    assert caplog.text.count("weight module at q = 7/5") == 1
    assert "span closure" not in caplog.text
    assert report.certificate is None
    assert report.to_dict() == want


def test_unlucky_point_messages_name_the_point(caplog):
    # q = p/7 is 0 mod p, first and then later: each message names the
    # point, not its residue 0
    unlucky = Fraction(PRIME, 7)
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        first = fft_report("gl", 2, 1, 2, s=1,
                           points=[unlucky, Fraction(13, 9)])
        later = fft_report("gl", 2, 1, 2, s=1,
                           points=[Fraction(13, 9), unlucky])
    vanishes = f"q = {unlucky} vanishes mod {PRIME}"
    assert first.certificate is None and later.certificate is not None
    assert first.equal and later.equal
    assert f"weight module at q = {unlucky}: {vanishes}; exact path" in (
        caplog.text)
    assert "span closure" not in caplog.text
    assert f"span rank at q = {unlucky}: {vanishes}; exact rank" in (
        caplog.text)
    assert "q = 0 " not in caplog.text
    # a denominator that vanishes at 5, the residue of the point p + 5
    V = SuperSpace((0,))
    with pytest.raises(UnluckyPrime, match=f"^denominator .* vanishes mod "
                       f"{PRIME} at q = {PRIME + 5}$"):
        SparseMat(V, V, {(0, 0): 1 / (Q - 5)}).residues(PRIME + 5)


@pytest.mark.parametrize("m, n, r, s", [
    (2, 1, 4, 0), (1, 1, 3, 2), (1, 1, 2, 0), (1, 1, 3, 0), (2, 1, 2, 0),
    (2, 1, 3, 0), (1, 2, 2, 0), (2, 2, 2, 0), (2, 1, 1, 1), (2, 1, 2, 2)])
def test_gl_generator_entries_are_laurent_polynomials(m, n, r, s):
    # the benchmark's gl cells and walled gl(2|1) r=2 s=2: every entry of
    # the symmetry and diagram generators is built from q-powers and
    # q - q^-1, with denominator 1, so its residue fails only where the
    # point vanishes mod p, and there no module is read
    datum = distinguished("gl", m, n)
    kind = "hecke" if s == 0 else "walled"
    mats = _glq_generator_mats(datum, r, s) + list(diagram_generators(
        kind, make_context("glq", datum=datum), r, s).values())
    entries = [v for g in mats for v in g.entries.values()]
    assert entries and all(isinstance(v, RatFunc) and v.den == {0: 1}
                           for v in entries)


def test_an_unlucky_first_point_runs_one_exact_closure(monkeypatch):
    # q = p/7 is 0 mod p: no module is read there, so the closure runs
    # once, exactly, with no echelon; no closure mod p is tried and dropped
    calls, fn = [], centralizer.image_basis

    def spy(*args):
        calls.append(args)  # before the call, which may raise
        return fn(*args)
    monkeypatch.setattr(centralizer, "image_basis", spy)
    for r, s in [(2, 1), (3, 0)]:
        calls.clear()
        report = fft_report("gl", 2, 1, r, s=s,
                            points=[Fraction(PRIME, 7), Fraction(13, 9)])
        assert report.equal and report.certificate is None
        (args,) = calls
        assert args[5] is None and args[6] is None


def _no_blocks(monkeypatch):
    # the block route misses, so the span is ranked on J's columns
    monkeypatch.setattr(centralizer, "_block_span", lambda *args: None)


def test_a_point_short_on_the_pivot_columns_is_ranked_exactly(monkeypatch,
                                                              caplog):
    # each short point replays the kept words exactly over Q, from the
    # generators specialised there, and keeps the bytes
    want = fft_report("gl", 2, 1, 4).to_dict()
    _no_blocks(monkeypatch)
    at_seen = []

    def spy(rows, at):
        assert not any(isinstance(v, RatFunc)
                       for row in rows for v in row.values())
        at_seen.append(list(at))
        return ranks_at(rows, at)
    monkeypatch.setattr(centralizer, "ranks_at", spy)
    monkeypatch.setattr(Echelon, "pivot_columns",
                        property(lambda self: tuple(self._pivots)[:1]))
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        assert fft_report("gl", 2, 1, 4).to_dict() == want
    assert "on 1 pivot columns: rank 1 of 24; exact rank" in caplog.text
    assert at_seen == [[a] for a in DEFAULT_POINTS[1:]]


def test_a_certified_cell_runs_one_closure(monkeypatch):
    # the short later points are ranked exactly on the images the closure
    # kept mod p, not on a second closure
    want = fft_report("gl", 2, 1, 4).to_dict()
    _no_blocks(monkeypatch)
    monkeypatch.setattr(Echelon, "pivot_columns",
                        property(lambda self: tuple(self._pivots)[:1]))
    closures = _spy_calls(monkeypatch, "image_basis")
    report = fft_report("gl", 2, 1, 4)
    assert report.to_dict() == want and report.certificate is not None
    assert len(closures) == 1


# ---------------------------------------------------------------------------
# The gl span from its primitive blocks.

# the benchmark's gl cells, then the Hecke cells of CI
BLOCK_CELLS = [(2, 1, 4, 0), (1, 1, 3, 2), (1, 1, 2, 0), (1, 1, 3, 0),
               (2, 1, 2, 0), (2, 1, 3, 0), (1, 2, 2, 0), (2, 2, 2, 0),
               (2, 1, 1, 1), (2, 1, 5, 0), (1, 1, 4, 0), (1, 1, 5, 0),
               (1, 1, 6, 0)]


def _block_args(m, n, r, s, points=DEFAULT_POINTS):
    datum = distinguished("gl", m, n)
    ctx = make_context("glq", datum=datum, budget=DEFAULT_UNKNOWN_BUDGET)
    kind = "hecke" if s == 0 else "walled"
    gens = _glq_generator_mats(datum, r, s)
    module = weight_module(gens, module_heights(datum, (1,) * r + (-1,) * s),
                           points[0])
    return kind, ctx, r, s, list(points), module, gens


@pytest.mark.parametrize("m, n, r, s", BLOCK_CELLS)
def test_the_block_rank_is_the_rank_on_j(m, n, r, s):
    # the blocks fill at every point and prove the rank that the closure
    # on J's columns reaches at the first point, with fewer kept words
    args = _block_args(m, n, r, s)
    kind, ctx, _, _, points, module, _ = args
    words, span = centralizer._block_span(*args)
    ech = Echelon()
    on_j = image_basis(kind, ctx, r, s, points, ech, module.columns)
    assert span.full and span.bound == ech.rank == len(on_j)
    assert span.bound == sum(k * k for k in module.blocks)
    assert len(words) <= len(on_j)


def test_a_block_is_read_only_where_the_generator_keeps_its_space():
    # the flip of V (x) V swaps e01 and e10: it keeps the span of
    # e01 + e10 (its block is 1) but not the span of e01
    V = SuperSpace((0, 0))
    swap = on_slots(tau(V, V), 0, 2)
    kept = centralizer.BlockSpan([[{1: 1, 2: 1}]])
    assert kept.value(swap) == (((1,),),)
    with pytest.raises(centralizer._NotPrimitive, match="does not keep"):
        centralizer.BlockSpan([[{1: 1}]]).value(swap)


def _point_blocks(args):
    # per point, the first included: (a fresh BlockSpan there, the
    # generators' values, the roots of their quadratics), as `_block_span`
    # builds them
    kind, ctx, r, s, points, module, gens = args
    heights = module.heights
    raising = [g for g in gens if any(heights[i] > heights[k]
                                      for i, k in g.entries)]
    classes = [members for members, basis
               in zip(module.classes, module.primitive) if basis]
    keep = {k for members in classes for k in members}
    loop = (ctx.images["Om-"] @ ctx.images["U+"]).scalar_value()
    names = [name for name, _, _ in walled_tokens(ctx, r, s)]
    for point in points:
        primitive = module.primitive if point == points[0] else (
            centralizer._primitive_spaces(classes, [
                centralizer._residue_columns(g, point, keep)
                for g in raising], len(heights)))
        span = centralizer.BlockSpan(primitive)
        yield (span, token_values(span, ctx, r, s, point),
               centralizer._token_roots(names, loop, point))


@pytest.mark.parametrize("m, n, r, s", BLOCK_CELLS)
def test_a_rank_one_element_proves_every_block_at_every_point(m, n, r, s):
    # at every point, the first included, `_rank_one` proves each block of
    # size k >= 2 from the generators' values alone (the 16 x 16 block of
    # gl(2|1) r=6, not among these cells, is the one block known to have no
    # rank-one element; see the frontier tests)
    for span, values, roots in _point_blocks(_block_args(m, n, r, s)):
        assert all(centralizer._rank_one([value[i] for value in values],
                                         roots)
                   for i, basis in enumerate(span.bases) if len(basis) > 1)


@pytest.mark.parametrize("m, n, r, s", BLOCK_CELLS)
def test_the_first_point_keeps_the_identity_and_what_add_needs(m, n, r, s):
    # after the rank-one proofs, the first point's closure keeps the
    # identity (word 0, which fills the 1 x 1 blocks) and only words that
    # `add` keeps: on these cells one, the first generator, whose traces
    # tell every pair apart
    args = _block_args(m, n, r, s)
    words, _ = centralizer._block_span(*args)
    span, values, roots = next(_point_blocks(args))
    span.fill(values, roots, ())
    assert span.short == {i for i, basis in enumerate(span.bases)
                          if len(basis) == 1}
    kept = [span.add(img) for img in replay(words, values, span.identity,
                                            span.product)]
    assert words == [None, (0, 0)] and kept[1:] == [True] and span.full


def test_the_replay_alone_still_proves_every_point(monkeypatch, caplog):
    # with no rank-one element found, the first point's closure keeps the
    # words that fill every block by rank alone (9 and 38), each later
    # point replays them, and the cell keeps its bytes
    cells = {(2, 1, 4, 0): 9, (1, 1, 3, 2): 38}
    want = [fft_report("gl", m, n, r, s=s) for m, n, r, s in cells]
    monkeypatch.setattr(centralizer, "_rank_one", lambda mats, roots: False)
    for ((m, n, r, s), kept), expect in zip(cells.items(), want):
        with caplog.at_level("INFO", logger="qschur.centralizer"):
            report = fft_report("gl", m, n, r, s=s)
        assert report.to_dict() == expect.to_dict() and not caplog.records
        cert = report.certificate
        assert cert.kept == kept and cert.separating == (
            expect.certificate.separating)
        assert_certified(report)
        for span, values, roots in _point_blocks(_block_args(m, n, r, s)):
            span.fill(values, roots, cert.words)
            assert span.full


@pytest.mark.parametrize("m, n, r, s", BLOCK_CELLS)
def test_the_oracle_checks_the_span_side_of_every_block_route_cell(
        m, n, r, s, monkeypatch):
    # the benchmark's gl cells and CI's block-route cells (gl(2|1) r=6 in
    # the frontier test): `assert_certified` re-checks each one's blocks
    checked, check = [], conftest.assert_blocks_full
    monkeypatch.setattr(conftest, "assert_blocks_full",
                        lambda cert, *blocks: checked.append(cert)
                        or check(cert, *blocks))
    report = fft_report("gl", m, n, r, s=s)
    assert_certified(report)
    assert checked == [report.certificate]


def test_the_block_oracle_rejects_a_reducible_block():
    # upper triangular values keep the span of e0, so the 2 x 2 block is a
    # reducible module, its algebra I, g of dimension 2: the words I, g do
    # not fill it and its dense closure stops at 2, so the oracle refuses
    # the certificate; the swap and diag(1, 2) generate End(F_p^2), and
    # the same words pass
    cert = PrimitiveCertificate(PRIME, "7/5", (2,), 2, 2, (None, (0, 0)))
    identity = (((1, 0), (0, 1)),)
    with pytest.raises(AssertionError, match="block 0 of size 2 is not full"):
        conftest.assert_blocks_full(cert, [(((1, 1), (0, 2)),)], identity)
    conftest.assert_blocks_full(cert, [(((0, 1), (1, 0)),),
                                       (((1, 0), (0, 2)),)], identity)


def test_the_identity_counts_as_kept_where_it_fills_no_block():
    # two 2 x 2 blocks, both proved by a rank-one element, and no 1 x 1
    # block: the identity fills nothing, but a closure keeps it as word 0,
    # so the diagonal value that tells the pair apart is recorded as word 1
    swap = ((0, 1), (1, 0))
    values = [(swap, swap), (((1, 0), (0, 2)), ((1, 0), (0, 3)))]
    span = centralizer.BlockSpan([[{0: 1}, {1: 1}], [{2: 1}, {3: 1}]])
    span.fill(values, [(1, PRIME - 1), (1, 2)], ())
    assert span.short == set() and span.alike == {(0, 1)}
    assert [span.add(v) for v in [span.identity, *values]] == [
        False, False, True]
    assert span.full and span.separating == [(0, 1, 1)] and span.kept == 2


@pytest.mark.parametrize("gens", [[((1, 1), (0, 2))],
                                  [((1, 1), (0, 2)), ((3, 0), (0, 5))]])
def test_a_reducible_block_is_never_proved(gens):
    # upper triangular values keep the span of e0: g - 1 = v w^T has rank
    # one, but v = (1, 1) spins only to its own line under the first, and
    # w = (0, 1) to its own line under the transposes, under both; the
    # replay cannot fill the block either (the algebra has dimension
    # len(gens) + 1)
    roots = [(1, 2)] * len(gens)
    assert not centralizer._rank_one(gens, roots)
    span = centralizer.BlockSpan([[{0: 1}, {1: 1}]])
    words = [None, (0, 0), (len(gens) - 1, 0), (0, 2), (len(gens) - 1, 1)]
    span.fill([(g,) for g in gens], roots, words)
    assert span.short == {0} and span.echelons[0].rank == len(gens) + 1
    with pytest.raises(centralizer._NotPrimitive, match="1 blocks fall"):
        centralizer._check_full(span, "b", span.bound)


def test_a_block_with_no_rank_one_candidate_certifies_through_the_replay(
        monkeypatch):
    # the roots 3 and 4 are no eigenvalue of the swap or of diag(1, 2), so
    # every candidate is invertible and there are no disjoint pairs; the
    # replayed words I, g1, g2, g1 g2 fill the block
    gens = [((0, 1), (1, 0)), ((1, 0), (0, 2))]
    roots = [(3, 4), (3, 4)]
    assert not centralizer._rank_one(gens, roots)
    products, product = [], centralizer.BlockSpan.product
    monkeypatch.setattr(centralizer.BlockSpan, "product", staticmethod(
        lambda a, b: products.append(1) or product(a, b)))
    span = centralizer.BlockSpan([[{0: 1}, {1: 1}]])
    span.fill([(g,) for g in gens], roots, [None, (0, 0), (1, 0), (0, 2)])
    assert span.full and span.bound == 4 and len(products) == 3


def test_two_blocks_are_told_apart_only_by_a_trace():
    # two 1 x 1 blocks are full at once; the generators' traces tell them
    # apart where their values differ, and where every value agrees the
    # pair stays alike through the replay too
    for second, alike in [(5, set()), (2, {(0, 1)})]:
        span = centralizer.BlockSpan([[{0: 1}], [{1: 1}]])
        span.fill([(((2,),), ((second,),))], [(2, 3)], [None, (0, 0)])
        assert span.short == set() and span.alike == alike
        assert span.full == (not alike)


def test_a_cell_with_no_diagram_generators_reads_no_later_point(caplog):
    # gl(1|0) r=1 has one 1 x 1 block and no diagram generator, so a later
    # point that vanishes mod p is never read: the block route holds, and
    # nothing is logged
    points = [Fraction(13, 9), Fraction(PRIME, 7)]
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        report = fft_report("gl", 1, 0, 1, points=points)
    assert report.equal and report.certificate.words == (None,)
    assert not caplog.records


def test_residue_columns_match_the_residues_read_by_column():
    # on the fft-glq cells, the one-pass column maps of every symmetry and
    # diagram generator at the later points, on the primitive support and
    # on a sparse set of columns, equal the columns of the residues of the
    # generator cut to those columns
    def old(mat, point, keep):
        sub = SparseMat(mat.src, mat.dst)
        sub.entries = {key: v for key, v in mat.entries.items()
                       if key[1] in keep}
        return centralizer._columns(sub.residues(point))
    for m, n, r, s in BLOCK_CELLS[:9]:
        kind, ctx, _, _, _, module, gens = _block_args(m, n, r, s)
        dgens = diagram_generators(kind, ctx, r, s)
        support = {k for basis in module.primitive for v in basis for k in v}
        for point in DEFAULT_POINTS[1:]:
            for mat in gens + list(dgens.values()):
                for keep in (support, set(range(0, mat.cols, 3))):
                    got = centralizer._residue_columns(mat, point, keep)
                    assert got == old(mat, point, keep)
                    assert list(got.items()) == list(old(mat, point,
                                                         keep).items())


# the CI cells on the block route: gl(1|1) r <= 6, gl(2|1) r <= 5, gl(1|2)
# and gl(2|2) r=2, walled gl(2|1) r=1 s=1 and gl(1|1) r=3 s=2
TOKEN_CELLS = ([(1, 1, r, 0) for r in range(1, 7)]
               + [(2, 1, r, 0) for r in range(1, 6)]
               + [(1, 2, 2, 0), (2, 2, 2, 0), (2, 1, 1, 1), (1, 1, 3, 2)])


@pytest.mark.parametrize("m, n, r, s", TOKEN_CELLS)
def test_the_token_reads_match_the_placed_generators(m, n, r, s):
    # at each default point, each token placed on its own two slots moves
    # every basis vector as the residues of the placed diagram generator
    # do, and its blocks on that point's P_lam are the blocks read from
    # those residues
    args = _block_args(m, n, r, s)
    kind, ctx, _, _, _, _, _ = args
    dgens = diagram_generators(kind, ctx, r, s)
    tokens = walled_tokens(ctx, r, s)
    assert [name for name, _, _ in tokens] == list(dgens)
    for point, (span, values, _) in zip(DEFAULT_POINTS, _point_blocks(args)):
        for (_, T, t), mat, value in zip(tokens, dgens.values(), values):
            placed = centralizer._columns(mat.residues(point))
            apply = on_slots(T.residues(point), t, r + s)
            assert all(apply({k: 1}) == dict(placed.get(k, ()))
                       for k in range(mat.cols))
            assert value == span.value(
                lambda v: centralizer._apply(placed, v, PRIME))


def test_a_block_route_cell_builds_no_placed_generator(monkeypatch):
    # over the fft-glq cells, the placed diagram generators are built only
    # for the two-slot cells of the membership check, and the first point
    # reads each diagram generator's blocks once, 16 reads in all (the
    # closure starts from the identity's blocks and reuses the values)
    cells = BLOCK_CELLS[:9]
    inside, placed, reads, first = [], [], [], []
    walled, check = functor._walled_generators, centralizer._check_tokens
    value, closure = centralizer.BlockSpan.value, centralizer.image_basis

    def spy_walled(ctx, r, s):
        placed.append((r + s, bool(inside)))
        return walled(ctx, r, s)

    def spy_check(*args):
        inside.append(1)
        try:
            return check(*args)
        finally:
            inside.pop()

    def spy_closure(*args):
        first.append(len(reads))
        return closure(*args)
    monkeypatch.setattr(functor, "_walled_generators", spy_walled)
    monkeypatch.setattr(centralizer, "_check_tokens", spy_check)
    monkeypatch.setattr(centralizer.BlockSpan, "value",
                        lambda self, apply: reads.append(1)
                        or value(self, apply))
    monkeypatch.setattr(centralizer, "image_basis", spy_closure)
    per_cell = []
    for m, n, r, s in cells:
        start = len(reads)
        report = fft_report("gl", m, n, r, s=s)
        assert report.certificate.words, (m, n, r, s)
        per_cell.append(first[-1] - start)
    assert placed and set(placed) == {(2, True)}
    assert per_cell == [len(walled_tokens(make_context(
        "glq", datum=distinguished("gl", m, n)), r, s))
        for m, n, r, s in cells]
    assert sum(per_cell) == 16


def test_the_frontier_hecke_cell_is_certified_at_default_settings():
    # gl(2|1) r=6: d = 729 fits the default budget, and the blocks (16, 10,
    # 10, 9, 9, 5, 5, 5, 1, 1) prove 695 = sum k^2 of the 720 permutations;
    # every block but the 16 x 16 one is proved by a rank-one element, so
    # the kept words are the 256 that fill that block (the identity and the
    # images that tell the pairs apart among them), and the oracle
    # re-checks them
    report = fft_report("gl", 2, 1, 6)
    assert report.equal and report.span_rank == 695 and report.agreement
    cert = report.certificate
    assert cert.blocks == (16, 10, 10, 9, 9, 5, 5, 5, 1, 1)
    assert cert.kept == 256
    assert_certified(report)


def test_no_factors_on_disjoint_slots_give_the_frontier_block_rank_one():
    # the 16 x 16 block of gl(2|1) r=6 is the Specht module of (3, 2, 1), a
    # 2-core: restricted to H_2 (x) H_2 (x) H_2 on disjoint slots it is a
    # multiple of the regular representation, so at q = 7/5 every
    # g_i - mu has rank 8, every disjoint pair (g_i - mu)(g_j - nu) rank 4
    # and every (g_1 - mu)(g_3 - nu)(g_5 - rho) rank 2; no product of
    # disjoint-slot factors has rank one, and its words are kept instead
    span, values, roots = next(_point_blocks(_block_args(2, 1, 6, 0)))
    block = [len(basis) for basis in span.bases].index(16)
    gens = [value[block] for value in values]

    def rank(theta):
        return dense_rank([dict(enumerate(row)) for row in theta], 16, PRIME)

    def factor(i, mu):
        return tuple(tuple((x - mu * (t == u)) % PRIME
                           for u, x in enumerate(row))
                     for t, row in enumerate(gens[i]))

    def product(*factors):
        theta = factors[0]
        for f in factors[1:]:
            theta = centralizer._block_product(theta, f, PRIME)
        return theta
    single = [factor(i, mu) for i in range(5) for mu in roots[i]]
    assert [rank(theta) for theta in single] == [8] * 10
    assert {rank(product(factor(i, mu), factor(j, nu)))
            for i in range(5) for j in range(i + 2, 5)
            for mu in roots[i] for nu in roots[j]} == {4}
    assert {rank(product(factor(0, mu), factor(2, nu), factor(4, rho)))
            for mu in roots[0] for nu in roots[2] for rho in roots[4]} == {2}
    assert not centralizer._rank_one(gens, roots)


def test_blocks_not_told_apart_fall_back(monkeypatch, caplog):
    # a primitive space read twice gives two equal blocks that no trace
    # tells apart: the block route misses, logs once, and the span on J's
    # columns keeps the bytes
    cells = [("gl", 2, 1, 4, 0), ("gl", 1, 1, 3, 2)]
    want = [fft_report(f, m, n, r, s=s).to_dict() for f, m, n, r, s in cells]
    init = centralizer.BlockSpan.__init__

    def twice(self, primitive):
        init(self, list(primitive) + [next(b for b in primitive if b)])
    monkeypatch.setattr(centralizer.BlockSpan, "__init__", twice)
    for (f, m, n, r, s), expect in zip(cells, want):
        caplog.clear()
        with caplog.at_level("INFO", logger="qschur.centralizer"):
            report = fft_report(f, m, n, r, s=s)
        assert report.to_dict() == expect and report.certificate.kept == 0
        assert [rec.getMessage() for rec in caplog.records] == [
            "block span: at q = 7/5, 0 blocks fall short and 1 pairs of "
            "equal size are not told apart; span on J's columns"]


def test_a_later_point_that_fails_falls_back(caplog):
    # q = p/7 is 0 mod p: the later point's primitive spaces cannot be
    # built there, so the block route misses, logs once, and the span on
    # J's columns ranks that point exactly, to the parent's bytes
    points = [Fraction(13, 9), Fraction(PRIME, 7)]
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        report = fft_report("gl", 2, 1, 3, points=points)
    assert report.to_dict() == {
        "flavor": "gl", "m": 2, "n": 1, "r": 3, "s": 0, "commutant_dim": 6,
        "span_rank": 6, "points": ["13/9", "1073741789/7"],
        "agreement": True, "verdict": "equal"}
    assert report.certificate.kept == 0
    assert [rec.getMessage() for rec in caplog.records
            if rec.getMessage().startswith("block span")] == [
        f"block span: q = {points[1]} vanishes mod {PRIME}; span on J's "
        "columns"]


def test_cells_whose_primitive_vectors_do_not_generate_skip_the_blocks(
        monkeypatch):
    # the walled cells on the spin certificate run no block closure
    closures = _spy_calls(monkeypatch, "image_basis")
    for m, r, s in [(1, 1, 1), (2, 2, 1), (2, 2, 2)]:
        report = fft_report("gl", m, 1, r, s=s)
        assert isinstance(report.certificate, SpinCertificate), (m, r, s)
    assert closures and not any(isinstance(a, centralizer.BlockSpan)
                                for args, _ in closures for a in args)


def test_an_unlucky_first_point_runs_the_exact_closure_first(monkeypatch):
    # q = p/7 is 0 mod p: the exact closure's count is the lower bound, so
    # the first exact nullity meets it and ends the search
    exact = _spy_calls(monkeypatch, "commutant_nullity")
    report = fft_report("gl", 2, 1, 2, s=1,
                        points=[Fraction(PRIME, 7), Fraction(13, 9)])
    assert report.equal and report.certificate is None
    assert [result for _, result in exact] == [6]


def test_the_exact_path_checks_its_unknowns_against_the_budget(monkeypatch):
    # osp(3|2) r=2 with no module: d = 25 fits, but the exact path's 61
    # surviving unknowns must fit too, at its entry
    _no_weight_module(monkeypatch)
    rows = _spy_calls(monkeypatch, "assemble_commutant_rows")
    with pytest.raises(BudgetError, match="unknowns 61 exceed budget 60"):
        fft_report("osp", 3, 1, 2, budget=60)
    assert fft_report("osp", 3, 1, 2, budget=61).equal and len(rows) == 1


def test_the_spin_certificate_checks_its_unknowns_against_the_budget():
    gens = _osp_generator_mats(3, 1, 3)
    module = weight_module(gens, module_heights(distinguished("osp", 3, 1),
                                                (1, 1, 1)))
    with pytest.raises(BudgetError, match="spin unknowns 46 exceed budget 45"):
        certify_spin(module, 15, 45)
    assert certify_spin(module, 15, 46).unknowns == 46


# ---------------------------------------------------------------------------
# The gl closure on the columns of a generating set J.

def _j_args(m, n, r, s, point=DEFAULT_POINTS[0]):
    datum = distinguished("gl", m, n)
    gens = _glq_generator_mats(datum, r, s)
    heights = module_heights(datum, (1,) * r + (-1,) * s)
    return gens, heights, weight_module(gens, heights, point).columns


def _on_columns(img, cols):
    # the columns of a d x d image on J, renumbered as the closure numbers them
    place = {j: c for c, j in enumerate(cols)}
    return {(i, place[j]): v for (i, j), v in img.entries.items()
            if j in place}


def _residue_rank(images, point):
    ech = Echelon()
    for img in images:
        ech.add(vectorize(img.residues(point)))
    return ech.rank


@pytest.mark.parametrize("m, n, r, s", [
    (1, 1, 4, 0), (1, 1, 5, 0), (2, 1, 3, 0), (2, 1, 4, 0),
    (1, 1, 2, 1), (1, 1, 2, 2), (1, 1, 3, 2), (2, 1, 2, 1)])
def test_the_closure_on_j_keeps_the_same_images(m, n, r, s):
    # gl(1|1) r = 4, 5 is not faithful (20 of 24, 70 of 120): the same
    # words, so the same images, in the same order, with the same rank at
    # every default point
    ctx = make_context("glq", datum=distinguished("gl", m, n))
    kind = "hecke" if s == 0 else "walled"
    _, heights, cols = _j_args(m, n, r, s)
    full_ech, j_ech = Echelon(), Echelon()
    full_words, full = closure_words(kind, ctx, r, s, full_ech)
    j_words, on_j = closure_words(kind, ctx, r, s, j_ech, cols)
    assert len(cols) < len(heights) and len(on_j) == len(full) == j_ech.rank
    assert j_words == full_words
    assert [img.entries for img in on_j] == [_on_columns(img, cols)
                                             for img in full]
    for point in DEFAULT_POINTS:
        assert _residue_rank(on_j, point) == _residue_rank(full, point)


@pytest.mark.parametrize("m, n, r, s, size", [(2, 1, 4, 0, 10),
                                              (1, 1, 3, 2, 16),
                                              (2, 1, 5, 0, 26)])
def test_generating_set_sizes_are_pinned(m, n, r, s, size):
    # on these cells |J| is the sum of the k_lam of the primitive certificate
    assert len(_j_args(m, n, r, s)[2]) == size


def test_a_j_that_does_not_generate_misses_both_certificates(monkeypatch,
                                                            caplog):
    # one basis vector, a highest weight vector, in place of J generates
    # only part of the module: the closure keeps fewer images, both
    # certificates miss and the exact path, on every column, decides to
    # the same bytes
    cells = [("gl", 1, 1, 2, 1), ("gl", 2, 1, 3, 0)]
    want = [fft_report(f, m, n, r, s=s).to_dict() for f, m, n, r, s in cells]
    _no_blocks(monkeypatch)
    build = centralizer.weight_module
    monkeypatch.setattr(centralizer, "weight_module", lambda *args:
                        dataclasses.replace(build(*args), columns=(0,)))
    closures = _spy_calls(monkeypatch, "image_basis")
    for cell, expect in zip(cells, want):
        f, m, n, r, s = cell
        caplog.clear()
        with caplog.at_level("INFO", logger="qschur.centralizer"):
            report = fft_report(f, m, n, r, s=s)
        assert report.certificate is None and report.to_dict() == expect
        assert "primitive certificate" in caplog.text
        assert "spin certificate" in caplog.text
        assert "; exact path" in caplog.text
        (on_j, kept), (exact_args, exact) = closures[-2:]
        assert on_j[6] == (0,) and exact_args[5:7] == (None, None)
        assert len(kept) < len(exact) == report.span_rank


def test_a_point_short_on_j_rebuilds_full_images(monkeypatch, caplog):
    # the later points are short on one pivot column, and the exact rank on
    # J's columns at the first of them is patched one below R, as where J
    # does not generate there: the same words are replayed once on every
    # column at that point only, before the next point, with no second
    # closure
    want = fft_report("gl", 2, 1, 4).to_dict()
    _no_blocks(monkeypatch)
    monkeypatch.setattr(Echelon, "pivot_columns",
                        property(lambda self: tuple(self._pivots)[:1]))
    closures = _spy_calls(monkeypatch, "image_basis")
    rank, calls = centralizer.ranks_at, []

    def one_short_on_j(rows, at):
        calls.append((rows, at))
        return [k - (len(calls) == 1) for k in rank(rows, at)]
    monkeypatch.setattr(centralizer, "ranks_at", one_short_on_j)
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        report = fft_report("gl", 2, 1, 4)
    assert report.to_dict() == want and report.certificate is not None
    assert "short on J's columns at q = 13/9; full images" in caplog.text
    ((on_j, words),) = closures
    assert len(on_j[6]) == 10 and len(words) == 24
    gens = list(on_j[7].values())
    space = make_context("glq", datum=distinguished("gl", 2, 1)).space_of(
        "++++")

    def rows(point, columns):
        return [vectorize(img) for img in replay(
            words, [g.specialize(point) for g in gens],
            identity_on(space, columns))]
    b, c = DEFAULT_POINTS[1:]
    assert calls == [(rows(b, on_j[6]), [b]), (rows(b, None), [b]),
                     (rows(c, on_j[6]), [c])]


def test_an_uncertified_cell_ranks_the_exact_closure(monkeypatch):
    # at 37 the blocks fall short and the walled closure mod p drops
    # candidates that are independent over Q: no certificate, so a second,
    # exact closure gives the first point's rank by its count, and each
    # later point replays its words exactly, from the generators
    # specialised there, on J's columns
    want = fft_report("gl", 1, 1, 2, s=1).to_dict()
    monkeypatch.setattr(superspace, "PRIME", 37)
    closures = _spy_calls(monkeypatch, "image_basis")
    reranks = _spy_calls(monkeypatch, "ranks_at")
    report = fft_report("gl", 1, 1, 2, s=1)
    assert report.certificate is None and report.to_dict() == want
    (block_args, _), (mod_p_args, _), (exact_args, words) = closures
    assert isinstance(block_args[8], centralizer.BlockSpan)
    assert isinstance(mod_p_args[5], Echelon)
    assert exact_args[5:7] == (None, None)
    assert [at for (_, at), _ in reranks] == [[a] for a in DEFAULT_POINTS[1:]]
    for (rows, _), _ in reranks:
        assert len(rows) == len(words) and not any(
            isinstance(v, RatFunc) for row in rows for v in row.values())
    ranks = [len(words)] + [got for _, (got,) in reranks]
    images = closure_words("walled", exact_args[1], 2, 1, None)[1]
    assert ranks == ranks_at([vectorize(img) for img in images],
                             DEFAULT_POINTS)
    assert report.span_rank == max(ranks)
    assert report.agreement == (len(set(ranks)) == 1)


# ---------------------------------------------------------------------------
# The osp span on the columns of J.

@pytest.mark.parametrize("m, n, r", [(1, 1, 3), (2, 1, 2), (2, 1, 3),
                                     (3, 1, 3), (0, 1, 3)])
def test_the_osp_span_on_j_has_the_full_exact_rank(m, n, r):
    # osp(1|2) r=3, osp(2|2) r=2 and r=3 (sigma; r=2 takes the spin
    # certificate), osp(3|2) r=3 (not generated by its primitive vectors)
    # and osp(0|2) r=3: the Brauer images on J are the full images
    # restricted to J, and their exact rank over Q is the full one
    ctx = make_context("osp_classical", m=m, n=n)
    heights = module_heights(distinguished("osp", m, n), (1,) * r)
    cols = weight_module(_osp_generator_mats(m, n, r), heights).columns
    full = image_basis("brauer", ctx, r)
    on_j = image_basis("brauer", ctx, r, columns=cols)
    assert len(cols) < len(heights) and len(on_j) == len(full)
    assert [img.entries for img in on_j] == [_on_columns(img, cols)
                                             for img in full]
    assert (superspace.int_rank([vectorize(img) for img in on_j])
            == superspace.int_rank([vectorize(img) for img in full])
            == fft_report("osp", m, n, r).span_rank)


def test_the_osp_span_runs_on_seven_columns(monkeypatch):
    # osp(3|4) r=3: d = 343, |J| = 7, found once and shared with the
    # primitive certificate
    closures = _spy_calls(monkeypatch, "image_basis")
    splits = _spy_calls(monkeypatch, "_weight_split")
    report = fft_report("osp", 3, 2, 3)
    assert report.equal and isinstance(report.certificate,
                                       PrimitiveCertificate)
    ((args, images),) = closures
    assert len(args[6]) == 7 and {img.cols for img in images} == {7}
    assert {img.rows for img in images} == {343} and len(splits) == 1


def test_the_osp_span_without_j_keeps_the_bytes(monkeypatch):
    # no J: every column is kept, and the report is the same
    cells = [(1, 1, 3), (2, 1, 2), (2, 1, 3), (3, 1, 3), (0, 1, 3), (3, 2, 2)]
    want = [fft_report("osp", m, n, r).to_dict() for m, n, r in cells]
    _no_weight_module(monkeypatch)
    closures = _spy_calls(monkeypatch, "image_basis")
    assert [fft_report("osp", m, n, r).to_dict() for m, n, r in cells] == want
    for (args, images), (m, n, r) in zip(closures, cells):
        assert args[6] is None
        assert {img.cols for img in images} == {(m + 2 * n) ** r}


# ---------------------------------------------------------------------------
# The spin certificate on the values of a map on J.

SPIN_CELLS = [
    ("osp", 1, 1, 2, 0), ("osp", 1, 1, 3, 0), ("osp", 2, 1, 2, 0),
    ("osp", 2, 1, 3, 0), ("osp", 3, 1, 2, 0), ("osp", 3, 1, 3, 0),
    ("osp", 2, 0, 2, 0), ("osp", 4, 0, 2, 0), ("osp", 4, 0, 3, 0),
    ("osp", 0, 1, 3, 0), ("gl", 1, 1, 2, 1), ("gl", 1, 1, 2, 2),
    ("gl", 2, 1, 2, 1), ("gl", 2, 2, 1, 1), ("gl", 2, 1, 3, 0),
    ("gl", 1, 1, 3, 0)]


@pytest.mark.parametrize("flavor, m, n, r, s", SPIN_CELLS)
def test_the_spin_nullity_is_the_exact_nullity(flavor, m, n, r, s, caplog):
    # sigma-extended (even m), m = 0, walled and Hecke cells: the complete
    # spin system has the exact nullity at the point, so it certifies the
    # exact commutant dimension and never one less
    datum = distinguished(flavor, m, n)
    heights = module_heights(datum, (1,) * r + (-1,) * s)
    if flavor == "gl":
        point = DEFAULT_POINTS[0]
        gens = _glq_generator_mats(datum, r, s)
        exact = commutant_nullity([g.specialize(point) for g in gens],
                                  len(heights))
    else:
        point, gens = None, _osp_generator_mats(m, n, r)
        exact = commutant_nullity(gens, len(heights))
    module = weight_module(gens, heights, point)
    cert = certify_spin(module, exact)
    assert cert is not None and cert.unknowns - cert.rank == exact
    assert cert.columns == len(module.columns) <= len(heights)
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        assert certify_spin(module, exact - 1) is None
    assert f"spin certificate: nullity bound {exact} after all" in caplog.text


def test_the_spin_certificate_reads_j_from_the_module(monkeypatch):
    # osp(3|2) r=3 takes the spin certificate: one spin, when the module is
    # built, picks J among the 125 e_k of its classes and checks the
    # primitive spaces of the classes its lowering images leave short, which
    # fail to generate, against the same lowering pivots; the spin
    # certificate spins nothing again
    calls = _spy_calls(monkeypatch, "_spin")
    report = fft_report("osp", 3, 1, 3)
    assert isinstance(report.certificate, SpinCertificate)
    assert report.certificate.columns == 7 and len(calls) == 1
    (classes, *_), (_, primitive, short) = calls[0]
    assert sum(map(len, classes)) == 125 > sum(map(len, primitive))
    assert short == ("generation stops at a weight class of size 12 "
                     "(height 3) at rank 10")


@pytest.mark.parametrize("cell", [("osp", 3, 1, 3, 0), ("osp", 2, 1, 2, 0),
                                  ("gl", 2, 1, 2, 2)])
def test_the_spin_pairs_skipped_by_construction_give_only_zero_rows(
        cell, monkeypatch):
    # M(L e_k) is built as L M(e_k) for each picked lowering image L e_k, so
    # the pair (L, k) is never built; recomputed on the finished M, every
    # one of its rows is zero
    module, _ = _cell_module(cell)
    calls = _spy_calls(monkeypatch, "_pair_rows")
    # the identity commutes, so no bound meets 0 and every row is built
    assert certify_spin(module, 0) is None
    M = calls[-1][0][2]
    built = {(id(x), b) for (x, b, _, _), _ in calls}
    skipped = [(L, k) for _, picked in module.bases for L, k in picked
               if L is not None]
    assert skipped and not built & {(id(L), k) for L, k in skipped}
    for L, k in skipped:
        assert list(centralizer._pair_rows(L, k, M, PRIME)) == []
