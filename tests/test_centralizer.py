import math
from fractions import Fraction

import pytest

from conftest import (assert_certified, commutator_rows, dense_nullity,
                      ratfunc_rank)
from qschur import centralizer
from qschur import osp as osp_mod
from qschur import qgl, superspace
from qschur.centralizer import (MembershipError, PrimitiveCertificate,
                                SpinCertificate, _glq_generator_mats,
                                _osp_generator_mats, assemble_commutant_rows,
                                certify_nullity, certify_primitive,
                                certify_spin, check_membership,
                                commutant_dim_glq, commutant_dim_osp,
                                commutant_nullity, fft_report,
                                generating_columns, least_nullity,
                                module_heights, relation_check)
from qschur.errors import UsageError, VerificationError
from qschur.functor import (BudgetError, diagram_generators, image_basis,
                            make_context)
from qschur.qgl import act_on_signs, generator_names, natural_rep
from qschur.rootdata import distinguished
from qschur.scalar import Q, RatFunc, qint
from qschur.superspace import (DEFAULT_POINTS, PRIME, Echelon, SparseMat,
                               SuperSpace, kron_chain, ranks_at, vectorize)

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
    images = image_basis("hecke", ctx, 2)
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


def test_certified_and_exact_nullities_match_dense_oracle():
    pt = DEFAULT_POINTS[0]
    cells = [(_osp_generator_mats(1, 1, 2), None)]
    for (m, n) in [(1, 1), (2, 1)]:
        glq = _glq_generator_mats(distinguished("gl", m, n), 2)
        cells.append(([g.specialize(pt) for g in glq], pt))
    for gens, point in cells:
        dim = gens[0].rows
        want = dense_nullity(commutator_rows(gens, dim), dim * dim)
        assert commutant_nullity(gens, dim) == want
        cert = certify_nullity(gens, dim, want, point)
        assert cert is not None and cert.survivors - cert.rank == want
        assert cert.rows_used <= cert.rows_assembled
        assert cert.prime == PRIME


def test_unmet_lower_bound_takes_the_exact_path(caplog):
    # the commutant of a single Jordan block on a 2-dim space is 2-dim;
    # elimination can never bring the upper bound down to 1
    V = SuperSpace((0, 0))
    jordan = [SparseMat(V, V, {(0, 1): 1})]
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        assert certify_nullity(jordan, 2, 1) is None
    assert "exact fallback" in caplog.text
    assert commutant_nullity(jordan, 2) == 2
    osp_gens = _osp_generator_mats(1, 1, 2)
    osp_heights = module_heights(distinguished("osp", 1, 1), (1, 1))
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        assert commutant_dim_osp(osp_gens, 9, 1, osp_heights) == (3, None)
    assert "bound 3 does not meet the lower bound 1" in caplog.text
    gl = distinguished("gl", 1, 1)
    gl_gens = _glq_generator_mats(gl, 2)
    assert commutant_dim_glq(gl_gens, 4, DEFAULT_POINTS, 1,
                             module_heights(gl, (1, 1))) == (2, None)
    dim, cert = commutant_dim_osp(osp_gens, 9, 3, osp_heights)
    assert dim == 3 and cert.bound == 3
    cert = certify_nullity(osp_gens, 9, 3)
    assert cert.survivors - cert.rank == 3


def test_denominator_divisible_by_prime_takes_the_exact_path(caplog):
    V = SuperSpace((0, 0))
    unlucky = [SparseMat(V, V, {(0, 1): Fraction(1, PRIME)})]
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        assert certify_nullity(unlucky, 2, 2) is None
    assert "vanishes mod" in caplog.text
    assert commutant_nullity(unlucky, 2) == 2


def test_budget_guards():
    with pytest.raises(BudgetError):
        fft_report("gl", 2, 2, 3, budget=10)
    with pytest.raises(BudgetError):
        fft_report("gl", 1, 1, 1, s=2, budget=10)
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
    plus = image_basis("walled", ctx, r, s)
    plain = functor._walled_generators
    monkeypatch.setattr(functor, "_walled_generators",
                        lambda *a: {**plain(*a), **inverses})
    both = image_basis("walled", ctx, r, s)
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


def test_certificate_rows_match_the_full_assembly_order():
    # rows_used as recorded when every row was assembled before elimination,
    # over the whole osp basis and sigma, so that the pins test the row
    # order of certify_nullity rather than a cell's generator set
    osp_cells = [(m, n, r) for (m, n) in [(1, 1), (2, 1), (3, 1), (4, 1),
                                          (3, 2)] for r in (1, 2, 3)]
    used = assembled = 0
    for (m, n, r) in osp_cells:
        cert = certify_nullity(_whole_osp_basis_mats(m, n, r),
                               (m + 2 * n) ** r, math.prod(range(1, 2 * r, 2)))
        assert cert is not None and cert.rows_used <= cert.rows_assembled
        if (m, n, r) == (3, 1, 3):
            assert cert.rows_used == 1176 and cert.rows_assembled == 1476
        if (m, n, r) == (4, 1, 3):
            assert cert.rows_used == 3020 and cert.rows_assembled == 3600
        used += cert.rows_used
        assembled += cert.rows_assembled
    # of the 70,680 rows that full assembly builds on these 15 cells
    assert (used, assembled) == (11406, 13812)
    pt = DEFAULT_POINTS[0]
    gens = _glq_generator_mats(distinguished("gl", 2, 1), 4)
    cert = certify_nullity([g.specialize(pt) for g in gens], 81, 24, pt)
    assert (cert.rows_used, cert.rows_assembled) == (1587, 1824)


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


@pytest.mark.parametrize("m, n, r", [(2, 0, 1), (2, 0, 2), (4, 0, 2),
                                     (4, 0, 3), (2, 1, 3), (0, 1, 3)])
def test_sigma_orbit_bound_is_the_exact_commutant(m, n, r):
    # osp(2|0), osp(4|0), osp(2|2) and osp(0|2): the orbit sum over the
    # sigma-stable positive system meets the exact sigma-extended nullity
    gens = _osp_generator_mats(m, n, r)
    d = (m + 2 * n) ** r
    exact = commutant_nullity(gens, d)
    heights = module_heights(distinguished("osp", m, n), (1,) * r)
    cert = certify_primitive(gens, heights, exact)
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
        with pytest.raises(VerificationError, match="generate"):
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
        cert = certify_primitive(_glq_generator_mats(datum, r),
                                 module_heights(datum, (1,) * r), want,
                                 DEFAULT_POINTS[0])
        assert cert is not None and cert.bound == want, (m, n, r)
    assert _hook_sum(2, 1, 6) == 695


def test_a_lower_bound_one_short_gets_no_primitive_certificate(caplog):
    gl = distinguished("gl", 2, 1)
    gl_gens = _glq_generator_mats(gl, 3)
    gl_heights = module_heights(gl, (1, 1, 1))
    osp_gens = _osp_generator_mats(3, 1, 2)
    osp_heights = module_heights(distinguished("osp", 3, 1), (1, 1))
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        assert certify_primitive(gl_gens, gl_heights, 5,
                                 DEFAULT_POINTS[0]) is None
        assert certify_primitive(osp_gens, osp_heights, 2) is None
        # the same verdicts as the exact path gives
        assert commutant_dim_glq(gl_gens, 27, DEFAULT_POINTS, 5,
                                 gl_heights) == (6, None)
        assert commutant_dim_osp(osp_gens, 25, 2, osp_heights) == (3, None)
    assert "bound 6 does not meet the lower bound 5" in caplog.text
    assert "bound 3 does not meet the lower bound 2" in caplog.text


def test_a_module_not_generated_takes_the_spin_certificate(monkeypatch,
                                                           caplog):
    # osp(3|2) r=3: the primitive vectors do not generate the module, and
    # a map is fixed by its 46 values on the 7 columns of J
    gens = _osp_generator_mats(3, 1, 3)
    heights = module_heights(distinguished("osp", 3, 1), (1, 1, 1))
    cols, split = generating_columns(gens, heights)
    assemblies = _spy_calls(monkeypatch, "assemble_commutant_rows")
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        assert certify_primitive(gens, heights, 15) is None
        dim, cert = commutant_dim_osp(gens, 125, 15, heights, cols, split)
    assert "generation stops at a weight class of size" in caplog.text
    assert "spin certificate" not in caplog.text and not assemblies
    assert dim == 15 and isinstance(cert, SpinCertificate)
    assert (cert.columns, cert.unknowns, cert.rank) == (7, 46, 31)


def test_a_cell_without_j_takes_the_row_certificate(monkeypatch):
    # with no J the spin certificate is not tried: the rows certify
    # osp(3|2) r=3 after 1176 of the 1476 rows of the generators assembled
    # up to the stop, and the report keeps its bytes
    want = fft_report("osp", 3, 1, 3).to_dict()
    monkeypatch.setattr(centralizer, "generating_columns",
                        lambda *args: (None, None))
    report = fft_report("osp", 3, 1, 3)
    cert = report.certificate
    assert report.to_dict() == want and isinstance(cert,
                                                   centralizer.Certificate)
    assert (cert.rows_used, cert.rows_assembled) == (1176, 1476)
    assert_certified(report)


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
            assert certify_primitive(gen_list, hts, bound, point) is None
        assert reason in caplog.text, reason


# ---------------------------------------------------------------------------
# Gl span ranks on the first ranked point's pivot columns.

SPAN_CELLS = [(2, 1, 4, 0), (1, 1, 3, 2), (2, 1, 2, 2), (1, 1, 4, 0)]


def _span_args(m, n, r, s):
    ctx = make_context("glq", datum=distinguished("gl", m, n))
    return ctx, "hecke" if s == 0 else "walled", r, s, DEFAULT_POINTS


def _closure(ctx, kind, r, s, points):
    # what fft_report hands to _pivot_ranks: the kept images, their echelon
    ech = Echelon()
    return image_basis(kind, ctx, r, s, points, ech), ech, points


def _full_row_ranks(ctx, kind, r, s, points):
    # the oracle: every point ranked on all residue rows
    images = image_basis(kind, ctx, r, s, points=points, echelon=Echelon())
    ranks = []
    for point in points:
        ech = Echelon()
        for img in images:
            ech.add(vectorize(img.residues(point)))
        ranks.append(ech.rank)
    return ranks


@pytest.mark.parametrize("cell", SPAN_CELLS)
def test_span_ranks_on_pivot_columns_match_full_rows(cell):
    args = _span_args(*cell)
    assert (centralizer._pivot_ranks(*_closure(*args))
            == _full_row_ranks(*args))


@pytest.mark.parametrize("m, n, r, kept", [(2, 1, 4, 24), (1, 1, 4, 20),
                                           (1, 1, 5, 70)])
def test_span_ranks_reduce_no_image_at_the_first_point(monkeypatch, m, n, r,
                                                       kept):
    # the closure ranks the first point itself; each later point reduces
    # only the kept images' entries on its pivot columns (gl(1|1) r >= 4 is
    # not faithful: 20 of 24 and 70 of 120 permutations)
    args = _span_args(m, n, r, 0)
    want = _full_row_ranks(*args)
    closed = _closure(*args)
    keys_seen, residues = [], SparseMat.residues

    def spy(self, point, keys=None):
        keys_seen.append(keys)
        return residues(self, point, keys)
    monkeypatch.setattr(SparseMat, "residues", spy)
    assert centralizer._pivot_ranks(*closed) == want == [kept] * 3
    assert len(keys_seen) == 2 * kept
    assert all(keys is not None and len(keys) == kept for keys in keys_seen)


def _spy_calls(monkeypatch, name):
    # the (args, result) of every call fft_report makes to centralizer.name
    calls, fn = [], getattr(centralizer, name)

    def spy(*args):
        calls.append((args, fn(*args)))
        return calls[-1][1]
    monkeypatch.setattr(centralizer, name, spy)
    return calls


def test_an_unlucky_first_point_takes_the_exact_path(monkeypatch, caplog):
    # 5 divides the denominator of the first point 7/5: the closure stops,
    # no certificate can meet a span rank of 0, and the exact closure ranks
    # the cell to the same bytes
    want = fft_report("gl", 1, 1, 2, s=1).to_dict()
    monkeypatch.setattr(superspace, "PRIME", 5)
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        report = fft_report("gl", 1, 1, 2, s=1)
    assert caplog.text.count("span closure at q = 7/5") == 1
    assert report.certificate is None
    assert report.to_dict() == want


def test_a_point_short_on_the_pivot_columns_is_ranked_exactly(monkeypatch,
                                                              caplog):
    want = fft_report("gl", 2, 1, 4).to_dict()
    at_seen = []

    def spy(rows, at):
        at_seen.append(list(at))
        return ranks_at(rows, at)
    monkeypatch.setattr(centralizer, "ranks_at", spy)
    monkeypatch.setattr(Echelon, "pivot_columns",
                        property(lambda self: tuple(self._pivots)[:1]))
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        assert fft_report("gl", 2, 1, 4).to_dict() == want
    assert "on 1 pivot columns: rank 1 of 24; exact rank" in caplog.text
    assert at_seen == [list(DEFAULT_POINTS[1:])]


def test_a_certified_cell_runs_one_closure(monkeypatch):
    # the short later points are ranked exactly on the images the closure
    # kept mod p, not on a second closure
    want = fft_report("gl", 2, 1, 4).to_dict()
    monkeypatch.setattr(Echelon, "pivot_columns",
                        property(lambda self: tuple(self._pivots)[:1]))
    closures = _spy_calls(monkeypatch, "image_basis")
    report = fft_report("gl", 2, 1, 4)
    assert report.to_dict() == want and report.certificate is not None
    assert len(closures) == 1


# ---------------------------------------------------------------------------
# The gl closure on the columns of a generating set J.

def _j_args(m, n, r, s, point=DEFAULT_POINTS[0]):
    datum = distinguished("gl", m, n)
    gens = _glq_generator_mats(datum, r, s)
    heights = module_heights(datum, (1,) * r + (-1,) * s)
    return gens, heights, generating_columns(gens, heights, point)[0]


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
    # images, in the same order, with the same rank at every default point
    ctx = make_context("glq", datum=distinguished("gl", m, n))
    kind = "hecke" if s == 0 else "walled"
    _, heights, cols = _j_args(m, n, r, s)
    full_ech, j_ech = Echelon(), Echelon()
    full = image_basis(kind, ctx, r, s, None, full_ech)
    on_j = image_basis(kind, ctx, r, s, None, j_ech, cols)
    assert len(cols) < len(heights) and len(on_j) == len(full) == j_ech.rank
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
    # one basis vector, a highest weight vector, generates only part of
    # the module: the closure keeps fewer images, both certificates miss
    # and the exact path, on every column, decides to the same bytes
    cells = [("gl", 1, 1, 2, 1), ("gl", 2, 1, 3, 0)]
    want = [fft_report(f, m, n, r, s=s).to_dict() for f, m, n, r, s in cells]
    columns = centralizer.generating_columns
    monkeypatch.setattr(centralizer, "generating_columns",
                        lambda *args: ((0,), columns(*args)[1]))
    closures = _spy_calls(monkeypatch, "image_basis")
    for cell, expect in zip(cells, want):
        f, m, n, r, s = cell
        caplog.clear()
        with caplog.at_level("INFO", logger="qschur.centralizer"):
            report = fft_report(f, m, n, r, s=s)
        assert report.certificate is None and report.to_dict() == expect
        assert "primitive certificate" in caplog.text
        assert "exact fallback" in caplog.text
        (on_j, kept), (exact_args, exact) = closures[-2:]
        assert on_j[6] == (0,) and exact_args[5:] == ()
        assert len(kept) < len(exact) == report.span_rank


def test_a_point_short_on_j_rebuilds_full_images(monkeypatch, caplog):
    # the later points are short on one pivot column, and their exact rank
    # on J's columns is patched one below R, as where J does not generate
    # there: the same images are rebuilt once on every column and only
    # those points are ranked exactly again
    want = fft_report("gl", 2, 1, 4).to_dict()
    monkeypatch.setattr(Echelon, "pivot_columns",
                        property(lambda self: tuple(self._pivots)[:1]))
    closures = _spy_calls(monkeypatch, "image_basis")
    reranks = _spy_calls(monkeypatch, "ranks_at")
    rank, calls = centralizer.ranks_at, []

    def one_short_on_j(rows, at):
        calls.append(at)
        return [k - (len(calls) == 1) for k in rank(rows, at)]
    monkeypatch.setattr(centralizer, "ranks_at", one_short_on_j)
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        report = fft_report("gl", 2, 1, 4)
    assert report.to_dict() == want and report.certificate is not None
    assert "short on J's columns" in caplog.text
    (on_j, kept), (full_args, full) = closures
    assert len(on_j[6]) == 10 and full_args[6] is None
    assert [img.cols for img in kept] == [10] * 24
    assert [img.cols for img in full] == [81] * 24
    assert [(at, rows) for (rows, at), _ in reranks] == [
        (list(DEFAULT_POINTS[1:]), [vectorize(img) for img in kept]),
        (list(DEFAULT_POINTS[1:]), [vectorize(img) for img in full])]


def test_an_uncertified_cell_ranks_the_exact_closure(monkeypatch):
    # at 37 the walled closure mod p drops candidates that are independent
    # over Q: no certificate, so a second, exact closure gives the first
    # point's rank by its count, and only the later points are ranked
    want = fft_report("gl", 1, 1, 2, s=1).to_dict()
    monkeypatch.setattr(superspace, "PRIME", 37)
    closures = _spy_calls(monkeypatch, "image_basis")
    reranks = _spy_calls(monkeypatch, "ranks_at")
    report = fft_report("gl", 1, 1, 2, s=1)
    assert report.certificate is None and report.to_dict() == want
    (mod_p_args, _), (exact_args, exact) = closures
    assert isinstance(mod_p_args[5], Echelon) and exact_args[5:] == ()
    rows = [vectorize(img) for img in exact]
    first = ranks_at(rows, DEFAULT_POINTS[:1])
    assert first == [len(exact)]
    assert [(at, got) for (_, at), got in reranks] == [
        (list(DEFAULT_POINTS[1:]), ranks_at(rows, DEFAULT_POINTS[1:]))]
    ranks = first + reranks[0][1]
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
    cols = generating_columns(_osp_generator_mats(m, n, r), heights)[0]
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
    monkeypatch.setattr(centralizer, "generating_columns",
                        lambda *args: (None, None))
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
    cols, split = generating_columns(gens, heights, point)
    cert = certify_spin(split, heights, cols, exact, point)
    assert cert is not None and cert.unknowns - cert.rank == exact
    assert cert.columns == len(cols) <= len(heights)
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        assert certify_spin(split, heights, cols, exact - 1, point) is None
    assert f"spin certificate: nullity bound {exact} after all" in caplog.text


def test_a_j_that_does_not_generate_logs_the_spin_fallback(caplog):
    # one basis vector does not generate osp(3|2) r=3: the spin
    # certificate is not tried on it, and the rows certify the cell
    gens = _osp_generator_mats(3, 1, 3)
    heights = module_heights(distinguished("osp", 3, 1), (1, 1, 1))
    split = generating_columns(gens, heights)[1]
    with pytest.raises(centralizer._NotPrimitive, match="generation stops"):
        certify_spin(split, heights, (0,), 15)
    with caplog.at_level("INFO", logger="qschur.centralizer"):
        dim, cert = commutant_dim_osp(gens, 125, 15, heights, (0,), split)
    assert dim == 15 and isinstance(cert, centralizer.Certificate)
    assert (cert.rows_used, cert.rows_assembled) == (1176, 1476)
    assert [rec.getMessage().split(":")[0] for rec in caplog.records
            if rec.name == "qschur.centralizer"] == [
        "primitive certificate", "spin certificate"]
    assert caplog.text.rstrip().endswith("; row certificate")
