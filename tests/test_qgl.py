import itertools

import pytest

from conftest import casimir
from qschur.qgl import (act_on_signs, braiding, braiding_inverse,
                        check_defining_relations, dual_rep, duality_maps,
                        generator_names, k2rho, natural_rep, natural_space,
                        partial_supertrace_last, rmatrix_vv, twist_scalar)
from qschur.rootdata import RootDatum, admissible_orderings, distinguished, sdim_q
from qschur.scalar import ONE, Q, RatFunc, qint, qpow
from qschur.superspace import SparseMat, graded_kron, tau, unit_space

GL_PAIRS_4 = [(m, n) for m in range(5) for n in range(5) if 1 <= m + n <= 4]


def test_natural_rep_gl11_matrices():
    rep = natural_rep(distinguished("gl", 1, 1))
    assert rep.mat("e1").entries == {(0, 1): ONE}
    assert rep.mat("K1").entries == {(0, 0): Q, (1, 1): ONE}
    assert rep.mat("K2").entries == {(0, 0): ONE, (1, 1): Q**-1}


def test_defining_relations_all_small_data():
    for (m, n) in GL_PAIRS_4:
        for datum in admissible_orderings("gl", m, n):
            check_defining_relations(natural_rep(datum))


def test_nilpotency_at_isotropic_roots():
    rep = natural_rep(distinguished("gl", 2, 1))
    e2 = rep.mat("e2")  # odd simple root at the parity wall
    assert (e2 @ e2).is_zero()
    assert (rep.mat("f2") @ rep.mat("f2")).is_zero()


def test_f_sign_convention_frozen():
    # The relation-pinned sign is -1 exactly on odd-even adjacent pairs.
    for (m, n) in GL_PAIRS_4:
        for datum in admissible_orderings("gl", m, n):
            rep = natural_rep(datum)
            par = rep.space.parities
            for i in range(1, rep.dim):
                sign = rep.mat(f"f{i}").entries[(i, i - 1)]
                want = RatFunc(-1) if (par[i - 1], par[i]) == (1, 0) else ONE
                assert sign == want, (datum.describe(), i)


def test_act_tensor_examples():
    d = distinguished("gl", 1, 1)
    rep = natural_rep(d)
    assert act_on_signs(rep, "e1", (1,)) == rep.mat("e1")
    # K is group-like
    K2 = act_on_signs(rep, "K1", (1, 1))
    assert K2 == graded_kron(rep.mat("K1"), rep.mat("K1"))
    # explicit 4x4 coproduct of e1: e1 (x) k1 + 1 (x) e1
    E = act_on_signs(rep, "e1", (1, 1))
    manual = (graded_kron(rep.mat("e1"), rep.mat("k1"))
              + graded_kron(SparseMat.identity(rep.space), rep.mat("e1")))
    assert E == manual
    assert E.entries == {(0, 1): ONE, (0, 2): Q, (1, 3): Q, (2, 3): -ONE}
    with pytest.raises(KeyError):
        act_on_signs(rep, "x9", (1, 1))


def test_rmatrix_examples():
    d = distinguished("gl", 1, 1)
    R = rmatrix_vv(d)
    assert R.entries[(0, 0)] == Q
    assert R.entries[(3, 3)] == Q**-1
    assert R.entries[(1, 1)] == ONE and R.entries[(2, 2)] == ONE
    assert R.entries[(1, 2)] == Q - Q**-1
    assert len(R.entries) == 5
    with pytest.raises(ValueError):
        rmatrix_vv(RootDatum("gl", 1, 1, (("d", 1), ("e", 1))))


def test_rmatrix_diagonal_rule():
    for (m, n) in [(2, 1), (1, 2), (2, 2)]:
        d = distinguished("gl", m, n)
        R = rmatrix_vv(d)
        V = natural_space(d)
        dim = V.dim
        for a in range(dim):
            want = Q if V.parities[a] == 0 else Q**-1
            assert R.entries[(a * dim + a, a * dim + a)] == want


def test_intertwiner_property():
    for (m, n) in GL_PAIRS_4:
        d = distinguished("gl", m, n)
        rep = natural_rep(d)
        R = rmatrix_vv(d)
        t = tau(rep.space, rep.space)
        for gen in generator_names(d):
            # R Delta(x) = Delta^op(x) R, with Delta^op = tau Delta tau
            x = act_on_signs(rep, gen, (1, 1))
            assert R @ x == t @ x @ t @ R, (m, n, gen)


def test_hecke_quadratic_relation():
    for (m, n) in GL_PAIRS_4:
        d = distinguished("gl", m, n)
        g = braiding(d)
        ident = SparseMat.identity(g.src)
        lhs = (g - ident.scale(Q)) @ (g + ident.scale(Q**-1))
        assert lhs.is_zero(), (m, n)
        assert g @ braiding_inverse(d) == ident


def test_yang_baxter():
    for (m, n) in GL_PAIRS_4:
        d = distinguished("gl", m, n)
        g = braiding(d)
        iV = SparseMat.identity(natural_space(d))
        g1, g2 = graded_kron(g, iV), graded_kron(iV, g)
        assert (g1 @ g2 @ g1) == (g2 @ g1 @ g2), (m, n)


def test_braiding_classical_limit_is_flip():
    for (m, n) in [(1, 1), (2, 1), (2, 0)]:
        d = distinguished("gl", m, n)
        V = natural_space(d)
        assert braiding(d).specialize(1) == tau(V, V)


def test_braiding_preserves_weights():
    d = distinguished("gl", 2, 2)
    g = braiding(d)
    wts = [w for w, _ in d.module_weights()]
    # weight of basis vector a * dim + b of V (x) V
    V2 = [tuple(x + y for x, y in zip(u, v)) for u in wts for v in wts]
    for (r, c) in g.entries:
        assert V2[r] == V2[c]


def test_k2rho_examples():
    for (m, n) in GL_PAIRS_4:
        d = distinguished("gl", m, n)
        assert k2rho(d).supertrace() == sdim_q(d)
    # gl(1|1): sdim = 0 forces equal diagonal entries
    K = k2rho(distinguished("gl", 1, 1))
    assert K.entries[(0, 0)] == K.entries[(1, 1)]
    # K (x) K commutes with the braiding
    d = distinguished("gl", 2, 1)
    KK = graded_kron(k2rho(d), k2rho(d))
    g = braiding(d)
    assert (KK @ g) == (g @ KK)


def test_dual_rep_properties():
    for (m, n) in [(1, 1), (2, 1), (0, 2)]:
        d = distinguished("gl", m, n)
        rep = natural_rep(d)
        dr = dual_rep(rep)
        dim = rep.dim
        for a in range(1, dim + 1):
            Kd = dr.mat(f"K{a}")
            K = rep.mat(f"K{a}")
            assert Kd.entries == {(i, i): K.entries[(i, i)].inverse()
                                  for i in range(dim)}
        # double dual is conjugation by K_{2rho}, composed with the parity
        # operator that the canonical super-identification V ~ V** carries
        ddr = dual_rep(dr)
        V = rep.space
        P = SparseMat(V, V, {(i, i): -1 if V.parities[i] else 1
                             for i in range(dim)})
        D = k2rho(d) @ P
        Dinv = SparseMat(V, V, {k: v.inverse() for k, v in D.entries.items()})
        for gen in rep.mats:
            want = D @ rep.mat(gen) @ Dinv
            got = SparseMat(V, V, dict(ddr.mat(gen).entries))
            assert got == want, (m, n, gen)


def test_duality_maps_are_module_maps():
    for (m, n) in [(1, 1), (2, 1), (1, 2)]:
        d = distinguished("gl", m, n)
        rep = natural_rep(d)
        dm = duality_maps(d)
        for gen in generator_names(d):
            counit = (lambda M: M) if gen.startswith("K") \
                else (lambda M: M.scale(RatFunc(0)))
            assert dm.omega @ act_on_signs(rep, gen, (-1, 1)) == counit(dm.omega)
            assert dm.omega_p @ act_on_signs(rep, gen, (1, -1)) == counit(dm.omega_p)
            assert act_on_signs(rep, gen, (1, -1)) @ dm.upsilon == counit(dm.upsilon)
            assert act_on_signs(rep, gen, (-1, 1)) @ dm.upsilon_p == counit(dm.upsilon_p)


def test_zigzag_identities():
    for (m, n) in GL_PAIRS_4:
        d = distinguished("gl", m, n)
        V = natural_space(d)
        Vd = V.dual()
        dm = duality_maps(d)
        iV, iVd = SparseMat.identity(V), SparseMat.identity(Vd)
        assert graded_kron(iV, dm.omega) @ graded_kron(dm.upsilon, iV) == iV
        assert graded_kron(dm.omega, iVd) @ graded_kron(iVd, dm.upsilon) == iVd
        assert graded_kron(dm.omega_p, iV) @ graded_kron(iV, dm.upsilon_p) == iV
        assert graded_kron(iVd, dm.omega_p) @ graded_kron(dm.upsilon_p, iVd) == iVd


def test_closed_loops_equal_sdim():
    for (m, n) in GL_PAIRS_4:
        d = distinguished("gl", m, n)
        dm = duality_maps(d)
        sd = sdim_q(d)
        assert (dm.omega_p @ dm.upsilon).scalar_value() == sd
        assert (dm.omega @ dm.upsilon_p).scalar_value() == sd


def test_twist_scalar():
    # ptr_2((id (x) K) g) is scalar; equals q^{omega_V}; +-1 at q = 1
    for (m, n) in GL_PAIRS_4:
        d = distinguished("gl", m, n)
        th = twist_scalar(d)
        assert th == qpow(casimir(d, d.weight_of(d.ordering[0]))), (m, n)
        assert th.specialize(1) in (1, -1)


def test_mixed_action_through_dual():
    # act_on_signs respects composition: images of K_a are invertible
    d = distinguished("gl", 2, 1)
    rep = natural_rep(d)
    M = act_on_signs(rep, "K1", (1, -1, 1))
    Minv = act_on_signs(rep, "Kinv1", (1, -1, 1))
    assert M @ Minv == SparseMat.identity(M.src)
