from fractions import Fraction

import pytest

from qschur.osp import (bmw_parameters, brauer_rep, cupcap_maps, e_map,
                        leibniz_tensor, natural_space, osp_basis, osp_form,
                        quantum_g_spectral, sigma, spectral_e, spectral_g)
from qschur.scalar import ONE, RatFunc, qint, qpow
from qschur.superspace import SparseMat, kron_chain, tau

OSP_SET = [(1, 1), (2, 1), (3, 1), (4, 1), (3, 2)]


def test_osp_form_small():
    # m = 1, n = 0: the 1x1 matrix (1)
    J = osp_form(1, 0)
    assert J.entries == {(0, 0): 1}
    # m = 0, n = 1: the symplectic 2x2 form
    J2 = osp_form(0, 1)
    assert J2.entries == {(0, 1): 1, (1, 0): -1}


def test_osp_form_supersymmetric():
    for (m, n) in OSP_SET:
        V = natural_space(m, n)
        J = osp_form(m, n)
        for v in range(V.dim):
            for w in range(V.dim):
                sign = -1 if V.parities[v] and V.parities[w] else 1
                assert J.entries.get((v, w), 0) == sign * J.entries.get((w, v), 0)
        # non-degenerate: a signed permutation, inverted by its transpose
        assert J @ J.transpose() == SparseMat.identity(V)


def test_osp_basis_dimensions():
    assert len(osp_basis(1, 1)) == 5
    assert len(osp_basis(2, 1)) == 8
    for (m, n) in OSP_SET + [(5, 1), (0, 2), (2, 2)]:
        want = m * (m - 1) // 2 + n * (2 * n + 1) + 2 * m * n
        assert len(osp_basis(m, n)) == want


def test_osp_basis_contravariance():
    for (m, n) in OSP_SET:
        V = natural_space(m, n)
        J = osp_form(m, n)
        for X in osp_basis(m, n):
            parities = {(V.parities[r] + V.parities[c]) % 2 for (r, c) in X.entries}
            assert len(parities) == 1  # parity homogeneous
            px = parities.pop()
            # (X v, w) + (-1)^{[v][X]} (v, X w) = 0, as J-matrix identity
            for b in range(V.dim):
                for c in range(V.dim):
                    lhs = sum(X.entries.get((a, b), 0) * J.entries.get((a, c), 0)
                              for a in range(V.dim))
                    rhs = sum(J.entries.get((b, a), 0) * X.entries.get((a, c), 0)
                              for a in range(V.dim))
                    if V.parities[b] and px:
                        rhs = -rhs
                    assert lhs == -rhs


def test_basis_annihilates_copairing():
    for (m, n) in OSP_SET:
        _, ccheck = cupcap_maps(m, n)
        for X in osp_basis(m, n):
            assert (leibniz_tensor(X, 2) @ ccheck).is_zero()


def test_sigma():
    V = natural_space(3, 1)
    assert sigma(3, 1) == SparseMat(V, V, {(i, i): -1 for i in range(V.dim)})
    s = sigma(2, 1)
    hi, lo = 0, 1  # the basis of C^{2|2} is e_{+eps_1}, e_{-eps_1}, ...
    assert s.entries[(hi, lo)] == 1 and s.entries[(lo, hi)] == 1
    for (m, n) in OSP_SET:
        sg = sigma(m, n)
        Vmn = natural_space(m, n)
        assert sg @ sg == SparseMat.identity(Vmn)
        J = osp_form(m, n)
        assert sg.transpose() @ J @ sg == J


def test_e_map():
    for (m, n) in OSP_SET:
        E = e_map(m, n)
        assert (E @ E) == E.scale(Fraction(m - 2 * n))
        V = natural_space(m, n)
        t = tau(V, V)
        assert t @ E == E and E @ t == E
    assert (e_map(2, 1) @ e_map(2, 1)).is_zero()  # m = 2n


def test_snake_equation():
    for (m, n) in OSP_SET:
        V = natural_space(m, n)
        chat, ccheck = cupcap_maps(m, n)
        iV = SparseMat.identity(V)
        from qschur.superspace import graded_kron
        # (id (x) chat)(ccheck(1) (x) v) = v
        lhs = graded_kron(iV, chat) @ graded_kron(ccheck, iV)
        assert lhs == iV
        # closed loop evaluates to the classical superdimension m - 2n
        assert (chat @ ccheck).scalar_value() == m - 2 * n


def test_brauer_relations():
    for (m, n) in OSP_SET:
        delta = Fraction(m - 2 * n)
        for r in (2, 3):
            rep = brauer_rep(m, n, r)
            V = natural_space(m, n)
            ident = SparseMat.identity(V.tensor_power(r))
            for i in range(1, r):
                s, e = rep[("s", i)], rep[("e", i)]
                assert s @ s == ident
                assert e @ e == e.scale(delta)
                assert e @ s == e and s @ e == e
            for i in range(1, r - 1):
                s1, s2 = rep[("s", i)], rep[("s", i + 1)]
                e1, e2 = rep[("e", i)], rep[("e", i + 1)]
                assert s1 @ s2 @ s1 == s2 @ s1 @ s2
                assert e1 @ e2 @ e1 == e1 and e2 @ e1 @ e2 == e2
                assert e1 @ s2 @ e1 == e1 and e2 @ s1 @ e2 == e2


def test_brauer_images_commute_with_symmetries():
    for (m, n) in [(3, 1), (2, 1)]:
        r = 2
        rep = brauer_rep(m, n, r)
        gens = [leibniz_tensor(X, r) for X in osp_basis(m, n)]
        gens.append(kron_chain([sigma(m, n)] * r))
        for img in rep.values():
            for gen in gens:
                assert img @ gen == gen @ img


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (3, 1), (4, 1), (3, 2)])
def test_osp_cells_have_int_entries(m, n):
    # the fft-osp pairs: J is a signed permutation, so no Fraction arises
    from qschur.centralizer import _osp_generator_mats
    from qschur.functor import image_basis, make_context
    ctx = make_context("osp_classical", m=m, n=n, budget=4096)
    for r in (1, 2):
        mats = (_osp_generator_mats(m, n, r) + list(brauer_rep(m, n, r).values())
                + image_basis("brauer", ctx, r))
        assert all(type(v) is int for mat in mats for v in mat.entries.values())


def test_span_rank_id_tau_e():
    from qschur.superspace import int_rank, vectorize
    rep = brauer_rep(3, 1, 2)
    V2 = rep[("s", 1)].src
    rows = [vectorize(SparseMat.identity(V2)),
            vectorize(rep[("s", 1)]), vectorize(rep[("e", 1)])]
    assert int_rank(rows) == 3


def test_bmw_parameters():
    p = bmw_parameters(3, 1)
    assert p.y == ONE and p.z == qpow(1) - qpow(-1)
    assert p.delta == 1 and p.omega_v == 0
    p2 = bmw_parameters(2, 1)
    assert p2.sdim == RatFunc(0) and p2.delta == 0
    for (m, n) in OSP_SET:
        pp = bmw_parameters(m, n)
        assert pp.y == qpow(-pp.omega_v)
        assert pp.chi == (1, -1, -m + 2 * n + 1)
        assert pp.omega_v == m - 2 * n - 1


def test_spectral_identities():
    for (m, n) in OSP_SET:
        checks = quantum_g_spectral(m, n)
        assert all(checks.values()), [k for k, v in checks.items() if not v]


def test_spectral_m_equals_2n_degenerates_gracefully():
    # formulas remain valid at m = 2n, where e = sdim P[0] vanishes
    g, ginv = spectral_g(2, 1)
    e = spectral_e(2, 1)
    assert e.is_zero()
    z = qpow(1) - qpow(-1)
    from qschur.osp import SpectralElement
    one = SpectralElement.scalar(1)
    assert (g - ginv - z * one).is_zero()
