import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_nullity, dense_rank, random_homogeneous, random_space
from qschur import superspace
from qschur.rootdata import distinguished
from qschur.scalar import ONE, Q, RatFunc
from qschur.superspace import (DEFAULT_POINTS, PRIME, Echelon, SparseMat,
                               SuperSpace, UnluckyPrime, graded_kron, int_rank,
                               kron_chain, on_slots, rank_at, ranks_at, tau,
                               unit_space, vectorize)


def _space(parities):
    return SuperSpace(tuple(parities))


def test_graded_kron_even_is_plain_kron():
    V = _space([0, 0])
    rng = random.Random(3)
    A = random_homogeneous(V, 0, rng, density=0.9)
    B = random_homogeneous(V, 0, rng, density=0.9)
    K = graded_kron(A, B)
    for (i, f), va in A.entries.items():
        for (c, g), vb in B.entries.items():
            assert K.entries[(i * 2 + c, f * 2 + g)] == va * vb


def test_graded_kron_koszul_sign_gl11():
    # (e_12 (x) e_21)(e_2 (x) e_1) = (-1)^{[2]([2]+[1])} e_1 (x) e_2 = -e_1 (x) e_2
    V = _space([0, 1])
    e12 = SparseMat(V, V, {(0, 1): 1})
    e21 = SparseMat(V, V, {(1, 0): 1})
    K = graded_kron(e12, e21)
    # column of e_2 (x) e_1 is 1*2+0 = 2; row of e_1 (x) e_2 is 0*2+1 = 1
    assert K.entries == {(1, 2): -1}


def test_graded_kron_identity():
    V = _space([0, 1, 1])
    W = _space([1, 0])
    K = graded_kron(SparseMat.identity(V), SparseMat.identity(W))
    assert K == SparseMat.identity(V.tensor(W))


def test_the_tensor_parities_are_the_unmemoised_product():
    # a dual or named factor tensors by its parities alone, into a space
    # with no name, as the product it replaces did
    V, W = SuperSpace((0, 1, 1), "V"), SuperSpace((1, 0))
    for a, b in [(V, W), (V.dual(), W), (W, V), (V, V.dual())]:
        out = a.tensor(b)
        assert out == SuperSpace(tuple((p + r) % 2 for p in a.parities
                                       for r in b.parities))
        assert out.name == "" and out.dim == a.dim * b.dim
    assert V.tensor_power(3).parities == V.tensor(V).tensor(V).parities


def test_a_cold_cell_computes_each_tensor_product_once(monkeypatch):
    # osp(3|4) r=3 from a cold memo: one computation per distinct pair of
    # parity tuples, however often `tensor` meets it
    from qschur.centralizer import fft_report
    pairs, tensor = [], SuperSpace.tensor

    def spy(self, other):
        pairs.append((self.parities, other.parities))
        return tensor(self, other)
    monkeypatch.setattr(SuperSpace, "tensor", spy)
    superspace._tensor_parities.cache_clear()
    fft_report("osp", 3, 2, 3)
    info = superspace._tensor_parities.cache_info()
    assert info.misses == len(set(pairs)) == info.currsize < len(pairs)
    assert info.hits == len(pairs) - info.misses
    assert info.maxsize is not None  # the memo is bounded


def test_graded_kron_associative():
    rng = random.Random(5)
    for _ in range(25):
        V = random_space(rng, 2)
        A = random_homogeneous(V, rng.randint(0, 1), rng)
        B = random_homogeneous(V, rng.randint(0, 1), rng)
        C = random_homogeneous(V, rng.randint(0, 1), rng)
        left = graded_kron(graded_kron(A, B), C)
        right = graded_kron(A, graded_kron(B, C))
        assert left.entries == right.entries


def test_interchange_law():
    rng = random.Random(9)
    for _ in range(25):
        V = random_space(rng, 2)
        pa, pb, pc, pd = (rng.randint(0, 1) for _ in range(4))
        A = random_homogeneous(V, pa, rng)
        B = random_homogeneous(V, pb, rng)
        C = random_homogeneous(V, pc, rng)
        D = random_homogeneous(V, pd, rng)
        lhs = graded_kron(A, B) @ graded_kron(C, D)
        rhs = graded_kron(A @ C, B @ D)
        if pb and pc:
            rhs = rhs.scale(-1)
        assert lhs == rhs


def test_tau_examples():
    V = _space([0, 0])
    t = tau(V, V)
    assert all(v == 1 for v in t.entries.values())
    W = _space([1])
    t2 = tau(W, W)
    assert t2.entries == {(0, 0): -1}
    V3 = _space([0, 1, 1])
    assert tau(V3, V3) @ tau(V3, V3) == SparseMat.identity(V3.tensor(V3))


def test_supertrace_examples():
    V = _space([0] * 3 + [1] * 2)  # C^{3|2}
    assert SparseMat.identity(V).supertrace() == 1
    W = _space([0, 1])
    assert SparseMat.identity(W).supertrace() == 0
    with pytest.raises(ValueError):
        SparseMat(V, W).supertrace()


def test_supertrace_multiplicative_on_kron():
    rng = random.Random(21)
    for _ in range(30):
        V, W = random_space(rng, 3), random_space(rng, 2)
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        A = random_homogeneous(V, pa, rng)
        B = random_homogeneous(W, pb, rng)
        assert graded_kron(A, B).supertrace() == A.supertrace() * B.supertrace()


def _rows(mat):
    """The nonzero rows of a matrix, as the rank functions take them."""
    grouped = {}
    for (r, c), v in mat.entries.items():
        grouped.setdefault(r, {})[c] = v
    return list(grouped.values())


def test_rank_examples():
    V = _space([0, 0, 0])
    zero = SparseMat(V, V)
    assert rank_at(_rows(zero), DEFAULT_POINTS) == 0
    assert rank_at(_rows(SparseMat.identity(V)), DEFAULT_POINTS) == 3
    # nu_2(C Sym_2) basis {id, tau} on gl(1|1), vectorized -> rank 2
    W = _space([0, 1])
    rows = [vectorize(SparseMat.identity(W.tensor(W))), vectorize(tau(W, W))]
    assert rank_at(rows, DEFAULT_POINTS) == 2
    assert dense_rank(rows, 16) == 2


def test_rank_agreement_and_ratfunc_entries():
    V = _space([0, 0])
    m = SparseMat(V, V, {(0, 0): Q + 1, (1, 1): Q - Q**-1, (0, 1): ONE})
    assert ranks_at(_rows(m), DEFAULT_POINTS) == [2, 2, 2]
    with pytest.raises(ValueError):
        ranks_at(_rows(m), [])


def test_rank_reports_disagreement_and_pole():
    from fractions import Fraction as F
    from qschur.scalar import PoleError
    V = _space([0])
    # q - 7/5 vanishes at the first default point only
    m = SparseMat(V, V, {(0, 0): Q - RatFunc({0: 7}, {0: 5})})
    assert ranks_at(_rows(m), DEFAULT_POINTS) == [0, 1, 1]
    assert rank_at(_rows(m), DEFAULT_POINTS) == 1  # the max over the points
    pole = SparseMat(V, V, {(0, 0): ONE / (Q - RatFunc({0: 7}, {0: 5}))})
    with pytest.raises(PoleError):
        ranks_at(_rows(pole), DEFAULT_POINTS)


def test_nullspace_examples():
    V = _space([0] * 4)
    W = _space([0] * 3)
    zero = SparseMat(V, W)  # 3x4 zero matrix: nullity = 4
    for mat, nullity in ((zero, 4), (SparseMat.identity(V), 0)):
        assert mat.cols - int_rank(_rows(mat)) == nullity


def test_nullspace_schur_oracle_gl11_r1():
    # commutation constraints of the gl(1|1) generators on V at q = 7/5:
    # brute-force dense assembly, nullity must be 1 (Schur)
    from qschur.qgl import natural_rep
    pt = Fraction(7, 5)
    rep = natural_rep(distinguished("gl", 1, 1))
    d = 2
    rows = []
    for gen in ("e1", "f1", "K1", "K2"):
        P = rep.mat(gen).specialize(pt)
        for i in range(d):
            for j in range(d):
                row = {}
                for k in range(d):
                    v = P.entries.get((i, k), 0)
                    if v:
                        row[k * d + j] = row.get(k * d + j, 0) + v
                    w = P.entries.get((k, j), 0)
                    if w:
                        row[i * d + k] = row.get(i * d + k, 0) - w
                row = {k: v for k, v in row.items() if v}
                if row:
                    rows.append(row)
    assert dense_nullity(rows, 4) == 1
    assert 4 - int_rank(rows) == 1


def test_rank_matches_dense_oracle_random():
    rng = random.Random(33)
    for _ in range(40):
        ncols = rng.randint(1, 8)
        rows = []
        for _ in range(rng.randint(0, 8)):
            row = {c: rng.randint(-4, 4) for c in range(ncols)
                   if rng.random() < 0.6}
            rows.append({c: v for c, v in row.items() if v})
        assert int_rank(rows) == dense_rank(rows, ncols)
        # the F_p echelon keeps exactly the rows that raise the rank
        ech = Echelon()
        for k, row in enumerate(rows, 1):
            grew = dense_rank(rows[:k], ncols) > ech.rank
            assert ech.add(row) == grew
        assert ech.rank == dense_rank(rows, ncols)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % k for k in range(2, math.isqrt(n) + 1))


def test_the_working_prime_is_the_largest_below_2_to_the_30():
    """CPython stores an int in 30-bit digits, so a prime below 2^30 keeps
    every residue one digit and the product of two residues at most two,
    on the interpreter's fast int paths; the largest such prime keeps the
    chance of an unlucky prime least."""
    assert _is_prime(PRIME) and PRIME.bit_length() <= 30
    assert not any(_is_prime(k) for k in range(PRIME + 1, 2 ** 30))


def _dense_ranks_mod(rows, ncols: int, p: int) -> list[int]:
    """Rank mod p of each prefix of the rows: dense, one row at a time."""
    basis, ranks = {}, []  # pivot column -> dense row normalised there
    for row in rows:
        dense = [0] * ncols
        for c, v in row.items():
            dense[c] = v % p
        for c, piv in basis.items():
            if dense[c]:
                f = dense[c]
                dense = [(a - f * b) % p for a, b in zip(dense, piv)]
        lead = next((c for c, v in enumerate(dense) if v), None)
        if lead is not None:
            inv = pow(dense[lead], -1, p)
            basis[lead] = [v * inv % p for v in dense]
        ranks.append(len(basis))
    return ranks


# negative entries and entries past the small primes, reduced lazily
_ENTRIES = st.integers(-30, 30)


@settings(max_examples=150, deadline=None)
@given(prime=st.sampled_from([5, 7, 11, PRIME]),
       ncols=st.integers(1, 9),
       base=st.lists(st.dictionaries(st.integers(0, 8), _ENTRIES, max_size=6),
                     max_size=8),
       combos=st.lists(st.lists(st.integers(-3, 3), min_size=8, max_size=8),
                       max_size=5),
       order=st.randoms(use_true_random=False))
def test_echelon_matches_dense_mod_p(prime, ncols, base, combos, order):
    rows = [{c % ncols: v for c, v in row.items() if v} for row in base]
    # duplicates and linear combinations of the rows drawn so far
    for coeffs in combos:
        combo = {}
        for k, row in zip(coeffs, rows):
            for c, v in row.items():
                combo[c] = combo.get(c, 0) + k * v
        rows.append({c: v for c, v in combo.items() if v})
    if rows:
        rows.append(dict(order.choice(rows)))
    order.shuffle(rows)
    try:
        superspace.PRIME = prime
        ech = Echelon()
    finally:
        superspace.PRIME = PRIME
    assert ech.prime == prime
    want, before = _dense_ranks_mod(rows, ncols, prime), 0
    for row, rank in zip(rows, want):
        terms = []
        assert ech.add(row, terms) == (rank > before)
        assert ech.rank == rank
        if rank > before:
            # the transcript rebuilds the kept row from the given row and
            # the rows stored before it, pivot 1 included
            stored = {c: {c: 1, **r} for c, r in ech._pivots.items()}
            lead = ech.pivot_columns[-1]
            rebuilt = {}
            for a, col in terms:
                for c, v in (row if col is None else stored[col]).items():
                    rebuilt[c] = (rebuilt.get(c, 0) + a * v) % prime
            assert {c: v for c, v in rebuilt.items() if v} == stored[lead]
        before = rank
    # every stored pivot row is clear of the pivots stored before it
    seen = set()
    for col, row in ech._pivots.items():
        assert min(row, default=col + 1) > col and not seen & row.keys()
        seen.add(col)


def test_residues_are_a_ring_map_to_f_p():
    from qschur import qgl
    g = qgl.braiding(distinguished("gl", 2, 1))
    mixed = g.scale(Fraction(3, 4)) + SparseMat.identity(g.src)
    pt = DEFAULT_POINTS[1]
    prod = g @ mixed
    res = prod.residues(pt)
    assert g.residues(pt).matmul_mod(mixed.residues(pt)) == res
    assert all(0 < v < PRIME for v in res.entries.values())
    spec = prod.specialize(pt)
    assert res.entries == {
        k: v.numerator * pow(v.denominator, -1, PRIME) % PRIME
        for k, v in spec.entries.items()}
    with pytest.raises(UnluckyPrime):
        g.residues(Fraction(7, PRIME))


def test_residues_name_the_point_in_both_unlucky_messages():
    # residue_at checks the point once, and adds it to an entry's message
    V = SuperSpace((0,))
    for entry, point, message in [
            (Q, Fraction(PRIME, 7), f"q = {PRIME}/7 vanishes mod {PRIME}"),
            (ONE / (Q - 2), PRIME + 2,
             f"denominator -q + 2 vanishes mod {PRIME} at q = {PRIME + 2}"),
            (Fraction(1, PRIME), 2,
             f"denominator of 1/{PRIME} vanishes mod {PRIME} at q = 2")]:
        with pytest.raises(UnluckyPrime) as exc:
            SparseMat(V, V, {(0, 0): entry}).residues(point)
        assert str(exc.value) == message
    with pytest.raises(UnluckyPrime, match="vanishes"):
        superspace.residue_at(PRIME)  # before any entry is read


def test_dump_format():
    V = _space([0, 1])
    m = SparseMat(V, V, {(0, 1): Q})
    text = m.dump()
    lines = text.splitlines()
    assert lines[0].startswith("# rows=2 cols=2")
    assert lines[1] == "0 1 q"


def test_dimension_mismatch_raises():
    V, W = _space([0, 0]), _space([0, 0, 0])
    with pytest.raises(ValueError):
        SparseMat.identity(V) @ SparseMat.identity(W)


@pytest.mark.parametrize("slots", [2, 3, 4])
def test_on_slots_places_an_even_token_as_graded_kron_does(slots):
    # on a module with both parities, an even token T placed on slots t,
    # t + 1 by `on_slots` moves every basis vector as id (x) T (x) id does,
    # built by `kron_chain`, with the residues of both taken mod p
    rng = random.Random(slots)
    V = SuperSpace((0, 1, 1))
    T = random_homogeneous(V.tensor(V), 0, rng)
    ident = SparseMat.identity(V)
    for t in range(slots - 1):
        placed = kron_chain([ident] * t + [T] + [ident] * (slots - t - 2))
        apply = on_slots(T.residues(Fraction(7, 5)), t, slots)
        cols = {}
        for (i, k), v in placed.residues(Fraction(7, 5)).entries.items():
            cols.setdefault(k, {})[i] = v
        assert all(apply({k: 1}) == cols.get(k, {})
                   for k in range(placed.cols))
        vec = {k: rng.randrange(PRIME) for k in range(0, placed.cols, 2)}
        want = {}
        for k, x in vec.items():
            for i, v in cols.get(k, {}).items():
                want[i] = (want.get(i, 0) + v * x) % PRIME
        assert apply(vec) == {i: v for i, v in want.items() if v}


def test_on_slots_refuses_an_odd_token():
    # an odd entry picks up a Koszul sign from the slots on its left, so
    # the plain index arithmetic would be wrong: it is refused
    V = SuperSpace((0, 1))
    VV = V.tensor(V)
    odd = SparseMat(VV, VV, {(0, 1): 1})  # e01 -> e00: parity 1 -> 0
    with pytest.raises(ValueError, match="odd two-slot operator"):
        on_slots(odd, 0, 3)
    on_slots(SparseMat(VV, VV, {(0, 3): 1}), 0, 3)  # e11 -> e00 is even
