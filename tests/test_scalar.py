import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qschur.scalar import (ONE, Q, ZERO, PoleError, RatFunc, UnluckyPrime,
                           parse, qint, qpow)
from qschur.superspace import PRIME


def test_qint_small_values():
    assert qint(2) == Q + Q**-1
    assert qint(0) == ZERO
    assert qint(1) == ONE
    assert qint(-3) == -qint(3)


def test_arith_examples():
    x = Q - Q**-1
    assert x / x == ONE
    assert qint(2) * x == Q**2 - Q**-2
    assert Q + (-Q) == ZERO


def test_specialize_examples():
    assert qint(2).specialize(2) == Fraction(5, 2)
    assert (Q - Q**-1).specialize(1) == 0
    with pytest.raises(PoleError):
        (ONE / (Q - 1)).specialize(1)
    with pytest.raises(ValueError):
        Q.specialize(0)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def _random_ratfunc(rng):
    num = {rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(rng.randint(0, 3))}
    den = {rng.randint(-2, 2): rng.randint(-4, 4) for _ in range(rng.randint(1, 3))}
    den[0] = den.get(0, 0) or 1
    try:
        return RatFunc(num, den)
    except ZeroDivisionError:
        return RatFunc(1)


def test_field_axioms_random():
    rng = random.Random(7)
    for _ in range(120):
        a, b, c = (_random_ratfunc(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if a:
            assert a * a.inverse() == ONE
        assert a - a == ZERO


def test_canonical_form_is_unique():
    # same value assembled along different routes compares structurally
    f = (Q**2 - Q**-2) / (Q - Q**-1)
    assert f == qint(2)
    assert hash(f) == hash(qint(2))
    g = (Q**3 - Q) / (Q**2 - 1)
    assert g == Q


def test_qint_negation_and_classical_limit():
    for n in range(-6, 7):
        assert qint(-n) == -qint(n)
        assert qint(n).specialize(1) == n


def test_specialize_is_ring_homomorphism():
    rng = random.Random(11)
    pt = Fraction(7, 5)
    for _ in range(60):
        a, b = _random_ratfunc(rng), _random_ratfunc(rng)
        try:
            va, vb = a.specialize(pt), b.specialize(pt)
            assert (a * b).specialize(pt) == va * vb
            assert (a + b).specialize(pt) == va + vb
        except PoleError:
            pass


def test_render_parse_roundtrip():
    rng = random.Random(13)
    samples = [ZERO, ONE, Q, Q**-1, qint(2), qint(5),
               (Q + Q**-1) / 2, (Q**2 - Q**-2) / (Q - Q**-1),
               RatFunc({3: 2, 0: -1}, {0: 3, 1: 5})]
    samples += [_random_ratfunc(rng) for _ in range(40)]
    for f in samples:
        assert parse(str(f)) == f


def test_render_format():
    assert str(qint(2)) == "q + q^-1"
    assert str((Q**2 - Q**-2) / (Q - Q**-1)) == "q + q^-1"
    assert str(ZERO) == "0"
    assert str(RatFunc({2: 1, -2: -1}) / (Q - Q**-1)) == "q + q^-1"
    # canonical rule: denominator's lowest-exponent coefficient is positive
    f = ONE / (Q - Q**-1)
    assert str(f) == "-q/(-q^2 + 1)"
    assert parse(str(f)) == f
    assert parse("q/(q^2 - 1)") == f


def test_int_and_fraction_interop():
    assert Q * 2 == 2 * Q
    assert Q + 1 - 1 == Q
    assert (Q / 2) * 2 == Q
    assert RatFunc.from_fraction(Fraction(2, 3)) * 3 == RatFunc(2)


def test_powers():
    assert Q**0 == ONE
    assert Q**-2 == (Q**2).inverse()
    assert (qint(3)) ** 2 == qint(3) * qint(3)


def _termwise(f: RatFunc, x: Fraction) -> Fraction:
    """The oracle: num(x) / den(x), each a Fraction sum term by term."""
    def value(poly):
        return sum((c * x ** e for e, c in poly.items()), Fraction(0))

    den = value(f.den)
    if den == 0:
        raise PoleError(f"q = {x} is a pole")
    return value(f.num) / den


laurent = st.dictionaries(st.integers(-6, 6), st.integers(-20, 20),
                          max_size=5)
points = st.builds(Fraction, st.integers(-40, 40).filter(bool),
                   st.integers(1, 40))


@given(laurent, laurent, points)
def test_horner_specialize_matches_the_termwise_sum(num, den, x):
    assume(any(den.values()))
    f = RatFunc(num, den)
    try:
        want = _termwise(f, x)
    except PoleError:
        with pytest.raises(PoleError):
            f.specialize(x)
        return
    got = f.specialize(x)
    assert type(got) is Fraction and got == want


@given(laurent, laurent, points, st.sampled_from([PRIME, 101, 7]))
def test_residue_is_the_specialisation_mod_p(num, den, x, p):
    assume(any(den.values()))
    f = RatFunc(num, den)
    try:
        want = f.specialize(x)
        got = f.residue(x, p)
    except (PoleError, UnluckyPrime):
        return
    assert got == want.numerator * pow(want.denominator, -1, p) % p


@pytest.mark.parametrize("f", [
    Q ** 3 - 2 * Q ** -2 + 5, ONE * 7, -Q ** -1, Q - Q ** -1,  # Laurent
    (Q ** 2 + 1) / (Q - 2), ONE / (3 * Q ** 2 + Q), Q ** -3 / (Q + 5)])
def test_residue_is_the_specialisation_mod_p_with_and_without_a_denominator(f):
    # a Laurent polynomial skips the denominator; both kinds agree with the
    # exact value reduced mod p, at int and Fraction points
    for x in (Fraction(7, 5), 13, Fraction(-23, 17), PRIME + 3):
        want = f.specialize(x)
        for p in (PRIME, 101):
            assert f.residue(x, p) == (want.numerator
                                       * pow(want.denominator, -1, p) % p)


def test_both_unlucky_prime_messages_name_what_vanishes():
    # the point vanishing mod p, for a Laurent polynomial and for a proper
    # fraction, and the denominator vanishing there
    for f in (Q, Q ** 2 - Q ** -1, Q / (Q ** 2 + 1)):
        with pytest.raises(UnluckyPrime) as exc:
            f.residue(2 * PRIME, PRIME)
        assert str(exc.value) == f"q = {2 * PRIME} vanishes mod {PRIME}"
    with pytest.raises(UnluckyPrime) as exc:
        (ONE / (Q - 2)).residue(PRIME + 2, PRIME)
    assert str(exc.value) == f"denominator -q + 2 vanishes mod {PRIME}"


def test_residue_raises_unlucky_prime_and_specialize_finds_poles():
    f = ONE / (Q - 2)
    # 1/(q - 2) at q = PRIME + 2 is 1/PRIME: no pole, but unlucky mod PRIME
    assert f.specialize(PRIME + 2) == Fraction(1, PRIME)
    with pytest.raises(UnluckyPrime):
        f.residue(PRIME + 2, PRIME)
    with pytest.raises(UnluckyPrime):
        Q.residue(Fraction(3, PRIME), PRIME)  # the point itself is 1/0
    with pytest.raises(UnluckyPrime):
        Q.residue(PRIME, PRIME)  # the point is 0 mod p
    # a genuine pole is unlucky mod p too; only the exact value names it
    with pytest.raises(UnluckyPrime):
        f.residue(2, PRIME)
    with pytest.raises(PoleError):
        f.specialize(2)
    assert f.residue(3, PRIME) == 1 and (Q ** -2).residue(2, 7) == 2
