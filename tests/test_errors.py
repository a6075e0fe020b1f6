import pytest

from qschur import PoleError, centralizer, functor, superspace
from qschur.errors import (BudgetError, MembershipError, QschurError,
                           UnluckyPrime, UsageError, VerificationError,
                           check_power)


def test_each_error_keeps_its_builtin_base_and_exit_code():
    for cls, base, code, prefix in [
            (UsageError, ValueError, 2, "error"),
            (BudgetError, RuntimeError, 3, "budget exceeded"),
            (VerificationError, AssertionError, 1, "verification failure"),
            (MembershipError, VerificationError, 1, "verification failure")]:
        assert issubclass(cls, QschurError) and issubclass(cls, base)
        assert (cls.exit_code, cls.prefix) == (code, prefix)
    for cls in (PoleError, UnluckyPrime):
        assert issubclass(cls, QschurError) and issubclass(cls, ArithmeticError)
    # the old import paths name the same classes
    assert functor.BudgetError is BudgetError
    assert superspace.UnluckyPrime is UnluckyPrime
    assert centralizer.MembershipError is MembershipError


def test_check_power_is_exact_at_the_budget():
    check_power(2, 12, 4096, "x")
    with pytest.raises(BudgetError, match=r"x 2\^13 exceeds budget 4096"):
        check_power(2, 13, 4096, "x")
    check_power(1, 10**18, 1, "x")
    check_power(0, 10**18, 1, "x")
    with pytest.raises(BudgetError, match=r"3\^\d+ exceeds"):
        check_power(3, 10**18, 10**6, "x")
