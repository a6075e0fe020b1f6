"""The errors qschur raises on purpose, all `QschurError`s.

Each class carries the exit code and the stderr prefix that `qschur.cli`
reports it with, and keeps a builtin base, so `except ValueError` and the
like still catch it.
"""


class QschurError(Exception):
    exit_code = 1
    prefix = "error"


class UsageError(QschurError, ValueError):
    """Malformed or degenerate input."""
    exit_code = 2


class BudgetError(QschurError, RuntimeError):
    """A space or system exceeds the configured size budget."""
    exit_code = 3
    prefix = "budget exceeded"


class VerificationError(QschurError, AssertionError):
    """An exact identity that a construction relies on fails."""
    prefix = "verification failure"


class MembershipError(VerificationError):
    """A diagram image fails to commute with a symmetry generator."""


class PoleError(QschurError, ArithmeticError):
    """Specialisation point is a pole of the rational function."""


class UnluckyPrime(QschurError, ArithmeticError):
    """A denominator vanishes mod the working prime; use exact arithmetic."""


def check_power(base: int, exponent: int, budget: int, what: str) -> None:
    """BudgetError naming base^exponent if that power exceeds `budget`; the
    power is built one factor at a time, never past budget * base."""
    if base > 1:
        value = 1
        for _ in range(exponent):
            value *= base
            if value > budget:
                break
    else:
        value = base ** exponent
    if value > budget:
        raise BudgetError(f"{what} {base}^{exponent} exceeds budget {budget}")
