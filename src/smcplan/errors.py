"""Exception types shared across the package, and the integer and range
checks the config classes raise them from."""

import math
import numbers
import sys

POSITIVE = math.ulp(0.0)  # the least positive float: [POSITIVE, hi] excludes 0
FINITE = sys.float_info.max  # the largest finite float: [lo, FINITE] excludes inf


class ContractError(ValueError):
    """A documented precondition or data invariant was violated."""


class BudgetError(RuntimeError):
    """Exhaustive enumeration would exceed the configured budget."""


class NumericalError(ArithmeticError):
    """A computation produced non-finite values."""


class DegenerateWeightsError(NumericalError):
    """Every particle weight underflowed to zero."""


class SupportError(ValueError):
    """A proposal places mass where the prior has none, so the divergence
    terms are undefined."""


class ConfigError(ValueError):
    """An experiment or environment description failed validation."""


def is_integer(value) -> bool:
    """Whether ``value`` is an integer; ``2.0`` and ``True`` are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_integers(**fields):
    """Raise :class:`ContractError` naming the first field whose value is
    not an integer (see :func:`is_integer`)."""
    for name, value in fields.items():
        if not is_integer(value):
            raise ContractError(f"{name} must be an integer, got {value!r}")


def require_range(lo, hi, **fields):
    """Raise :class:`ContractError` naming the first field whose value is
    not in ``[lo, hi]``; ``nan`` lies in no range."""
    for name, value in fields.items():
        if not lo <= value <= hi:
            raise ContractError(f"{name} must lie in [{lo:g}, {hi:g}], got {value!r}")
