"""Exception types shared across the package, and the integer check
the config classes raise them from."""

import numbers


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


def require_integers(**fields):
    """Raise :class:`ContractError` naming the first field whose value is
    not an integer; ``2.0`` and ``True`` are not integers here."""
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ContractError(f"{name} must be an integer, got {value!r}")
