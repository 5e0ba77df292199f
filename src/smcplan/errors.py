"""Exception types shared across the package, the integer check the
config classes raise them from, and the JSON file reader the loaders
share."""

import json
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


def read_json(path):
    """Parse the JSON file at ``path``; a file that cannot be opened or
    parsed is a :class:`ConfigError` naming ``path`` (and the line of a
    syntax error)."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
