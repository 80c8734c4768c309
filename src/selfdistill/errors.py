"""Exception types shared across the package, and the type check of the
dataclasses that carry a run's settings."""

import numbers
from typing import get_args, get_type_hints


class SelfDistillError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SelfDistillError):
    """Tensor shapes violate an operation's contract."""


class ConfigError(SelfDistillError):
    """A configuration object carries invalid field values."""


class InputError(SelfDistillError):
    """Runtime input (token ids, labels, files) violates a precondition."""


class ContractError(SelfDistillError):
    """A flat vector does not fit the parameters it goes with: a gradient
    of the wrong shape, or an update range outside the vector."""


class UsageError(SelfDistillError):
    """An API was called in a way its contract forbids."""


class DivergenceError(SelfDistillError):
    """Training produced a non-finite loss; the run is aborted."""


def check_types(cls, values: dict, where: str) -> None:
    """Each number among ``values`` must fit its field of the dataclass
    ``cls``: an int field takes an integer (a numpy one too), a float field
    an integer or a float, and only an optional field takes None. A bool is
    not a number here, and a string is left to a field that may be one.
    A misfit is a ConfigError that starts with ``where`` and names the key."""
    hints = get_type_hints(cls)
    for key, value in values.items():
        allowed = get_args(hints[key]) or (hints[key],)
        if int not in allowed and float not in allowed:
            continue   # not a number field
        number = numbers.Real if float in allowed else numbers.Integral
        fits = (isinstance(value, number) and not isinstance(value, bool)
                or value is None and type(None) in allowed
                or isinstance(value, str) and str in allowed)
        if not fits:
            expected = ("a number" if float in allowed else "an integer") + (
                " or null" if type(None) in allowed else "")
            raise ConfigError(f"{where}{key!r} must be {expected}, "
                              f"got {value!r}")
