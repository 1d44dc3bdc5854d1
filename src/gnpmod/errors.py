"""Exceptions shared across the package, and the checks of real and
integer arguments.  Integer arguments, counts and seeds alike, accept Python
and numpy integers, as int, and raise ValidationError for anything else."""

import operator

import numpy as np


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class CapExceeded(ValidationError):
    """An exact/exhaustive routine was asked to run beyond its size cap."""

    def __init__(self, what: str, value: int, cap: int):
        self.what = what
        self.value = value
        self.cap = cap
        super().__init__(f"{what}={value} exceeds cap {cap}")


def require_reals(zero_ok: bool = False, **values) -> list[np.ndarray]:
    """Each value (a scalar or an array) as a float array; ValidationError
    names the first that is not finite and > 0, or >= 0 with zero_ok."""
    out = []
    for name, val in values.items():
        a = np.asarray(val, dtype=float)
        low = a.min(initial=np.inf)
        if not ((low >= 0 if zero_ok else low > 0) and a.max(initial=0.0) < np.inf):
            raise ValidationError(
                f"{name}={val!r} must be finite and {'>=' if zero_ok else '>'} 0")
        out.append(a)
    return out


def require_scalars(zero_ok: bool = False, **values) -> list[float]:
    """require_reals for values that must each be one number, returned as
    floats; ValidationError names the first array among them."""
    for name, val in values.items():
        if np.ndim(val) != 0:
            raise ValidationError(f"{name}={val!r} must be a single number")
    return [float(a) for a in require_reals(zero_ok, **values)]


def require_ints(low: int | None = None, **values) -> list[int]:
    """Each value as an int, through operator.index, so Python and numpy
    integers pass; ValidationError names the first that is not an
    integer, or is below `low` when that is given."""
    out = []
    for name, val in values.items():
        try:
            i = operator.index(val)
        except TypeError:
            i = None
        if i is None or (low is not None and i < low):
            raise ValidationError(
                f"{name}={val!r} must be an integer{'' if low is None else f' >= {low}'}")
        out.append(i)
    return out
