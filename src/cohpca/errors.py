"""Exception types shared across the package.

Two failure families matter to callers: bad inputs (files, shapes, flag
values) and numerical breakdowns discovered mid-computation (rank
deficiency, exhausted candidate pools).  The CLI maps them to distinct
exit codes, so library code should pick the right one.
"""

import operator

import numpy as np


class DataError(ValueError):
    """Invalid input: malformed file, bad shape, out-of-range parameter."""


class NumericalError(RuntimeError):
    """Computation cannot proceed: rank collapse, empty pools, divergence."""


def _integer(value, name, low=None):
    """``value`` as an int, at least ``low`` if given; numpy integers pass, 2.0 does not."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DataError(f"{name}={value!r} must be an integer") from None
    if low is not None and value < low:
        raise DataError(f"{name}={value} must be >= {low}")
    return value


def _labels(values, where=None):
    """``values`` as 1-d int64 labels; integer-valued floats pass.  Callers
    check their own range; the errors name the value, after ``where``."""
    pre = f"{where}: " if where else ""
    labels = np.asarray(values)
    if labels.ndim != 1:
        raise DataError(f"{pre}labels must be 1-d, got shape {labels.shape}")
    if labels.dtype.kind == "f":
        if not np.all(np.isfinite(labels)):
            raise DataError(f"{pre}label list contains NaN or Inf")
        fractional = labels[labels != np.rint(labels)]
        if fractional.size:
            raise DataError(f"{pre}labels must be integers, got {float(fractional[0])!r}")
    elif labels.dtype.kind not in "biu":
        raise DataError(f"{pre}labels must be integers, got dtype {labels.dtype}")
    if labels.size:
        # as Python numbers, which compare exactly; numpy 1.x compares a
        # uint64 with an int through float64
        for v in (labels.min().item(), labels.max().item()):
            if not -(2**63) <= v < 2**63:
                raise DataError(f"{pre}labels must fit in int64, got {v!r}")
    return labels.astype(np.int64)
