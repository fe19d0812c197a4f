"""Exception types shared across the package, and the rules that check
arguments against them.

Two failure families matter to callers: bad inputs (files, shapes, flag
values) and numerical breakdowns discovered mid-computation (rank
deficiency, exhausted candidate pools).  The CLI maps them to distinct
exit codes, so library code should pick the right one.  Every matrix,
image, label and power argument, every size and every real parameter is
checked by one rule here, so each kind of bad input gets one message.
"""

import numbers
import operator

import numpy as np


class DataError(ValueError):
    """Invalid input: malformed file, bad shape, out-of-range parameter."""


class NumericalError(RuntimeError):
    """Computation cannot proceed: rank collapse, empty pools, divergence."""


def _integer(value, name, low=None, high=None):
    """``value`` as an int within ``_real``'s bounds; numpy integers pass, 2.0 does not."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DataError(f"{name}={value!r} must be an integer") from None
    return _real(value, name, low, high=high)


def _real(value, name, low=None, *, above=None, high=None, below=None):
    """``value`` as given if it is a real number (a Python or numpy int or float) at least ``low`` or
    above ``above``, and at most ``high``, a (label, limit) pair, or below ``below``; NaN fails any bound.
    The message puts the name's last word between the limits: ``fraction q=1.5 must satisfy 0 < q < 1``."""
    if not isinstance(value, numbers.Real):
        raise DataError(f"{name}={value!r} must be a real number")
    lower, low = ("<=", low) if above is None else ("<", above)
    upper, high, top = ("<", below, below) if high is None else ("<=", high[1], f"{high[0]}={high[1]}")
    less = {"<": operator.lt, "<=": operator.le}
    if (low is None or less[lower](low, value)) and (high is None or less[upper](value, high)):
        return value
    floor = "" if low is None else f"{low} {lower} "
    rule = f"be {lower.replace('<', '>')} {low}" if high is None else f"satisfy {floor}{name.split()[-1]} {upper} {top}"
    raise DataError(f"{name}={value} must {rule}")


def _power(p):
    """Reject a power ``p`` other than 1 and 2, the two the coherence kernels sum."""
    if p not in (1, 2):
        raise DataError(f"power p must be 1 or 2, got {p}")


def _as_2d(d, name="matrix"):
    """``d`` as a 2-d, non-empty float64 array; float64 input is not copied."""
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] < 1 or d.shape[1] < 1:
        raise DataError(f"{name} must be 2-d and non-empty, got shape {d.shape}")
    return d


def _as_matrix(d, name="matrix"):
    """``_as_2d`` with every entry finite."""
    d = _as_2d(d, name)
    if not np.all(np.isfinite(d)):
        raise DataError(f"{name} contains NaN or Inf entries")
    return d


def _as_image(img, maxval, name="image"):
    """``_as_matrix`` with every pixel in 0..``maxval``."""
    img = _as_matrix(img, name)
    low, high = img.min(), img.max()
    if low < 0 or high > maxval:
        raise DataError(f"{name} pixels must lie in 0..{maxval}, got {low if low < 0 else high:g}")
    return img


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
