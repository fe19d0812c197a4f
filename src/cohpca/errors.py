"""Exception types shared across the package, and the rules that check
arguments against them.

Two failure families matter to callers: bad inputs (files, shapes, flag
values) and numerical breakdowns discovered mid-computation (rank
deficiency, exhausted candidate pools).  The CLI maps them to distinct
exit codes, so library code should pick the right one.  Every matrix,
image, label and power argument, and every integer size, is checked by
one rule here, so each kind of bad input gets one message.
"""

import operator

import numpy as np


class DataError(ValueError):
    """Invalid input: malformed file, bad shape, out-of-range parameter."""


class NumericalError(RuntimeError):
    """Computation cannot proceed: rank collapse, empty pools, divergence."""


def _integer(value, name, low=None, high=None):
    """``value`` as an int, at least ``low`` and at most ``high`` where given;
    numpy integers pass, 2.0 does not.  ``high`` is a (label, int) pair, so
    the message names it: ``rank r=11 must satisfy 1 <= r <= m=10``, with
    the last word of ``name`` between the bounds."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DataError(f"{name}={value!r} must be an integer") from None
    if (low is not None and value < low) or (high is not None and value > high[1]):
        if high is None:
            raise DataError(f"{name}={value} must be >= {low}")
        floor = "" if low is None else f"{low} <= "
        raise DataError(f"{name}={value} must satisfy {floor}{name.split()[-1]} <= {high[0]}={high[1]}")
    return value


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
