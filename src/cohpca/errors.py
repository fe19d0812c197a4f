"""Exception types shared across the package.

Two failure families matter to callers: bad inputs (files, shapes, flag
values) and numerical breakdowns discovered mid-computation (rank
deficiency, exhausted candidate pools).  The CLI maps them to distinct
exit codes, so library code should pick the right one.
"""

import operator


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
