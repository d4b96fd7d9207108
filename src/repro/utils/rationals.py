"""Helpers for exact rational arithmetic and sound float/rational conversion.

The derivation system works with exact rational coefficients so that
probability-weighted sums (e.g. ``1/3`` and ``2/3`` in ``Q:PIf``) stay
exact.  Coefficients have one normal form, produced by :func:`exact`: an
``int`` when the value is integral and a :class:`fractions.Fraction` only
when it is not (most coefficients are integers, and ``int`` arithmetic runs
in C).  The two compare and hash alike, so the normal form changes no
comparison, dict key or ordering.  The one hazard is division: ``int / int``
is a float, so every division of coefficient values is written
``Fraction(a, b)`` or ``Fraction(a) / b`` (and normalised with :func:`exact`
where the result is stored).

Only the final linear program is handed to a floating-point solver; the
helpers here convert back and forth while keeping the analysis sound
(rounding *down* where an under-approximation is required, rationalising for
display where a pretty constant is wanted).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Number = Union[int, float, Fraction, str]
#: An exact value in the coefficient normal form (see :func:`exact`).
Coeff = Union[int, Fraction]

#: Tolerance used when snapping floating-point LP results to nearby rationals.
SNAP_TOLERANCE = 1e-5

#: Maximal denominator considered when rationalising floating-point values.
MAX_DENOMINATOR = 10_000


def to_fraction(value: Number) -> Fraction:
    """Convert ``value`` to an exact :class:`Fraction`.

    Integers, strings like ``"3/4"``, existing fractions and floats are all
    accepted.  Floats are converted exactly (no snapping); use
    :func:`snap_fraction` if a "nice" nearby rational is wanted.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not valid numeric coefficients")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def exact(value: Number) -> Coeff:
    """``value`` in the coefficient normal form: ``int`` when integral,
    else :class:`Fraction`.

    Accepts what :func:`to_fraction` accepts (ints, fractions, strings like
    ``"3/4"``, floats converted exactly) and, like it, rejects ``bool``.
    Also the normaliser for arithmetic results: the sum or product of two
    normal-form values can be an integral ``Fraction`` (``1/2 + 1/2``).
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, bool):
        raise TypeError("booleans are not valid numeric coefficients")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, (str, float)):
        return exact(Fraction(value))
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def snap_fraction(value: float, tolerance: float = SNAP_TOLERANCE,
                  max_denominator: int = MAX_DENOMINATOR) -> Fraction:
    """Rationalise a floating-point value to a nearby small-denominator fraction.

    The LP solver returns values such as ``0.6666666669``; for reporting we
    want ``2/3``.  If no small-denominator fraction lies within ``tolerance``
    the exact float conversion is returned instead, so the result is always a
    faithful representation up to ``tolerance``.
    """
    if value != value:  # NaN
        raise ValueError("cannot snap NaN to a rational")
    candidate = Fraction(value).limit_denominator(max_denominator)
    if abs(float(candidate) - value) <= tolerance * max(1.0, abs(value)):
        return candidate
    return Fraction(value)


def sound_floor_fraction(value: float, tolerance: float = SNAP_TOLERANCE) -> Fraction:
    """Return a rational lower bound for ``value``.

    Used when a floating-point optimisation result must be turned into a
    sound constant (e.g. the largest ``c`` such that ``ctx |= e >= c``): we
    prefer a nearby nice rational when one exists *and does not exceed* the
    value (modulo ``tolerance``), otherwise we subtract the tolerance.
    """
    snapped = snap_fraction(value, tolerance)
    if float(snapped) <= value + tolerance:
        return snapped
    return Fraction(value - tolerance)


def pretty_fraction(value: Fraction, digits: int = 6) -> str:
    """Render a fraction the way the paper's tables do.

    Integral values print without a decimal point, small-denominator values
    print as decimals when exact in ``digits`` digits (``0.2``), otherwise a
    rounded decimal (``0.666667``) is used -- matching Table 1's style.
    """
    if type(value) is int:
        return str(value)
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    as_float = float(frac)
    rounded = round(as_float, digits)
    if Fraction(str(rounded)) == frac:
        text = f"{rounded:.{digits}f}".rstrip("0").rstrip(".")
        return text
    return f"{as_float:.{digits}f}"


def is_close_fraction(a: Fraction, b: Fraction, tolerance: Fraction = Fraction(1, 10 ** 6)) -> bool:
    """Exact-arithmetic analogue of :func:`math.isclose` for fractions."""
    return abs(Fraction(a) - Fraction(b)) <= tolerance
