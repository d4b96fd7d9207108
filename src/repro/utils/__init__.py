"""Small numeric and symbolic utilities shared across the library.

The analyzer works over exact rational arithmetic for everything except the
final LP solve: a coefficient is an ``int`` when integral and a
``fractions.Fraction`` otherwise (:func:`~repro.utils.rationals.exact`).
This package provides:

* :mod:`repro.utils.rationals` -- conversions and sound rounding helpers,
* :mod:`repro.utils.linear` -- linear expressions over program variables,
* :mod:`repro.utils.polynomials` -- interval atoms ``max(0, U - L)``,
  monomials (products of atoms) and polynomials over them, which are the
  *base functions* of the expected potential method.
"""

from repro.utils.rationals import (exact, to_fraction, sound_floor_fraction,
                                   pretty_fraction)
from repro.utils.linear import LinExpr
from repro.utils.polynomials import IntervalAtom, Monomial, Polynomial, atom_product

__all__ = [
    "exact",
    "to_fraction",
    "sound_floor_fraction",
    "pretty_fraction",
    "LinExpr",
    "IntervalAtom",
    "Monomial",
    "Polynomial",
    "atom_product",
]
