"""The three cosexponential functions cx, mx, px.

They partition the exponential series by the residue of the power mod 3:
cx collects the powers 0, 3, 6, ...; mx the powers 1, 4, 7, ...; px the
powers 2, 5, 8, ...  So cx + mx + px = exp, and they are the components
of the exponential of a pure h argument:

    exp(h y) = cx y + h mx y + k px y.

The production values are read off ``texp`` at h*y, so they share its
split evaluation; the defining series is kept as the slow oracle.
"""

from __future__ import annotations

import enum
import math

from .algebra import H, Tricomplex
from .errors import Overflow
from .functions import texp


class CosexpKind(enum.Enum):
    """Selector for the three cosexponential functions."""

    CX = 0
    MX = 1
    PX = 2


#: Truncation giving < 1e-16 tail for |y| <= 5 (the term y^30/30! already
#: underflows the last retained digit there).
DEFAULT_TERMS = 30


def cosexp(kind: CosexpKind, y: float) -> float:
    """Cosexponential value: component ``kind`` of exp(h*y)."""
    e = texp(Tricomplex(0.0, y, 0.0))
    return (e.x, e.y, e.z)[kind.value]


def cx(y: float) -> float:
    return cosexp(CosexpKind.CX, y)


def mx(y: float) -> float:
    return cosexp(CosexpKind.MX, y)


def px(y: float) -> float:
    return cosexp(CosexpKind.PX, y)


def cosexp_series(kind: CosexpKind, y: float, terms: int = DEFAULT_TERMS) -> float:
    """Partial sum of the defining series with ``terms`` nonzero terms.
    A term whose y**p or p! leaves the double range is stepped from the
    previous one, so only a term beyond that range raises Overflow.  Past
    the peak (p > |y|), a term of 0.0 ends the sum, as every later one is 0.0."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if not math.isfinite(y):
        raise ValueError(f"non-finite argument y={y!r}")
    offset = kind.value
    total, term = 0.0, 1.0  # term: the previous one, or y**0/0! before the first
    for n in range(terms):
        p = 3 * n + offset
        try:
            # p! leaves the double range from p = 171 on; 171! raises as it would
            term = y**p / math.factorial(min(p, 171))
        except OverflowError:
            term *= math.prod(y / j for j in range(max(p - 2, 1), p + 1))
            if math.isinf(term):
                raise Overflow(f"term y**{p}/{p}! at y={y!r} exceeds the double range") from None
        total += term
        if term == 0.0 and p > abs(y):
            break
    return total


def cosexp_derivative(kind: CosexpKind, y: float) -> float:
    """Derivative value: component ``kind`` of h*exp(h*y), the derivative
    of exp(h*y).  The product with h permutes the three functions
    cyclically (cx' = px, mx' = cx, px' = mx)."""
    d = H * texp(Tricomplex(0.0, y, 0.0))
    return (d.x, d.y, d.z)[kind.value]
