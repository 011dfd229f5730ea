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

from .algebra import Tricomplex
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
    """Partial sum of the defining series with ``terms`` nonzero terms."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    offset = kind.value
    total = 0.0
    for n in range(terms):
        p = 3 * n + offset
        total += y**p / math.factorial(p)
    return total


def cosexp_derivative(kind: CosexpKind, y: float) -> float:
    """Derivative value; differentiation permutes the three functions
    cyclically (cx' = px, mx' = cx, px' = mx)."""
    shifted = {
        CosexpKind.CX: CosexpKind.PX,
        CosexpKind.MX: CosexpKind.CX,
        CosexpKind.PX: CosexpKind.MX,
    }[kind]
    return cosexp(shifted, y)
