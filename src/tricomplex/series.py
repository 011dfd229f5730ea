"""Power series: evaluation, modulus inequalities, convergence regions.

The modulus |u| = sqrt(x^2 + y^2 + z^2) is submultiplicative only up to
a factor sqrt(3), so the naive ratio test gives a spherical convergence
bound with that factor built in.  Splitting coefficients and variable
into transverse/longitudinal parts tightens the region to a cylinder
around the trisector line: the transverse pair converges like a complex
series, the longitudinal part like a real one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .algebra import ONE, Tricomplex, _times_pow2, component_sum
from .errors import Indeterminate
from .geometry import _SQRT3, _TRANSVERSE_NORM, _scaled_split

#: Number of trailing coefficient ratios averaged by the radius estimators.
TAIL_RATIOS = 8


def modulus(u: Tricomplex) -> float:
    """Euclidean norm of the component triple."""
    return abs(u)


def delta(u: Tricomplex) -> float:
    """Transverse magnitude sqrt(x^2+y^2+z^2-xy-xz-yz): the modulus |w|
    of the transverse pair w = v1 + i*v1t of ``u``, from
    ``geometry._scaled_split``, so that it stays finite wherever it is in
    the double range."""
    _, r, _, e = _scaled_split(u)
    return _times_pow2(r, e, f"the transverse magnitude of {u}") if e else r


def sigma(u: Tricomplex) -> float:
    """Longitudinal component x+y+z."""
    return component_sum(u)


@dataclass(frozen=True)
class TriSeries:
    """Truncated power series sum(a_l * u^l) with coefficients in
    ascending order of the power."""

    coeffs: tuple[Tricomplex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least one coefficient")

    @classmethod
    def from_components(cls, rows: Sequence[Sequence[float]]) -> "TriSeries":
        return cls(tuple(Tricomplex(p, q, r) for p, q, r in rows))


@dataclass(frozen=True)
class ConvergenceRegion:
    """Estimated convergence bounds of a power series.

    ``c0`` bounds the modulus (spherical region); ``c1`` bounds the
    transverse magnitude and ``cplus`` the longitudinal component
    (cylindrical region around the trisector line).
    """

    c0: float
    c1: float
    cplus: float

    @property
    def geometric_radius(self) -> float:
        """Radius of the cylinder in ordinary Euclidean distance."""
        return self.c1 * _TRANSVERSE_NORM

    @property
    def geometric_height(self) -> float:
        """Full height of the cylinder along the trisector line."""
        return 2.0 * self.cplus / _SQRT3

    def contains(self, u: Tricomplex) -> bool:
        return abs(sigma(u)) < self.cplus and delta(u) < self.c1


def eval_series(s: TriSeries, u: Tricomplex) -> Tricomplex:
    """Horner evaluation of the truncated series at ``u``."""
    acc = s.coeffs[-1]
    for a in reversed(s.coeffs[:-1]):
        acc = acc * u + a
    return acc


def taylor_recenter(s: TriSeries, a: Tricomplex) -> TriSeries:
    """Re-expand sum(a_l u^l) around ``a``: coefficients of the series in
    powers of (u - a), obtained by repeated synthetic division (the
    Horner form of the Taylor shift).  It forms no binomial weights, so
    a result in the double range is returned even where those weights
    are not; a result beyond it raises Overflow."""
    b = list(s.coeffs)
    for i in range(len(b) - 1):
        for j in range(len(b) - 2, i - 1, -1):
            b[j] = b[j] + a * b[j + 1]
    return TriSeries(tuple(b))


def _tail_ratios(size: Callable[[Tricomplex], float], coeffs: Sequence[Tricomplex]) -> list[float]:
    """The last ``TAIL_RATIOS`` ratios size(a_l) / size(a_{l+1}) over
    consecutive coefficients of nonzero size, in ascending order of l.
    Only they enter an estimate, so sizes are taken from the last
    coefficient down, as far as those ratios reach."""
    tail: list[float] = []
    after = size(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        here = size(a)
        if here > 0.0 and after > 0.0:
            tail.append(here / after)
            if len(tail) == TAIL_RATIOS:
                break
        after = here
    tail.reverse()
    return tail


def radius_spherical(s: TriSeries) -> float:
    """Estimate of the spherical convergence bound from the tail of the
    coefficient-modulus ratios |a_l| / (sqrt(3) |a_{l+1}|).

    The underlying bound is a limit; this averages the last few usable
    ratios and is therefore only an estimate.
    """
    tail = _tail_ratios(modulus, s.coeffs)
    if not tail or modulus(s.coeffs[-1]) == 0.0:
        raise Indeterminate("trailing coefficients vanish; no usable ratios")
    return sum(tail) / (_SQRT3 * len(tail))


def radius_cylindrical(s: TriSeries) -> ConvergenceRegion:
    """Estimate of the cylindrical convergence region from tail ratios of
    the split coefficients: transverse magnitudes for c1, absolute
    longitudinal components for cplus.

    The spherical bound is filled in as well; the ball of radius c0 is
    contained in the cylinder.
    """
    trans = _tail_ratios(delta, s.coeffs)
    longi = _tail_ratios(lambda a: abs(sigma(a)), s.coeffs)
    if not trans or not longi:
        raise Indeterminate("split coefficients vanish; no usable ratios")
    return ConvergenceRegion(
        c0=radius_spherical(s),
        c1=sum(trans) / len(trans),
        cplus=sum(longi) / len(longi),
    )


def exp_series(terms: int = 30) -> TriSeries:
    """Coefficients 1/l! of the exponential, handy as a test series.

    Integer true division rounds 1/l! correctly and gives 0.0 once it
    underflows; converting l! to a float first overflows from l = 171."""
    return TriSeries(tuple(ONE * (1 / math.factorial(l)) for l in range(terms)))
