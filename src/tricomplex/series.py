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
from typing import Sequence

from .algebra import ONE, Tricomplex, _pow2_scaled, _times_pow2, component_sum
from .errors import Indeterminate

_SQRT2 = math.sqrt(2.0)

#: Number of trailing coefficient ratios averaged by the radius estimators.
TAIL_RATIOS = 8


def modulus(u: Tricomplex) -> float:
    """Euclidean norm of the component triple."""
    return abs(u)


def delta(u: Tricomplex) -> float:
    """Transverse magnitude sqrt(x^2+y^2+z^2-xy-xz-yz): the modulus of
    the transverse (complex-plane) part of ``u``, taken as
    hypot(x-y, x-z, y-z)/sqrt(2) so that it stays finite wherever it is
    in the double range."""
    d = math.hypot(u.x - u.y, u.x - u.z, u.y - u.z) / _SQRT2
    if math.isfinite(d):
        return d
    # a difference or the hypot overflowed on the way; delta is
    # degree-1 homogeneous
    v, e = _pow2_scaled(u)
    return _times_pow2(delta(v), e, f"the transverse magnitude of {u}")


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
        return self.c1 * math.sqrt(2.0 / 3.0)

    @property
    def geometric_height(self) -> float:
        """Full height of the cylinder along the trisector line."""
        return 2.0 * self.cplus / math.sqrt(3.0)

    def contains(self, u: Tricomplex) -> bool:
        return abs(sigma(u)) < self.cplus and delta(u) < self.c1


def eval_series(s: TriSeries, u: Tricomplex) -> Tricomplex:
    """Horner evaluation of the truncated series at ``u``."""
    acc = s.coeffs[-1]
    for a in reversed(s.coeffs[:-1]):
        acc = acc * u + a
    return acc


def _tail_average(ratios: Sequence[float]) -> float:
    tail = ratios[-TAIL_RATIOS:]
    return sum(tail) / len(tail)


def radius_spherical(s: TriSeries) -> float:
    """Estimate of the spherical convergence bound from the tail of the
    coefficient-modulus ratios |a_l| / (sqrt(3) |a_{l+1}|).

    The underlying bound is a limit; this averages the last few usable
    ratios and is therefore only an estimate.
    """
    mods = [modulus(a) for a in s.coeffs]
    ratios = [
        mods[i] / (math.sqrt(3.0) * mods[i + 1])
        for i in range(len(mods) - 1)
        if mods[i] > 0.0 and mods[i + 1] > 0.0
    ]
    if not ratios or modulus(s.coeffs[-1]) == 0.0:
        raise Indeterminate("trailing coefficients vanish; no usable ratios")
    return _tail_average(ratios)


def radius_cylindrical(s: TriSeries) -> ConvergenceRegion:
    """Estimate of the cylindrical convergence region from tail ratios of
    the split coefficients: transverse magnitudes for c1, absolute
    longitudinal components for cplus.

    The spherical bound is filled in as well; the ball of radius c0 is
    contained in the cylinder.
    """
    trans = [delta(a) for a in s.coeffs]
    longi = [abs(sigma(a)) for a in s.coeffs]
    t_ratios = [
        trans[i] / trans[i + 1]
        for i in range(len(trans) - 1)
        if trans[i] > 0.0 and trans[i + 1] > 0.0
    ]
    l_ratios = [
        longi[i] / longi[i + 1]
        for i in range(len(longi) - 1)
        if longi[i] > 0.0 and longi[i + 1] > 0.0
    ]
    if not t_ratios or not l_ratios:
        raise Indeterminate("split coefficients vanish; no usable ratios")
    return ConvergenceRegion(
        c0=radius_spherical(s),
        c1=_tail_average(t_ratios),
        cplus=_tail_average(l_ratios),
    )


def exp_series(terms: int = 30) -> TriSeries:
    """Coefficients 1/l! of the exponential, handy as a test series.

    Integer true division rounds 1/l! correctly and gives 0.0 once it
    underflows; converting l! to a float first overflows from l = 171."""
    return TriSeries(tuple(ONE * (1 / math.factorial(l)) for l in range(terms)))
