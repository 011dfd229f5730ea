"""Power series: evaluation, modulus inequalities, convergence regions.

The modulus |u| = sqrt(x^2 + y^2 + z^2) is submultiplicative only up to
a factor sqrt(3), so the naive ratio test gives a spherical convergence
bound with that factor built in.  Splitting coefficients and variable
into transverse/longitudinal parts tightens the region to a cylinder
around the trisector line: the transverse pair converges like a complex
series, the longitudinal part like a real one.  So a series is held
split, and evaluated, re-centered and estimated on that split.
"""

from __future__ import annotations

import math
from itertools import islice, pairwise, starmap
from typing import Iterable, NamedTuple, Sequence

from .algebra import ONE, ZERO, Tricomplex, _Record, _times_pow2, component_sum
from .errors import Indeterminate, Overflow
from .geometry import _SQRT3, _TRANSVERSE_NORM, _from_split, _scaled_split, _split_norm, _to_split

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


class TriSeries(_Record):
    """Truncated power series sum(a_l * u^l) with coefficients in
    ascending order of the power, split once when made: ``_ws`` holds the
    transverse pairs and ``_vs`` the component sums of the a_l, or of the
    a_l / 4 (``_quarter``) where a split coordinate or a |w_l| leaves the
    double range: a quarter of the split of a double is within it."""

    __slots__ = ("coeffs", "_ws", "_vs", "_quarter")
    _fields = ("coeffs",)
    coeffs: tuple[Tricomplex, ...]

    def __init__(self, coeffs: Sequence[Tricomplex]) -> None:
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least one coefficient")
        quarter = False
        try:
            ws, vs = zip(*map(_to_split, coeffs))
            max(map(abs, ws))  # abs raises OverflowError where a |w_l| leaves the range
        except (Overflow, OverflowError):
            ws, vs = zip(*(_to_split(a * 0.25) for a in coeffs))
            quarter = True
        for name, value in (("coeffs", coeffs), ("_ws", ws), ("_vs", vs), ("_quarter", quarter)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_components(cls, rows: Sequence[Sequence[float]]) -> "TriSeries":
        return cls(tuple(Tricomplex(p, q, r) for p, q, r in rows))


class ConvergenceRegion(NamedTuple):
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


def _shift(cs: Sequence, x, m: int, k: float = 1.0) -> list:
    """The first ``m`` coefficients of sum(c_l t^l) in powers of (t - k x),
    complex or real, by ``m`` passes of synthetic division (Horner's)."""
    b = list(cs)
    for i in range(m):
        acc = b[-1]
        for j in range(len(b) - 2, i - 1, -1):
            acc = b[j] = b[j] + acc * x * k
    return b[:m]


def _taylor(s: TriSeries, u: Tricomplex, m: int) -> list[Tricomplex]:
    """The first ``m`` Taylor coefficients of ``s`` at ``u``: complex and
    real shifts of the held split, joined.  Where a split or a join leaves
    the double range, they run on a_l / 4 at 4 (u / 4) and the joins are
    scaled by 4, the exact prescale of ``geometry._from_split``."""
    if not s._quarter:
        try:
            w, v = _to_split(u)
            return list(map(_from_split, _shift(s._ws, w, m), _shift(s._vs, v, m)))
        except Overflow:
            pass
    q, (w, v) = (1.0 if s._quarter else 0.25), _to_split(u * 0.25)
    fws, fvs = _shift([a * q for a in s._ws], w, m, 4.0), _shift([a * q for a in s._vs], v, m, 4.0)
    try:
        return [_from_split(fw, fv) * 4.0 for fw, fv in zip(fws, fvs)]
    except Overflow:  # an infinite split joins to a nan, which the message would show
        raise Overflow(f"the expansion of the series at {u} leaves the double range") from None


def eval_series(s: TriSeries, u: Tricomplex) -> Tricomplex:
    """The truncated series at ``u``: one complex and one real Horner
    pass, joined once.  A single coefficient is returned as it is."""
    return s.coeffs[0] if len(s.coeffs) == 1 else _taylor(s, u, 1)[0]


def taylor_recenter(s: TriSeries, a: Tricomplex) -> TriSeries:
    """Re-expand sum(a_l u^l) around ``a``: coefficients of the series in
    powers of (u - a), by repeated synthetic division (the Horner form of
    the Taylor shift), which forms no binomial weights and keeps the top
    coefficient; only a result beyond the double range raises Overflow."""
    return TriSeries(tuple(_taylor(s, a, len(s.coeffs) - 1)) + s.coeffs[-1:])


def _tail_ratios(sizes: Iterable[float]) -> list[float]:
    """The last ``TAIL_RATIOS`` ratios s_l / s_{l+1} over consecutive
    nonzero sizes, in ascending order of l.  ``sizes`` runs from the last
    coefficient down and is read only as far as those ratios reach."""
    ratios = (here / after for after, here in pairwise(sizes) if here > 0.0 and after > 0.0)
    return list(islice(ratios, TAIL_RATIOS))[::-1]


def _estimate(tail: list[float], what: str, scale: float = 1.0) -> float:
    """The mean of the tail ratios over ``scale``; a ratio or a mean
    beyond the double range raises Overflow naming the estimate.  Where
    only the sum leaves it, each ratio is divided by 8 (exactly) first."""
    mean = sum(tail) / (scale * len(tail))
    if mean == math.inf:
        mean = sum(t * 0.125 for t in tail) / (scale * len(tail)) * 8.0
    if not math.isfinite(mean):
        raise Overflow(f"the {what} radius estimate leaves the double range")
    return mean


def radius_spherical(s: TriSeries) -> float:
    """Estimate of the spherical convergence bound from the tail of the
    ratios |a_l| / (sqrt(3) |a_{l+1}|), |a|^2 being (2/3)|w|^2 + v^2/3.

    The underlying bound is a limit; this averages the last few usable
    ratios and is therefore only an estimate.  A ratio or an average
    beyond the double range raises Overflow.
    """
    tail = _tail_ratios(starmap(_split_norm, zip(s._ws[::-1], s._vs[::-1])))
    if not tail or s.coeffs[-1] == ZERO:
        raise Indeterminate("trailing coefficients vanish; no usable ratios")
    return _estimate(tail, "spherical", _SQRT3)


def radius_cylindrical(s: TriSeries) -> ConvergenceRegion:
    """Estimate of the cylindrical convergence region from tail ratios of
    the held split: transverse magnitudes |w_l| for c1, absolute
    component sums |v_l| for cplus.

    The spherical bound is filled in as well; the ball of radius c0 is
    contained in the cylinder.  A ratio or an average beyond the double
    range raises Overflow.
    """
    trans = _tail_ratios(map(abs, s._ws[::-1]))
    longi = _tail_ratios(map(abs, s._vs[::-1]))
    if not trans or not longi:
        raise Indeterminate("split coefficients vanish; no usable ratios")
    return ConvergenceRegion(
        c0=radius_spherical(s), c1=_estimate(trans, "transverse"), cplus=_estimate(longi, "longitudinal")
    )


def exp_series(terms: int = 30) -> TriSeries:
    """Coefficients 1/l! of the exponential, handy as a test series.

    Integer true division rounds 1/l! correctly, where converting l! to a
    float first overflows from l = 171; it underflows to 0.0 from l = 178."""
    return TriSeries(tuple(ONE * (1 / math.factorial(l)) if l < 178 else ZERO for l in range(terms)))
