"""Power series: evaluation, modulus inequalities, convergence regions.

The modulus |u| = sqrt(x^2 + y^2 + z^2) is submultiplicative only up to a factor
sqrt(3), so the naive ratio test gives a spherical convergence bound with that
factor built in.  Splitting coefficients and variable into transverse and
longitudinal parts tightens the region to a cylinder around the trisector line:
the transverse pair converges like a complex series, the longitudinal part like
a real one.  So a series is held split, and evaluated, re-centered and estimated
on that split."""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul, truediv
from typing import Callable, Iterable, NamedTuple, Sequence

from .algebra import ONE, ZERO, Tricomplex, _Record, _rescaled, component_sum
from .errors import Indeterminate, Overflow
from .geometry import _SQRT3, _TRANSVERSE_NORM, _from_split, _to_split

#: Number of trailing coefficient ratios averaged by the radius estimators.
TAIL_RATIOS = 8


def modulus(u: Tricomplex) -> float:
    """Euclidean norm of the component triple."""
    return abs(u)


def delta(u: Tricomplex) -> float:
    """Transverse magnitude sqrt(x^2+y^2+z^2-xy-xz-yz): |w| of the pair w = v1 + i*v1t
    of ``u``, or of a copy scaled by a power of two, so finite wherever it is in range."""
    try:
        w = _to_split(u)[0]
        r = math.hypot(w.real, w.imag)
    except Overflow:
        r = math.inf
    return r if r < math.inf else _rescaled(delta, u, None, 1, f"the transverse magnitude of {u}")


def sigma(u: Tricomplex) -> float:
    """Longitudinal component x+y+z."""
    return component_sum(u)


class TriSeries(_Record):
    """Truncated power series sum(a_l * u^l), coefficients in ascending order of the
    power, split once when made: ``_ws`` holds the transverse pairs and ``_vs`` the
    component sums of the a_l, or of the a_l / 4 (``_quarter``, by ``_rescaled``) where
    a split coordinate or a |w_l| leaves the double range, which a quarter's does not."""

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
            ws, vs = _rescaled(lambda cs: zip(*map(_to_split, cs)), coeffs, 2, 0, "a quarter's split")
            quarter = True
        for name, value in (("coeffs", coeffs), ("_ws", ws), ("_vs", vs), ("_quarter", quarter)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_components(cls, rows: Sequence[Sequence[float]]) -> "TriSeries":
        return cls(tuple(Tricomplex(p, q, r) for p, q, r in rows))


class ConvergenceRegion(NamedTuple):
    """Estimated convergence bounds of a power series: ``c0`` bounds the modulus
    (spherical region); ``c1`` the transverse magnitude and ``cplus`` the
    longitudinal component (cylindrical region around the trisector line)."""

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


def _horner(cs: Sequence, x, k: float = 1.0) -> tuple:
    """(sum(c_l (k x)^l),), complex or real, by one Horner pass as ``_shift`` forms it.
    Leaving out k = 1.0 changes only the sign of a zero part, which the join drops (a_0's
    component sum is not -0.0 where its pair has one), or a sum the quarter route redoes."""
    acc = cs[-1]
    if k == 1.0:
        for c in cs[-2::-1]:
            acc = c + acc * x
    else:
        for c in cs[-2::-1]:
            acc = c + acc * x * k
    return (acc,)


def _shift(cs: Sequence, x, k: float, m: int) -> list:
    """The first ``m`` coefficients of sum(c_l t^l) in powers of (t - k x),
    complex or real, by ``m`` passes of synthetic division (Horner's)."""
    b = list(cs)
    for i in range(m):
        acc = b[-1]
        for j in range(len(b) - 2, i - 1, -1):
            acc = b[j] = b[j] + acc * x * k
    return b[:m]


def _taylor(s: TriSeries, u: Tricomplex, shift: Callable) -> list[Tricomplex]:
    """``shift(cs, x, k)`` (``_horner`` or ``_shift``) on both parts of the held split
    at ``u``, joined.  Where a split or a join leaves the double range, ``_rescaled``
    runs it on a_l / 4 at 4 (u / 4) and scales the joins back by 4."""
    if not s._quarter:
        try:
            w, v = _to_split(u)
            return list(map(_from_split, shift(s._ws, w, 1.0), shift(s._vs, v, 1.0)))
        except Overflow:
            pass
    q = 1.0 if s._quarter else 0.25  # a held quarter's split is not divided again
    quarter = [a * q for a in s._ws], [a * q for a in s._vs]
    at = lambda v: list(map(_from_split, *map(shift, quarter, _to_split(v), (4.0, 4.0))))
    return _rescaled(at, u, 2, 1, f"the expansion of the series at {u}")


def eval_series(s: TriSeries, u: Tricomplex) -> Tricomplex:
    """The truncated series at ``u``: one Horner pass on each part of the
    held split, joined once.  A single coefficient is returned as it is."""
    return s.coeffs[0] if len(s.coeffs) == 1 else _taylor(s, u, _horner)[0]


def taylor_recenter(s: TriSeries, a: Tricomplex) -> TriSeries:
    """Re-expand sum(a_l u^l) around ``a`` in powers of (u - a), by repeated synthetic
    division (the Horner form of the Taylor shift), which forms no binomial weights
    and keeps the top coefficient; only a result out of range raises Overflow."""
    return TriSeries((*_taylor(s, a, lambda cs, x, k: _shift(cs, x, k, len(cs) - 1)), *s.coeffs[-1:]))


def _tail_ratios(sizes: Iterable[float]) -> list[float]:
    """The last ``TAIL_RATIOS`` ratios s_l / s_{l+1} of consecutive nonzero sizes, ascending
    in l; ``sizes`` runs from the last coefficient down and is read only as far as they reach."""
    ratios, after = [], 0.0
    for here in sizes:
        if here > 0.0 and after > 0.0:
            ratios.append(here / after)
            if len(ratios) == TAIL_RATIOS:
                break
        after = here
    return ratios[::-1]


def _estimate(tail: list[float], what: str, scale: float = 1.0) -> float:
    """Mean of the tail ratios over ``scale``; one beyond the double range raises Overflow
    naming the estimate.  Where only the sum leaves it, the mean is taken of the ratios / 8."""
    mean = sum(tail) / (scale * len(tail))
    if mean == math.inf:
        return _rescaled(lambda t: sum(t) / (scale * len(t)), tail, 3, 1, f"the {what} radius estimate")
    return mean


def radius_spherical(s: TriSeries) -> float:
    """Estimate of the spherical convergence bound, a limit: the mean of the last usable
    ratios |a_l| / (sqrt(3) |a_{l+1}|), |a| from the held split as ``_split_norm`` forms
    it.  An estimate beyond the double range raises Overflow."""
    ws, vs = map(abs, reversed(s._ws)), map(truediv, reversed(s._vs), repeat(_SQRT3))
    tail = _tail_ratios(map(math.hypot, map(mul, repeat(_TRANSVERSE_NORM), ws), vs))
    if not tail or s.coeffs[-1] == ZERO:
        raise Indeterminate("trailing coefficients vanish; no usable ratios")
    return _estimate(tail, "spherical", _SQRT3)


def radius_cylindrical(s: TriSeries) -> ConvergenceRegion:
    """Estimate of the cylindrical convergence region from tail ratios of the held split:
    |w_l| for c1, |v_l| for cplus, and the spherical c0, whose ball the cylinder
    contains.  An estimate beyond the double range raises Overflow."""
    trans = _tail_ratios(map(abs, reversed(s._ws)))
    longi = _tail_ratios(map(abs, reversed(s._vs)))
    if not trans or not longi:
        raise Indeterminate("split coefficients vanish; no usable ratios")
    return ConvergenceRegion(radius_spherical(s), _estimate(trans, "transverse"), _estimate(longi, "longitudinal"))


def exp_series(terms: int = 30) -> TriSeries:
    """Coefficients 1/l! of the exponential, a test series.  Integer true division
    rounds 1/l! correctly, where converting l! to a float first overflows from
    l = 171; it underflows to 0.0 from l = 178."""
    return TriSeries(tuple(ONE * (1 / math.factorial(l)) if l < 178 else ZERO for l in range(terms)))
