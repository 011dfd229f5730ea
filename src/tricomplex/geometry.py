"""Geometric descriptors and the canonical (transverse/longitudinal) basis.

A point u = (x, y, z) is located by its distance d from the origin, its
projection s on the trisector line x = y = z, its distance D to that
line, the polar angle theta between the position vector and the line,
and the azimuthal angle phi of its projection on the nodal plane,
measured from the meridian through the x axis.

The basis e1, e1t, ep splits the algebra into a complex plane transverse
to the trisector line and a real longitudinal axis; multiplication acts
as complex multiplication on (v1, v1t) and ordinary multiplication on
vp.  This split is what makes exponential and trigonometric forms work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .algebra import (
    Tricomplex,
    _computed,
    _pow2_scaled,
    _times_pow2,
    amplitude,
    component_sum,
    quadratic_form,
)
from .errors import (
    REASON_ANGLE_RANGE,
    DomainError,
    UndefinedAngle,
)

_SQRT3 = math.sqrt(3.0)
_TWO_PI = 2.0 * math.pi

#: Transverse unit idempotent: e1*e1 = e1, |e1| = sqrt(2/3).
E1 = Tricomplex(2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0)
#: Transverse rotational unit: e1t*e1t = -e1.
E1T = Tricomplex(0.0, 1.0 / _SQRT3, -1.0 / _SQRT3)
#: Longitudinal idempotent on the trisector line: ep*ep = ep.
EP = Tricomplex(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def basis_constants() -> tuple[Tricomplex, Tricomplex, Tricomplex]:
    """The canonical basis (e1, e1t, ep)."""
    return E1, E1T, EP


@dataclass(frozen=True)
class CanonicalForm:
    """Coordinates in the canonical basis: u = v1*e1 + v1t*e1t + vp*ep."""

    v1: float
    v1t: float
    vp: float

    def transverse(self) -> complex:
        """The transverse pair as one complex number."""
        return complex(self.v1, self.v1t)


def to_canonical(u: Tricomplex) -> CanonicalForm:
    """Canonical coordinates; Overflow when one exceeds the double range."""
    v1 = u.x - 0.5 * (u.y + u.z)
    v1t = 0.5 * _SQRT3 * (u.y - u.z)
    vp = component_sum(u)
    if math.isfinite(v1) and math.isfinite(v1t) and math.isfinite(vp):
        return CanonicalForm(v1, v1t, vp)
    # a sum overflowed, maybe only on the way; the coordinates are linear
    v, e = _pow2_scaled(u)
    c = to_canonical(v)
    what = f"a canonical coordinate of {u}"
    return CanonicalForm(*(_times_pow2(t, e, what) for t in (c.v1, c.v1t, c.vp)))


def from_canonical(c: CanonicalForm) -> Tricomplex:
    r = _SQRT3 * c.v1t
    return _computed(
        (2.0 * c.v1 + c.vp) / 3.0,
        (-c.v1 + r + c.vp) / 3.0,
        (-c.v1 - r + c.vp) / 3.0,
    )


@dataclass(frozen=True)
class PolarForm:
    """Geometric descriptors of a point.

    ``theta`` is undefined at the origin and ``phi`` is undefined on the
    trisector line; accessing an undefined angle raises UndefinedAngle.
    Use ``theta_or_none`` / ``phi_or_none`` to branch without catching.
    """

    d: float
    s: float
    D: float
    rho: float
    theta_or_none: float | None
    phi_or_none: float | None

    @property
    def theta(self) -> float:
        if self.theta_or_none is None:
            raise UndefinedAngle("polar angle undefined at the origin")
        return self.theta_or_none

    @property
    def phi(self) -> float:
        if self.phi_or_none is None:
            raise UndefinedAngle(
                "azimuthal angle undefined on the trisector line (D = 0)"
            )
        return self.phi_or_none

    def _formatted(self) -> list[tuple[str, str]]:
        def fmt(v: float | None) -> str:
            return "undefined" if v is None else f"{v:.17g}"

        return [
            ("d", fmt(self.d)),
            ("s", fmt(self.s)),
            ("D", fmt(self.D)),
            ("theta", fmt(self.theta_or_none)),
            ("phi", fmt(self.phi_or_none)),
            ("rho", fmt(self.rho)),
        ]

    def lines(self) -> list[str]:
        """``name=value`` lines in the order d, s, D, theta, phi, rho."""
        return [f"{name}={value}" for name, value in self._formatted()]

    def csv_row(self) -> str:
        return ",".join(value for _, value in self._formatted())


def polar(u: Tricomplex) -> PolarForm:
    """All geometric descriptors of ``u``.

    Angles that do not exist are carried as None rather than a sentinel
    value; the PolarForm properties raise on access.  Raises Overflow
    when a descriptor itself exceeds the double range.
    """
    d = abs(u)
    sigma = component_sum(u)
    s = sigma / _SQRT3
    delta, phi = _azimuth(u)
    D = delta * math.sqrt(2.0 / 3.0)
    rho = amplitude(u)
    if not (math.isfinite(d) and math.isfinite(s) and math.isfinite(D)):
        # a square or sum overflowed on the way: d, s and D are degree-1
        # homogeneous and the angles do not depend on scale
        v, e = _pow2_scaled(u)
        p = polar(v)
        d, s, D = (_times_pow2(t, e, f"a polar descriptor of {u}") for t in (p.d, p.s, p.D))
        return replace(p, d=d, s=s, D=D, rho=rho)
    theta = None if d == 0.0 else math.atan2(D, s)
    return PolarForm(d=d, s=s, D=D, rho=rho, theta_or_none=theta, phi_or_none=phi)


def _azimuth(u: Tricomplex) -> tuple[float, float | None]:
    """(delta, phi): the transverse magnitude sqrt(x^2+y^2+z^2-xy-xz-yz)
    and the azimuthal angle in [0, 2*pi), which is None on the trisector
    line (delta = 0)."""
    delta = math.sqrt(quadratic_form(u))
    if delta == 0.0:
        return delta, None
    return delta, normalize_phi(math.atan2(_SQRT3 * (u.y - u.z), 2.0 * u.x - u.y - u.z))


def normalize_phi(phi: float) -> float:
    """Reduce an azimuthal angle to [0, 2*pi)."""
    phi = math.fmod(phi, _TWO_PI)
    if phi < 0.0:
        phi += _TWO_PI
    return phi if phi < _TWO_PI else 0.0


def transverse_longitudinal(rho: float, theta: float) -> tuple[float, float]:
    """Transverse magnitude and longitudinal component of a point with
    amplitude ``rho`` and polar angle ``theta`` in (0, pi/2)."""
    t = math.tan(theta) / math.sqrt(2.0)
    delta = rho * t ** (1.0 / 3.0)
    sigma = rho * t ** (-2.0 / 3.0)
    return delta, sigma


def from_exponential(rho: float, theta: float, phi: float) -> Tricomplex:
    """Reconstruct the point with amplitude ``rho``, polar angle
    ``theta`` and azimuthal angle ``phi``.

    Only the octant-side region is covered: rho > 0 and theta strictly
    between 0 and pi/2 (equivalently s > 0 and D > 0).
    """
    if not rho > 0.0:
        raise DomainError("amplitude must be > 0", REASON_ANGLE_RANGE)
    if not 0.0 < theta < 0.5 * math.pi:
        raise DomainError(
            "polar angle must lie strictly between 0 and pi/2", REASON_ANGLE_RANGE
        )
    if not (math.isfinite(rho) and math.isfinite(phi)):
        raise ValueError("amplitude and azimuthal angle must be finite")
    delta, sigma = transverse_longitudinal(rho, theta)
    return from_canonical(
        CanonicalForm(delta * math.cos(phi), delta * math.sin(phi), sigma)
    )


def invariant_circle_point(phi: float) -> Tricomplex:
    """Point at angle ``phi`` on the multiplication-invariant circle.

    The circle is centered at (1/3, 1/3, 1/3), has radius sqrt(2/3),
    passes through the three unit points of the axes, and is closed
    under the product with angles adding.
    """
    c = math.cos(phi)
    s = math.sin(phi) / _SQRT3
    third = 1.0 / 3.0
    return Tricomplex(third + 2.0 * third * c, third - third * c + s, third - third * c - s)


def canonical_mul(a: CanonicalForm, b: CanonicalForm) -> CanonicalForm:
    """Product in canonical coordinates: complex on the transverse pair,
    real on the longitudinal component."""
    return CanonicalForm(
        a.v1 * b.v1 - a.v1t * b.v1t,
        a.v1 * b.v1t + a.v1t * b.v1,
        a.vp * b.vp,
    )


def projection_on_nodal_plane(u: Tricomplex) -> tuple[float, float]:
    """Orthogonal coordinates of the projection of ``u`` on the nodal
    plane, in the in-plane frame whose first axis points toward the
    meridian of the x axis."""
    xi1 = (2.0 * u.x - u.y - u.z) / math.sqrt(6.0)
    xi2 = (u.y - u.z) / math.sqrt(2.0)
    return xi1, xi2


__all__ = [
    "CanonicalForm",
    "PolarForm",
    "E1",
    "E1T",
    "EP",
    "basis_constants",
    "canonical_mul",
    "from_canonical",
    "from_exponential",
    "invariant_circle_point",
    "normalize_phi",
    "polar",
    "projection_on_nodal_plane",
    "to_canonical",
    "transverse_longitudinal",
]
