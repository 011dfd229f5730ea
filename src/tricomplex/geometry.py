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

import cmath
import math
from typing import TYPE_CHECKING, NamedTuple

from .algebra import (
    _SQRT3,
    Tricomplex,
    _computed,
    _rescaled,
    amplitude,
)
from .errors import (
    REASON_ANGLE_RANGE,
    DomainError,
    Overflow,
    UndefinedAngle,
)

if TYPE_CHECKING:
    import numpy as np

_TWO_PI = 2.0 * math.pi
#: The largest azimuthal angle, the double just below 2*pi.
_BELOW_TWO_PI = math.nextafter(_TWO_PI, 0.0)
#: Euclidean length of a unit of the transverse pair: |u| is
#: sqrt((2/3)|w|^2 + v^2/3), as e1, e1t and ep are orthogonal.
_TRANSVERSE_NORM = math.sqrt(2.0 / 3.0)

#: Transverse unit idempotent: e1*e1 = e1, |e1| = sqrt(2/3).
E1 = Tricomplex(2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0)
#: Transverse rotational unit: e1t*e1t = -e1.
E1T = Tricomplex(0.0, 1.0 / _SQRT3, -1.0 / _SQRT3)
#: Longitudinal idempotent on the trisector line: ep*ep = ep.
EP = Tricomplex(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def basis_constants() -> tuple[Tricomplex, Tricomplex, Tricomplex]:
    """The canonical basis (e1, e1t, ep)."""
    return E1, E1T, EP


class CanonicalForm(NamedTuple):
    """Coordinates in the canonical basis: u = v1*e1 + v1t*e1t + vp*ep."""

    v1: float
    v1t: float
    vp: float


def _to_split(u: Tricomplex) -> tuple[complex, float]:
    """(w, vp): the transverse pair v1 + i*v1t and the component sum, the
    one place they are computed.  v1 comes from x-y and x-z, which are
    exact near the trisector line, where x - (y+z)/2 cancels."""
    x, y, z = u.x, u.y, u.z
    v1 = 0.5 * ((x - y) + (x - z))
    v1t = 0.5 * _SQRT3 * (y - z)
    vp = x + y + z
    if math.isfinite(v1) and math.isfinite(v1t) and math.isfinite(vp):
        return complex(v1, v1t), vp
    # a sum overflowed, maybe only on the way; the coordinates are linear
    return _rescaled(_to_split, u, None, 1, f"a canonical coordinate of {u}")


def _split_norm(w: complex, v: float) -> float:
    """Euclidean modulus of the value whose split pair is (w, v)."""
    return math.hypot(_TRANSVERSE_NORM * abs(w), v / _SQRT3)


def irreducible_rep(u: Tricomplex) -> np.ndarray:
    """Block-diagonal real representation: a 2x2 rotation-scaling block
    acting on the plane transverse to the trisector line, plus the 1x1
    component sum along it."""
    import numpy as np

    w, vp = _to_split(u)
    return np.array(
        [
            [w.real, w.imag, 0.0],
            [-w.imag, w.real, 0.0],
            [0.0, 0.0, vp],
        ]
    )


def _from_split(fw: complex, fp: float) -> Tricomplex:
    """The number with transverse pair ``fw`` and component sum ``fp``.

    The join forms 2*v1 and sqrt(3)*v1t, which can leave the double range
    although the result does not; ``_rescaled`` then joins a quarter."""
    try:
        return _join(fw, fp)
    except Overflow:
        return _rescaled(lambda t: _join(*t), (fw, fp), 2, 1, f"the number with split ({fw}, {fp!r})")


def _join(fw: complex, vp: float) -> Tricomplex:
    v1, r = fw.real, _SQRT3 * fw.imag
    return _computed((2.0 * v1 + vp) / 3.0, (-v1 + r + vp) / 3.0, (-v1 - r + vp) / 3.0)


def to_canonical(u: Tricomplex) -> CanonicalForm:
    """Canonical coordinates; Overflow when one exceeds the double range."""
    w, vp = _to_split(u)
    return CanonicalForm(w.real, w.imag, vp)


def from_canonical(c: CanonicalForm) -> Tricomplex:
    return _from_split(complex(c.v1, c.v1t), c.vp)


def _azimuth(w: complex) -> float | None:
    """arg w in [0, 2*pi), the azimuthal angle phi; None on the
    trisector line, where w = 0."""
    if w == 0:
        return None
    # math.atan2, not cmath.phase, which raises once the angle underflows;
    # below the cut, an angle that underflows to -0.0 is just below 2*pi
    phi = math.atan2(w.imag, w.real)
    return _BELOW_TWO_PI if phi == 0.0 and w.imag < 0.0 else normalize_phi(phi)


class PolarForm(NamedTuple):
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
    if not math.isfinite(d):
        raise Overflow(f"a polar descriptor of {u} exceeds the double range")
    try:
        w, vp = _to_split(u)
        s, D, phi = vp / _SQRT3, math.hypot(w.real, w.imag) * _TRANSVERSE_NORM, _azimuth(w)
    except Overflow:
        D = math.inf
    if D == math.inf:  # where a split coordinate or |w| leaves the range: s and D are degree-1 homogeneous
        _, s, D, _, _, phi = _rescaled(polar, u, None, (0, 1, 1, 0, 0, 0), f"a polar descriptor of {u}")
    theta = None if d == 0.0 else math.atan2(D, s)
    return PolarForm(d=d, s=s, D=D, rho=amplitude(u), theta_or_none=theta, phi_or_none=phi)


def normalize_phi(phi: float) -> float:
    """Reduce an azimuthal angle to [0, 2*pi); an angle just below 0
    whose sum with 2*pi rounds to 2*pi gives the double below it."""
    phi = math.fmod(phi, _TWO_PI)
    if phi < 0.0:
        phi += _TWO_PI
    return phi if phi < _TWO_PI else _BELOW_TWO_PI


def transverse_longitudinal(rho: float, theta: float) -> tuple[float, float]:
    """Transverse magnitude and longitudinal component of a point with
    amplitude ``rho`` > 0 and polar angle ``theta`` in (0, pi/2).
    Raises Overflow when either leaves the double range."""
    if not rho > 0.0:
        raise DomainError("amplitude must be > 0", REASON_ANGLE_RANGE)
    if not 0.0 < theta < 0.5 * math.pi:
        raise DomainError(
            "polar angle must lie strictly between 0 and pi/2", REASON_ANGLE_RANGE
        )
    t = math.tan(theta) / math.sqrt(2.0)
    delta = rho * t ** (1.0 / 3.0)
    sigma = rho * t ** (-2.0 / 3.0)
    for name, value in (("delta", delta), ("sigma", sigma)):
        if not math.isfinite(value):
            raise Overflow(f"{name} at rho={rho!r}, theta={theta!r} exceeds the double range")
    return delta, sigma


def from_exponential(rho: float, theta: float, phi: float) -> Tricomplex:
    """Reconstruct the point with amplitude ``rho``, polar angle
    ``theta`` and azimuthal angle ``phi``.

    Only the octant-side region is covered: rho > 0 and theta strictly
    between 0 and pi/2 (equivalently s > 0 and D > 0).
    """
    if not (math.isfinite(rho) and math.isfinite(phi)):
        raise ValueError("amplitude and azimuthal angle must be finite")
    delta, sigma = transverse_longitudinal(rho, theta)
    return _from_split(cmath.rect(delta, phi), sigma)


def invariant_circle_point(phi: float) -> Tricomplex:
    """Point at angle ``phi`` on the multiplication-invariant circle.

    The circle is centered at (1/3, 1/3, 1/3), has radius sqrt(2/3),
    passes through the three unit points of the axes, and is closed
    under the product with angles adding: its points are the unit
    transverse pairs exp(i*phi) with component sum 1.
    """
    return _from_split(cmath.rect(1.0, phi), 1.0)


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
    meridian of the x axis: sqrt(2/3) times the transverse pair w.

    Where a split coordinate leaves the double range, w is a scaled copy's,
    so Overflow means that the projection itself leaves it.
    """
    try:
        w = _to_split(u)[0] * _TRANSVERSE_NORM
    except Overflow:
        return _rescaled(projection_on_nodal_plane, u, None, 1, f"the projection of {u} on the nodal plane")
    return w.real, w.imag

