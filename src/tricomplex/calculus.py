"""Numerical calculus: derivatives, analyticity checks, loop integrals.

Functions built from power series have direction-independent
derivatives, which forces a web of equalities between the partial
derivatives of the three components F, G, H of f = F + hG + kH.
``check_analytic`` measures how badly a function violates them.

Integrals of such functions are path independent away from the singular
sets; around a simple pole at ``a`` the loop integral picks up the
fixed transverse unit (2*pi/sqrt(3))(h - k) once per turn of the loop's
projection on the nodal plane around the projection of ``a``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .algebra import (
    AlgebraClass,
    ONE,
    Tricomplex,
    ZERO,
    classify,
    component_sum,
    inverse,
    quadratic_form,
)
from .errors import (
    AmbiguousWinding,
    NonConvergent,
    Overflow,
    SingularOnPath,
    ZeroDivisor,
)
from .geometry import projection_on_nodal_plane
from .series import TriSeries

TriFunction = Callable[[Tricomplex], Tricomplex]

_SQRT3 = math.sqrt(3.0)
_TWO_PI = 2.0 * math.pi

#: Value of one positive turn around a simple pole with unit residue.
POLE_LOOP_VALUE = Tricomplex(0.0, _TWO_PI / _SQRT3, -_TWO_PI / _SQRT3)

#: In-plane unit directions spanning the nodal plane, used for circles
#: perpendicular to the trisector line.
_XI1 = Tricomplex(2.0, -1.0, -1.0) * (1.0 / math.sqrt(6.0))
_XI2 = Tricomplex(0.0, 1.0, -1.0) * (1.0 / math.sqrt(2.0))

_ENDPOINT_TOL = 1e-12
DEFAULT_DERIVATIVE_STEP = 1e-5
DEFAULT_STENCIL_STEP = 1e-4
QUADRATURE_TOL = 1e-9
QUADRATURE_CAP = 2**20


@dataclass(frozen=True)
class Path3:
    """Curve in the component space, parameterized over t in [0, 1].

    ``samples`` is the coarsest panel count quadrature may use (segment
    count for polylines, so refinement keeps vertices on panel edges).
    """

    point_at: Callable[[float], Tricomplex]
    samples: int
    closed: bool

    @classmethod
    def polyline(cls, vertices: Sequence[Tricomplex], closed: bool = False) -> "Path3":
        pts = list(vertices)
        if len(pts) < 2:
            raise ValueError("a polyline needs at least two vertices")
        if closed and (pts[0] - pts[-1]).max_abs_component() > _ENDPOINT_TOL:
            raise ValueError("closed polyline endpoints do not match")
        nseg = len(pts) - 1

        def at(t: float) -> Tricomplex:
            s = min(max(t, 0.0), 1.0) * nseg
            i = min(int(s), nseg - 1)
            frac = s - i
            return pts[i] + (pts[i + 1] - pts[i]) * frac

        return cls(point_at=at, samples=nseg, closed=closed)

    @classmethod
    def parametric(
        cls, fn: Callable[[float], Tricomplex], samples: int = 64, closed: bool = False
    ) -> "Path3":
        if samples < 1:
            raise ValueError("samples must be >= 1")
        if closed and (fn(0.0) - fn(1.0)).max_abs_component() > _ENDPOINT_TOL:
            raise ValueError("closed parametric path endpoints do not match")
        return cls(point_at=fn, samples=samples, closed=closed)

    @classmethod
    def circle(cls, center: Tricomplex, radius: float, turns: int = 1) -> "Path3":
        """Closed circle of given radius around the parallel to the
        trisector line through ``center``, lying in the plane through
        ``center`` parallel to the nodal plane."""
        if radius <= 0.0:
            raise ValueError("radius must be > 0")
        if turns == 0:
            raise ValueError("turns must be nonzero")

        def at(t: float) -> Tricomplex:
            ang = _TWO_PI * turns * t
            return center + _XI1 * (radius * math.cos(ang)) + _XI2 * (
                radius * math.sin(ang)
            )

        return cls(point_at=at, samples=64 * abs(turns), closed=True)


@dataclass(frozen=True)
class PoleSpec:
    """A simple pole: the expansion term residue/(u - location)."""

    location: Tricomplex
    residue: Tricomplex


@dataclass(frozen=True)
class RiemannReport:
    """Residual magnitudes of the component-derivative relations.

    ``first_order``: the three groups of cross-equalities between first
    partials (x/y pairs, x/z pairs, y/z pairs).  ``second_order``: per
    component F, G, H, the defect of the pure second partial against the
    complementary mixed one.  ``laplacian``: residual Laplacians of
    F-G, F-H, G-H.
    """

    first_order: tuple[float, float, float]
    second_order: tuple[float, float, float]
    laplacian: tuple[float, float, float]

    @property
    def max_residual(self) -> float:
        return max(*self.first_order, *self.second_order, *self.laplacian)

    def lines(self) -> list[str]:
        names = (
            ("first_order_xy", self.first_order[0]),
            ("first_order_xz", self.first_order[1]),
            ("first_order_yz", self.first_order[2]),
            ("second_order_F", self.second_order[0]),
            ("second_order_G", self.second_order[1]),
            ("second_order_H", self.second_order[2]),
            ("laplacian_FG", self.laplacian[0]),
            ("laplacian_FH", self.laplacian[1]),
            ("laplacian_GH", self.laplacian[2]),
        )
        return [f"{name}={value:.17g}" for name, value in names]


def derivative(
    f: TriFunction,
    u0: Tricomplex,
    step: float = DEFAULT_DERIVATIVE_STEP,
    direction: Tricomplex = ONE,
) -> Tricomplex:
    """Central difference quotient of ``f`` at ``u0``.

    The increment runs along ``direction`` (default: the real axis),
    which must be invertible; a direction on a nodal set cannot be
    divided by and raises ZeroDivisor.
    """
    cls = classify(direction)
    if cls is not AlgebraClass.REGULAR:
        raise ZeroDivisor(
            f"increment direction {direction} lies on a nodal set ({cls.value})", cls
        )
    du = direction * step
    return (f(u0 + du) - f(u0 - du)) * inverse(du * 2.0)


def _shift(u: Tricomplex, dx: float = 0.0, dy: float = 0.0, dz: float = 0.0) -> Tricomplex:
    return Tricomplex(u.x + dx, u.y + dy, u.z + dz)


def check_analytic(
    f: TriFunction, u0: Tricomplex, step: float = DEFAULT_STENCIL_STEP
) -> RiemannReport:
    """Residuals of the component-derivative relations at ``u0``.

    All partials are central differences on a stencil of size ``step``;
    residuals are reported, never judged, so a caller chooses its own
    threshold.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError("step must be finite and > 0")
    s = step
    axes = ((s, 0.0, 0.0), (0.0, s, 0.0), (0.0, 0.0, s))

    f0 = f(u0)
    plus = [f(_shift(u0, *d)) for d in axes]
    minus = [f(_shift(u0, -d[0], -d[1], -d[2])) for d in axes]

    def comps(v: Tricomplex) -> tuple[float, float, float]:
        return (v.x, v.y, v.z)

    # first[c][a]: d(component c)/d(axis a)
    first = [
        [(comps(plus[a])[c] - comps(minus[a])[c]) / (2.0 * s) for a in range(3)]
        for c in range(3)
    ]
    F, G, H = first
    group_xy = max(abs(F[0] - G[1]), abs(G[0] - H[1]), abs(H[0] - F[1]))
    group_xz = max(abs(F[0] - H[2]), abs(G[0] - F[2]), abs(H[0] - G[2]))
    group_yz = max(abs(G[1] - H[2]), abs(H[1] - F[2]), abs(F[1] - G[2]))

    # pure[c][a]: d^2(component c)/d(axis a)^2
    pure = [
        [
            (comps(plus[a])[c] - 2.0 * comps(f0)[c] + comps(minus[a])[c]) / (s * s)
            for a in range(3)
        ]
        for c in range(3)
    ]

    def mixed(a: int, b: int) -> tuple[float, float, float]:
        da, db = axes[a], axes[b]
        pp = f(_shift(u0, da[0] + db[0], da[1] + db[1], da[2] + db[2]))
        pm = f(_shift(u0, da[0] - db[0], da[1] - db[1], da[2] - db[2]))
        mp = f(_shift(u0, -da[0] + db[0], -da[1] + db[1], -da[2] + db[2]))
        mm = f(_shift(u0, -da[0] - db[0], -da[1] - db[1], -da[2] - db[2]))
        return tuple(
            (comps(pp)[c] - comps(pm)[c] - comps(mp)[c] + comps(mm)[c]) / (4.0 * s * s)
            for c in range(3)
        )

    m_yz = mixed(1, 2)
    m_xz = mixed(0, 2)
    m_xy = mixed(0, 1)

    second = tuple(
        max(
            abs(pure[c][0] - m_yz[c]),
            abs(pure[c][1] - m_xz[c]),
            abs(pure[c][2] - m_xy[c]),
        )
        for c in range(3)
    )

    lap = [pure[c][0] + pure[c][1] + pure[c][2] for c in range(3)]
    laplacian = (
        abs(lap[0] - lap[1]),
        abs(lap[0] - lap[2]),
        abs(lap[1] - lap[2]),
    )

    return RiemannReport(
        first_order=(group_xy, group_xz, group_yz),
        second_order=second,  # type: ignore[arg-type]
        laplacian=laplacian,
    )


def _midpoint_sum(f: TriFunction, path: Path3, panels: int) -> Tricomplex:
    total = ZERO
    prev = path.point_at(0.0)
    for i in range(panels):
        t1 = (i + 1) / panels
        mid = path.point_at((i + 0.5) / panels)
        nxt = path.point_at(t1)
        try:
            total = total + f(mid) * (nxt - prev)
        except (Overflow, ZeroDivisor, OverflowError, ValueError) as exc:
            raise SingularOnPath(f"integrand blows up near {mid}") from exc
        prev = nxt
    return total


def path_integral(
    f: TriFunction,
    path: Path3,
    tol: float = QUADRATURE_TOL,
    cap: int = QUADRATURE_CAP,
) -> Tricomplex:
    """Composite midpoint quadrature of f(u) du along the path.

    Panel counts double and each pair of estimates is Richardson
    extrapolated (cancelling the quadratic error term); refinement stops
    when two successive extrapolated values agree to ``tol`` in modulus.
    NonConvergent is raised at the sample cap.
    """
    n = path.samples
    while n < 16:
        n *= 2
    plain = None
    extrapolated = None
    while n <= cap:
        val = _midpoint_sum(f, path, n)
        if plain is not None:
            better = (val * 4.0 - plain) * (1.0 / 3.0)
            if extrapolated is not None and abs(better - extrapolated) < tol:
                return better
            extrapolated = better
        plain = val
        n *= 2
    raise NonConvergent(f"quadrature did not settle below {tol} within {cap} panels")


def _guarded_pole_inverse(a: Tricomplex, guard: float = 1e-10) -> TriFunction:
    """1/(u - a) with an explicit distance guard against the singular
    plane and line through ``a``."""

    def f(u: Tricomplex) -> Tricomplex:
        w = u - a
        scale = 1.0 + w.max_abs_component()
        if abs(component_sum(w)) <= guard * scale:
            raise SingularOnPath(
                f"path touches the singular plane through {a} near {u}"
            )
        if quadratic_form(w) <= (guard * scale) ** 2:
            raise SingularOnPath(
                f"path touches the singular line through {a} near {u}"
            )
        return inverse(w)

    return f


def loop_integral_pole(a: Tricomplex, loop: Path3, tol: float = QUADRATURE_TOL) -> Tricomplex:
    """Loop integral of du/(u - a).

    For a closed loop whose projection on the nodal plane winds n times
    around the projection of ``a``, the value is n times
    ``POLE_LOOP_VALUE``; the quadrature result is returned as computed
    either way.
    """
    if not loop.closed:
        raise ValueError("loop must be closed")
    return path_integral(_guarded_pole_inverse(a), loop, tol=tol)


def cauchy_value(
    f: TriFunction, a: Tricomplex, loop: Path3, tol: float = QUADRATURE_TOL
) -> Tricomplex:
    """Loop integral of f(u) du/(u - a).

    For f analytic over a surface spanning the loop and a single
    positive turn, this equals POLE_LOOP_VALUE * f(a); componentwise it
    determines only the differences between f(a)'s components.
    """
    if not loop.closed:
        raise ValueError("loop must be closed")
    pole = _guarded_pole_inverse(a)

    def integrand(u: Tricomplex) -> Tricomplex:
        return f(u) * pole(u)

    return path_integral(integrand, loop, tol=tol)


def _winding_number(
    pts: list[tuple[float, float]], point: tuple[float, float], guard: float
) -> int:
    px, py = point
    scale = guard * (1.0 + max(abs(px), abs(py), max(abs(x) for x, _ in pts), max(abs(y) for _, y in pts)))
    total = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        v0x, v0y = x0 - px, y0 - py
        v1x, v1y = x1 - px, y1 - py
        # distance from the point to this segment
        ex, ey = x1 - x0, y1 - y0
        ee = ex * ex + ey * ey
        t = 0.0 if ee == 0.0 else min(1.0, max(0.0, -(v0x * ex + v0y * ey) / ee))
        dx, dy = v0x + t * ex, v0y + t * ey
        if math.hypot(dx, dy) <= scale:
            raise AmbiguousWinding(
                "projected pole lies on (or too near) the projected loop"
            )
        total += math.atan2(v0x * v1y - v0y * v1x, v0x * v1x + v0y * v1y)
    return round(total / _TWO_PI)


def winding_count(loop: Path3, point: Tricomplex, guard: float = 1e-9) -> int:
    """Winding of the loop's nodal-plane projection around the
    projection of ``point``.  Loops winding more than once report the
    integer multiplicity."""
    n = max(loop.samples, 256)
    pts = [projection_on_nodal_plane(loop.point_at(i / n)) for i in range(n + 1)]
    return _winding_number(pts, projection_on_nodal_plane(point), guard)


def residue_sum(poles: Sequence[PoleSpec], loop: Path3) -> Tricomplex:
    """Residue-theorem value of a loop integral: POLE_LOOP_VALUE times
    the winding-weighted sum of the residues whose projected poles the
    projected loop encloses."""
    if not loop.closed:
        raise ValueError("loop must be closed")
    acc = ZERO
    for pole in poles:
        w = winding_count(loop, pole.location)
        if w != 0:
            acc = acc + pole.residue * float(w)
    return POLE_LOOP_VALUE * acc


def taylor_recenter(s: TriSeries, a: Tricomplex) -> TriSeries:
    """Re-expand sum(a_l u^l) around ``a``: coefficients of the series in
    powers of (u - a), obtained by the binomial reshuffle."""
    n = len(s.coeffs)
    powers = [ONE]
    for _ in range(n - 1):
        powers.append(powers[-1] * a)
    out = []
    for k in range(n):
        acc = ZERO
        for l in range(n - k):
            acc = acc + math.comb(k + l, l) * (s.coeffs[k + l] * powers[l])
        out.append(acc)
    return TriSeries(tuple(out))
