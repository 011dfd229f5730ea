"""Numerical calculus: derivatives, analyticity checks, loop integrals.

Functions built from power series have direction-independent
derivatives, which forces a web of equalities between the partial
derivatives of the three components F, G, H of f = F + hG + kH.
``check_analytic`` measures how badly a function violates them.

Integrals of such functions are path independent away from the singular
sets; around a simple pole at ``a`` the loop integral picks up the
fixed transverse unit (2*pi/sqrt(3))(h - k) once per turn of the loop's
projection on the nodal plane around the projection of ``a``.

Path integrals use spectral rules behind one refinement loop.  Circles
take the periodic trapezoid rule with their exact tangent, which
converges exponentially on a smooth closed loop (Trefethen & Weideman
2014, SIAM Review 56(3)); every other path takes a fixed 8-point
Gauss-Legendre rule on equal panels.  Each level doubles the node count
and the loop stops when two levels agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, Iterator, Sequence

from .algebra import (
    AlgebraClass,
    ONE,
    Tricomplex,
    ZERO,
    _computed,
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

#: Nodes per Gauss-Legendre panel, and the trapezoid rule's first node
#: count per circle turn.
_ORDER = 8


def _gauss_legendre(n: int) -> tuple[tuple[float, ...], ...]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1] (n
    even), and each weight times its row of the differentiation matrix
    of the polynomial interpolating at the nodes.

    The positive roots of P_n come from Newton's method on the Legendre
    recurrence, started at the cosine estimates; mirroring them keeps
    the rule exactly symmetric.
    """
    half = []
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(8):  # converges quadratically from the estimate
            p0, p1 = 1.0, x
            for k in range(1, n):
                p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
            slope = n * (x * p1 - p0) / (x * x - 1.0)
            x -= p1 / slope
        half.append((x, 1.0 / ((1.0 - x * x) * slope * slope)))
    ordered = [(-x, w) for x, w in half] + [(x, w) for x, w in reversed(half)]
    nodes = tuple((1.0 + x) / 2.0 for x, _ in ordered)
    weights = tuple(w for _, w in ordered)
    bary = [
        1.0 / math.prod(ti - tj for j, tj in enumerate(nodes) if j != i)
        for i, ti in enumerate(nodes)
    ]
    rows = []
    for i, ti in enumerate(nodes):
        row = [
            0.0 if j == i else bary[j] / (bary[i] * (ti - tj))
            for j, tj in enumerate(nodes)
        ]
        row[i] = -sum(row)
        rows.append(tuple(weights[i] * d for d in row))
    return nodes, weights, tuple(rows)


_GL_NODES, _GL_WEIGHTS, _GL_WEIGHTED_DIFF = _gauss_legendre(_ORDER)


@dataclass(frozen=True)
class Path3:
    """Curve in the component space, parameterized over t in [0, 1].

    ``tangent_at`` is d ``point_at``/dt, or None when only points are
    known.  ``samples`` is the panel count of the coarsest Gauss-Legendre
    level; later levels halve the panels, so a kink at a multiple of
    1/samples stays on a panel edge (a polyline has one panel per
    segment).  A circle keeps 64 samples per turn for ``winding_count``;
    its trapezoid rule starts at 8 nodes per turn, whatever ``samples``.
    """

    point_at: Callable[[float], Tricomplex]
    samples: int
    closed: bool
    tangent_at: Callable[[float], Tricomplex] | None = None

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be >= 1")

    @classmethod
    def polyline(cls, vertices: Sequence[Tricomplex], closed: bool = False) -> "Path3":
        pts = list(vertices)
        if len(pts) < 2:
            raise ValueError("a polyline needs at least two vertices")
        if closed and (pts[0] - pts[-1]).max_abs_component() > _ENDPOINT_TOL:
            raise ValueError("closed polyline endpoints do not match")
        nseg = len(pts) - 1
        steps = [(b - a) * nseg for a, b in zip(pts, pts[1:])]

        def segment(t: float) -> tuple[int, float]:
            s = min(max(t, 0.0), 1.0) * nseg
            i = min(int(s), nseg - 1)
            return i, s - i

        def at(t: float) -> Tricomplex:
            i, frac = segment(t)
            return pts[i] + (pts[i + 1] - pts[i]) * frac

        def tangent(t: float) -> Tricomplex:
            return steps[segment(t)[0]]

        return cls(point_at=at, samples=nseg, closed=closed, tangent_at=tangent)

    @classmethod
    def parametric(
        cls, fn: Callable[[float], Tricomplex], samples: int = 64, closed: bool = False
    ) -> "Path3":
        if closed and (fn(0.0) - fn(1.0)).max_abs_component() > _ENDPOINT_TOL:
            raise ValueError("closed parametric path endpoints do not match")
        return cls(point_at=fn, samples=samples, closed=closed)

    @classmethod
    def circle(cls, center: Tricomplex, radius: float, turns: int = 1) -> "Path3":
        """Closed circle of given radius around the parallel to the
        trisector line through ``center``, lying in the plane through
        ``center`` parallel to the nodal plane."""
        if not (math.isfinite(radius) and radius > 0.0):
            raise ValueError("radius must be finite and > 0")
        omega = _TWO_PI * turns

        def at(t: float) -> Tricomplex:
            ang = omega * t
            return center + _XI1 * (radius * math.cos(ang)) + _XI2 * (
                radius * math.sin(ang)
            )

        def tangent(t: float) -> Tricomplex:
            ang = omega * t
            return (_XI2 * math.cos(ang) - _XI1 * math.sin(ang)) * (omega * radius)

        return _Circle(
            point_at=at,
            samples=64 * abs(turns),
            closed=True,
            tangent_at=tangent,
            turns=turns,
        )


@dataclass(frozen=True)
class _Circle(Path3):
    """A circle: smooth and periodic, so quadrature takes the periodic
    trapezoid rule with its tangent, starting at ``_ORDER`` nodes per
    turn.  Gauss-Legendre panels took 2.2 times the evaluations on the
    benchmark's circles."""

    turns: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.turns == 0:
            raise ValueError("turns must be nonzero")
        if self.tangent_at is None:
            raise ValueError("a circle needs its tangent")


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
    return _computed(u.x + dx, u.y + dy, u.z + dz)


def check_analytic(
    f: TriFunction, u0: Tricomplex, step: float = DEFAULT_STENCIL_STEP
) -> RiemannReport:
    """Residuals of the component-derivative relations at ``u0``.

    All partials are central differences on a stencil of size ``step``;
    residuals are reported, never judged, so a caller chooses its own
    threshold.  A residual beyond the double range raises Overflow.
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

    first_order = (group_xy, group_xz, group_yz)
    if not all(map(math.isfinite, (*first_order, *second, *laplacian))):
        raise Overflow(f"derivative residuals at {u0} exceed the double range")
    return RiemannReport(
        first_order=first_order,
        second_order=second,  # type: ignore[arg-type]
        laplacian=laplacian,
    )


def _nodes(path: Path3, n: int) -> Iterator[tuple[Tricomplex, Tricomplex]]:
    """The n nodes u of one level's rule, each with its weighted step du."""
    if isinstance(path, _Circle):
        for i in range(n):
            t = i / n
            yield path.point_at(t), path.tangent_at(t) * (1.0 / n)
        return
    panels = n // _ORDER
    for p in range(panels):
        ts = [(p + c) / panels for c in _GL_NODES]
        if path.tangent_at is not None:
            for t, w in zip(ts, _GL_WEIGHTS):
                yield path.point_at(t), path.tangent_at(t) * (w / panels)
            continue
        pts = [path.point_at(t) for t in ts]
        xs, ys, zs = [q.x for q in pts], [q.y for q in pts], [q.z for q in pts]
        for u, row in zip(pts, _GL_WEIGHTED_DIFF):
            yield u, _computed(
                sum(map(mul, row, xs)), sum(map(mul, row, ys)), sum(map(mul, row, zs))
            )


def _quadrature(
    f: TriFunction, path: Path3, tol: float, cap: int
) -> tuple[Tricomplex, int, float]:
    """The refinement loop behind ``path_integral``: the value, the
    integrand evaluations it took and its error estimate, the modulus of
    the last change between levels."""
    n = _ORDER * (abs(path.turns) if isinstance(path, _Circle) else path.samples)
    evaluations = 0
    previous = None
    while n <= cap:
        total = ZERO
        for u, du in _nodes(path, n):
            # the product and the sum stay inside: an f(u) du that
            # overflows is reported like a singular integrand
            try:
                total = total + f(u) * du
            except (Overflow, ZeroDivisor, OverflowError) as exc:
                raise SingularOnPath(f"integrand blows up near {u}") from exc
        evaluations += n
        if previous is not None:
            error = abs(total - previous)
            if error < tol:
                return total, evaluations, error
        previous = total
        n *= 2
    raise NonConvergent(f"quadrature did not settle below {tol} within {cap} nodes")


def path_integral(
    f: TriFunction,
    path: Path3,
    tol: float = QUADRATURE_TOL,
    cap: int = QUADRATURE_CAP,
) -> Tricomplex:
    """Integral of f(u) du along the path.

    A circle takes the periodic trapezoid rule with its exact tangent.
    Every other path takes a fixed 8-point Gauss-Legendre rule on
    ``path.samples`` equal panels; the tangent comes from ``tangent_at``
    or, when that is None, from the derivative of the polynomial that
    interpolates the path at each panel's nodes.  Each level doubles
    the node count, and the sum is returned once it differs from the
    previous level's by less than ``tol`` in modulus.  NonConvergent is
    raised, before any evaluation, at a level of more than ``cap``
    nodes.
    """
    return _quadrature(f, path, tol, cap)[0]


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
    integer multiplicity.  A loop of more than ``QUADRATURE_CAP``
    samples raises NonConvergent before any point is taken."""
    n = max(loop.samples, 256)
    if n > QUADRATURE_CAP:
        raise NonConvergent(f"winding count needs {n} points, over the cap {QUADRATURE_CAP}")
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
