"""Numerical calculus: loop integrals, residues and windings.

Integrals of functions given by power series are path independent away
from the singular sets; around a simple pole at ``a`` the loop integral
picks up the fixed transverse unit (2*pi/sqrt(3))(h - k) once per turn of
the loop's projection on the nodal plane around the projection of ``a``.

Path integrals use spectral rules.  Closed loops take the periodic trapezoid
rule, exponentially convergent on a smooth closed loop (Trefethen & Weideman
2014, SIAM Review 56(3)), with a sampled loop's trigonometric interpolant's
tangent, in nested levels that evaluate only their new nodes, until two
agree.  Other paths, and sampled loops unsettled by 8*samples nodes, take
an 8-point Gauss-Legendre rule on panels, each with its own error estimate
from its 8 nodes: the size of its top Legendre coefficients, or once
halved, the change from its parent panel.  Only the panels that fail it
are halved, so a panel near a pole is refined alone.  On a polyline the
pole's kernel is 1/(c - t*) in each straight panel's parameter c, and the
rule's remainder on it is closed form: a panel adds it times f's
interpolant at t* (product integration), so it is exact for f of degree 7
however near the pole, and a pole near an edge forces no halving: such a
panel is judged by its own product-integration estimate.  On a
circle the transverse kernel dw/(w - a_w) is dz/(z - alpha) on the unit
circle, and the coefficients of f's trapezoid interpolant are summed against
it in closed form: the levels resolve f alone, however near the pole.
Without a pole, f times w - center_w takes the kernel at the centre.

The quadrature runs in split coordinates: the product acts as complex
multiplication on the transverse pair w = v1 + i*v1t and as real
multiplication on the component sum v, so f(u) du is the pair
(f_w dw, f_v dv), and 1/(u - a) is (1/(w - a_w), 1/(v - a_v)).  Nodes,
integrand and sums stay (complex, float) pairs, joined to a Tricomplex
once at the end.  The pole's loop integral is the residue theorem on the
transverse plane: dw/(w - a_w) picks up 2*pi*i per turn around a_w, and
dv/(v - a_v) integrates to zero on a closed loop.  On a polyline or a
circle that integral alone (f = 1) needs no node: the whole loop is
guarded against the pole first, as before any quadrature, and it is then
2*pi*i times the winding of w around a_w on w, and 0 on v.  The winding
is taken on w as well: that of a circle is known in closed form, and
that of a polyline from its split edges; only other loops are sampled.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from operator import add, mul, sub, truediv
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .algebra import ZERO, Tricomplex, _Record, _rescaled, default_tolerance
from .errors import AmbiguousWinding, NonConvergent, Overflow, SingularOnPath, ZeroDivisor
from .geometry import _SQRT3, _TRANSVERSE_NORM, _TWO_PI, _from_split, _split_norm, _to_split

TriFunction = Callable[[Tricomplex], Tricomplex]
#: An integrand in split coordinates: the pair (f_w, f_v) of f(u) from a
#: node's pair (w, v) and its path point u (None when the node was made
#: in split coordinates and no path point exists).
SplitFunction = Callable[[complex, float, Tricomplex | None], tuple[complex, float]]

#: Value of one positive turn around a simple pole with unit residue.
POLE_LOOP_VALUE = Tricomplex(0.0, _TWO_PI / _SQRT3, -_TWO_PI / _SQRT3)

QUADRATURE_TOL = 1e-9
QUADRATURE_CAP = 2**20
#: A panel's rounding, as a share of the moduli of its terms summed: the
#: 50 epsilon of QUADPACK's rules (Piessens et al. 1983).
_ROUNDING = 50.0 * sys.float_info.epsilon
_GUARD = 1e-10  # the integrand's relative distance guard at the pole's singular sets
_WINDING_GUARD = 1e-9  # the relative guard of winding_count and residue_sum

#: Nodes per Gauss-Legendre panel, and the trapezoid rule's first node
#: count per circle turn.
_ORDER = 8


def _gauss_legendre(n: int) -> tuple[tuple[float, ...], ...]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1] (n
    even), each weight times its row of the differentiation matrix of
    the polynomial interpolating at the nodes, the rows that take a
    panel's weighted terms to its top Legendre coefficients, and the
    nodes' barycentric weights over their rule weights.

    The positive roots of P_n come from Newton's method on the Legendre
    recurrence, started at the cosine estimates; mirroring them keeps
    the rule exactly symmetric.  The rule is exact on the interpolant
    times P_k, so row k, (2k + 1)*P_k(x), takes the terms weight*h*g of
    a panel of width h to h times the coefficient of P_k.
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
    bary = [1.0 / math.prod(ti - tj for j, tj in enumerate(nodes) if j != i) for i, ti in enumerate(nodes)]
    rows = []
    for i, ti in enumerate(nodes):
        row = [0.0 if j == i else bary[j] / (bary[i] * (ti - tj)) for j, tj in enumerate(nodes)]
        row[i] = -sum(row)
        rows.append(tuple(weights[i] * d for d in row))
    pk = [[1.0] * n, [x for x, _ in ordered]]
    for k in range(1, n - 1):
        pk.append([((2 * k + 1) * x * p1 - k * p0) / (k + 1) for x, p0, p1 in zip(pk[1], *pk[-2:])])
    tails = tuple(tuple((2 * k + 1) * p for p in pk[k]) for k in range(n - 4, n))
    return nodes, weights, tuple(rows), tails, tuple(map(truediv, bary, weights))


_GL_NODES, _GL_WEIGHTS, _GL_WEIGHTED_DIFF, _GL_TAILS, _GL_BARY = _gauss_legendre(_ORDER)
_GL_RULE = tuple(zip(_GL_NODES, _GL_WEIGHTS))
#: |t| + |t - 1| at Bernstein parameter 20 of 2t - 1: past it the rule's error on 1/(c - t) is at rounding.
_FAR = 10.025


#: A node in split coordinates: the node (w, v), its weighted step
#: (dw, dv) and its path point u, None where the node is made in split
#: coordinates.
Node = tuple[complex, float, complex, float, Tricomplex | None]


class Path3(_Record):
    """Curve in the component space, parameterized over t in [0, 1].

    ``tangent_at`` is None: quadrature differentiates a closed path's
    trigonometric interpolant, resolved on 2*samples points or more and
    capped at 8*samples nodes, or each panel's interpolating polynomial.
    ``samples`` counts the starting Gauss-Legendre panels, and a failing
    one is halved, so a kink at a multiple of 1/samples stays on a panel
    edge.  Closed ends must agree within 1e-12 times max(1, their largest
    component).  Circles and polylines are split into transverse pairs w
    and component sums v once, when made: ``point_at`` and ``tangent_at``
    join that split, and their quadrature nodes and winding read it.
    Neither takes ``samples``: a polyline's is its segment count (one
    panel per segment), and a circle's is 64 per turn, which its
    trapezoid rule (8 nodes per turn to start) does not read.
    """

    __slots__ = _fields = ("point_at", "samples", "closed")
    point_at: Callable[[float], Tricomplex]
    samples: int
    closed: bool
    tangent_at = None

    def __init__(self, point_at: Callable[[float], Tricomplex], samples: int, closed: bool) -> None:
        object.__setattr__(self, "point_at", point_at)
        self._made(samples, closed)

    def _made(self, samples: int, closed: bool) -> None:
        """Check and set ``samples`` and ``closed`` once ``point_at`` is set.  A circle sets
        its own: its ends differ by its angle's rounding, 4.7e-8 at 10**9 turns."""
        if not isinstance(samples, int) or samples < 1:
            raise ValueError("samples must be an integer >= 1")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "closed", closed)
        if closed:
            a, b = self.point_at(0.0), self.point_at(1.0)
            gap = max(abs(a.x - b.x), abs(a.y - b.y), abs(a.z - b.z))
            if gap > max(default_tolerance(a), default_tolerance(b)):
                raise ValueError("closed path endpoints do not match")

    @classmethod
    def polyline(cls, vertices: Sequence[Tricomplex], closed: bool = False) -> "Path3":
        return _Polyline(closed=closed, vertices=tuple(vertices))

    @classmethod
    def parametric(cls, fn: Callable[[float], Tricomplex], samples: int = 64, closed: bool = False) -> "Path3":
        return cls(point_at=fn, samples=samples, closed=closed)

    @classmethod
    def circle(cls, center: Tricomplex, radius: float, turns: int = 1) -> "Path3":
        """Closed circle of given radius around the parallel to the
        trisector line through ``center``, lying in the plane through
        ``center`` parallel to the nodal plane.  A radius whose transverse
        radius, radius/sqrt(2/3), leaves the double range raises Overflow."""
        return _Circle(center=center, radius=radius, turns=turns)

    def _nodes(self, a: float, h: float) -> list[Node]:
        """The 8 nodes of the Gauss-Legendre panel [a, a + h], measured in
        samples (t = s/samples), so halving is exact; the steps are the
        derivative of the polynomial interpolating the panel's points, taken
        on a copy scaled by 2**-e where a |w| or |v| passes 2**500."""
        us = [self.point_at((a + c * h) / self.samples) for c in _GL_NODES]
        ws, vs = zip(*map(_to_split, us))
        top = max(map(abs, ws + vs))
        d = _rescaled(
            lambda p: [(sum(map(mul, r, p[0])), sum(map(mul, r, p[1]))) for r in _GL_WEIGHTED_DIFF],
            (ws, vs), math.frexp(top)[1] if top > 2.0**500 else 0, 1, "a step"
        )
        return [(w, v, dw, dv, u) for (dw, dv), u, w, v in zip(d, us, ws, vs)]

    def _levels(self, cap: int) -> Iterator[tuple[list, list[complex], list[float]]]:
        """Trapezoid levels of n = 8, 16, ... <= 8*samples (<= ``cap``) nodes on
        a closed path without a tangent: the points (w, v, u) off the last level
        yielded, and the steps, the derivative of the split's interpolant over n.
        The split is transformed on m >= 2*samples points and on finer levels;
        level n counts once the coefficients of frequency >= 3n/8 are at rounding.
        At n = m, levels stop if those, decaying as from 3n/16, stay above it at 4n.
        Where the sizes pass 2**500, a copy scaled by 2**-e is transformed."""

        def spectrum(cols: list[list[complex]], e: int) -> tuple[list[complex], list[complex], list[float]]:
            cw, cv = (_fft(c, _spectral(m, n)[0]) for c in _rescaled(lambda t: t, cols, e, 0, "a loop"))
            return cw, cv, list(map(max, map(abs, cw), map(abs, cv)))

        top, n, last = _ORDER * self.samples, _ORDER, 0
        if not self.closed or self.tangent_at or top > cap:
            return
        points, m = [], max(_ORDER, 2 << (self.samples - 1).bit_length())
        while n <= top:
            if len(points) < m:  # all the grid's points, or a finer level's odd ones
                ts = [i / m for i in range(m) if i % 2 or not points]
                points = _interleaved(points, [(*_to_split(u), u) for u in map(self.point_at, ts)])
                cols, e = [[complex(p[i]) for p in points] for i in (0, 1)], 0
                cw, cv, sizes = spectrum(cols, e)
                if not sum(sizes) + abs(sum(cv)) < 2.0**500:  # the sizes drop a nan of cv's
                    e = math.frexp(max(map(abs, cols[0] + cols[1])))[1]  # the steps are scaled back by 2**e
                    cw, cv, sizes = spectrum(cols, e)
                limit = _ROUNDING * max(sizes)
            k, s = 3 * n // 8, m // n
            tail = max(sizes[k : m - k + 1])  # the coefficients of frequency >= k
            if tail <= limit:  # the derivative of the coefficients below n/2, at the level's nodes
                _, d, back = _spectral(m, n)
                dw, dv = (_fft(list(map(mul, d, c[: n // 2] + c[m - n // 2 :])), back) for c in (cw, cv))
                if e:
                    dw, dv = ([complex(math.ldexp(z.real, e), math.ldexp(z.imag, e)) for z in c] for c in (dw, dv))
                yield [p for i, p in enumerate(points[::s]) if not last or i * last % n], dw, [t.real for t in dv]
                last = n
            elif n == m and tail * (tail / max(sizes[k // 2 : m - k // 2 + 1])) ** 6 > limit:
                return
            n, m = 2 * n, max(m, 2 * n)

    def _winding(self) -> Callable[[complex], int]:
        """The winding of the loop's w around a point's a_w from max(samples,
        256) points, taken once; over ``QUADRATURE_CAP`` raise NonConvergent
        first.  A point nearer a chord than half the larger second difference
        at its ends, which bounds how far the loop strays, is ambiguous."""
        n = max(self.samples, 256)
        if n > QUADRATURE_CAP:
            raise NonConvergent(f"winding count needs {n} points, over the cap {QUADRATURE_CAP}")
        ws = [_to_split(self.point_at(i / n))[0] for i in range(n + 1)]
        bends = [abs(a - 2.0 * b + c) / 2.0 for a, b, c in zip(ws[-2:-1] + ws, ws, ws[1:])]
        gaps = list(map(max, bends, bends[1:] + bends[:1]))
        return lambda aw: _winding_number(ws, aw, _WINDING_GUARD, gaps)


class _SplitPath(Path3):
    """A path made from its defining data, which a subclass splits when
    the path is made.  Its ``_split(t)`` gives the node (w, v) and the
    step (dw/dt, dv/dt) at t; ``point_at`` and ``tangent_at`` are their
    joins."""

    __slots__ = ()

    def point_at(self, t: float) -> Tricomplex:
        return _from_split(*self._split(t)[:2])

    def tangent_at(self, t: float) -> Tricomplex:
        return _from_split(*self._split(t)[2:])


class _Polyline(_SplitPath):
    """A polyline, linear in the split between its vertices: ``edges``
    holds each segment's start and step (w0, v0, w1 - w0, v1 - v0), and
    ``samples`` is its number of segments; ``_guard`` checks it whole."""

    __slots__ = ("vertices", "edges")
    _fields = ("samples", "closed", "vertices")
    vertices: tuple[Tricomplex, ...]

    def __init__(self, *, vertices: tuple[Tricomplex, ...], closed: bool) -> None:
        if len(vertices) < 2:
            raise ValueError("a polyline needs at least two vertices")
        ends = tuple(map(_to_split, vertices))
        edges = tuple((w0, v0, w1 - w0, v1 - v0) for (w0, v0), (w1, v1) in zip(ends, ends[1:]))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        self._made(len(edges), closed)

    def __reduce__(self):
        return Path3.polyline, (self.vertices, self.closed)

    def _split(self, t: float) -> tuple[complex, float, complex, float]:
        return self._at(min(max(t, 0.0), 1.0) * self.samples, self.samples)

    def _at(self, a: float, h: float) -> tuple[complex, float, complex, float]:
        """The point ``a`` samples in and the step over ``h`` samples."""
        i = min(int(a), self.samples - 1)
        w0, v0, ew, ev = self.edges[i]
        return w0 + ew * (a - i), v0 + ev * (a - i), ew * h, ev * h

    def _nodes(self, a: float, h: float) -> list[Node]:
        w, v, dw, dv = self._at(a, h)
        return [(w + dw * c, v + dv * c, dw * wt, dv * wt, None) for c, wt in _GL_RULE]

    def _pole_panel(
        self, g: SplitFunction, a: float, h: float, pole: tuple[Tricomplex, complex, float]
    ) -> tuple[list[complex], list[float], tuple | None]:
        """The terms of g, f/(u - a), on the panel [a, a + h] and what ``_own_estimate``
        reads (None: the tail decides), from ``pole``, a and its split (a_w, a_v).  On the
        panel dw/(w - a_w) is dc/(c - t_w), t_w = (a_w - w)/dw, and so for v: a near part
        appends ``_remainder``'s term, a far one adds its tail to the estimate.  The panel
        lies on a segment that ``_guard`` has kept off the pole's singular sets."""
        (_, aw, av), (w, v, dw, dv), (w1, v1, _, _) = pole, self._at(a, h), self._at(a + h, h)
        t_w, t_v = (aw - w) / dw if dw else math.inf, (av - v) / dv if dv else math.inf
        nodes = self._nodes(a, h)
        tw, tv = _terms(g, nodes)
        far = [abs(t) + abs(t - 1.0) >= _FAR for t in (t_w, t_v)]
        if all(far):
            return tw, tv, None
        remainders, near = [0.0, 0.0], []
        parts = [(tw, aw, w, w1, _TRANSVERSE_NORM), (tv, av, v, v1, 1.0 / _SQRT3)]
        for k, (terms, x, x0, x1, norm) in enumerate(parts):
            if not far[k]:  # the kernel as the terms have it, 1/(w - a_w) times the step (NaN past the range)
                kernel = [1.0 / d * n[k + 2] if cmath.isfinite(d := n[k] - x) else math.nan for n in nodes]
                remainders[k], reads = _remainder((x - x1) / (x - x0), terms, kernel, norm)
                near.append(reads)
        plain = (tw if far[0] else (), tv if far[1] else ())
        return tw + remainders[:1], tv + [remainders[1].real], (*plain, near)

    def _guard(self, pole: tuple[Tricomplex, complex, float]) -> None:
        """Check the loop against ``pole``, a and its split (a_w, a_v), before any evaluation:
        each vertex as ``_integrand`` checks a node, which also raises where two lie on either
        side of the pole's singular plane, so no segment meets it; then each segment, whose
        t_w = (a_w - w)/dw within ``_GUARD`` of [0, 1] puts the singular line on it."""
        guard, (point, aw, _) = _integrand(None, pole), pole
        for w, v in [edge[:2] for edge in self.edges] + [_to_split(self.vertices[-1])]:  # each vertex
            guard(w, v, None)
        for i in range(self.samples):
            w, _, dw, _ = self._at(float(i), 1.0)
            t = (aw - w) / dw if dw else math.inf
            if abs(t - (s := min(max(t.real, 0.0), 1.0))) <= _GUARD:
                near = self.point_at((i + s) / self.samples)
                raise SingularOnPath(f"path touches the singular line through {point} near {near}")

    def _pole_turns(self, aw: complex, guarded: None) -> int:
        """The winding of w around a_w at guard 0: ``_guard`` has kept a_w off every segment."""
        return _winding_number([w for w, _, _, _ in self.edges + self.edges[:1]], aw, 0.0)

    def _winding(self) -> Callable[[complex], int]:
        ws = [w for w, _, _, _ in self.edges + self.edges[:1]]
        return lambda aw: _winding_number(ws, aw, _WINDING_GUARD)


class _Circle(_SplitPath):
    """A circle: smooth and periodic, so quadrature takes the periodic trapezoid rule,
    as ``_circle``'s product rule, starting at ``_ORDER`` nodes per turn.  Gauss-Legendre
    panels took 2.2 times the evaluations on the benchmark's circles.  In split
    coordinates the circle is w = center_w + radius_w*exp(2*pi*i*turns*t) with v =
    center_v fixed: (center_w, center_v) is the center's split and radius_w is
    radius/sqrt(2/3), as a unit of w has Euclidean length sqrt(2/3).  Node i of the
    n-node rule is at t = i/n, and the n nodes repeat every turn, so a level holds one
    turn's.  Its winding is closed form (see ``winding_count``), ``_guard`` checks it against a
    pole and gives the pole's α, and the pole's loop integral alone is 2*pi*i*turns inside, 0
    outside (``_pole_turns``).  A radius_w beyond the double range raises Overflow."""

    __slots__ = ("center", "radius", "turns", "center_w", "center_v", "radius_w")
    _fields = ("samples", "closed", "center", "radius", "turns")
    closed = True
    center: Tricomplex
    radius: float
    turns: int

    def __init__(self, *, center: Tricomplex, radius: float, turns: int = 1) -> None:
        if not (math.isfinite(radius) and radius > 0.0):
            raise ValueError("radius must be finite and > 0")
        if not isinstance(turns, int) or turns == 0:
            raise ValueError("turns must be a nonzero integer")
        if (radius_w := radius / _TRANSVERSE_NORM) == math.inf:
            raise Overflow(f"the transverse radius of a circle of radius {radius} leaves the double range")
        values = center, radius, turns, *_to_split(center), radius_w, 64 * abs(turns)
        for name, value in zip(self.__slots__ + ("samples",), values):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return Path3.circle, (self.center, self.radius, self.turns)

    def _split(self, t: float) -> tuple[complex, float, complex, float]:
        omega = _TWO_PI * self.turns
        e = cmath.rect(self.radius_w, omega * t)
        return self.center_w + e, self.center_v, e * complex(0.0, omega), 0.0

    def _guard(self, pole: tuple[Tricomplex, complex, float]) -> tuple[bool, complex]:
        """Whether a_w lies inside the circle's w, and α = (a_w - center_w)/radius_w or 1/α,
        whichever is at most 1 in modulus, from ``pole``, a and its split (a_w, a_v); near the
        top of the range, from a copy scaled by 2**-e.  A finite |center_v - a_v| within ``_GUARD``
        times 1 + the largest |w - a_w| puts the circle in the pole's singular plane, and
        ||α| - 1| <= ``_GUARD`` on its singular line: either raises SingularOnPath."""

        def alpha(parts: tuple) -> tuple[bool, complex]:
            aw, av, cw, cv, r, one = parts
            d = aw - cw
            md, mv = abs(d), abs(av - cv)
            if mv < math.inf and mv <= _GUARD * (one + max(mv, md + r)):
                what, t = "touches the singular plane", 0.0
            elif abs(md - r) <= _GUARD * r:
                what, t = "touches the singular line", cmath.phase(d) / (_TWO_PI * self.turns)
            else:
                return md < r, d / r if md < r else r / d
            try:
                raise SingularOnPath(f"path {what} through {pole[0]} near {self.point_at(t)}")
            except Overflow:  # the point leaves the double range: the circle's centre is named
                raise SingularOnPath(f"path {what} through {pole[0]} on the circle around {self.center}") from None

        parts = (*pole[1:], self.center_w, self.center_v, self.radius_w, 1.0)
        top = max(max(abs(p.real), abs(p.imag)) for p in parts)
        return alpha(parts) if top < 2.0**500 else _rescaled(alpha, parts, math.frexp(top)[1], 0, "a pole's α")

    def _pole(self, pole: Tricomplex) -> tuple[bool, complex]:
        return self._guard((pole, *_pole_split(pole)))

    def _pole_turns(self, aw: complex, guarded: tuple[bool, complex]) -> int:
        """The winding of w around a_w: ``turns`` if ``_guard`` put a_w inside, else 0."""
        return self.turns if guarded[0] else 0

    def _winding(self) -> Callable[[complex], int]:
        cw, r = self.center_w, self.radius_w
        half = max(abs(cw.real), abs(cw.imag)) / 2.0 + r / 2.0  # the guard's scale halved: it stays in range

        def winding(aw: complex) -> int:
            d = math.hypot(aw.real - cw.real, aw.imag - cw.imag)
            if abs(d - r) <= 2.0 * _WINDING_GUARD * (0.5 + max(abs(aw.real) / 2.0, abs(aw.imag) / 2.0, half)):
                raise AmbiguousWinding(_ON_LOOP)
            return self.turns if d < r else 0

        return winding


class PoleSpec(NamedTuple):
    """A simple pole: the expansion term residue/(u - location)."""

    location: Tricomplex
    residue: Tricomplex


def _pole_split(point: Tricomplex) -> tuple[complex, float]:
    """A pole's split (a_w, a_v).  Where the component sum leaves the double range,
    a_v is x + y + z, ±inf, and a_w a scaled copy's; an a_w beyond it raises Overflow."""
    try:
        return _to_split(point)
    except Overflow:
        aw = _rescaled(lambda u: _to_split(u)[0], point, None, 1, f"the transverse pair of {point}")
        return aw, point.x + point.y + point.z


def _integrand(f: TriFunction | None, pole: tuple[Tricomplex, complex, float] | None) -> SplitFunction:
    """f(u), times 1/(u - a) when ``pole``, a and its split (a_w, a_v), is given,
    in split coordinates; f None stands for 1.

    f takes the path point, or the node joined to a Tricomplex where
    the path gave none; an f that fails or overflows there is reported
    as SingularOnPath.  1/(u - a) is (1/(w - a_w), 1/(v - a_v)), with
    ``_pole_split``'s pair and an explicit distance guard, ``_GUARD``, at
    each node before f, against the singular plane (v = a_v) and line
    (w = a_w) through the pole; |w - a_w| is sqrt(quadratic_form(u - a)),
    and an infinite |v - a_v| is never near.  Nodes on both sides of that
    plane raise SingularOnPath too: there dv/(v - a_v) is not integrable.
    Past the double range |w - a_w| is taken on halves, and 1/(w - a_w) is NaN.
    """

    def at(w: complex, v: float, u: Tricomplex | None) -> Tricomplex:
        return _from_split(w, v) if u is None else u

    def lifted(w: complex, v: float, u: Tricomplex | None) -> tuple[complex, float]:
        u = at(w, v, u)
        try:
            return _to_split(f(u))
        except (Overflow, ZeroDivisor, OverflowError) as exc:
            raise SingularOnPath(f"integrand blows up near {u}") from exc

    if pole is None:
        return lifted
    point, aw, av = pole
    side = 0.0  # the sign of v - a_v at the nodes, once one is seen

    def guarded(w: complex, v: float, u: Tricomplex | None) -> tuple[complex, float]:
        nonlocal side
        dw, dv = w - aw, v - av
        try:
            mw = abs(dw)
        except OverflowError:
            mw = math.inf
        mv = abs(dv)
        near, what = _GUARD + _GUARD * (mv if mw < mv < math.inf else mw), None
        if near == math.inf:  # |dw| leaves the double range
            near = _GUARD + 2.0 * _GUARD * math.hypot(w.real / 2.0 - aw.real / 2.0, w.imag / 2.0 - aw.imag / 2.0)
            dw = complex(math.nan, math.nan)  # 1/dw would underflow: a sum of NaN raises
        if side * dv <= near:
            if mv <= near:
                what = "touches the singular plane"
            elif side:
                what = "crosses the singular plane"
            else:
                side = math.copysign(1.0, dv)
        if what or mw <= near:
            raise SingularOnPath(f"path {what or 'touches the singular line'} through {point} near {at(w, v, u)}")
        pw, pv = 1.0 / dw, 1.0 / dv
        if f is None:
            return pw, pv
        fw, fv = lifted(w, v, u)
        return fw * pw, fv * pv

    return guarded


def _terms(g: SplitFunction, nodes: Iterable[Node]) -> tuple[list[complex], list[float]]:
    """The weighted terms (f_w dw, f_v dv) of the integrand g at the nodes."""
    tw, tv = [], []
    for w, v, dw, dv, u in nodes:
        fw, fv = g(w, v, u)
        tw.append(fw * dw)
        tv.append(fv * dv)
    return tw, tv


def _exact_sum(tw: list[complex], tv: list[float]) -> tuple[complex, float]:
    """The sum of the terms, each part exactly rounded by ``math.fsum`` (a
    running sum of a few hundred terms near 2*pi drifts by several ulps).
    A sum beyond the double range raises SingularOnPath."""
    try:
        sums = [math.fsum(part) for part in ([t.real for t in tw], [t.imag for t in tw], tv)]
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
        sums = [math.inf]
    if not all(map(math.isfinite, sums)):
        raise SingularOnPath(f"the integral over {len(tv)} nodes leaves the double range")
    return complex(sums[0], sums[1]), sums[2]


def _interleaved(old: list, new: list) -> list:
    """A nested level's items: the last level's, if any, every r-th, the new between."""
    if not old:
        return new
    both, r = old + new, len(new) // len(old) + 1
    both[::r] = old
    for j in range(1, r):
        both[j::r] = new[j - 1 :: r - 1]
    return both


@lru_cache(maxsize=64)
def _spectral(m: int, n: int) -> tuple[tuple[complex, ...], ...]:
    """The m/2 roots of unity of an m-point FFT and, for n nodes, the factors that
    take m points' coefficients below n/2 to the derivative over n and the
    inverse n-point FFT's roots: made once per (m, n)."""
    roots = tuple(cmath.exp(complex(0.0, -_TWO_PI * j / m)) for j in range(m // 2))
    d = tuple(complex(0.0, _TWO_PI * (j - n * (2 * j > n)) * (2 * j != n) / (m * n)) for j in range(n))
    return roots, d, tuple(r.conjugate() for r in roots[:: m // n])


def _fft(a: list[complex], roots: Sequence[complex]) -> list[complex]:
    """The unnormalized DFT of ``a`` (n = 2**m) with the n/2 roots of unity ``roots``
    (conjugates for the inverse), by radix-2 decimation in time; a stage's sums and
    differences interleave by strided slices while fewer than its blocks, then by blocks."""
    x, half, size = a, len(a) // 2, 1
    while size < 2 * half:
        p = list(map(mul, roots[:: half // size] * (half // size), x[half:]))
        s, d = list(map(add, x[:half], p)), list(map(sub, x[:half], p))
        x = s + d
        if size * size <= half:
            for j in range(size):
                x[j :: 2 * size], x[size + j :: 2 * size] = s[j::size], d[j::size]
        else:
            for i in range(0, half, size):
                x[2 * i : 2 * i + size], x[2 * i + size : 2 * i + 2 * size] = s[i : i + size], d[i : i + size]
        size *= 2
    return x


def _panel(
    g: SplitFunction, path: Path3, a: float, h: float, pole: tuple[Tricomplex, complex, float] | None
) -> tuple[float, float, complex, float, list[complex], list[float], tuple | None]:
    """The panel [a, a + h] of the path evaluated: (a, h), the sum of g on it, its
    terms and what its own estimate reads (None: its tail decides).  ``pole`` is
    a and its split.  A sum beyond the double range raises SingularOnPath."""
    if pole is not None and isinstance(path, _Polyline):
        tw, tv, own = path._pole_panel(g, a, h, pole)
    else:
        (tw, tv), own = _terms(g, path._nodes(a, h)), None
    sw, sv = sum(tw), sum(tv)
    if not (cmath.isfinite(sw) and math.isfinite(sv)):
        raise SingularOnPath(f"the integral over a panel of {len(tv)} nodes leaves the double range")
    return a, h, sw, sv, tw, tv, own


def _coefficient_size(row: tuple[float, ...], tw: list[complex], tv: list[float]) -> float:
    """Modulus of the Legendre coefficient that a row of ``_GL_TAILS``
    takes from a panel's terms."""
    return _split_norm(sum(map(mul, row, tw)), sum(map(mul, row, tv)))


def _rounding(tw: list[complex], tv: list[float]) -> float:
    """The rounding of a panel's sum and coefficients, which no halving
    reduces: an estimate below it passes, whatever ``tol``."""
    return _ROUNDING * (_TRANSVERSE_NORM * sum(map(abs, tw)) + sum(map(abs, tv)) / _SQRT3)


def _tail_estimate(tw: list[complex], tv: list[float], limit: float) -> float:
    """Error estimate of one Gauss-Legendre panel from its terms: the size
    of the interpolant's top two Legendre coefficients, |c6| + |c7|.
    Only when that exceeds ``limit`` is it multiplied by rho**8, where
    rho = min(1, 4*sqrt((|c6| + |c7|)/(|c4| + |c5|))) is a pessimistic
    decay rate per degree (Trefethen, Approximation Theory and
    Approximation Practice, 2013, ch. 7 and 19)."""
    c4, c5, c6, c7 = _GL_TAILS
    top = _coefficient_size(c6, tw, tv) + _coefficient_size(c7, tw, tv)
    if top <= limit:
        return top
    below = _coefficient_size(c4, tw, tv) + _coefficient_size(c5, tw, tv)
    return top * min(1.0, 16.0 * top / below) ** 4 if below > 0.0 else top


def _remainder(ratio: complex, terms: list, kernel: list, norm: float) -> tuple[complex, tuple]:
    """p(t)*R(t) for one split part of a panel whose terms are f(c) times ``kernel``,
    the weights times 1/(c - t) at its nodes c, and what its estimate reads.
    R(t) = log((t - 1)/t) - sum(kernel), ``ratio`` (t - 1)/t from the panel's ends, is
    the rule's remainder on 1/(c - t), and p f's interpolant at the nodes: exact for f
    of degree 7 however near t is (Helsing & Ojala 2008, J. Comput. Phys. 227)."""
    log = cmath.log(ratio)
    r = log - sum(kernel)
    # barycentric p, with f = x/k: sum(b/(c - t)) is -1/prod(t - c), and
    # P_8(2t - 1) is comb(16, 8)*prod(t - c)
    den = sum(map(mul, _GL_BARY, kernel))
    p = sum(map(mul, _GL_BARY, terms)) / den
    return p * r, (terms, kernel, r, den, norm, abs(p) * abs(log))


def _own_estimate(plain_w: Sequence, plain_v: Sequence, near: list) -> float:
    """A pole panel's own estimate: the tail of its far parts' terms plus, per near
    part of ``_remainder``, f's c8, extrapolated as ``_tail_estimate`` does, times
    |R(t)*P_8(2t - 1)| = 2|Q_8| (Gautschi & Varga 1983, SIAM J. Numer. Anal. 20), plus
    f's tail times max|1/(c - t)|, plus the rounding of the appended p(t)*R(t), where
    R(t) cancels to far below the log it is taken from: ``_ROUNDING``*|p(t)|*|log((t - 1)/t)|
    (``norm``: the part's weight).  Only a panel judged alone reads it."""
    estimate = _tail_estimate(plain_w, plain_v, 0.0)
    for terms, kernel, r, den, norm, size in near:
        q = list(map(truediv, map(mul, terms, _GL_WEIGHTS), kernel))  # the weights times f
        c4, c5, c6, c7 = (norm * abs(sum(map(mul, row, q))) for row in _GL_TAILS)
        decay = min(1.0, 16.0 * (c6 + c7) / (c4 + c5)) if c4 + c5 > 0.0 else 1.0  # over two degrees
        rough = max(map(abs, map(truediv, kernel, _GL_WEIGHTS)))
        estimate += (c6 + c7) * (decay * math.comb(2 * _ORDER, _ORDER) * abs(r / den) + decay**4 * rough)
        estimate += _ROUNDING * norm * size
    return estimate


def _circle(
    f: TriFunction, path: _Circle, tol: float, cap: int, guarded: tuple[bool, complex] | None
) -> tuple[Tricomplex, int, float]:
    """A circle's integral of f(u) du, or of f(u) du/(u - pole), by product integration on
    its trapezoid levels (Helsing & Ojala 2008, J. Comput. Phys. 227; af Klinteberg & Barnett
    2021, BIT Numer. Math. 61).  On one turn, w = center_w + radius_w*z with |z| = 1, so
    dw/(w - a_w) is dz/(z - α), and the interpolant sum(c_k z**k) of g on a level's n nodes
    integrates against it to 2*pi*i*sum_{k>=0} c_k α**k, its frequencies -n/2 < k <= n/2,
    when |α| < 1, and to -2*pi*i*sum_{k<0} c_k α**k, -n/2 <= k < n/2, when |α| > 1, times
    the turns; dv = 0.  ``guarded`` is ``_Circle._guard``'s (inside, α), None without a pole: g
    is then f_w times w - center_w, the kernel the centre's, α = 0, and c_0 the trapezoid rule's.
    A level transforms its fresh nodes, which one radix-2 stage joins to the last level's.  Two
    levels within ``tol`` are accepted; the estimate is at least g's rounding, as a panel's."""
    inside, x = (True, 0j) if guarded is None else guarded
    lifted, fw, c, previous = _integrand(f, None), [], [], None
    k, n, omega = abs(path.turns), _ORDER, _TWO_PI * path.turns
    while n * k <= cap:  # node 2i of n is node i of n/2: past the first level, the odd nodes are fresh
        # the fresh nodes' w - center_w, not rounded by center_w
        es = [cmath.rect(path.radius_w, omega * (i / (n * k))) for i in (range(1, n, 2) if fw else range(n))]
        new = [lifted(path.center_w + e, path.center_v, None)[0] for e in es]
        new = list(map(mul, new, es)) if guarded is None else new
        fw = _interleaved(fw, new)
        odd = _fft(new, _spectral(len(new), len(new))[0])
        if c:  # c = [E + ωO, E - ωO], E the last level's transform (its even nodes) and O the odd nodes'
            odd = list(map(mul, _spectral(n, n)[0], odd))
            c, odd = list(map(add, c, odd)), list(map(sub, c, odd))
        c += odd
        # frequencies 0 to n/2 inside (c_0 alone at α = 0), 0 to -n/2 outside; clockwise, index k is -k
        terms = c[: n // 2 + 1] if inside == (path.turns > 0) else [c[0], *c[: n // 2 - 1 : -1]]
        total = 0j
        for t in reversed((terms if x else terms[:1]) if inside else [0.0, *terms[1:]]):
            total = total * x + t
        total *= complex(0.0, (1.0 if inside else -1.0) * _TWO_PI * path.turns / n)
        if not cmath.isfinite(total):
            raise SingularOnPath(f"the integral over {n} nodes leaves the double range")
        if previous is not None and (error := _split_norm(total - previous, 0.0)) < tol:
            # |g|'s mean, each term over n (exact: a power of two), so that the sum stays in range
            rounding = _ROUNDING * _TRANSVERSE_NORM * _TWO_PI * abs(path.turns) * sum(abs(t) / n for t in fw)
            return _from_split(total, 0.0), n, max(error, rounding)
        previous, n = total, 2 * n
    raise NonConvergent(f"quadrature did not settle below {tol} within {cap} nodes")


def _quadrature(
    f: TriFunction | None,
    path: Path3,
    tol: float,
    cap: int,
    pole: Tricomplex | None = None,
) -> tuple[Tricomplex, int, float]:
    """The quadrature behind ``path_integral``, ``loop_integral_pole`` and
    ``cauchy_value``: the integral of f(u) du, or f(u) du/(u - pole) (see
    ``_integrand``), the integrand evaluations it took and its error
    estimate.  The pole is split once, and a polyline or a circle is
    guarded whole (``_guard``) before any route or evaluation.  f None is
    then closed form: 2*pi*i on w per turn around a_w (``_pole_turns``),
    its rounding the estimate.  Other circles take ``_circle``.  A sampled
    loop returns the first of its ``_levels`` within ``tol`` of the last,
    their difference the estimate, or takes panels.

    A Gauss-Legendre panel is accepted once its estimate is at most
    ``tol`` times its share of [0, 1], and the others are halved, as in
    QUADPACK's QAG (Piessens et al. 1983).  A starting panel's estimate
    is ``_tail_estimate``; two halves are first estimated by the change
    from their parent's value, and each by its own ``_tail_estimate``
    when that fails.  A panel whose estimate is below its ``_rounding``
    is accepted too, and every accepted panel reports at least its
    rounding.  A polyline panel near a pole adds the rule's
    remainder on the pole's kernel (``_Polyline._pole_panel``) and is judged
    by its own product-integration estimate alone, ``_own_estimate``.  The
    estimate returned is the accepted panels' sum.  A pole's loop must be closed.
    """
    if pole is not None and not path.closed:
        raise ValueError("loop must be closed")
    split = pole if pole is None else (pole, *_pole_split(pole))  # once: the guard and each panel read it
    if split and isinstance(path, _SplitPath):
        guarded = path._guard(split)  # the whole loop, before any route or evaluation
        if f is None:  # 1/(u - a) alone: 2*pi*i per turn around a_w
            w = complex(0.0, _TWO_PI * path._pole_turns(split[1], guarded))
            return _from_split(w, 0.0), 0, _rounding([w], [0.0])
    if isinstance(path, _Circle):
        return _circle(f, path, tol, cap, guarded if split else None)
    g = _integrand(f, split)
    fw, fv, previous = [], [], None
    for fresh, dw, dv in path._levels(cap):
        nw, nv = map(list, zip(*(g(w, v, u) for w, v, u in fresh)))
        fw, fv = _interleaved(fw, nw), _interleaved(fv, nv)
        sw, sv = _exact_sum(list(map(mul, fw, dw)), list(map(mul, fv, dv)))
        if previous is not None and (error := _split_norm(sw - previous[0], sv - previous[1])) < tol:
            return _from_split(sw, sv), len(fw), error
        previous = sw, sv
    scale = tol / path.samples  # the tolerance of a panel one sample wide
    # (start, width, sw, sv, tw, tv, own): an evaluated panel; the starting ones
    # are evaluated as they are judged, after the first round's cap check
    panels = (_panel(g, path, float(p), 1.0, split) for p in range(path.samples))
    tw_all, tv_all, estimate, evaluations, failed = [], [], 0.0, len(fw), []
    count = path.samples  # the panels this round evaluates
    while count:
        evaluations += _ORDER * count
        if evaluations > cap:
            raise NonConvergent(f"quadrature did not settle below {tol} within {cap} evaluations")
        for a, h, sw, sv in failed:
            h /= 2.0
            left, right = (_panel(g, path, x, h, split) for x in (a, a + h))
            error = _split_norm(sw - left[2] - right[2], sv - left[3] - right[3])
            rounding = _rounding(left[4] + right[4], left[5] + right[5])
            if error <= 2.0 * h * scale or error <= rounding:
                tw_all += left[4] + right[4]
                tv_all += left[5] + right[5]
                estimate += max(error, rounding)
            else:
                panels += left, right
        failed = []
        for a, h, sw, sv, tw, tv, own in panels:
            # the tail reads the rule's 8 terms, a pole panel's own estimate its appended ones
            # too; either reports at least the panel's rounding
            error = _tail_estimate(tw, tv, h * scale) if own is None else _own_estimate(*own)
            rounding = _rounding(tw, tv)
            if error <= h * scale or error <= rounding:
                tw_all += tw
                tv_all += tv
                estimate += max(error, rounding)
            else:
                failed.append((a, h, sw, sv))
        panels, count = [], 2 * len(failed)
    return _from_split(*_exact_sum(tw_all, tv_all)), evaluations, estimate


def path_integral(f: TriFunction, path: Path3) -> Tricomplex:
    """Integral of f(u) du along the path.

    A closed loop takes the periodic trapezoid rule, with a parametric
    loop's trigonometric interpolant's tangent: each level doubles the
    nodes, evaluates only its new ones and is returned once it differs
    from the last by less than ``QUADRATURE_TOL`` in modulus.
    Other paths, and parametric loops unsettled by 8*samples nodes, take an
    8-point Gauss-Legendre rule from ``path.samples`` equal panels, with a
    polyline's segments or each panel's interpolating polynomial for
    tangent.  Only the panels whose own error estimate exceeds
    ``QUADRATURE_TOL`` times their share of the parameter range are halved.
    With a pole (``cauchy_value``, ``loop_integral_pole``), a polyline or
    a circle is checked whole before any evaluation: a vertex on the pole's
    singular line or plane, two on either side of that plane, an edge that
    line meets, a circle in that plane or one that line meets (within 1e-10
    of the radius) raises SingularOnPath.  A polyline panel adds the rule's
    closed-form remainder on 1/(u - a), times f's interpolant at the pole's
    panel parameter: it is exact for f of degree 7, so a pole near an edge
    costs no halving, and such a panel is judged by its own
    product-integration estimate.  A circle's levels sum the coefficients
    of the interpolant of f_w (times w - center_w without a pole, whose
    kernel is then the centre's) against the pole's kernel in closed form,
    so their count does not grow as the pole nears.
    NonConvergent is raised, before any evaluation, at a circle level of
    more than ``QUADRATURE_CAP`` nodes, or at a batch of panels that would
    take the evaluations, the trapezoid rule's included, past it.

    The quadrature runs in split coordinates: f(u) du is summed as the
    pair (f_w dw, f_v dv) on the transverse pair and the component sum.
    Circle and polyline nodes are made there, and f sees them joined to
    a Tricomplex; other paths give f their own points.
    """
    return _quadrature(f, path, QUADRATURE_TOL, QUADRATURE_CAP)[0]


def loop_integral_pole(a: Tricomplex, loop: Path3) -> Tricomplex:
    """Loop integral of du/(u - a).

    For a closed loop whose projection on the nodal plane winds n times
    around the projection of ``a``, the value is n times
    ``POLE_LOOP_VALUE``.  On a polyline or a circle it is 2*pi*i*n on the
    transverse pair and 0 on the component sum, joined once, without any
    evaluation, wherever ``a`` is: n is a circle's turns when a_w lies
    inside it, else 0, and a polyline's winding of its vertices' w around
    a_w.  Other loops take ``path_integral``'s rules with f = 1, and their
    quadrature result is returned as computed.  A loop that touches the
    singular plane or line through ``a``, or crosses that plane, raises
    SingularOnPath, a polyline or a circle before any evaluation (see
    ``path_integral``).
    An ``a`` whose component sum leaves the double range gives ``residue_sum``'s
    value; one whose transverse pair does raises winding_count's Overflow.
    """
    return _quadrature(None, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=a)[0]


def cauchy_value(f: TriFunction, a: Tricomplex, loop: Path3) -> Tricomplex:
    """Loop integral of f(u) du/(u - a), by ``path_integral``'s rules.

    For f analytic over a surface spanning the loop and a single
    positive turn, this equals POLE_LOOP_VALUE * f(a); componentwise it
    determines only the differences between f(a)'s components.  On a
    circle only f's transverse part is evaluated, and the levels resolve
    f alone: a pole 1e-6 of the radius from it costs what a far one does.
    ``a`` is taken as in ``loop_integral_pole``, and guarded before f.
    """
    return _quadrature(f, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=a)[0]


_ON_LOOP = "projected pole lies on (or too near) the projected loop"


def _winding_number(ws: list[complex], aw: complex, guard: float, gaps: Sequence[float] = ()) -> int:
    """Winding of the polygon through the transverse pairs ``ws`` around
    ``aw``: the sum of the angles its edges subtend.  A point within
    guard*(1 + the largest coordinate) of an edge, plus that edge's gap
    when ``gaps`` are given, raises AmbiguousWinding: at guard 0, only on an
    edge itself, for callers that have kept ``aw`` off the edges."""
    top = max(max(abs(w.real), abs(w.imag)) for w in (aw, *ws))
    scale = guard * (1.0 + top)
    if top > 2.0**500:  # counted on a copy scaled exactly, so that no product of differences overflows
        ws, aw, scale, gaps = _rescaled(lambda t: t, (ws, aw, scale, gaps), math.frexp(top)[1], 0, "a winding")
    total = 0.0
    for w0, w1, gap in zip(ws, ws[1:], gaps or [0.0] * len(ws)):
        d0, d1, e = w0 - aw, w1 - aw, w1 - w0
        # distance from the point to this edge
        ee = e.real * e.real + e.imag * e.imag
        t = 0.0 if ee == 0.0 else min(1.0, max(0.0, -(d0 * e.conjugate()).real / ee))
        if abs(d0 + t * e) <= scale + gap:
            raise AmbiguousWinding(_ON_LOOP)
        q = d0.conjugate() * d1
        total += math.atan2(q.imag, q.real)
    return round(total / _TWO_PI)


def winding_count(loop: Path3, point: Tricomplex) -> int:
    """Winding of the loop's nodal-plane projection around the
    projection of ``point``, taken on their transverse pairs w (the
    projections scaled by sqrt(3/2)).  Loops winding more than once
    report the integer multiplicity; an open loop raises ValueError.

    A circle's winding is closed form: ``turns`` when the point's a_w
    lies inside the circle's w, |a_w - center_w| < radius_w, else 0.  A
    polyline's comes from its split edges, and any other loop's from
    max(samples, 256) points on it.  A point whose a_w lies within
    1e-9*(1 + the largest coordinate) of the loop's w raises
    AmbiguousWinding.  A sampled loop of more than ``QUADRATURE_CAP``
    samples raises NonConvergent before any point is taken.  The point's
    a_w is ``_pole_split``'s: an a_w beyond the double range raises Overflow."""
    if not loop.closed:
        raise ValueError("loop must be closed")
    aw = _pole_split(point)[0]
    return loop._winding()(aw)


def residue_sum(poles: Sequence[PoleSpec], loop: Path3) -> Tricomplex:
    """Residue-theorem value of a loop integral: POLE_LOOP_VALUE times
    the winding-weighted sum of the residues whose projected poles the
    projected loop encloses.  Each winding is ``winding_count``'s; a
    sampled loop is sampled once, when the first pole needs it."""
    if not loop.closed:
        raise ValueError("loop must be closed")
    acc, winding = ZERO, None
    for pole in poles:
        aw = _pole_split(pole.location)[0]
        winding = winding or loop._winding()
        w = winding(aw)
        if w != 0:
            acc = acc + pole.residue * float(w)
    return POLE_LOOP_VALUE * acc
