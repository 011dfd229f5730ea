import cmath
import importlib.util
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tricomplex
from tricomplex import (
    AmbiguousWinding,
    H,
    K,
    NonConvergent,
    ONE,
    Overflow,
    POLE_LOOP_VALUE,
    Path3,
    PoleSpec,
    SingularOnPath,
    Tricomplex,
    TricomplexError,
    TriSeries,
    ZERO,
    ZeroDivisor,
    cauchy_value,
    check_analytic,
    derivative,
    eval_series,
    exp_series,
    inverse,
    loop_integral_pole,
    path_integral,
    residue_sum,
    taylor_recenter,
    tcos,
    texp,
    tsin,
    winding_count,
)
from tricomplex.calculus import (
    QUADRATURE_CAP,
    QUADRATURE_TOL,
    _GL_NODES,
    _GL_WEIGHTS,
    _ORDER,
    _ROUNDING,
    _fft,
    _interleaved,
    _integrand,
    _quadrature,
    _spectral,
    _winding_number,
)
from tricomplex.geometry import _TRANSVERSE_NORM, _TWO_PI, _from_split, _split_norm, _to_split
from util import XI1, XI2, random_triples, tri_err

SQRT3 = math.sqrt(3.0)

#: circle through the three axis unit points, centered on the trisector line
UNIT_LOOP = Path3.circle(Tricomplex(1 / 3, 1 / 3, 1 / 3), math.sqrt(2.0 / 3.0))


def test_pole_loop_value_constant():
    assert tri_err(POLE_LOOP_VALUE, (H - K) * (2.0 * math.pi / SQRT3)) < 1e-15


# -- derivative ---------------------------------------------------------------


def test_derivative_of_square():
    u0 = Tricomplex(1, 1, 0)
    got = derivative(lambda u: u * u, u0)
    assert tri_err(got, 2.0 * u0) < 1e-8


def test_derivative_of_constant_and_exp():
    c = Tricomplex(4.0, -1.0, 0.5)
    assert abs(derivative(lambda u: c, Tricomplex(1, 2, 3))) < 1e-12
    u0 = Tricomplex(0.3, 0.1, 0.2)
    assert tri_err(derivative(texp, u0), texp(u0)) < 1e-8


def test_derivative_direction_independent_for_powers():
    u0 = Tricomplex(0.7, -0.3, 0.4)
    want = 3.0 * u0 * u0
    for direction in (ONE, Tricomplex(1.0, 0.5, -0.25), Tricomplex(0.2, 1.1, 0.4)):
        got = derivative(lambda u: u * u * u, u0, direction=direction)
        assert tri_err(got, want) < 1e-8


def test_derivative_rejects_nodal_direction():
    with pytest.raises(ZeroDivisor):
        derivative(lambda u: u, ZERO, direction=Tricomplex(1, 1, 1))
    with pytest.raises(ZeroDivisor):
        derivative(lambda u: u, ZERO, direction=Tricomplex(1, -1, 0))


def test_derivative_step_must_be_finite_and_positive():
    # check_analytic's rule, checked before f is called
    f = Counted(texp)
    for step in (math.nan, math.inf, 0.0, -1e-5):
        with pytest.raises(ValueError, match="step must be finite"):
            derivative(f, ONE, step=step)
    assert f.calls == 0


def test_derivative_takes_small_steps_and_directions_near_the_trisector():
    # 2*step*direction lies within the trisector line's tolerance here,
    # though the direction itself is invertible
    want = texp(ONE)
    assert tri_err(derivative(texp, ONE, step=1e-7), want) < 1e-9
    assert tri_err(derivative(texp, ONE, direction=Tricomplex(1, 1.01, 1)), want) < 1e-8


def test_derivative_refuses_a_step_that_does_not_move_u0():
    # u0 +- 1e-17 is u0: the quotient would be zero whatever f is
    f = Counted(texp)
    with pytest.raises(ValueError, match="finer than the double spacing"):
        derivative(f, ONE, step=1e-17)
    assert f.calls == 0


# -- analyticity --------------------------------------------------------------


def test_check_analytic_square():
    report = check_analytic(lambda u: u * u, Tricomplex(1, 2, 3), step=1e-4)
    assert report.max_residual < 1e-6


def test_check_analytic_exp_and_powers():
    # box keeps |f| of order one: second differences carry a roundoff
    # floor of |f| * eps / step^2, about 1e-8 * |f| at this step
    rng = np.random.default_rng(163)
    for u0 in random_triples(rng, 20, lo=-0.5, hi=0.5, regular=True):
        assert check_analytic(texp, u0, step=1e-4).max_residual < 1e-6
        for m in range(1, 6):
            f = lambda u, m=m: u**m
            assert check_analytic(f, u0, step=1e-4).max_residual < 1e-6


def test_check_analytic_flags_projection():
    f = lambda u: Tricomplex(u.x, 0.0, 0.0)
    report = check_analytic(f, Tricomplex(0.3, -0.4, 0.9), step=1e-4)
    assert report.max_residual > 0.1


def test_report_lines():
    report = check_analytic(lambda u: u * u, Tricomplex(1, 0, 0), step=1e-4)
    lines = report.lines()
    assert len(lines) == 9
    assert lines[0].startswith("first_order_xy=")


# -- path integrals -----------------------------------------------------------


def test_integral_of_one_is_displacement():
    u1 = Tricomplex(2.0, -1.0, 0.5)
    seg = Path3.polyline([ZERO, u1])
    got = path_integral(lambda u: ONE, seg)
    assert tri_err(got, u1) < 1e-12


def test_antiderivative_and_path_independence():
    w = Tricomplex(0.6, 0.2, -0.3)
    direct = Path3.polyline([ZERO, w])
    dogleg = Path3.polyline(
        [ZERO, Tricomplex(1.0, 0.4, 0.2), Tricomplex(0.1, -0.5, 0.3), w]
    )
    want = texp(w) - ONE
    i1 = path_integral(texp, direct)
    i2 = path_integral(texp, dogleg)
    assert tri_err(i1, want) < 1e-8
    assert abs(i1 - i2) < 1e-7


def test_path_independence_several_functions():
    rng = np.random.default_rng(167)
    fns = [texp, lambda u: u * u, tsin]
    for _ in range(5):
        a = Tricomplex(*rng.uniform(-1, 1, 3))
        b = Tricomplex(*rng.uniform(-1, 1, 3))
        mid1 = Tricomplex(*rng.uniform(-1, 1, 3))
        mid2 = Tricomplex(*rng.uniform(-1, 1, 3))
        p1 = Path3.polyline([a, mid1, b])
        p2 = Path3.polyline([a, mid2, b])
        for f in fns:
            assert abs(path_integral(f, p1) - path_integral(f, p2)) < 1e-7


def test_closed_loop_of_analytic_function_vanishes():
    tri = Path3.polyline(
        [
            Tricomplex(1.0, 0.2, 0.1),
            Tricomplex(0.4, 1.1, 0.3),
            Tricomplex(0.2, 0.3, 1.2),
            Tricomplex(1.0, 0.2, 0.1),
        ],
        closed=True,
    )
    got = path_integral(lambda u: u * u, tri)
    assert abs(got) < 1e-8


def test_polyline_validation():
    with pytest.raises(ValueError):
        Path3.polyline([ONE])
    with pytest.raises(ValueError):
        Path3.polyline([ZERO, ONE], closed=True)


def test_replaced_polyline_needs_two_vertices():
    # the vertex count is checked where the polyline is made, so one remade
    # from a shortened vertex list is refused for what it lacks
    line = Path3.polyline([ZERO, ONE])
    with pytest.raises(ValueError, match="needs at least two vertices"):
        Path3.polyline(line.vertices[1:])


def test_closed_path_ends_must_meet():
    # a path made directly is checked as parametric and polyline paths are
    with pytest.raises(ValueError, match="endpoints do not match"):
        Path3(point_at=lambda t: Tricomplex(t, 0.0, 0.0), samples=4, closed=True)


def _large_ellipse():
    return _ellipse(Tricomplex(1.0, 2.0, 3.0), 1e4, 0.7e4), Tricomplex(1.0, 2.0, 3.0)


def _large_polygon():
    # the last vertex is the point at angle 2*pi, 1.7e-10 from the first
    c, r = Tricomplex(-2.0, 1.0, 0.5), 1e6
    ang = [2.0 * math.pi * k / 16 for k in range(17)]
    return Path3.polyline([c + XI1 * (r * math.cos(a)) + XI2 * (r * math.sin(a)) for a in ang], closed=True), c


@pytest.mark.parametrize("make", (_large_ellipse, _large_polygon))
def test_large_closed_loops_are_accepted(make):
    # their ends meet to the rounding of their size, not to 1e-12
    loop, center = make()
    pole = center + Tricomplex(1.0, 1.0, 1.0)
    assert winding_count(loop, pole) == 1
    assert abs(loop_integral_pole(pole, loop) - POLE_LOOP_VALUE) < 1e-9


# -- loop integrals around poles ----------------------------------------------


def test_unit_loop_around_origin():
    got = loop_integral_pole(ZERO, UNIT_LOOP)
    assert abs(got - POLE_LOOP_VALUE) < 1e-6


def test_powers_integrate_to_zero():
    a = ZERO
    for m in (-3, -2, 0, 1, 2):
        f = lambda u, m=m: tpow_int(u - a, m)
        got = path_integral(f, UNIT_LOOP)
        assert abs(got) < 1e-7


def tpow_int(u, m):
    if m >= 0:
        return u**m
    return inverse(u) ** (-m)


def test_loop_missing_the_pole_gives_zero():
    a = Tricomplex(4.0, 0.0, 0.0)  # projects well outside the unit loop
    got = loop_integral_pole(a, UNIT_LOOP)
    assert abs(got) < 1e-6
    assert winding_count(UNIT_LOOP, a) == 0


def _wobbly(lift):
    # component sum 1 + 3*lift*cos(2 ang)
    def wobble(t):
        ang = 2.0 * math.pi * t
        r = 1.0 + 0.3 * math.sin(3.0 * ang)
        h = lift * math.cos(2.0 * ang)
        base = Tricomplex(1 / 3 + h, 1 / 3 + h, 1 / 3 + h)
        xi1 = Tricomplex(2.0, -1.0, -1.0) * (1.0 / math.sqrt(6.0))
        xi2 = Tricomplex(0.0, 1.0, -1.0) * (1.0 / math.sqrt(2.0))
        return base + xi1 * (r * math.cos(ang)) + xi2 * (r * math.sin(ang))

    return Path3.parametric(wobble, samples=128, closed=True)


def test_loop_deformation_invariance():
    # the component sum stays at 0.1 or more, above the pole's 0
    a = Tricomplex(0.1, 0.0, -0.1)
    got = loop_integral_pole(a, _wobbly(0.3))
    want = loop_integral_pole(a, Path3.circle(a + Tricomplex(1, 1, 1), 1.0))
    assert abs(got - want) < 1e-6


def test_loop_through_the_singular_plane_is_rejected():
    # the component sum 1 + 1.2 cos(2 ang) crosses the pole's 0 four
    # times, where du/(u - a) is not integrable
    a = Tricomplex(0.1, 0.0, -0.1)
    with pytest.raises(SingularOnPath, match="crosses the singular plane"):
        loop_integral_pole(a, _wobbly(0.4))
    with pytest.raises(SingularOnPath, match="crosses the singular plane"):
        cauchy_value(texp, a, _wobbly(0.4))


def test_pointwise_differential_on_circle():
    # on a circle around the pole's line, du/(u-a) per unit angle is the
    # constant transverse unit (h-k)/sqrt(3)
    a = Tricomplex(0.2, -0.1, 0.3)
    center = a + Tricomplex(0.5, 0.5, 0.5)
    r = 0.8
    xi1 = Tricomplex(2.0, -1.0, -1.0) * (1.0 / math.sqrt(6.0))
    xi2 = Tricomplex(0.0, 1.0, -1.0) * (1.0 / math.sqrt(2.0))
    want = (H - K) * (1.0 / SQRT3)
    for ang in np.linspace(0.0, 2.0 * math.pi, 17):
        u = center + xi1 * (r * math.cos(ang)) + xi2 * (r * math.sin(ang))
        du_dphi = xi1 * (-r * math.sin(ang)) + xi2 * (r * math.cos(ang))
        got = du_dphi * inverse(u - a)
        assert abs(got - want) < 1e-8


def test_singular_loop_is_rejected():
    # circle centered at the pole itself lies in the singular plane
    loop = Path3.circle(ZERO, 1.0)
    with pytest.raises(SingularOnPath):
        loop_integral_pole(ZERO, loop)


def test_loop_through_the_singular_line_is_rejected():
    # the first Gauss-Legendre node of the first edge lands on the
    # trisector line x = y = z, the singular line through the pole at 0
    c = _GL_NODES[0]
    line, d = Tricomplex(1, 1, 1), Tricomplex(1, -1, 0)
    corners = [line - d * c, line + d * (1 - c), Tricomplex(2, 0, 1)]
    loop = Path3.polyline(corners + corners[:1], closed=True)
    with pytest.raises(SingularOnPath, match="singular line"):
        loop_integral_pole(ZERO, loop)


def test_multi_turn_loop():
    loop = Path3.circle(Tricomplex(1, 1, 1), 1.0, turns=2)
    got = loop_integral_pole(ZERO, loop)
    assert abs(got - 2.0 * POLE_LOOP_VALUE) < 1e-6
    assert winding_count(loop, ZERO) == 2


class Counted:
    """Callable that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def test_readme_circle_takes_few_evaluations():
    # the trapezoid rule with the exact tangent converges exponentially;
    # circle nodes are made in split coordinates, so count the evaluations
    # the refinement loop reports instead of calls to point_at
    got, evaluations, _ = _quadrature(None, UNIT_LOOP, QUADRATURE_TOL, QUADRATURE_CAP, pole=ZERO)
    assert got == loop_integral_pole(ZERO, UNIT_LOOP)
    assert abs(got - POLE_LOOP_VALUE) < 1e-14
    assert evaluations <= 32


def test_circle_takes_the_trapezoid_rule():
    # on a smooth periodic loop the trapezoid rule needs far fewer nodes
    # than Gauss-Legendre panels, which take 248 calls here
    a = Tricomplex(0.5, 0.1, 0.1)
    f = Counted(texp)
    got = cauchy_value(f, a, Path3.circle(a + Tricomplex(1, 1, 1), 1.2))
    assert abs(got - POLE_LOOP_VALUE * texp(a)) < 1e-12
    assert f.calls <= 64


def _refuses_derived(path, name, value):
    """Neither public constructor of ``path``'s kind takes the derived
    field ``name``, and setting it on ``path`` raises AttributeError."""
    with pytest.raises(TypeError):
        if hasattr(path, "turns"):
            Path3.circle(path.center, path.radius, path.turns, **{name: value})
        else:
            Path3.polyline(path.vertices, path.closed, **{name: value})
    with pytest.raises(AttributeError):
        setattr(path, name, value)


def test_circles_and_polylines_are_made_from_their_data():
    # point_at and tangent_at follow the defining data, and cannot be
    # set apart from it
    square = _square(ZERO)
    for path in (UNIT_LOOP, square):
        for name in ("point_at", "tangent_at"):
            _refuses_derived(path, name, lambda t: ZERO)
    # nor can a polyline's segment count or a circle's closedness
    for path, name, value in ((square, "samples", 8), (UNIT_LOOP, "closed", False)):
        _refuses_derived(path, name, value)
    moved = Path3.circle(UNIT_LOOP.center + ONE, UNIT_LOOP.radius, UNIT_LOOP.turns)
    assert tri_err(moved.point_at(0.3), UNIT_LOOP.point_at(0.3) + ONE) < 1e-15
    assert abs(loop_integral_pole(ONE, moved) - POLE_LOOP_VALUE) < 1e-14
    shifted = Path3.polyline([v + ONE for v in square.vertices], closed=square.closed)
    assert tri_err(shifted.point_at(0.3), square.point_at(0.3) + ONE) < 1e-15
    assert tri_err(shifted.tangent_at(0.3), square.tangent_at(0.3)) < 1e-15


def test_circle_start_does_not_depend_on_samples():
    # the trapezoid rule starts from the turns, and a circle's winding is
    # closed form: neither reads samples, which follow from the turns
    assert UNIT_LOOP.samples == 64
    _refuses_derived(UNIT_LOOP, "samples", 4)
    with pytest.raises(ValueError):
        Path3.circle(UNIT_LOOP.center, UNIT_LOOP.radius, turns=0)
    _refuses_derived(UNIT_LOOP, "tangent_at", None)


def test_quadrature_report():
    value, evaluations, error = _quadrature(inverse, UNIT_LOOP, QUADRATURE_TOL, QUADRATURE_CAP)
    assert value == path_integral(inverse, UNIT_LOOP)
    assert evaluations == 16
    assert error < QUADRATURE_TOL


@pytest.mark.parametrize("turns", [1, 2, 3, -2])
def test_multi_turn_circles_evaluate_each_node_once(turns):
    # the nodes of k turns repeat every turn, and a level evaluates only
    # its new nodes: the README circle costs its 16 evaluations, its last
    # level's nodes, at any number of turns
    f = Counted(inverse)
    loop = Path3.circle(UNIT_LOOP.center, UNIT_LOOP.radius, turns)
    value, evaluations, error = _quadrature(f, loop, QUADRATURE_TOL, QUADRATURE_CAP)
    assert evaluations == f.calls == 16
    assert tri_err(value, POLE_LOOP_VALUE * float(turns)) < 1e-14
    assert error < QUADRATURE_TOL


@pytest.mark.parametrize("turns", [1, 2, -2])
def test_circle_without_a_pole_is_the_kernel_at_its_centre(turns):
    # f(u) du is f_w*(w - center_w) dw/(w - center_w), the pole rule with
    # α = 0: the value is exact, 0 for an entire f and the winding around 0
    # times POLE_LOOP_VALUE for inverse, and the estimate is at least the
    # rounding of the last level's values summed
    rng = np.random.default_rng(27)
    for _ in range(10):
        r = rng.uniform(0.5, 2.0)
        q = r * (rng.uniform(0.0, 0.8) if rng.random() < 0.5 else rng.uniform(1.25, 3.0))
        center = _near(ZERO, q, rng.uniform(0.0, 2 * math.pi), rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0))
        loop = Path3.circle(center, r, turns)
        for f in (texp, tsin, inverse, lambda u: u * u):
            got, evaluations, estimate = _quadrature(f, loop, QUADRATURE_TOL, QUADRATURE_CAP)
            want = POLE_LOOP_VALUE * float(turns if q < r else 0) if f is inverse else ZERO
            assert abs(got - want) <= estimate
            n = evaluations * abs(turns)
            offsets = [cmath.rect(loop.radius_w, _TWO_PI * turns * (i / n)) for i in range(evaluations)]
            values = [_to_split(f(_from_split(loop.center_w + e, loop.center_v)))[0] * e for e in offsets]
            assert estimate >= _ROUNDING * _TRANSVERSE_NORM * _TWO_PI * abs(turns) * sum(map(abs, values)) / evaluations
    # only c_0 is read: f_w*(w - center_w) of 3e307 overflows the coefficient
    # of frequency 1, yet the integral, 0, comes within its rounding
    loop = Path3.circle(UNIT_LOOP.center, UNIT_LOOP.radius, turns)
    got, _, estimate = _quadrature(lambda u: Tricomplex(3e307, 0.0, 0.0), loop, math.inf, QUADRATURE_CAP)
    assert abs(got) <= estimate < 1e296


def _near(center, q, ang, lift):
    """The point q from ``center`` in the nodal plane's direction ang, lifted by lift along the trisector."""
    return center + XI1 * (q * math.cos(ang)) + XI2 * (q * math.sin(ang)) + Tricomplex(lift, lift, lift)


@pytest.mark.parametrize("turns", [1, 2, -2])
def test_circle_cost_does_not_grow_as_the_pole_nears(turns):
    # f's coefficients are summed against the pole's kernel, so the nodes
    # resolve f alone: as many at a gap of 1e-6 of the radius as at 1e-1
    loop = Path3.circle(UNIT_LOOP.center, UNIT_LOOP.radius, turns)
    for gap in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        for inside in (True, False):
            pole = _near(loop.center, loop.radius * (1.0 - gap if inside else 1.0 + gap), 0.7, 0.4)
            for f, most in ((None, 16), (texp, 64), (tsin, 64)):
                got, evaluations, _ = _quadrature(f, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=pole)
                assert evaluations <= most
                want = POLE_LOOP_VALUE * (turns if inside else 0.0) * (ONE if f is None else f(pole))
                assert abs(got - want) < 1e-13


@st.composite
def circles_near_poles(draw):
    # a circle, and a pole 10**U(-8, 0) of its radius inside or outside it,
    # off its plane; the pole's winding is known from the construction
    c = Tricomplex(*(draw(st.floats(-1.0, 1.0)) for _ in range(3)))
    r, turns, inside = draw(st.floats(0.5, 2.0)), draw(st.sampled_from((1, 2, -2))), draw(st.booleans())
    gap = 10.0 ** draw(st.floats(-8.0, 0.0))
    lift = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.2, 1.0))
    pole = _near(c, r * (1.0 - gap if inside else 1.0 + gap), draw(st.floats(0.0, 2 * math.pi)), lift)
    return Path3.circle(c, r, turns), pole, turns if inside else 0


@settings(max_examples=60, deadline=None)
@given(case=circles_near_poles())
def test_near_pole_circle_estimate_bounds_its_error(case):
    # the value is within the reported estimate, or the rounding of one
    # turn's value POLE_LOOP_VALUE * f(a) per turn (the want of a pole
    # outside is 0), of the residue theorem's, however near the pole
    loop, pole, n = case
    cubic = lambda u: u * u * u - u * 0.5 + ONE  # noqa: E731
    for f in (None, texp, tsin, cubic):
        at = ONE if f is None else f(pole)
        got, _, estimate = _quadrature(f, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=pole)
        error = abs(got - POLE_LOOP_VALUE * at * float(n))
        assert error <= max(estimate, 64 * sys.float_info.epsilon * abs(POLE_LOOP_VALUE) * abs(at) * max(1, abs(n)))


def test_pole_at_the_circle_center():
    # α = 0: the sum is f's mean over a turn, f None's as for any pole inside
    for turns in (1, -2):
        loop = Path3.circle(UNIT_LOOP.center, UNIT_LOOP.radius, turns)
        pole, aside = _near(loop.center, 0.0, 0.0, 0.5), _near(loop.center, 0.5 * loop.radius, 1.0, 0.5)
        got, evaluations, _ = _quadrature(None, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=pole)
        assert got == loop_integral_pole(aside, loop)
        assert evaluations == 0
        assert _quadrature(lambda u: ONE, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=pole)[1] == 16
        assert tri_err(got, POLE_LOOP_VALUE * float(turns)) < 1e-15
        assert tri_err(cauchy_value(texp, pole, loop), POLE_LOOP_VALUE * texp(pole) * float(turns)) < 1e-14


def test_circle_pole_route_keeps_its_errors_and_range():
    # an f that fails at a node, a sum beyond the double range and a cap
    # below the next level raise as on the other routes; near the top of
    # the range, where |a_w - center_w| + radius_w overflows, α comes from
    # a scaled copy
    pole = _near(UNIT_LOOP.center, 0.3, 0.0, 0.5)
    for exc in (Overflow("f overflows"), ZeroDivisor("f divides by zero", None)):

        def f(u, exc=exc):
            raise exc

        with pytest.raises(SingularOnPath, match="integrand blows up"):
            cauchy_value(f, pole, UNIT_LOOP)
    with pytest.raises(SingularOnPath, match="leaves the double range"):
        cauchy_value(lambda u: Tricomplex(1e308, 0.0, 0.0), pole, UNIT_LOOP)
    for cap, calls in ((4, 0), (8, 8)):
        counted = Counted(texp)
        with pytest.raises(NonConvergent):
            _quadrature(counted, UNIT_LOOP, 1e-16, cap, pole=pole)
        assert counted.calls == calls
    top = Path3.circle(Tricomplex(0.0, 1e308, -1e308), 1e308)
    assert loop_integral_pole(Tricomplex(1e300, 0.13e308 + 1e300, 1e300 - 0.13e308), top) == ZERO
    inside = loop_integral_pole(Tricomplex(1e300, 0.9e308 + 1e300, 1e300 - 0.9e308), top)
    assert inside == loop_integral_pole(pole, UNIT_LOOP)


def test_circle_winding_past_the_range_keeps_its_guard_in_range():
    # on the circle above, |center_w| + radius_w overflows: the winding's
    # guard is taken on halves, so the two poles wind 0 and 1 times instead
    # of lying on the loop
    top = Path3.circle(Tricomplex(0.0, 1e308, -1e308), 1e308)
    outside = Tricomplex(1e300, 0.13e308 + 1e300, 1e300 - 0.13e308)
    inside = Tricomplex(1e300, 0.9e308 + 1e300, 1e300 - 0.9e308)
    assert [winding_count(top, pole) for pole in (outside, inside)] == [0, 1]
    assert residue_sum([PoleSpec(inside, ONE)], top) == POLE_LOOP_VALUE


def test_circle_past_the_range_in_the_poles_plane_names_its_centre():
    # the point the message would name leaves the double range: the circle's
    # centre is named, and the plane is still reported before any evaluation
    from tricomplex.cli import run

    center = Tricomplex(1e308, -1e308, 0.0)
    loop = Path3.circle(center, 1e308)
    counted = Counted(texp)
    for run_it in (lambda: loop_integral_pole(center, loop), lambda: cauchy_value(counted, center, loop)):
        with pytest.raises(SingularOnPath, match="touches the singular plane .* on the circle around"):
            run_it()
    assert counted.calls == 0
    assert run(["integrate", "--pole", "(1e308,-1e308,0)", "--loop", "circle:center=(1e308,-1e308,0),radius=1e308"]) == 1


def _reference_circle(f, path, tol, cap, pole=None):
    """``_circle`` with whole levels: each level evaluates all of one turn's
    nodes, transforms f's transverse parts, times w - center_w without a
    pole, and sums them against α, 0 without a pole.  Returns the value,
    the error estimate and the last level's nodes per turn."""
    k = abs(path.turns)
    n, previous = _ORDER * k, None
    g = _integrand(f, None)
    inside, x = path._pole(pole) if pole is not None else (True, 0j)
    while n <= cap:
        m = n // k
        offsets = [cmath.rect(path.radius_w, _TWO_PI * path.turns * (i / n)) for i in range(m)]
        values = [1.0 if f is None else g(path.center_w + e, path.center_v, None)[0] for e in offsets]
        if pole is None:
            values = [value * e for value, e in zip(values, offsets)]
        c = _fft(values, _spectral(m, m)[0])
        terms = c[: m // 2 + 1] if inside == (path.turns > 0) else [c[0], *c[: m // 2 - 1 : -1]]
        total = 0j
        for t in reversed(terms if inside else [0.0, *terms[1:]]):
            total = total * x + t
        total *= complex(0.0, (1.0 if inside else -1.0) * _TWO_PI * path.turns / m)
        if not cmath.isfinite(total):
            raise SingularOnPath(f"the integral over {m} nodes leaves the double range")
        if previous is not None and (error := _split_norm(total - previous, 0.0)) < tol:
            rounding = _ROUNDING * _TRANSVERSE_NORM * _TWO_PI * k * sum(map(abs, values)) / m
            return _from_split(total, 0.0), max(error, rounding), m
        previous = total
        n *= 2
    raise NonConvergent(f"quadrature did not settle below {tol} within {cap} nodes")


def _seeded_circles():
    """(loop, f, pole, tol, cap) on seeded circles: the pole inside, outside,
    absent, or on the circle's w at node 1 of the second level; the last
    tolerance is out of reach within the cap."""
    rng = np.random.default_rng(18)
    for turns in (1, 2, 3, -2):
        for f in (None, texp, inverse):
            for place in ("inside", "outside", "none", "node"):
                if f is None and place == "none":
                    continue
                for tol, cap in ((QUADRATURE_TOL, QUADRATURE_CAP), (1e-13, QUADRATURE_CAP), (1e-16, 64 * abs(turns))):
                    c = Tricomplex(*rng.uniform(-1.0, 1.0, 3))
                    r = rng.uniform(0.5, 2.0)
                    loop = Path3.circle(c, r, turns=turns)
                    ang, lift = rng.uniform(0.0, 2 * math.pi), rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
                    q = r * (rng.uniform(0.0, 0.9) if place == "inside" else rng.uniform(1.1, 3.0))
                    pole = c + XI1 * (q * math.cos(ang)) + XI2 * (q * math.sin(ang))
                    if place == "node":
                        pole = loop.point_at(1.0 / (2 * _ORDER * abs(turns)))
                    pole = None if place == "none" else pole + Tricomplex(lift, lift, lift)
                    yield loop, f, pole, tol, cap


def _outcome(run):
    try:
        value, error, count = run()
    except TricomplexError as exc:
        return type(exc), str(exc)
    return tuple(map(float.hex, (value.x, value.y, value.z))), error.hex(), count


def test_circle_levels_match_whole_levels():
    # a level evaluates and transforms only its odd nodes, and joins that
    # to the last level's transform: values, error estimates and exceptions
    # are those of whole levels, and the evaluations are the last level's
    # nodes per turn.  1/(u - a) alone runs its levels with f = 1, as f None
    # takes the closed form: the whole levels' value or exception, from no
    # evaluation
    def nested():
        value, evaluations, error = _quadrature(counted, loop, tol, cap, pole)
        assert counted.calls == evaluations
        return value, error, evaluations

    kinds = set()
    for loop, f, pole, tol, cap in _seeded_circles():
        g = f or (lambda u: ONE)
        counted = Counted(g)
        want = _outcome(lambda: _reference_circle(g, loop, tol, cap, pole))
        assert _outcome(nested) == want
        kinds.add(want[0] if isinstance(want[0], type) else "value")
        if f is None:
            old = _outcome(lambda: _reference_circle(None, loop, tol, cap, pole))
            try:
                value, evaluations, _ = _quadrature(None, loop, tol, cap, pole)
            except TricomplexError as exc:
                assert old == (type(exc), str(exc))
            else:
                assert (tuple(map(float.hex, (value.x, value.y, value.z))), evaluations) == (old[0], 0)
    assert kinds == {"value", NonConvergent, SingularOnPath}


def _square(center):
    xi1 = Tricomplex(2.0, -1.0, -1.0) * (1.0 / math.sqrt(6.0))
    xi2 = Tricomplex(0.0, 1.0, -1.0) * (1.0 / math.sqrt(2.0))
    corners = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 0))
    return Path3.polyline([center + xi1 * a + xi2 * b for a, b in corners], closed=True)


def test_kinks_on_panel_edges_without_tangent():
    # the square's corners fall on panel edges, and each panel's tangent
    # comes from its interpolating polynomial
    square = _square(Tricomplex(-1 / 3, -1 / 3, -1 / 3))
    loop = Path3.parametric(square.point_at, samples=4, closed=True)
    assert loop.tangent_at is None
    got = loop_integral_pole(ZERO, loop)
    assert abs(got - POLE_LOOP_VALUE) < 1e-12
    assert abs(loop_integral_pole(ZERO, square) - POLE_LOOP_VALUE) < 1e-12


def _ellipse(center, a, b):
    def at(t):
        ang = 2.0 * math.pi * t
        return center + XI1 * (a * math.cos(ang)) + XI2 * (b * math.sin(ang))

    return Path3.parametric(at, samples=64, closed=True)


def _lifted_ellipse(samples, lift=lambda t: 0.0):
    """An ellipse of semi-axes 1.2 and 0.8 around (1, 1, 1), its component sum raised by lift(t)."""

    def at(t):
        ang, s = 2.0 * math.pi * t, lift(t) / 3.0
        return Tricomplex(1.0 + s, 1.0 + s, 1.0 + s) + XI1 * (1.2 * math.cos(ang)) + XI2 * (0.8 * math.sin(ang))

    return Path3.parametric(at, samples=samples, closed=True)


def test_sampled_loop_node_on_the_singular_line_is_rejected_before_f():
    # the pole projects onto the loop's point at t = 0.25, the third node of
    # the first trapezoid level: f sees the two nodes before it, not that one
    loop = _lifted_ellipse(16)
    seen = []
    pole = loop.point_at(0.25) + Tricomplex(0.5, 0.5, 0.5)
    with pytest.raises(SingularOnPath, match="touches the singular line"):
        cauchy_value(lambda u: seen.append(u) or texp(u), pole, loop)
    assert seen == [loop.point_at(0.0), loop.point_at(0.125)]


def test_sampled_loop_node_in_the_singular_plane_is_rejected_before_f():
    # the component sum is the pole's plus 0.2(1 - cos 2 pi t): the first node
    # lies in the pole's singular plane, and the loop never crosses it
    loop = _lifted_ellipse(16, lambda t: 0.2 * (1.0 - math.cos(2.0 * math.pi * t)))
    seen, pole = [], Tricomplex(1.0, 1.0, 1.0)
    with pytest.raises(SingularOnPath, match="touches the singular plane"):
        cauchy_value(lambda u: seen.append(u) or texp(u), pole, loop)
    assert seen == []
    with pytest.raises(SingularOnPath, match="touches the singular plane"):
        loop_integral_pole(pole, loop)


def test_pole_whose_component_sum_leaves_the_range():
    # a_v is +inf and 1/(v - a_v) zero on every path, a_w = 0 lies inside each
    # loop: the integrals are the residue theorem's, on all three path kinds
    pole = Tricomplex(1e308, 1e308, 1e308)
    center = Tricomplex(1.0, 1.0, 1.0)
    square = [center + XI1 * math.cos(k * math.pi / 2) + XI2 * math.sin(k * math.pi / 2) for k in range(5)]
    loops = (Path3.circle(center, 1.0), Path3.polyline(square, closed=True), _lifted_ellipse(16))
    for loop in loops:
        want = residue_sum([PoleSpec(pole, ONE)], loop)
        assert abs(want - POLE_LOOP_VALUE) < 1e-15
        assert abs(loop_integral_pole(pole, loop) - want) < 1e-12
        assert abs(cauchy_value(texp, pole, loop) - want) < 1e-12
    # a transverse pair beyond the range raises Overflow, the same from both
    far = Tricomplex(1e308, -1e308, -1e308)
    for loop in loops:
        for run in (lambda: winding_count(loop, far), lambda: loop_integral_pole(far, loop)):
            with pytest.raises(Overflow, match=r"^the transverse pair of \(1e\+308,-1e\+308,-1e\+308\) leaves"):
                run()


def test_circle_whose_transverse_radius_leaves_the_range_raises_when_made():
    # radius/sqrt(2/3) overflows above about 1.4678e308: such a circle raises
    # Overflow when made, where each winding of it raised AmbiguousWinding
    from tricomplex.cli import run

    center = Tricomplex(1.0, 1.0, 1.0)
    with pytest.raises(Overflow, match="transverse radius"):
        Path3.circle(center, 1.5e308)
    assert winding_count(Path3.circle(center, 1.4e308), center) == 1
    loop = ["--loop", "circle:center=(1,1,1),radius=1.5e308"]
    assert run(["integrate", "--pole", "(0,0,0)", *loop]) == 1


def test_sampled_loop_near_the_top_of_the_range():
    # the loop's component sums, 1.5e308, overflow the transform's sums and the
    # panels' differences: both take a copy scaled by a power of two.  The pole
    # projects onto the centre, its component sum 3e307 below the loop's
    center = Tricomplex(5e307, 5e307, 5e307)

    def at(t):
        ang = 2.0 * math.pi * t
        return center + XI1 * (1e307 * math.cos(ang)) + XI2 * (1e307 * math.sin(ang))

    loop = Path3.parametric(at, samples=16, closed=True)
    _, dw, dv = next(loop._levels(QUADRATURE_CAP))
    assert all(map(cmath.isfinite, dw)) and all(map(math.isfinite, dv))
    assert abs(path_integral(lambda u: ONE, loop)) <= 256 * sys.float_info.epsilon * abs(center)
    assert abs(loop_integral_pole(Tricomplex(4e307, 4e307, 4e307), loop) - POLE_LOOP_VALUE) < 1e-9


def test_loop_that_stays_at_one_point_near_the_top_of_the_range():
    # w is 0 at every node and the component sums' transform overflows to NaN
    # alone, which the coefficient sizes, each the larger of w's and v's, drop
    loop = Path3.parametric(lambda t: Tricomplex(5e307, 5e307, 5e307), 16, True)
    assert path_integral(lambda u: ONE, loop) == ZERO


def test_level_sum_beyond_the_range_raises():
    # each term of a constant near the top of the range times a step fits,
    # their exactly rounded sum over the first level's 8 nodes does not
    loop = _lifted_ellipse(8)
    with pytest.raises(SingularOnPath, match="the integral over 8 nodes leaves the double range"):
        path_integral(lambda u: Tricomplex(8e307, -4e307, -4e307), loop)


def test_smooth_loop_settles_on_its_first_panels():
    # a smooth ellipse without a tangent takes the trapezoid rule on its
    # trigonometric interpolant, 64 evaluations; its 64 starting panels
    # took 512, and whole-level doubling 512 + 1024
    loop = _ellipse(Tricomplex(-1 / 3, -1 / 3, -1 / 3), 1.2, 0.8)
    got, evaluations, error = _quadrature(None, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=ZERO)
    assert evaluations <= 640
    assert abs(got - POLE_LOOP_VALUE) < 1e-12
    assert error < QUADRATURE_TOL


def test_kinked_loop_takes_at_most_one_round_of_points_before_its_panels():
    # the square's trigonometric coefficients never fall to rounding: the
    # trapezoid rule takes no integrand value and at most the 8*4 points
    # of the panels' first round before the panels take over unchanged
    square = _square(Tricomplex(-1 / 3, -1 / 3, -1 / 3))
    points = Counted(square.point_at)
    loop = Path3.parametric(points, samples=4, closed=True)
    points.calls = 0  # the endpoint check when the loop is made
    got, evaluations, _ = _quadrature(None, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=ZERO)
    assert evaluations == 224
    assert points.calls <= evaluations + 32
    assert abs(got - POLE_LOOP_VALUE) < 1e-12


def test_pole_near_a_sampled_loop_costs_at_most_one_round_more():
    # with the pole 1e-3 inside the ellipse the trapezoid rule would need
    # 65536 nodes: it stops at 8*64 and the panels take their 1296
    c = Tricomplex(-1 / 3, -1 / 3, -1 / 3)
    pole = c + XI1 * (1.2 - 1e-3) + Tricomplex(0.5, 0.5, 0.5)
    got, evaluations, _ = _quadrature(None, _ellipse(c, 1.2, 0.8), QUADRATURE_TOL, QUADRATURE_CAP, pole=pole)
    assert evaluations <= 1296 + 8 * 64
    assert abs(got - POLE_LOOP_VALUE) < QUADRATURE_TOL


@pytest.mark.parametrize("inside", [True, False])
def test_benchmark_like_ellipse_settles_within_128_evaluations(inside):
    # an ellipse without a tangent whose component sum wobbles at three
    # times its angle, as the benchmark's parametric loops do
    c, a, b = Tricomplex(0.2, 0.2, 0.2), 1.1, 0.8

    def at(t):
        ang = 2.0 * math.pi * t
        h = 0.03 * math.sin(3.0 * ang)
        return c + XI1 * (a * math.cos(ang)) + XI2 * (b * math.sin(ang)) + Tricomplex(h, h, h)

    q = 0.1 if inside else 2.2 * a
    pole = c + XI1 * (q * math.cos(1.0)) + XI2 * (q * math.sin(1.0)) + Tricomplex(0.4, 0.4, 0.4)
    loop = Path3.parametric(at, samples=64, closed=True)
    for f, want in ((None, POLE_LOOP_VALUE), (texp, POLE_LOOP_VALUE * texp(pole))):
        got, evaluations, error = _quadrature(f, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=pole)
        assert evaluations <= 128
        assert error < QUADRATURE_TOL
        assert abs(got - want * float(inside)) < 1e-13


def test_levels_the_resolution_grid_does_not_resolve_are_skipped():
    # the loop's frequency-8 ripple aliases to its center at 8 nodes; the
    # 128-point grid that its 64 samples resolve shows it, so levels 8 and
    # 16 are skipped, and the levels after take each point's integrand once
    c = Tricomplex(0.2, 0.2, 0.2)

    def at(t):
        ang = 2.0 * math.pi * t
        return c + XI1 * (math.cos(ang) + 0.01 * math.cos(8 * ang)) + XI2 * (math.sin(ang) + 0.01 * math.sin(8 * ang))

    points, f = Counted(at), Counted(texp)
    loop = Path3.parametric(points, samples=64, closed=True)
    pole = c + XI1 * 0.3 + Tricomplex(0.5, 0.5, 0.5)
    points.calls = 0  # the endpoint check when the loop is made
    got, evaluations, error = _quadrature(f, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=pole)
    assert abs(got - POLE_LOOP_VALUE * texp(pole)) < 1e-13
    assert error < QUADRATURE_TOL
    assert evaluations == f.calls == points.calls == 128
    fresh, dw, _ = next(loop._levels(QUADRATURE_CAP))
    assert len(fresh) == len(dw) == 32


def test_ripple_the_first_levels_alias_is_resolved():
    # at 8 and 16 nodes the frequency-16 ripple folds onto the center, so
    # those levels see a unit circle 20 from the pole and agree on 0; the
    # grid of 2*samples points shows the ripple, and the loop winds 16 times
    c = Tricomplex(0.2, 0.2, 0.2)

    def at(t):
        ang = 2.0 * math.pi * t
        return c + XI1 * (math.cos(ang) + 20.0 * math.cos(16 * ang)) + XI2 * (math.sin(ang) + 20.0 * math.sin(16 * ang))

    loop, pole = Path3.parametric(at, samples=64, closed=True), c + Tricomplex(0.5, 0.5, 0.5)
    assert winding_count(loop, pole) == 16
    got, _, error = _quadrature(None, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=pole)
    assert error < QUADRATURE_TOL
    assert abs(got - POLE_LOOP_VALUE * 16.0) < 1e-12


def test_kinked_loop_stops_its_levels_at_the_resolution_grid():
    # the square's coefficients decay only algebraically: on the grid of
    # 128 points they would not reach rounding by 512 nodes, so the levels
    # stop there, without an integrand value, and the panels take their 512
    square = _square(Tricomplex(-1 / 3, -1 / 3, -1 / 3))
    points = Counted(square.point_at)
    loop = Path3.parametric(points, samples=64, closed=True)
    points.calls = 0  # the endpoint check when the loop is made
    got, evaluations, _ = _quadrature(None, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=ZERO)
    assert (evaluations, points.calls) == (512, 512 + 128)
    assert abs(got - POLE_LOOP_VALUE) < 1e-12


def test_panel_cap_counts_the_trapezoid_evaluations():
    # the trapezoid rule spends 512 evaluations near the pole; the panels'
    # first round of 512 more would pass a cap of 1000, so it is not taken
    c = Tricomplex(-1 / 3, -1 / 3, -1 / 3)
    pole = c + XI1 * (1.2 - 1e-3) + Tricomplex(0.5, 0.5, 0.5)
    f = Counted(texp)
    with pytest.raises(NonConvergent):
        _quadrature(f, _ellipse(c, 1.2, 0.8), QUADRATURE_TOL, 1000, pole=pole)
    assert f.calls == 512


def test_interleaved_keeps_the_last_level_every_rth_node():
    assert _interleaved([], [1, 2]) == [1, 2]
    assert _interleaved([0, 4], [1, 2, 3, 5, 6, 7]) == list(range(8))
    assert _interleaved([0, 2, 4], [1, 3, 5]) == list(range(6))


@pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
def test_fft_is_the_discrete_fourier_transform(n):
    rng = np.random.default_rng(n)
    a = list(rng.normal(size=n) + 1j * rng.normal(size=n))
    roots = [complex(np.exp(-2j * np.pi * j / n)) for j in range(n // 2)]
    assert np.allclose(_fft(a, roots), np.fft.fft(a), rtol=0.0, atol=1e-12 * n)
    back = [r.conjugate() for r in roots]
    assert np.allclose(_fft(a, back), n * np.fft.ifft(a), rtol=0.0, atol=1e-12 * n)


def _regular_polygon(center, r, nseg):
    verts = [
        center + XI1 * (r * math.cos(2 * math.pi * k / nseg)) + XI2 * (r * math.sin(2 * math.pi * k / nseg))
        for k in range(nseg)
    ]
    return Path3.polyline(verts + verts[:1], closed=True)


def test_panels_near_a_pole_are_refined_on_their_own():
    # the projected pole lies 1% of the radius inside the middle of one
    # edge; whole-level doubling took 16256 evaluations
    c, r, nseg = Tricomplex(0.5, 0.5, 0.5), 1.0, 16
    loop = _regular_polygon(c, r, nseg)
    q = 0.99 * r * math.cos(math.pi / nseg)
    ang = math.pi / nseg
    pole = c + XI1 * (q * math.cos(ang)) + XI2 * (q * math.sin(ang)) + Tricomplex(0.2, 0.2, 0.2)
    got, evaluations, _ = _quadrature(None, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=pole)
    assert evaluations <= 1000
    assert abs(got - POLE_LOOP_VALUE) < QUADRATURE_TOL


@pytest.mark.parametrize("f", [None, texp])
@pytest.mark.parametrize("gap", [1e-2, 1e-4])
def test_pole_near_a_polyline_edge_costs_the_same_at_any_distance(gap, f):
    # each panel adds the Gauss rule's closed-form remainder on 1/(u - a),
    # so the panel next to the pole is not halved down to its distance
    c, r, nseg = Tricomplex(0.5, 0.5, 0.5), 1.0, 16
    q, ang = (1.0 - gap) * r * math.cos(math.pi / nseg), math.pi / nseg
    pole = c + XI1 * (q * math.cos(ang)) + XI2 * (q * math.sin(ang)) + Tricomplex(0.2, 0.2, 0.2)
    got, evaluations, _ = _quadrature(f, _regular_polygon(c, r, nseg), QUADRATURE_TOL, QUADRATURE_CAP, pole=pole)
    assert evaluations <= 160
    assert abs(got - POLE_LOOP_VALUE * (ONE if f is None else texp(pole))) < QUADRATURE_TOL


def test_square_with_the_pole_inside_settles_on_its_first_panels():
    square = _square(Tricomplex(-1 / 3, -1 / 3, -1 / 3))
    got, evaluations, _ = _quadrature(None, square, QUADRATURE_TOL, QUADRATURE_CAP, pole=ZERO)
    assert evaluations == 0
    assert abs(got - POLE_LOOP_VALUE) < 1e-14
    assert _quadrature(lambda u: ONE, square, QUADRATURE_TOL, QUADRATURE_CAP, pole=ZERO)[1] == 32


def _jittered_polygon(rng, nseg):
    # a closed polyline as the benchmark draws them: centred on the trisector
    # line, vertex angles jittered by 0.15 of a step, radii by 20% and
    # component sums lifted by up to 0.1; and a pole well inside it, off the
    # component sums of the loop
    xi1 = (2.0 / math.sqrt(6.0), -1.0 / math.sqrt(6.0), -1.0 / math.sqrt(6.0))
    xi2 = (0.0, 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0))
    c = (rng.uniform(-0.5, 0.5),) * 3

    def point(rad, ang, lift):
        a, b = rad * math.cos(ang), rad * math.sin(ang)
        return Tricomplex(*(c[i] + a * xi1[i] + b * xi2[i] + lift / 3.0 for i in range(3)))

    r, step = rng.uniform(0.8, 1.25), 2.0 * math.pi / nseg
    verts = []
    for k in range(nseg):
        ang = step * (k + rng.uniform(-0.15, 0.15))
        verts.append(point(r * rng.uniform(0.8, 1.2), ang, rng.uniform(-0.1, 0.1)))
    ang = rng.uniform(0.0, 2.0 * math.pi)
    rad = rng.uniform(0.0, 0.2 * 0.8 * r * math.cos(0.65 * step))
    pole = point(rad, ang, rng.choice((-1.0, 1.0)) * (0.15 + 1.2 * r * rng.uniform(0.6, 0.8)))
    return Path3.polyline(verts + verts[:1], closed=True), pole


@pytest.mark.parametrize("f", [texp, tsin])
def test_jittered_16_gon_with_the_pole_inside_settles_on_its_first_panels(f):
    # each panel near the pole is judged by its own product-integration
    # estimate, not by the tail of its terms, which hold the near-singular
    # kernel: none is halved
    for seed in range(8):
        loop, pole = _jittered_polygon(random.Random(seed), 16)
        got, evaluations, _ = _quadrature(f, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=pole)
        assert evaluations == 128
        assert abs(got - POLE_LOOP_VALUE * f(pole)) < QUADRATURE_TOL


def test_halves_accepted_on_their_parents_change_report_at_least_their_rounding():
    # a far pole outside jittered polygons and f = 1e3*u**7: the rule is exact
    # on each panel to rounding, but f's degree-7 tail fails it, so each panel
    # is halved once and its halves are accepted on the change from it, which
    # is rounding noise; the estimate bounds the error of the value 0
    pole = XI1 * 20.0 + Tricomplex(0.5, 0.5, 0.5)
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        angles = sorted(2 * math.pi * (k + rng.uniform(-0.3, 0.3)) / n for k in range(n))
        ws = [rng.uniform(0.6, 1.4) * complex(math.cos(a), math.sin(a)) for a in angles]
        verts = [XI1 * w.real + XI2 * w.imag for w in ws]
        loop = Path3.polyline(verts + verts[:1], closed=True)
        got, evaluations, estimate = _quadrature(lambda u: u**7 * 1e3, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=pole)
        assert evaluations == 3 * _ORDER * n
        assert abs(got) <= estimate


@pytest.mark.parametrize("f", [None, texp])
@pytest.mark.parametrize("s", [0.5, 0.3])
def test_pole_whose_line_meets_a_polyline_edge_is_singular(s, f):
    # the pole projects onto the square's first edge, s along it; at the
    # midpoint no node lands near it, and the rule's symmetric nodes would
    # cancel the log singularity into half the pole's value
    c = Tricomplex(-1 / 3, -1 / 3, -1 / 3)
    pole = c + XI1 * (1.0 - s) + XI2 * s + Tricomplex(0.5, 0.5, 0.5)
    with pytest.raises(AmbiguousWinding):
        winding_count(_square(c), pole)
    with pytest.raises(SingularOnPath, match="touches the singular line"):
        _quadrature(f, _square(c), QUADRATURE_TOL, QUADRATURE_CAP, pole=pole)


def test_polyline_edge_through_the_pole_plane_is_singular():
    # the component sum rises by 1 along the first edge and crosses the
    # pole's 0 a third of the way from its fourth node to its fifth
    c0, c1 = _GL_NODES[3], _GL_NODES[4]
    t = (c0 + (c1 - c0) / 3.0) / 3.0
    s = 1.0 / 3.0 - t
    corners = [XI1 - Tricomplex(t, t, t), XI2 + Tricomplex(s, s, s), Tricomplex(s, s, s) - XI1 - XI2]
    loop = Path3.polyline(corners + corners[:1], closed=True)
    assert winding_count(loop, ZERO) == 1
    with pytest.raises(SingularOnPath, match="crosses the singular plane"):
        loop_integral_pole(ZERO, loop)


@st.composite
def split_loops_with_poles(draw):
    # a closed polyline of 3-16 vertices jittered and lifted as the benchmark
    # draws them, or a circle of 1 to 3 turns either way; the pole inside,
    # outside, or 1e-8 to 1e-2 of an edge length from a point of an edge,
    # on either side, and off the loop's component sums
    c = Tricomplex(*(draw(st.floats(-0.5, 0.5)),) * 3)
    r, place = draw(st.floats(0.8, 1.25)), draw(st.sampled_from(("inside", "outside", "edge")))
    side, ang = draw(st.sampled_from((-1.0, 1.0))), draw(st.floats(0.0, 2 * math.pi))
    lift = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.3, 1.0))
    gap = 10.0 ** draw(st.floats(-8.0, -2.0))
    if draw(st.booleans()):
        loop = Path3.circle(c, r, draw(st.sampled_from((-3, -2, -1, 1, 2, 3))))
        q = {"inside": draw(st.floats(0.0, 0.9)), "outside": draw(st.floats(1.1, 3.0)), "edge": 1.0 + side * gap}[place]
        return loop, _near(c, r * q, ang, lift)
    n = draw(st.integers(3, 16))
    step = 2.0 * math.pi / n
    ws = [r * draw(st.floats(0.8, 1.2)) * cmath.exp(1j * step * (k + draw(st.floats(-0.15, 0.15)))) for k in range(n)]
    lifts = [draw(st.floats(-0.1, 0.1)) for _ in ws]
    verts = [_near(c, abs(w), cmath.phase(w), h / 3.0) for w, h in zip(ws, lifts)]
    if place == "edge":
        k = draw(st.integers(0, n - 1))
        w0, w1 = ws[k], ws[(k + 1) % n]
        p = w0 + (w1 - w0) * draw(st.floats(0.05, 0.95)) + 1j * (w1 - w0) * side * gap
    else:
        p = cmath.rect(r * (draw(st.floats(0.0, 0.5)) if place == "inside" else draw(st.floats(1.5, 3.0))), ang)
    return Path3.polyline(verts + verts[:1], closed=True), _near(c, abs(p), cmath.phase(p), lift)


@settings(max_examples=200, deadline=None)
@given(case=split_loops_with_poles())
def test_pole_loop_on_polylines_and_circles_is_closed_form(case):
    # 1/(u - a) alone is 2*pi*i per turn of w around a_w, with no integrand
    # evaluation: the residue theorem's value, joined once, and the panel or
    # level route's with f = 1 within that route's estimate
    loop, pole = case
    n = winding_count(loop, pole)
    got, evaluations, _ = _quadrature(None, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=pole)
    assert evaluations == 0
    assert got == loop_integral_pole(pole, loop)
    assert got == _from_split(complex(0.0, _TWO_PI * n), 0.0)
    assert abs(got - POLE_LOOP_VALUE * float(n)) <= 64 * sys.float_info.epsilon * abs(POLE_LOOP_VALUE) * max(1, abs(n))
    _, evaluations, estimate = _quadrature(lambda u: ONE, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=pole)
    assert evaluations > 0
    assert abs(got - cauchy_value(lambda u: ONE, pole, loop)) <= estimate


def _guard_cases():
    # (loop, pole) for the pole's singular sets on a polyline: a segment in
    # the pole's plane, one 1e-12 off it, a vertex on its singular line, an
    # edge across its plane, a vertex 1e-12 above it whose edges both leave
    # upward, so that no panel node comes near the plane, and a square whose
    # last edge alone meets the singular line, at its midpoint
    corners = [XI1 * math.cos(k * 2 * math.pi / 3) + XI2 * math.sin(k * 2 * math.pi / 3) for k in range(3)]
    lifted = lambda lift, up: [v + Tricomplex(lift, lift, lift) for v in corners[:2]] + [corners[2] + up]  # noqa: E731
    up = Tricomplex(0.3, 0.3, 0.3)
    below = Tricomplex(-0.2, -0.2, -0.2)
    on_line = [below - XI2 * 0.5, below + XI1, below + XI2]
    crossing = [XI1 - up, XI2 + up, up - XI1 - XI2]
    grazing = [XI1 + Tricomplex(1e-12 / 3, 1e-12 / 3, 1e-12 / 3), XI2 - XI1 * 0.5 + up, ZERO - XI2 - XI1 * 0.5 + up]
    square = [_from_split(w, 1.0) for w in (1.0, 1j, -1.0, -1j)]
    loops = (lifted(0.0, up), lifted(1e-12 / 3, up), on_line, crossing, grazing, square)
    poles = (ZERO, ZERO, ZERO - XI2 * 0.5 + up, ZERO, ZERO, _from_split(0.5 - 0.5j, 5.0))
    return [(Path3.polyline(v + v[:1], closed=True), pole) for v, pole in zip(loops, poles)]


@pytest.mark.parametrize(
    "case, what",
    enumerate(
        ("touches the singular plane",) * 2
        + ("touches the singular line", "crosses the singular plane", "touches the singular plane")
        + ("touches the singular line",)
    ),
)
def test_pole_loop_closed_form_keeps_the_panels_guards(case, what):
    # f None raises as f = texp does, before any evaluation, with the same
    # message up to the point it names: both routes take the same guard of
    # the whole loop, its vertices first, then its segments, before they part
    loop, pole = _guard_cases()[case]
    messages = []
    for f in (None, Counted(texp)):
        with pytest.raises(SingularOnPath, match=what) as info:
            _quadrature(f, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=pole)
        messages.append(str(info.value).split(" near ")[0])
    assert messages[0] == messages[1]
    assert f.calls == 0


def test_polyline_guard_reads_the_closing_vertex():
    # a closed polyline's last vertex may differ from its first within the
    # closing tolerance, 1e-6 at components near 1e6: here it lies on the
    # pole's singular plane while the first lies 1e-6 above it, and both
    # routes raise before any evaluation
    v = 3e6
    ws = (1.0, 1j, -1.0, -1j)
    verts = [_from_split(ws[0], v + 1e-6)] + [_from_split(w, v + 0.3) for w in ws[1:]] + [_from_split(ws[0], v)]
    loop, pole = Path3.polyline(verts, closed=True), _from_split(0.1 + 0.1j, v)
    counted = Counted(texp)
    for f in (None, counted):
        with pytest.raises(SingularOnPath, match="the singular plane"):
            _quadrature(f, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=pole)
    assert counted.calls == 0


def test_polyline_pole_logs_near_the_top_of_the_range():
    # near the top of the range, where a vertex's difference from the pole
    # can leave the double range (the component sums' do in the second
    # case), the winding is counted on a copy scaled by a power of two: the
    # closed form agrees with the panels' f = 1
    def square(c, r):
        return Path3.polyline([_near(c, r, k * math.pi / 2, 0.0) for k in range(5)], closed=True)

    cases = (
        (square(Tricomplex(5e307, 5e307, 5e307), 1e307), Tricomplex(4e307, 4e307, 4e307)),
        (square(Tricomplex(5e307, 5e307, 5e307), 1e300), _near(Tricomplex(-5e307, -5e307, -5e307), 3e299, 0.0, 0.0)),
    )
    for loop, pole in cases:
        got, evaluations, estimate = _quadrature(None, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=pole)
        assert evaluations == 0
        assert abs(got - POLE_LOOP_VALUE) <= estimate
        assert abs(got - cauchy_value(lambda u: ONE, pole, loop)) < 1e-12


def test_node_guard_where_the_poles_distance_leaves_the_range():
    # w - a_w overflows at every vertex and node: the guard's share of
    # |w - a_w| is taken on halves, so the component sums, 3e306 apart, are
    # not near and the closed form gives winding_count's 0.  1/(w - a_w)
    # would underflow there, so the panels raise instead of summing it, on
    # the square and on a triangle whose near panel lies past the range
    square = Path3.polyline(
        [_near(Tricomplex(0.0, 0.6e308, -0.6e308), 0.2e308, k * math.pi / 2, 0.0) for k in range(5)], closed=True
    )
    pole = Tricomplex(1e306, -0.6e308 + 1e306, 0.6e308 + 1e306)
    assert winding_count(square, pole) == 0
    assert loop_integral_pole(pole, square) == ZERO
    triangle = [_from_split(w, 0.0) for w in (0.89e308, 1.29e308, complex(1.09e308, 0.3e308))]
    cases = ((square, pole), (Path3.polyline(triangle + triangle[:1], closed=True), _from_split(-0.9e308, 1e306)))
    for loop, a in cases:
        with pytest.raises(SingularOnPath, match="leaves the double range"):
            cauchy_value(lambda u: ONE, a, loop)


@st.composite
def polylines_with_poles(draw):
    # a star-shaped polygon with lifts; the pole gap*r from a point of one
    # edge, on either side, and off the loop's component sums
    c = Tricomplex(*(draw(st.floats(-1.0, 1.0)) for _ in range(3)))
    n, r = draw(st.integers(3, 12)), draw(st.floats(0.5, 2.0))
    ws = [
        r * draw(st.floats(0.6, 1.4)) * complex(math.cos(ang), math.sin(ang))
        for ang in sorted(2 * math.pi * (k + draw(st.floats(-0.3, 0.3))) / n for k in range(n))
    ]
    lifts = [draw(st.floats(-0.3, 0.3)) for _ in ws]
    verts = [c + XI1 * w.real + XI2 * w.imag + Tricomplex(h, h, h) for w, h in zip(ws, lifts)]
    side = draw(st.sampled_from((-1.0, 1.0)))

    def near_edge(k, sign):
        w0, w1 = ws[k], ws[(k + 1) % n]
        gap = r * 10.0 ** draw(st.floats(-4.0, math.log10(2.0))) * draw(st.sampled_from((-1.0, 1.0)))
        p = w0 + (w1 - w0) * draw(st.floats(0.05, 0.95)) + 1j * (w1 - w0) / abs(w1 - w0) * gap
        off = sign * (max(map(abs, lifts)) + draw(st.floats(0.2, 1.0)))
        return c + XI1 * p.real + XI2 * p.imag + Tricomplex(off, off, off)

    k = draw(st.integers(0, n - 1))
    pole = near_edge(k, side)
    # f's own pole near another edge, its singular plane on the other side
    b = near_edge((k + draw(st.integers(1, n - 1))) % n, -side)
    return Path3.polyline(verts + verts[:1], closed=True), pole, b


def _polyline_cases(loop, pole, b):
    # (f, the value of one turn around the pole, the turns, and the residue
    # theorem's value 2*pi*i*turns*f_w(pole) joined with v = 0: formed in
    # split coordinates, it keeps the low bits that the product with
    # POLE_LOOP_VALUE loses to f(pole)'s component sum)
    n = float(winding_count(loop, pole))
    cubic = lambda u: u * u * u - u * 0.5 + ONE  # noqa: E731
    # 1/((u - a)(u - b)) = (1/(u - a) - 1/(u - b))/(a - b)
    shifted = lambda u: inverse(u - b)  # noqa: E731
    for f, turns in ((None, n), (texp, n), (tsin, n), (cubic, n), (shifted, n - float(winding_count(loop, b)))):
        at = ONE if f is None else f(pole)
        yield f, POLE_LOOP_VALUE * at, turns, _from_split(complex(0.0, _TWO_PI * turns) * _to_split(at)[0], 0.0)


@settings(max_examples=40, deadline=None)
@given(case=polylines_with_poles())
def test_polyline_pole_estimate_bounds_its_error(case):
    # the value is within the reported estimate, or the rounding of one
    # turn's value (the want of a pole outside is 0), of the residue
    # theorem's, and within tol of it
    for f, turn, n, want in _polyline_cases(*case):
        got, _, estimate = _quadrature(f, case[0], QUADRATURE_TOL, QUADRATURE_CAP, pole=case[1])
        error = abs(got - want)
        assert error <= max(estimate, 64 * sys.float_info.epsilon * abs(turn) * max(1.0, abs(n)))
        assert error <= QUADRATURE_TOL
        assert estimate <= QUADRATURE_TOL


def test_near_zone_polyline_panels_count_the_rounding_of_their_appended_term():
    # the pole outside the square, 3 to 50 of its half-diagonals from the
    # centre along xi1, and f = 1e3*u**5: a panel a few of its lengths from
    # the pole appends p(t*)*R(t*), whose R(t*) cancels far below
    # |log((t* - 1)/t*)|, so its rounding is that log's times |p(t*)|; the
    # estimate counts it (9 of these 95 erred above it without)
    c = Tricomplex(-1 / 3, -1 / 3, -1 / 3)
    square = _square(c)
    for i in range(95):
        pole = c + XI1 * (3.0 + 0.5 * i) + XI2 * 0.3 + Tricomplex(0.5, 0.5, 0.5)
        got, _, estimate = _quadrature(lambda u: u**5 * 1e3, square, QUADRATURE_TOL, QUADRATURE_CAP, pole=pole)
        assert abs(got) <= estimate


def test_far_polyline_panels_report_at_least_their_rounding():
    # jittered, lifted 3- to 8-gons, a pole 12 to 40 away outside them and
    # f = M*u**d, M up to 1e6 and d 5 to 7: a far panel accepted on its tail
    # reports at least its rounding, so the estimate bounds the error of
    # the value 0
    for seed in range(2000):
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        angles = sorted(2 * math.pi * (k + rng.uniform(-0.3, 0.3)) / n for k in range(n))
        ws = [rng.uniform(0.6, 1.4) * complex(math.cos(a), math.sin(a)) for a in angles]
        verts = [_near(ZERO, abs(w), cmath.phase(w), rng.uniform(-0.1, 0.1)) for w in ws]
        loop = Path3.polyline(verts + verts[:1], closed=True)
        dist, ang = rng.uniform(12.0, 40.0), rng.uniform(0.0, 2 * math.pi)
        pole = _near(ZERO, dist, ang, rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))
        m, d = 10.0 ** rng.uniform(0.0, 6.0), rng.randint(5, 7)
        got, _, estimate = _quadrature(lambda u: u**d * m, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=pole)
        assert abs(got) <= estimate


@st.composite
def wobbly_loops_with_poles(draw, samples=st.just(64)):
    c = Tricomplex(*(draw(st.floats(-1.0, 1.0)) for _ in range(3)))
    a, b = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    k, depth = draw(st.integers(1, 6)), draw(st.floats(0.0, 0.2))
    lift, spin = draw(st.floats(-0.3, 0.3)), draw(st.integers(1, 4))

    def at(t):
        ang = 2.0 * math.pi * t
        r = 1.0 + depth * math.sin(k * ang)
        h = lift * math.cos(spin * ang)
        return c + XI1 * (a * r * math.cos(ang)) + XI2 * (b * r * math.sin(ang)) + Tricomplex(h, h, h)

    inner, outer = 0.8 * min(a, b) * (1.0 - depth), 1.2 * max(a, b) * (1.0 + depth)
    ang = draw(st.floats(0.0, 2 * math.pi))
    rad = draw(st.floats(0.0, 0.8)) * inner if draw(st.booleans()) else draw(st.floats(1.2, 3.0)) * outer
    # off the component sums 3*h of the loop, by at least 0.6
    off = draw(st.sampled_from((-1.0, 1.0))) * (abs(lift) + draw(st.floats(0.2, 1.0)))
    pole = c + XI1 * (rad * math.cos(ang)) + XI2 * (rad * math.sin(ang)) + Tricomplex(off, off, off)
    return Path3.parametric(at, samples=draw(samples), closed=True), pole


@settings(max_examples=60, deadline=None)
@given(case=wobbly_loops_with_poles())
def test_smooth_loop_integral_is_winding_times_pole_value(case):
    loop, pole = case
    n = winding_count(loop, pole)
    assert abs(loop_integral_pole(pole, loop) - POLE_LOOP_VALUE * float(n)) < QUADRATURE_TOL


@settings(max_examples=60, deadline=None)
@given(case=wobbly_loops_with_poles(samples=st.integers(16, 64)))
def test_sampled_loop_estimate_bounds_its_error(case):
    # wherever the trapezoid rule settles (within 8*samples evaluations)
    # with an estimate within tol, its value is within tol, or its own
    # rounding, of the residue theorem's; the panels it falls back on can
    # still under-report at these sample counts
    loop, pole = case
    n = float(winding_count(loop, pole))
    for f, want in ((None, POLE_LOOP_VALUE * n), (texp, POLE_LOOP_VALUE * texp(pole) * n)):
        got, evaluations, estimate = _quadrature(f, loop, QUADRATURE_TOL, QUADRATURE_CAP, pole=pole)
        bound = max(QUADRATURE_TOL, 64 * sys.float_info.epsilon * abs(want))
        if evaluations <= 8 * loop.samples and estimate <= QUADRATURE_TOL:
            assert abs(got - want) <= bound
    assert got == cauchy_value(texp, pole, loop)


def test_overflowing_level_sum_is_singular_on_path():
    # each f(u) du is finite, but their sum leaves the double range: on a
    # panel, and on a circle level, whose 8 terms are all 0.79e308*i
    big = Tricomplex(1e308, 0.0, 0.0)
    with pytest.raises(SingularOnPath):
        path_integral(lambda u: big, Path3.polyline([ZERO, Tricomplex(1.9, 0.0, 0.0)]))
    f = Counted(lambda u: inverse(u) * 1e308)
    with pytest.raises(SingularOnPath):
        path_integral(f, Path3.circle(Tricomplex(1.0, 1.0, 1.0), 4.0))
    assert f.calls == 8


def test_failing_integrand_is_singular_on_path():
    for exc in (Overflow("f overflows"), ZeroDivisor("f divides by zero", None)):

        def f(u, exc=exc):
            raise exc

        for path in (UNIT_LOOP, _square(ZERO)):
            with pytest.raises(SingularOnPath):
                path_integral(f, path)


def test_large_integrands_settle_at_their_rounding():
    # the rounding of terms this large is far above the absolute
    # tolerance, and no halving reduces it
    b = Tricomplex(1.0, 0.5, 0.0)
    a = Tricomplex(0.1, -0.05, 0.2)
    for scale in (1e8, 1e14):
        got, evaluations, _ = _quadrature(lambda u: u * scale, Path3.polyline([ZERO, b]), QUADRATURE_TOL, QUADRATURE_CAP)
        assert evaluations <= 24
        assert tri_err(got * (1.0 / scale), b * b * 0.5) < 1e-15
        got = cauchy_value(lambda u: texp(u) * scale, a, _square(Tricomplex(-1 / 3, -1 / 3, -1 / 3)))
        assert tri_err(got * (1.0 / scale), POLE_LOOP_VALUE * texp(a)) < 1e-14


def test_split_nodes_are_the_path_points_and_steps():
    # circle and polyline nodes are made in split coordinates; joined,
    # they are point_at and tangent_at times the weight at the rule's t
    c = Tricomplex(0.3, -0.2, 0.5)
    circle = Path3.circle(c, 1.3, turns=-2)
    n = 32
    for i in range(n):
        w, v, dw, dv = circle._split(i / n)
        assert tri_err(_from_split(w, v), circle.point_at(i / n)) < 1e-15
        assert tri_err(_from_split(dw, dv), circle.tangent_at(i / n)) < 1e-15
    path = _square(c)
    panels = 2 * path.samples
    nodes = [node for p in range(panels) for node in path._nodes(p / 2, 0.5)]
    for k, (w, v, dw, dv, u) in enumerate(nodes):
        t = (k // 8 + _GL_NODES[k % 8]) / panels
        assert tri_err(_from_split(w, v), path.point_at(t)) < 1e-15
        step = path.tangent_at(t) * (_GL_WEIGHTS[k % 8] / panels)
        assert tri_err(_from_split(dw, dv), step) < 1e-15


def test_node_cap_is_checked_before_evaluating():
    f = Counted(inverse)
    with pytest.raises(NonConvergent):
        path_integral(f, Path3.circle(Tricomplex(1, 1, 1), 1.0, turns=10**9))
    # three starting panels of 8 nodes are over a cap of 16
    _, triangle = _triangle()
    with pytest.raises(NonConvergent):
        _quadrature(f, triangle, QUADRATURE_TOL, 16)
    assert f.calls == 0


def test_panel_cap_is_checked_before_the_panels_are_made():
    # a million starting panels are over the cap: refused before any point
    # is taken, and before a list of a million panels is built
    points = Counted(UNIT_LOOP.point_at)
    path = Path3.parametric(points, samples=10**6)
    tracemalloc.start()
    try:
        with pytest.raises(NonConvergent):
            path_integral(texp, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert points.calls == 0
    assert peak < 2**20


def test_closed_panel_cap_is_checked_before_any_point():
    # the closed twin: the trapezoid rule's 8*samples nodes are over the
    # cap too, so neither rule takes a point or builds a list
    points = Counted(UNIT_LOOP.point_at)
    path = Path3.parametric(points, samples=10**6, closed=True)
    points.calls = 0  # the endpoint check when the loop is made
    tracemalloc.start()
    try:
        with pytest.raises(NonConvergent):
            path_integral(texp, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert points.calls == 0
    assert peak < 2**20


def test_path_needs_a_sample():
    # a path without panels would leave the refinement loop nothing to refine
    with pytest.raises(ValueError):
        Path3(point_at=lambda t: ZERO, samples=0, closed=False)


def test_path_counts_must_be_integers():
    # 2.5 turns leave the circle open; 2.5 samples make no whole panels
    with pytest.raises(ValueError, match="turns must be a nonzero integer"):
        Path3.circle(Tricomplex(1, 1, 1), 1.0, turns=2.5)
    with pytest.raises(ValueError, match="samples must be an integer"):
        Path3.parametric(UNIT_LOOP.point_at, samples=2.5)


def test_open_parametric_arc():
    a, b = Tricomplex(0.1, 0.2, -0.3), Tricomplex(0.7, -0.4, 0.5)

    def arc(t):
        bend = Tricomplex(
            math.sin(math.pi * t), 0.3 * math.sin(2 * math.pi * t), -0.2 * math.sin(3 * math.pi * t)
        )
        return a + (b - a) * t + bend * 0.5

    path = Path3.parametric(arc)
    assert path.tangent_at is None
    got = path_integral(texp, path)
    assert tri_err(got, texp(b) - texp(a)) < 1e-12


def test_quadrature_does_not_load_numpy_polynomial():
    # numpy.polynomial's Gauss-Legendre rule pages in LAPACK; the rule is
    # built in pure Python instead
    code = (
        "import sys, tricomplex as T\n"
        "T.path_integral(T.texp, T.Path3.polyline([T.ZERO, T.ONE]))\n"
        "assert 'numpy.polynomial' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(tricomplex.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_trapezoid_rule_does_not_load_numpy():
    # the spectral tangent's FFT is pure Python: numpy would add about
    # 11 MB to the resident set of every process that integrates a loop
    code = (
        "import math, sys, tricomplex as T\n"
        "c = T.Tricomplex(1.0, 1.0, 1.0)\n"
        "at = lambda t: c + T.Tricomplex(math.cos(2 * math.pi * t), math.sin(2 * math.pi * t), 0.0)\n"
        "_, n, _ = T.calculus._quadrature(None, T.Path3.parametric(at, closed=True), 1e-9, 2**20, pole=T.ZERO)\n"
        "assert n <= 128 and 'numpy' not in sys.modules, (n, 'numpy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(tricomplex.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_import_and_cli_eval_do_not_load_numpy():
    # numpy only builds the matrix representations
    code = (
        "import runpy, sys\n"
        "import tricomplex\n"
        "assert 'numpy' not in sys.modules\n"
        "sys.argv = ['tricomplex', 'eval', '--fn', 'exp', '--at', '(0,0,0)']\n"
        "try:\n"
        "    runpy.run_module('tricomplex', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "assert 'numpy' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(tricomplex.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


#: What the algebra, geometry and elementary functions never need.
HEAVY = ("tricomplex.calculus", "tricomplex.poly", "tricomplex.series", "dataclasses", "numpy")
#: What a command that evaluates no elementary function never loads.
ELEMENTARY = ("tricomplex.functions", "tricomplex.cosexponential")
COSEXP = ("tricomplex.cosexponential",)


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        ([], HEAVY + ELEMENTARY),
        (["eval", "--fn", "exp", "--at", "(0.1,0.2,0.3)"], HEAVY + COSEXP),
        (["decompose", "--at", "(1,2,3)"], HEAVY + ELEMENTARY),
        (["cosexp-table", "--min", "0", "--max", "1", "--step", "0.5"], HEAVY + COSEXP),
        (["rho-table", "--min", "0.2", "--max", "0.4", "--step", "0.1"], HEAVY + ELEMENTARY),
        (
            ["integrate", "--pole", "(0,0,0)", "--loop", "circle:center=(1,1,1),radius=1"],
            ("tricomplex.poly", "dataclasses") + ELEMENTARY,
        ),
        (["factor", "--poly", "{poly}", "--all"], ("tricomplex.calculus", "dataclasses") + ELEMENTARY),
        (
            ["integrate", "--pole", "(0,0,0)", "--loop", "circle:center=(1,1,1),radius=1"],
            ("tricomplex.poly", "tricomplex.series"),
        ),
        (
            ["check-analytic", "--fn", "exp", "--at", "(0.1,0.2,0.3)"],
            ("tricomplex.calculus", "tricomplex.poly", "tricomplex.series", "dataclasses") + COSEXP,
        ),
        (
            ["series", "--coeffs", "{poly}", "--at", "(0.2,0.1,-0.1)"],
            ("tricomplex.calculus", "tricomplex.poly", "dataclasses") + ELEMENTARY,
        ),
        (
            ["integrate", "--pole", "(0,0,0)", "--loop", "{loop}"],
            ("tricomplex.poly", "tricomplex.series", "dataclasses") + ELEMENTARY,
        ),
    ],
    ids=[
        "import", "eval", "decompose", "cosexp-table", "rho-table", "integrate", "factor",
        "integrate-without-series", "check-analytic", "series", "integrate-polyline",
    ],
)
def test_commands_load_only_what_they_run(tmp_path, argv, unloaded):
    # each CLI command imports the modules it runs, in a fresh interpreter;
    # none loads dataclasses, which no module of the package imports.  A
    # package module that does not exist would pass unloaded by its name
    for name in unloaded:
        assert not name.startswith("tricomplex.") or importlib.util.find_spec(name), name
    poly = tmp_path / "u2m1.csv"
    poly.write_text("1,0,0\n0,0,0\n-1,0,0\n")
    loop = tmp_path / "loop.csv"
    loop.write_text("2,0,0\n0,2,0\n0,0,2\n2,0,0\n")
    argv = [arg.format(poly=poly, loop=loop) for arg in argv]
    code = (
        "import runpy, sys\n"
        "import tricomplex\n"
        f"if {argv!r}:\n"
        f"    sys.argv = ['tricomplex', *{argv!r}]\n"
        "    try:\n"
        "        runpy.run_module('tricomplex', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        assert not exc.code, exc.code\n"
        f"loaded = sorted(set({unloaded!r}) & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(tricomplex.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr


# -- Cauchy-style values --------------------------------------------------------


def test_cauchy_value_constant_reduces_to_pole_loop():
    got = cauchy_value(lambda u: ONE, ZERO, UNIT_LOOP)
    assert abs(got - POLE_LOOP_VALUE) < 1e-6


def test_cauchy_value_exp():
    a = Tricomplex(0.5, 0.1, 0.1)
    loop = Path3.circle(a + Tricomplex(1, 1, 1), 1.2)
    got = cauchy_value(texp, a, loop)
    want = POLE_LOOP_VALUE * texp(a)
    assert abs(got - want) < 1e-6


def test_cauchy_value_component_differences():
    a = Tricomplex(0.4, -0.2, 0.1)
    loop = Path3.circle(a + Tricomplex(0.8, 0.8, 0.8), 1.0)
    got = cauchy_value(tcos, a, loop)
    F, G, Hc = tcos(a).x, tcos(a).y, tcos(a).z
    scale = 2.0 * math.pi / SQRT3
    want = Tricomplex(scale * (Hc - G), scale * (F - Hc), scale * (G - F))
    assert abs(got - want) < 1e-6


def test_derivative_form_with_double_pole():
    # f(u)/(u-a)^2 integrates to the pole value times f'(a); here f = u
    a = Tricomplex(0.3, 0.05, -0.1)
    loop = Path3.circle(a + Tricomplex(1, 1, 1), 0.9)

    def integrand(u):
        w = u - a
        return u * inverse(w * w)

    got = path_integral(integrand, loop)
    assert abs(got - POLE_LOOP_VALUE) < 1e-6


# -- residues -------------------------------------------------------------------


def test_residue_single_pole_matches_quadrature():
    res = Tricomplex(1.5, -0.25, 0.75)
    poles = [PoleSpec(ZERO, res)]
    got = residue_sum(poles, UNIT_LOOP)

    def f(u):
        return res * inverse(u)

    want = path_integral(f, UNIT_LOOP)
    assert abs(got - want) < 1e-6
    assert abs(got - POLE_LOOP_VALUE * res) < 1e-9


def test_residue_exterior_pole_contributes_nothing():
    poles = [PoleSpec(Tricomplex(5.0, 0.0, 0.0), ONE)]
    assert abs(residue_sum(poles, UNIT_LOOP)) == 0.0


def test_two_pole_sum_against_quadrature():
    inner = PoleSpec(Tricomplex(0.1, 0.05, 0.0), Tricomplex(0.5, 0.25, -0.5))
    outer = PoleSpec(Tricomplex(6.0, -1.0, 0.0), Tricomplex(1.0, 2.0, 3.0))
    loop = Path3.circle(Tricomplex(0.5, 0.5, 0.5), 1.1)
    got = residue_sum([inner, outer], loop)

    def f(u):
        return inner.residue * inverse(u - inner.location) + outer.residue * inverse(
            u - outer.location
        )

    want = path_integral(f, loop)
    assert abs(got - want) < 1e-6


def test_ambiguous_winding():
    # pole whose projection lies on the projected loop: on the circle, and
    # on the middle of a square's edge
    pole = PoleSpec(Tricomplex(1.0, 0.0, 0.0), ONE)
    with pytest.raises(AmbiguousWinding):
        residue_sum([pole], UNIT_LOOP)
    square = _square(ZERO)
    edge = PoleSpec((square.vertices[0] + square.vertices[1]) * 0.5 + Tricomplex(1.0, 1.0, 1.0), ONE)
    with pytest.raises(AmbiguousWinding):
        residue_sum([edge], square)


def test_sampled_winding_near_a_chord_is_ambiguous():
    # a point 5e-5 inside the unit loop's w, midway between two of the 256
    # points its tangent-less twin is sampled at: the chord between them
    # passes 7.5e-5 inside the circle, so the point is outside the polygon
    loop = Path3.parametric(UNIT_LOOP.point_at, samples=64, closed=True)
    c, lift = UNIT_LOOP.center, Tricomplex(0.5, 0.5, 0.5)
    radial = UNIT_LOOP.point_at(3.5 / 256) - c
    pole = c + radial * (1.0 - 5e-5) + lift
    assert winding_count(UNIT_LOOP, pole) == 1
    assert abs(loop_integral_pole(pole, loop) - POLE_LOOP_VALUE) < QUADRATURE_TOL
    for call in (lambda: winding_count(loop, pole), lambda: residue_sum([PoleSpec(pole, ONE)], loop)):
        with pytest.raises(AmbiguousWinding):
            call()
    # 1% inside, and outside, the sampled winding still decides
    assert winding_count(loop, c + radial * 0.99 + lift) == 1
    assert winding_count(loop, c + radial * 1.01 + lift) == 0


def _triangle():
    verts = [XI1 * math.cos(a) + XI2 * math.sin(a) for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
    return verts, Path3.polyline(verts + verts[:1], closed=True)


def test_polyline_winding_keeps_its_corners():
    # a pole 0.4% of the radius inside a vertex that no sample of t hits
    verts, triangle = _triangle()
    pole = verts[1] * 0.996 + Tricomplex(0.3, 0.3, 0.3)
    assert winding_count(triangle, pole) == 1
    got = residue_sum([PoleSpec(pole, ONE)], triangle)
    assert abs(got - loop_integral_pole(pole, triangle)) < 1e-9


def _circle_or_polyline(draw):
    c = Tricomplex(*(draw(st.floats(-1.0, 1.0)) for _ in range(3)))
    r = draw(st.floats(0.5, 2.0))
    if draw(st.booleans()):
        return Path3.circle(c, r, turns=draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))), c, r, r
    nseg = draw(st.integers(3, 12))
    step = 2 * math.pi / nseg
    # vertices on a star around c, with edges outside 0.5 r and inside 1.2 r
    rads = [r * draw(st.floats(0.8, 1.2)) for _ in range(nseg)]
    lifts = [draw(st.floats(-0.2, 0.2)) for _ in range(nseg)]
    verts = [
        c + XI1 * (q * math.cos(k * step)) + XI2 * (q * math.sin(k * step)) + Tricomplex(h, h, h)
        for k, (q, h) in enumerate(zip(rads, lifts))
    ]
    return Path3.polyline(verts + verts[:1], closed=True), c, 0.8 * r * math.cos(step / 2), 1.2 * r


@st.composite
def loops_with_poles(draw):
    loop, c, inner, outer = _circle_or_polyline(draw)
    ang = draw(st.floats(0.0, 2 * math.pi))
    rad = draw(st.floats(0.0, 0.8)) * inner if draw(st.booleans()) else draw(st.floats(1.2, 3.0)) * outer
    lift = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.5, 2.0))
    pole = c + XI1 * (rad * math.cos(ang)) + XI2 * (rad * math.sin(ang)) + Tricomplex(lift, lift, lift)
    return loop, pole


@settings(max_examples=60, deadline=None)
@given(case=loops_with_poles())
def test_loop_integral_is_winding_times_pole_value(case):
    loop, pole = case
    n = winding_count(loop, pole)
    assert abs(loop_integral_pole(pole, loop) - POLE_LOOP_VALUE * float(n)) < 1e-9


@settings(max_examples=100, deadline=None)
@given(
    turns=st.sampled_from((-3, -2, -1, 1, 2, 3)),
    r=st.floats(0.5, 2.0),
    ang=st.floats(0.0, 2 * math.pi),
    gap=st.floats(1e-3, 1.0),
    inside=st.booleans(),
    lift=st.floats(-2.0, 2.0),
)
def test_circle_winding_matches_the_sampled_winding(turns, r, ang, gap, inside, lift):
    # the closed form against the winding of 1024 points per turn, whose
    # chords stay within 5e-6 r of the circle
    c = Tricomplex(0.3, -0.2, 0.5)
    loop = Path3.circle(c, r, turns=turns)
    q = r * (1.0 - gap if inside else 1.0 + 2.0 * gap)
    pole = c + XI1 * (q * math.cos(ang)) + XI2 * (q * math.sin(ang)) + Tricomplex(lift, lift, lift)
    m = 1024 * abs(turns)
    pts = [_to_split(loop.point_at(i / m))[0] for i in range(m + 1)]
    assert winding_count(loop, pole) == _winding_number(pts, _to_split(pole)[0], 1e-9)


def test_winding_of_an_open_loop_is_rejected():
    # three quarters of a turn around the trisector line, whose subtended
    # angle 3*pi/2 would round to one turn
    def arc(t):
        ang = 1.5 * math.pi * t
        return XI1 * math.cos(ang) + XI2 * math.sin(ang)

    pole = Tricomplex(1.0, 1.0, 1.0)
    for loop in (Path3.polyline([arc(k / 12) for k in range(13)]), Path3.parametric(arc)):
        with pytest.raises(ValueError, match="loop must be closed"):
            winding_count(loop, ZERO)
        for integral in (
            lambda: loop_integral_pole(pole, loop),
            lambda: cauchy_value(texp, pole, loop),
            lambda: residue_sum([PoleSpec(pole, ONE)], loop),
        ):
            with pytest.raises(ValueError, match="loop must be closed"):
                integral()


def test_winding_count_is_capped_before_sampling():
    # a sampled loop of one sample more than the node cap allows
    points = Counted(UNIT_LOOP.point_at)
    loop = Path3.parametric(points, samples=QUADRATURE_CAP + 1, closed=True)
    points.calls = 0  # the endpoint check when the loop is made
    with pytest.raises(NonConvergent):
        winding_count(loop, ZERO)
    with pytest.raises(NonConvergent):
        residue_sum([PoleSpec(ZERO, ONE)], loop)
    assert points.calls == 0


def test_residue_sum_samples_a_sampled_loop_once():
    # the windings of all the poles are taken on one sample of 257 points
    points = Counted(UNIT_LOOP.point_at)
    loop = Path3.parametric(points, closed=True)
    poles = [PoleSpec(ZERO, ONE), PoleSpec(Tricomplex(5.0, 0.0, 0.0), H), PoleSpec(Tricomplex(0.1, 0.0, 0.0), K)]
    points.calls = 0  # the endpoint check when the loop is made
    got = residue_sum(poles, loop)
    assert points.calls == 257
    assert tri_err(got, POLE_LOOP_VALUE * (ONE + K)) < 1e-15
    assert got == residue_sum(poles, UNIT_LOOP)
    points.calls = 0
    assert [winding_count(loop, p.location) for p in poles] == [1, 0, 1]
    assert points.calls == 3 * 257


def test_winding_of_a_point_beyond_the_range():
    # the point's component sum leaves the double range, its w = 0 does not
    big = sys.float_info.max
    assert winding_count(Path3.circle(ZERO, 1.0), Tricomplex(big, big, big)) == 1


def test_winding_of_a_point_whose_distance_leaves_the_range():
    # |a_w - center_w| is beyond the double range, so the point is outside
    loop = Path3.circle(Tricomplex(1 / 3, 1 / 3, 1 / 3), (2 / 3) ** 0.5)
    point = Tricomplex(-1.6331933213688767e308, 4.7775212384674212e307, -8.8538835930355432e307)
    assert winding_count(loop, point) == 0


def test_winding_of_a_polyline_whose_edge_distance_leaves_the_range():
    # the distance from the point to the first edge leaves the double range
    big = sys.float_info.max
    vertices = [Tricomplex(0, 0, -big), Tricomplex(-3.0, 0, -1e38), Tricomplex(0, 0, -big)]
    loop = Path3.polyline(vertices, closed=True)
    pole = Tricomplex(-0.05, -5e293, -4.1)
    for call in (lambda: winding_count(loop, pole), lambda: residue_sum([PoleSpec(pole, ONE)], loop)):
        try:
            got = call()
        except TricomplexError:
            continue
        assert isinstance(got, (int, Tricomplex))


def test_winding_is_scale_free_up_to_the_top_of_the_range():
    # a triangle around the trisector line and its copy scaled by 2**1000,
    # whose differences multiply beyond the double range
    tri = [Tricomplex(3, 0, 0), Tricomplex(0, 3, 0), Tricomplex(0, 0, 3), Tricomplex(3, 0, 0)]
    for point, want in ((ZERO, 1), (Tricomplex(-3, 0, 0), 0)):
        for scale in (1.0, 2.0**1000):
            loop = Path3.polyline([v * scale for v in tri], closed=True)
            assert winding_count(loop, point * scale) == want


def test_circle_winding_is_not_capped():
    # 64 samples per turn would be one turn over the node cap, but a
    # circle's winding is closed form and takes no samples
    turns = QUADRATURE_CAP // 64 + 1
    loop = Path3.circle(Tricomplex(1, 1, 1), 1.0, turns=turns)
    assert winding_count(loop, ZERO) == turns
    got = residue_sum([PoleSpec(ZERO, ONE)], loop)
    assert tri_err(got, POLE_LOOP_VALUE * float(turns)) < 1e-15


# -- series re-expansion --------------------------------------------------------


def test_taylor_recenter_degree_six():
    rng = np.random.default_rng(173)
    coeffs = tuple(Tricomplex(*rng.uniform(-1, 1, 3)) for _ in range(7))
    s = TriSeries(coeffs)
    a = Tricomplex(*rng.uniform(-0.5, 0.5, 3))
    shifted = taylor_recenter(s, a)
    for u in random_triples(rng, 50, lo=-1.0, hi=1.0):
        want = eval_series(s, u)
        got = eval_series(shifted, u - a)
        assert tri_err(got, want) < 1e-10


def test_taylor_recenter_past_the_float_binomials():
    # the binomial weights of 1100 coefficients exceed the double range;
    # the recentered series does not
    a = Tricomplex(0.5, 0.1, -0.2)
    shifted = taylor_recenter(exp_series(1100), a)
    u = Tricomplex(0.1, 0.2, 0.3)
    assert tri_err(eval_series(shifted, u - a), texp(u)) < 1e-14
