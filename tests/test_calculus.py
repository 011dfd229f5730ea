import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tricomplex
from tricomplex import (
    AmbiguousWinding,
    H,
    K,
    NonConvergent,
    ONE,
    POLE_LOOP_VALUE,
    Path3,
    PoleSpec,
    SingularOnPath,
    Tricomplex,
    TriSeries,
    ZERO,
    ZeroDivisor,
    cauchy_value,
    check_analytic,
    derivative,
    eval_series,
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
from tricomplex.calculus import QUADRATURE_CAP, QUADRATURE_TOL, _quadrature
from util import random_triples, tri_err

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


def test_loop_deformation_invariance():
    a = Tricomplex(0.1, 0.0, -0.1)

    def wobble(t):
        ang = 2.0 * math.pi * t
        r = 1.0 + 0.3 * math.sin(3.0 * ang)
        lift = 0.4 * math.cos(2.0 * ang)
        base = Tricomplex(1 / 3 + lift, 1 / 3 + lift, 1 / 3 + lift)
        xi1 = Tricomplex(2.0, -1.0, -1.0) * (1.0 / math.sqrt(6.0))
        xi2 = Tricomplex(0.0, 1.0, -1.0) * (1.0 / math.sqrt(2.0))
        return base + xi1 * (r * math.cos(ang)) + xi2 * (r * math.sin(ang))

    wobbly = Path3.parametric(wobble, samples=128, closed=True)
    got = loop_integral_pole(a, wobbly)
    want = loop_integral_pole(a, Path3.circle(a + Tricomplex(1, 1, 1), 1.0))
    assert abs(got - want) < 1e-6


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
    # the trapezoid rule with the exact tangent converges exponentially
    points = Counted(UNIT_LOOP.point_at)
    got = loop_integral_pole(ZERO, dataclasses.replace(UNIT_LOOP, point_at=points))
    assert abs(got - POLE_LOOP_VALUE) < 1e-14
    assert points.calls <= 32


def test_circle_takes_the_trapezoid_rule():
    # on a smooth periodic loop the trapezoid rule needs far fewer nodes
    # than Gauss-Legendre panels, which take 248 calls here
    a = Tricomplex(0.5, 0.1, 0.1)
    f = Counted(texp)
    got = cauchy_value(f, a, Path3.circle(a + Tricomplex(1, 1, 1), 1.2))
    assert abs(got - POLE_LOOP_VALUE * texp(a)) < 1e-12
    assert f.calls <= 64


def test_circle_start_does_not_depend_on_samples():
    # the trapezoid rule starts from the turns; samples serve winding_count
    few = dataclasses.replace(UNIT_LOOP, samples=4)
    assert abs(loop_integral_pole(ZERO, few) - POLE_LOOP_VALUE) < 1e-14
    with pytest.raises(ValueError):
        dataclasses.replace(UNIT_LOOP, turns=0)
    with pytest.raises(ValueError):
        dataclasses.replace(UNIT_LOOP, tangent_at=None)


def test_quadrature_report():
    value, evaluations, error = _quadrature(inverse, UNIT_LOOP, QUADRATURE_TOL, QUADRATURE_CAP)
    assert value == path_integral(inverse, UNIT_LOOP)
    assert evaluations == 24
    assert error < QUADRATURE_TOL


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


def test_node_cap_is_checked_before_evaluating():
    f = Counted(inverse)
    with pytest.raises(NonConvergent):
        path_integral(f, Path3.circle(Tricomplex(1, 1, 1), 1.0, turns=10**9))
    assert f.calls == 0


def test_path_needs_a_sample():
    # a path without panels would leave the refinement loop nothing to refine
    with pytest.raises(ValueError):
        Path3(point_at=lambda t: ZERO, samples=0, closed=False)


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
    # pole whose projection lies on the projected loop
    pole = PoleSpec(Tricomplex(1.0, 0.0, 0.0), ONE)
    with pytest.raises(AmbiguousWinding):
        residue_sum([pole], UNIT_LOOP)


def test_winding_count_is_capped_before_sampling():
    # 64 samples per turn: one turn more than the node cap allows
    turns = QUADRATURE_CAP // 64 + 1
    points = Counted(UNIT_LOOP.point_at)
    loop = dataclasses.replace(
        Path3.circle(Tricomplex(1, 1, 1), 1.0, turns=turns), point_at=points
    )
    with pytest.raises(NonConvergent):
        winding_count(loop, ZERO)
    with pytest.raises(NonConvergent):
        residue_sum([PoleSpec(ZERO, ONE)], loop)
    assert points.calls == 0


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
