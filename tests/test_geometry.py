import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricomplex import (
    DomainError,
    E1,
    E1T,
    EP,
    ONE,
    Overflow,
    Tricomplex,
    UndefinedAngle,
    ZERO,
    amplitude,
    basis_constants,
    canonical_mul,
    component_sum,
    determinant_form,
    from_canonical,
    from_exponential,
    inverse,
    invariant_circle_point,
    normalize_phi,
    polar,
    projection_on_nodal_plane,
    to_canonical,
)
from tricomplex.functions import _log_pieces
from tricomplex.geometry import transverse_longitudinal
from util import random_triples, tri_err

SQRT3 = math.sqrt(3.0)


def test_polar_axis_points():
    p = polar(Tricomplex(1, 0, 0))
    assert abs(p.s - 1.0 / SQRT3) < 1e-15
    assert abs(p.D - math.sqrt(2.0 / 3.0)) < 1e-15
    assert abs(math.tan(p.theta) - math.sqrt(2.0)) < 1e-14
    assert p.phi == 0.0
    assert abs(polar(Tricomplex(0, 1, 0)).phi - 2.0 * math.pi / 3.0) < 1e-14
    assert abs(polar(Tricomplex(0, 0, 1)).phi - 4.0 * math.pi / 3.0) < 1e-14


def test_polar_on_trisector_line():
    p = polar(Tricomplex(2, 2, 2))
    assert p.D == 0.0
    assert abs(p.s - 2.0 * SQRT3) < 1e-15
    assert p.theta == 0.0
    assert p.rho == 0.0
    assert p.phi_or_none is None
    with pytest.raises(UndefinedAngle):
        _ = p.phi


def test_polar_when_only_the_component_sum_leaves_the_range():
    # x + y + z overflows, so s and D come from a copy scaled by 2**-1024:
    # s is that copy's scaled back exactly, D = 0 and phi is undefined
    p, small = polar(Tricomplex(1e308, 1e308, 1e308)), polar(Tricomplex(*[math.ldexp(1e308, -1024)] * 3))
    assert math.isfinite(p.d) and p.s == math.ldexp(small.s, 1024)
    assert (p.D, p.theta, p.phi_or_none) == (0.0, 0.0, None)
    with pytest.raises(UndefinedAngle):
        _ = p.phi


def test_polar_at_origin():
    p = polar(ZERO)
    assert p.d == 0.0
    assert p.theta_or_none is None and p.phi_or_none is None
    with pytest.raises(UndefinedAngle):
        _ = p.theta


def test_polar_internal_relations():
    rng = np.random.default_rng(31)
    for u in random_triples(rng, 300, regular=True):
        p = polar(u)
        assert abs(p.d * p.d - (p.D * p.D + p.s * p.s)) <= 1e-12 * max(1.0, p.d * p.d)
        assert abs(p.D - p.d * math.sin(p.theta)) <= 1e-12 * max(1.0, p.d)
        assert abs(p.s - p.d * math.cos(p.theta)) <= 1e-12 * max(1.0, p.d)
        # cubic form in terms of projection and distance
        nu = determinant_form(u)
        assert abs(nu - 1.5 * SQRT3 * p.s * p.D * p.D) <= 1e-12 * max(1.0, abs(nu))
        if p.s > 0:
            pred = (SQRT3 / 2.0 ** (1.0 / 3.0)) * p.d * math.sin(p.theta) ** (
                2.0 / 3.0
            ) * math.cos(p.theta) ** (1.0 / 3.0)
            assert abs(p.rho - pred) <= 1e-12 * max(1.0, abs(p.rho))


def test_polar_lines_and_csv():
    p = polar(Tricomplex(1, 0, 0))
    lines = p.lines()
    assert lines[0] == "d=1"
    assert lines[4] == "phi=0"
    assert p.csv_row().startswith("1,0.57735026918962584,")
    assert "undefined" in polar(Tricomplex(2, 2, 2)).lines()[4]


def test_descriptor_records_keep_their_fields_and_lines():
    p = polar(Tricomplex(1, 2, 3))
    assert p.lines() == [
        "d=3.7416573867739413",
        "s=3.4641016151377548",
        "D=1.4142135623730949",
        "theta=0.3875966866551806",
        "phi=3.6651914291880918",
        "rho=2.6207413942088964",
    ]
    assert repr(p) == (
        "PolarForm(d=3.7416573867739413, s=3.464101615137755, D=1.414213562373095,"
        " rho=2.6207413942088964, theta_or_none=0.3875966866551806, phi_or_none=3.665191429188092)"
    )
    assert polar(ZERO).lines() == ["d=0", "s=0", "D=0", "theta=undefined", "phi=undefined", "rho=0"]
    assert polar(ZERO).csv_row() == "0,0,0,undefined,undefined,0"
    c = to_canonical(Tricomplex(1, 2, 3))
    assert repr(c) == "CanonicalForm(v1=-1.5, v1t=-0.8660254037844386, vp=6.0)"
    assert hash(c) == hash(to_canonical(Tricomplex(1, 2, 3)))
    for record, field in ((p, "d"), (c, "v1")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)


def test_canonical_examples_and_round_trip():
    c = to_canonical(ONE)
    assert (c.v1, c.v1t, c.vp) == (1.0, 0.0, 1.0)
    ch = to_canonical(Tricomplex(0, 1, 0))
    assert abs(ch.v1 + 0.5) < 1e-15
    assert abs(ch.v1t - SQRT3 / 2.0) < 1e-15
    assert ch.vp == 1.0
    rng = np.random.default_rng(37)
    for u in random_triples(rng, 200):
        back = from_canonical(to_canonical(u))
        assert abs(back - u) <= 1e-14 * max(1.0, abs(u))


def test_canonical_multiplication_rule():
    rng = np.random.default_rng(41)
    us = random_triples(rng, 200)
    for u, v in zip(us, us[1:]):
        cu, cv = to_canonical(u), to_canonical(v)
        direct = to_canonical(u * v)
        split = canonical_mul(cu, cv)
        scale = max(1.0, abs(u) * abs(v))
        assert abs(direct.v1 - split.v1) <= 1e-12 * scale
        assert abs(direct.v1t - split.v1t) <= 1e-12 * scale
        assert abs(direct.vp - split.vp) <= 1e-12 * scale
        # modulus in canonical coordinates
        m2 = (2.0 / 3.0) * (cu.v1**2 + cu.v1t**2) + (1.0 / 3.0) * cu.vp**2
        assert abs(m2 - abs(u) ** 2) <= 1e-14 * max(1.0, m2)


def test_basis_multiplication_table():
    e1, e1t, ep = basis_constants()
    assert (e1, e1t, ep) == (E1, E1T, EP)
    assert tri_err(e1 * e1, e1) < 1e-15
    assert tri_err(e1t * e1t, -e1) < 1e-15
    assert tri_err(e1 * e1t, e1t) < 1e-15
    assert abs(e1 * ep) < 1e-15
    assert abs(e1t * ep) < 1e-15
    assert tri_err(ep * ep, ep) < 1e-15
    assert abs(abs(e1) - math.sqrt(2.0 / 3.0)) < 1e-15
    assert abs(abs(e1t) - math.sqrt(2.0 / 3.0)) < 1e-15
    assert abs(abs(ep) - math.sqrt(1.0 / 3.0)) < 1e-15


def test_normalize_phi_stays_below_two_pi():
    below = math.nextafter(2.0 * math.pi, 0.0)
    assert normalize_phi(-1e-300) == below
    assert normalize_phi(-0.0) == 0.0 and normalize_phi(2.0 * math.pi) == 0.0
    # a point whose transverse pair is just below the cut, its angle underflowing
    assert polar(Tricomplex(1e300, -1e-20, 0.0)).phi == below


def test_from_exponential_round_trips():
    for u in [Tricomplex(1, 2, 3), Tricomplex(1, 1, 0), Tricomplex(0.3, 0.1, 0.05)]:
        p = polar(u)
        back = from_exponential(p.rho, p.theta, p.phi)
        assert tri_err(back, u) < 1e-10
    rng = np.random.default_rng(43)
    for u in random_triples(rng, 200, regular=True, positive_sum=True):
        p = polar(u)
        assert tri_err(from_exponential(p.rho, p.theta, p.phi), u) < 1e-10


def test_from_exponential_domain():
    with pytest.raises(DomainError):
        from_exponential(-1.0, 0.5, 0.0)
    with pytest.raises(DomainError):
        from_exponential(1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        from_exponential(1.0, math.pi / 2.0, 0.0)
    with pytest.raises(DomainError):
        from_exponential(1.0, 2.0, 0.0)


def test_transverse_longitudinal_domain():
    # the checks of from_exponential, on the descriptors themselves
    for rho, theta in ((0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, math.pi / 2.0), (1.0, 2.0)):
        with pytest.raises(DomainError):
            transverse_longitudinal(rho, theta)


def test_transverse_longitudinal_range():
    # delta and sigma beyond the double range are named, not passed on
    calls = (lambda: transverse_longitudinal(1e308, 1.5), lambda: from_exponential(1e308, 1.5, 0.3))
    for call in calls:
        with pytest.raises(Overflow) as info:
            call()
        message = str(info.value)
        assert "delta" in message and "nan" not in message and "inf" not in message
    with pytest.raises(Overflow, match="sigma"):
        transverse_longitudinal(1e308, 0.3)


def test_from_exponential_rejects_non_finite_input():
    # malformed input, not an overflow of a computed value
    with pytest.raises(ValueError):
        from_exponential(math.inf, 0.5, 0.0)
    with pytest.raises(ValueError):
        from_exponential(1.0, 0.5, math.nan)


def test_three_term_reconstruction():
    # u = e1*delta*cos(phi) + e1t*delta*sin(phi) + ep*sigma, valid off the line
    rng = np.random.default_rng(47)
    for u in random_triples(rng, 300, regular=True, positive_sum=True):
        p = polar(u)
        delta = p.D * math.sqrt(1.5)
        sigma = component_sum(u)
        rebuilt = (
            E1 * (delta * math.cos(p.phi))
            + E1T * (delta * math.sin(p.phi))
            + EP * sigma
        )
        assert tri_err(rebuilt, u) < 1e-12


def test_product_law_of_descriptors():
    rng = np.random.default_rng(53)
    us = random_triples(rng, 400, regular=True, positive_sum=True)
    for u, v in zip(us, us[1:]):
        pu, pv, pp = polar(u), polar(v), polar(u * v)
        assert abs(pp.s - SQRT3 * pu.s * pv.s) <= 1e-10 * max(1.0, abs(pp.s))
        assert abs(pp.D - math.sqrt(1.5) * pu.D * pv.D) <= 1e-10 * max(1.0, pp.D)
        lhs = math.tan(pp.theta)
        rhs = math.tan(pu.theta) * math.tan(pv.theta) / math.sqrt(2.0)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))
        dphi = normalize_phi(pu.phi + pv.phi) - pp.phi
        assert min(abs(dphi), abs(abs(dphi) - 2.0 * math.pi)) < 1e-10


def test_invariant_circle():
    assert tri_err(invariant_circle_point(0.0), ONE) < 1e-15
    assert tri_err(invariant_circle_point(2.0 * math.pi / 3.0), Tricomplex(0, 1, 0)) < 1e-15
    assert tri_err(invariant_circle_point(4.0 * math.pi / 3.0), Tricomplex(0, 0, 1)) < 1e-15
    rng = np.random.default_rng(59)
    for _ in range(200):
        a, b = rng.uniform(0.0, 2.0 * math.pi, size=2)
        lhs = invariant_circle_point(a) * invariant_circle_point(b)
        assert tri_err(lhs, invariant_circle_point(a + b)) < 1e-12
    # the circle's geometry: center projection and radius
    pt = invariant_circle_point(1.234)
    assert abs(component_sum(pt) - 1.0) < 1e-15
    assert abs(abs(pt - Tricomplex(1 / 3, 1 / 3, 1 / 3)) - math.sqrt(2.0 / 3.0)) < 1e-15


def test_projection_on_nodal_plane():
    # the in-plane frame (2, -1, -1)/sqrt(6), (0, 1, -1)/sqrt(2)
    for u in random_triples(np.random.default_rng(61), 200):
        xi1, xi2 = projection_on_nodal_plane(u)
        assert abs(xi1 - (2.0 * u.x - u.y - u.z) / math.sqrt(6.0)) < 1e-14
        assert abs(xi2 - (u.y - u.z) / math.sqrt(2.0)) < 1e-14
    # 2x and x+y+z overflow on the way, the projection (max/sqrt(6), 0)
    # does not; (max, -max, -max) projects beyond the double range
    big = sys.float_info.max
    xi1, xi2 = projection_on_nodal_plane(Tricomplex(big, big / 2, big / 2))
    assert abs(xi1 - big / math.sqrt(6.0)) <= 1e-15 * xi1 and xi2 == 0.0
    with pytest.raises(Overflow):
        projection_on_nodal_plane(Tricomplex(big, -big, -big))


def test_amplitude_on_circle_is_one():
    for phi in np.linspace(0.0, 6.0, 25):
        assert abs(amplitude(invariant_circle_point(phi)) - 1.0) < 1e-12


# u times 2**1000 is exact, and its squares and cubic form overflow
TOP_SCALE = 1000
TOP_POINT = Tricomplex(0.75, -0.5, 0.25)
TOP_VALUE = TOP_POINT * 2.0**TOP_SCALE


def test_descriptors_at_the_top_of_the_double_range():
    # d, s, D, rho and the canonical coordinates are degree-1
    # homogeneous and the angles do not depend on scale, so the top of
    # the range gives the small point's values scaled exactly
    small, big = polar(TOP_POINT), polar(TOP_VALUE)
    for name in ("d", "s", "D", "rho"):
        assert getattr(big, name) == math.ldexp(getattr(small, name), TOP_SCALE)
    assert (big.theta, big.phi) == (small.theta, small.phi)
    assert amplitude(TOP_VALUE) == math.ldexp(amplitude(TOP_POINT), TOP_SCALE)
    want = inverse(TOP_POINT)
    assert inverse(TOP_VALUE) == Tricomplex(
        *(math.ldexp(t, -TOP_SCALE) for t in (want.x, want.y, want.z))
    )
    # only the sums on the way overflow here; the coordinates do not
    c = to_canonical(Tricomplex(1e308, -1e308, 1e308))
    assert (c.v1, c.vp) == (1e308, 1e308)
    assert abs(c.v1t + SQRT3 * 1e308) < 1e-15 * SQRT3 * 1e308
    assert abs(polar(Tricomplex(1e308, -1e308, 1e308)).phi - 5.0 * math.pi / 3.0) < 1e-15
    # the cubic form overflows below the squares: 1e120 cubed; and it
    # underflows to 0 for 1e-110 when no tolerance guards it
    assert abs(inverse(Tricomplex(1e120, 0.0, 0.0)).x - 1e-120) < 1e-135
    assert abs(inverse(Tricomplex(1e-110, 0.0, 0.0), tol=0.0).x - 1e110) < 1e95


def test_descriptors_beyond_the_double_range_overflow():
    with pytest.raises(Overflow):
        to_canonical(Tricomplex(1e308, 1e308, 1e308))  # vp = 3e308
    with pytest.raises(Overflow):
        polar(Tricomplex(1.7e308, 1.7e308, 0.0))  # d = 2.4e308
    with pytest.raises(Overflow):
        amplitude(Tricomplex(1.7e308, -1.7e308, 1.7e308))  # rho = 2.7e308
    with pytest.raises(Overflow):
        # the cubic form is 1.3e-310, the inverse 4e309; nothing to rescale
        inverse(Tricomplex(0.75, -0.75, 7.5e-311), tol=0.0)


def _exact_split(u):
    """v1 and v1t from the exact values of the components (and of the
    double sqrt(3)), rounded once."""
    x, y, z = (Fraction(t) for t in (u.x, u.y, u.z))
    return float(x - (y + z) / 2), float(Fraction(SQRT3) / 2 * (y - z))


near_line_scale = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)
near_line_offset = st.floats(-1e-12, 1e-12)


@given(a=near_line_scale, p=near_line_offset, q=near_line_offset)
@settings(max_examples=300, deadline=None)
def test_split_and_phi_near_the_trisector_line(a, p, q):
    # x - y and x - z are exact here, so v1 is rounded once; the
    # form x - (y+z)/2 loses up to an ulp of x, which moved arg w by up
    # to pi/6 at (1, 1+2**-52, 1+2**-51)
    for u in (Tricomplex(a, a * (1.0 + p), a * (1.0 + q)), Tricomplex(1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-51)):
        v1, v1t = _exact_split(u)
        if v1 == v1t == 0.0:
            continue
        c = to_canonical(u)
        assert abs(c.v1 - v1) <= 4.0 * math.ulp(v1)
        assert abs(c.v1t - v1t) <= 4.0 * math.ulp(v1t)
        phi = normalize_phi(math.atan2(v1t, v1))
        assert abs(polar(u).phi - phi) < 1e-15
        assert abs(_log_pieces(u, None)[1] - phi) < 1e-15
