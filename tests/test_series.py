import math
import sys

import numpy as np
import pytest

from tricomplex import (
    H,
    Indeterminate,
    ONE,
    Overflow,
    Tricomplex,
    TriSeries,
    ZERO,
    delta,
    eval_series,
    exp_series,
    inverse,
    modulus,
    radius_cylindrical,
    radius_spherical,
    sigma,
    taylor_recenter,
    texp,
)
from util import random_triples, tri_err

SQRT3 = math.sqrt(3.0)


def test_modulus_examples():
    assert modulus(ONE) == 1.0
    assert modulus(Tricomplex(1, 1, 1)) == SQRT3
    rng = np.random.default_rng(109)
    us = random_triples(rng, 300)
    for u, v in zip(us, us[1:]):
        assert modulus(u + v) <= modulus(u) + modulus(v) + 1e-12
        assert abs(modulus(u) - modulus(v)) <= modulus(u + v) + 1e-12


def test_delta_sigma_accessors():
    u = Tricomplex(1, 2, 3)
    assert sigma(u) == 6.0
    assert abs(delta(u) - math.sqrt(3.0)) < 1e-15


def test_eval_series_basics():
    const = TriSeries((Tricomplex(2.0, -1.0, 0.5),))
    assert eval_series(const, Tricomplex(9, 9, 9)) == Tricomplex(2.0, -1.0, 0.5)
    u = Tricomplex(0.2, 0.1, -0.1)
    assert tri_err(eval_series(exp_series(30), u), texp(u)) < 1e-12


def test_geometric_series_sums_to_inverse():
    u = Tricomplex(0.1, 0.05, 0.0)
    s = TriSeries(tuple(ONE for _ in range(50)))
    assert tri_err(eval_series(s, u), inverse(ONE - u)) < 1e-10


def test_eval_series_canonical_split():
    # the series is evaluated on the split (a complex series on the
    # transverse pair, a real one on the component sum); it must agree
    # with Horner's rule in the algebra's own products
    rng = np.random.default_rng(113)
    coeffs = tuple(Tricomplex(*rng.uniform(-1, 1, 3)) for _ in range(12))
    s = TriSeries(coeffs)
    for u in random_triples(rng, 50, lo=-0.8, hi=0.8):
        want = coeffs[-1]
        for a in reversed(coeffs[:-1]):
            want = want * u + a
        assert tri_err(eval_series(s, u), want) < 1e-12


def test_eval_series_overflow():
    s = TriSeries(tuple(ONE for _ in range(200)))
    with pytest.raises(Overflow):
        eval_series(s, Tricomplex(50.0, 0.0, 0.0))


def test_exp_series_past_the_float_factorials():
    # 171! is beyond the double range; 1/l! is not, and underflows to 0
    s = exp_series(200)
    assert s.coeffs[170] == Tricomplex(1.0 / math.factorial(170), 0.0, 0.0)
    assert s.coeffs[199] == ZERO
    assert tri_err(eval_series(s, Tricomplex(0.3, -0.2, 0.1)), texp(Tricomplex(0.3, -0.2, 0.1))) < 1e-14


def test_exp_series_terms_are_the_rounded_reciprocals():
    # every term is 1/l! rounded once, 0.0 from l = 178 on, where it underflows
    s = exp_series(400)
    assert 1 / math.factorial(177) > 0.0 == 1 / math.factorial(178)
    assert all(c == Tricomplex(1 / math.factorial(l), 0.0, 0.0) for l, c in enumerate(s.coeffs))


def test_exp_series_cost_is_linear_in_the_terms(monkeypatch):
    # no factorial is formed once the terms are 0.0
    calls = []
    factorial = math.factorial
    monkeypatch.setattr(math, "factorial", lambda n: calls.append(n) or factorial(n))
    assert len(exp_series(4000).coeffs) == 4000
    assert max(calls) == 177


def test_series_splits_beyond_the_double_range():
    # a split coordinate of a coefficient, of the argument or of the value
    # may leave the double range where the components do not; the moduli
    # of such values do too, so they are compared componentwise
    def err(got, want):
        d = got - want
        return d.max_abs_component() / max(1.0, want.max_abs_component())

    big = Tricomplex(1.7e308, 1.7e308, 0.0)  # component sum 3.4e308
    u = Tricomplex(0.5, 0.1, -0.2)
    eps = sys.float_info.epsilon
    assert err(eval_series(TriSeries((big, ONE)), u), big + u) < 4 * eps
    assert err(eval_series(TriSeries((ZERO, ONE)), big), big) < 4 * eps
    tiny = TriSeries((ZERO, ONE * 1e-300))
    assert err(eval_series(tiny, Tricomplex(1e308, 1e308, 0.0)), Tricomplex(1e8, 1e8, 0.0)) < 4 * eps
    half = Tricomplex(*(0.5 * sys.float_info.max,) * 3)
    assert err(eval_series(TriSeries((ZERO, ONE)), half), half) < 4 * eps
    # a single coefficient is returned as it is, split or not
    wide = Tricomplex(sys.float_info.max, -sys.float_info.max, 0.0)
    assert eval_series(TriSeries((wide,)), Tricomplex(9, 9, 9)) == wide
    # re-centering moves the big head by the value of the rest at u
    rest = exp_series(6)
    shifted = taylor_recenter(TriSeries((big,) + rest.coeffs[1:]), u)
    plain = taylor_recenter(rest, u)
    assert err(shifted.coeffs[0], big + eval_series(rest, u) - ONE) < 4 * eps
    for got, want in zip(shifted.coeffs[1:], plain.coeffs[1:]):
        assert err(got, want) < 4 * eps
    with pytest.raises(Overflow, match=r"^the expansion of the series at \(1e\+100,0,0\)"):
        taylor_recenter(rest, Tricomplex(1e100, 0.0, 0.0))


def test_modulus_near_the_top_of_the_range():
    assert modulus(Tricomplex(1e300, 1e300, 1e300)) == pytest.approx(SQRT3 * 1e300, rel=1e-15)


def test_delta_near_the_top_of_the_range():
    # sqrt(x^2 + y^2 - xy) = 1e199 * sqrt(91); the squares overflow
    assert delta(Tricomplex(1e200, 1e199, 0.0)) == pytest.approx(1e199 * math.sqrt(91.0), rel=1e-15)
    # here the differences themselves overflow
    big = 1.7976931348623157e308
    assert delta(Tricomplex(big, 0.0, 0.0)) == big
    with pytest.raises(Overflow):
        delta(Tricomplex(big, -big, 0.0))


def test_spherical_radius_examples():
    ones = TriSeries(tuple(ONE for _ in range(20)))
    assert abs(radius_spherical(ones) - 1.0 / SQRT3) < 1e-15
    powers = TriSeries(tuple(ONE * (3.0 ** (l / 2.0)) for l in range(20)))
    assert abs(radius_spherical(powers) - 1.0 / 3.0) < 1e-14
    # entire function: the estimate grows with the truncation length
    short = radius_spherical(exp_series(20))
    long = radius_spherical(exp_series(40))
    assert long > short > 1.0


def test_radius_estimates_read_only_the_tail():
    # only the last ratios enter an estimate, so a head coefficient whose
    # transverse magnitude is beyond the double range leaves it unchanged
    big = sys.float_info.max
    s = exp_series(30)
    head = TriSeries((Tricomplex(big, -big, 0.0),) + s.coeffs[1:])
    assert radius_cylindrical(head) == radius_cylindrical(s)


def test_spherical_radius_indeterminate():
    zeros = TriSeries((ONE, ZERO, ZERO))
    with pytest.raises(Indeterminate):
        radius_spherical(zeros)


def test_radius_estimates_at_the_top_of_the_range():
    # the tail ratio 1e300 / 1e-300 leaves the double range
    s = TriSeries((Tricomplex(1e300, 0, 0), Tricomplex(1e-300, 0, 0)))
    for estimator in (radius_cylindrical, radius_spherical):
        with pytest.raises(Overflow, match="spherical radius estimate leaves the double range"):
            estimator(s)
    # |w_0| / |w_1| = 1e300 / 2e-16 leaves it, while the spherical ratio does not
    s = TriSeries((Tricomplex(1e300, 0, 0), Tricomplex(1.0, 1.0, 1.0 + 2.0**-52)))
    assert math.isfinite(radius_spherical(s))
    with pytest.raises(Overflow, match="transverse radius estimate leaves the double range"):
        radius_cylindrical(s)
    # every ratio is 1e308 or 1e-308: their sum leaves the range, their mean does not
    s = TriSeries(tuple(Tricomplex(1e300 if l % 2 == 0 else 1e-8, 0, 0) for l in range(10)))
    assert radius_spherical(s) == pytest.approx(1e308 / (2 * SQRT3), rel=1e-15)
    assert radius_cylindrical(s).c1 == pytest.approx(1e308 / 2, rel=1e-15)


def test_cylindrical_radius_indeterminate_on_the_trisector_line():
    # coefficients on the trisector line have no transverse pair, so no
    # transverse ratio exists, though every longitudinal one does
    line = TriSeries(tuple(Tricomplex(c, c, c) for c in (1.0, 0.5, 0.25, 0.125)))
    with pytest.raises(Indeterminate, match="split coefficients vanish"):
        radius_cylindrical(line)


def test_cylindrical_region_examples():
    ones = TriSeries(tuple(ONE for _ in range(20)))
    region = radius_cylindrical(ones)
    assert abs(region.c1 - 1.0) < 1e-15
    assert abs(region.cplus - 1.0) < 1e-15
    assert abs(region.c0 - 1.0 / SQRT3) < 1e-15
    assert abs(region.geometric_radius - math.sqrt(2.0 / 3.0)) < 1e-15
    assert abs(region.geometric_height - 2.0 / SQRT3) < 1e-15

    # powers of h cycle through the three units; all have unit split parts
    coeffs = [ONE]
    for _ in range(17):
        coeffs.append(coeffs[-1] * H)
    region = radius_cylindrical(TriSeries(tuple(coeffs)))
    assert abs(region.c1 - 1.0) < 1e-12
    assert abs(region.cplus - 1.0) < 1e-12


def test_ball_inside_cylinder():
    rng = np.random.default_rng(127)
    ratios = rng.uniform(0.5, 2.0)
    coeffs = tuple(ONE * (ratios**l) for l in range(25))
    region = radius_cylindrical(TriSeries(coeffs))
    c0 = region.c0
    for _ in range(500):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, c0) / np.linalg.norm(v)
        u = Tricomplex(*v)
        if modulus(u) < c0:
            assert region.contains(u)


def test_product_modulus_inequality():
    rng = np.random.default_rng(131)
    us = random_triples(rng, 500)
    for u, v in zip(us, us[1:]):
        bound = SQRT3 * modulus(u) * modulus(v)
        assert modulus(u * v) <= bound * (1.0 + 1e-12)
    # equality on the trisector line
    for c1 in (0.5, -2.0, 3.25):
        for c2 in (1.5, -0.75):
            a, b = Tricomplex(c1, c1, c1), Tricomplex(c2, c2, c2)
            bound = SQRT3 * modulus(a) * modulus(b)
            assert abs(modulus(a * b) - bound) <= 1e-12 * bound


def test_power_modulus_inequality():
    rng = np.random.default_rng(137)
    for u in random_triples(rng, 200, lo=-3.0, hi=3.0):
        for l in range(1, 9):
            bound = 3.0 ** ((l - 1) / 2.0) * modulus(u) ** l
            assert modulus(u**l) <= bound * (1.0 + 1e-12)
    c = Tricomplex(1.3, 1.3, 1.3)
    for l in range(1, 9):
        bound = 3.0 ** ((l - 1) / 2.0) * modulus(c) ** l
        assert abs(modulus(c**l) - bound) <= 1e-12 * bound


def test_exact_power_modulus():
    rng = np.random.default_rng(139)
    for u in random_triples(rng, 200, lo=-3.0, hi=3.0):
        d2, s1 = delta(u) ** 2, sigma(u)
        for l in range(1, 8):
            want = (2.0 / 3.0) * d2**l + (1.0 / 3.0) * s1 ** (2 * l)
            got = modulus(u**l) ** 2
            assert abs(got - want) <= 1e-10 * max(1.0, got, want)


def test_term_bound():
    rng = np.random.default_rng(149)
    us = random_triples(rng, 300)
    for a, u in zip(us, us[1:]):
        for l in (1, 3, 5):
            bound = 3.0 ** (l / 2.0) * modulus(a) * modulus(u) ** l
            assert modulus(a * u**l) <= bound * (1.0 + 1e-12)


def test_inverse_modulus_inequality():
    rng = np.random.default_rng(151)
    for u in random_triples(rng, 300, regular=True):
        assert modulus(inverse(u)) >= (1.0 - 1e-12) / modulus(u)
    # equality when xy + xz + yz = 0
    rng2 = np.random.default_rng(157)
    count = 0
    while count < 50:
        x, y = rng2.uniform(-3, 3, size=2)
        if abs(x + y) < 1e-3:
            continue
        u = Tricomplex(x, y, -x * y / (x + y))
        try:
            inv = inverse(u)
        except Exception:
            continue
        assert abs(modulus(inv) - 1.0 / modulus(u)) <= 1e-12 * max(1.0, 1.0 / modulus(u))
        count += 1


def test_triseries_validation():
    with pytest.raises(ValueError):
        TriSeries(())
