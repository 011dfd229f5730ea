import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricomplex import (
    AlgebraClass,
    H,
    K,
    ONE,
    Overflow,
    Path3,
    TriPolynomial,
    Tricomplex,
    ZERO,
    ZeroDivisor,
    add,
    amplitude,
    classify,
    component_sum,
    determinant_form,
    exp_series,
    inverse,
    irreducible_rep,
    loop_integral_pole,
    mul,
    quadratic_form,
    taylor_recenter,
    to_matrix,
)
from util import random_triples, tri_err

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
triples = st.builds(Tricomplex, finite, finite, finite)


def hand_mul(u, v):
    # product rule written out longhand, independent of the library path
    return (
        u.x * v.x + u.y * v.z + u.z * v.y,
        u.z * v.z + u.x * v.y + u.y * v.x,
        u.y * v.y + u.x * v.z + u.z * v.x,
    )


def test_add_examples():
    assert add(Tricomplex(1, 2, 3), Tricomplex(4, 5, 6)) == Tricomplex(5, 7, 9)
    u = Tricomplex(1.5, -2.0, 0.25)
    assert u + ZERO == u
    assert Tricomplex(1, -1, 0) + Tricomplex(-1, 1, 0) == ZERO


def test_mul_unit_rules():
    assert H * H == K
    assert K * K == H
    assert H * K == ONE
    assert Tricomplex(1, 1, 0) * K == Tricomplex(1, 0, 1)
    assert Tricomplex(1, 1, 1) * Tricomplex(1, 1, 1) == Tricomplex(3, 3, 3)


@given(u=triples, v=triples)
def test_mul_matches_hand_expansion(u, v):
    assert (u * v).x == hand_mul(u, v)[0]
    assert (u * v).y == hand_mul(u, v)[1]
    assert (u * v).z == hand_mul(u, v)[2]


@given(u=triples, v=triples)
def test_commutative(u, v):
    assert tri_err(u * v, v * u) < 1e-12


@given(u=triples, v=triples, w=triples)
@settings(max_examples=200)
def test_associative_and_distributive(u, v, w):
    assert tri_err((u * v) * w, u * (v * w)) < 1e-12
    assert tri_err(u * (v + w), u * v + u * w) < 1e-12


@given(u=triples)
def test_cubic_form_factorization(u):
    direct = u.x**3 + u.y**3 + u.z**3 - 3.0 * u.x * u.y * u.z
    factored = determinant_form(u)
    assert abs(direct - factored) <= 1e-12 * max(1.0, abs(direct), abs(factored))


def test_inverse_examples():
    assert inverse(ONE) == ONE
    got = inverse(Tricomplex(1, 1, 0))
    assert got == Tricomplex(0.5, -0.5, 0.5)
    # independent check: longhand product with the original is unity
    assert hand_mul(Tricomplex(1, 1, 0), got) == (1.0, 0.0, 0.0)


def test_inverse_zero_divisors():
    with pytest.raises(ZeroDivisor) as err:
        inverse(Tricomplex(1, 1, 1))
    assert err.value.algebra_class is AlgebraClass.ON_TRISECTOR_LINE
    with pytest.raises(ZeroDivisor) as err:
        inverse(Tricomplex(1, -1, 0))
    assert err.value.algebra_class is AlgebraClass.ON_NODAL_PLANE
    with pytest.raises(ZeroDivisor) as err:
        inverse(ZERO)
    assert err.value.algebra_class is AlgebraClass.ZERO


def test_inverse_random_round_trip():
    rng = np.random.default_rng(7)
    for u in random_triples(rng, 500, regular=True):
        assert abs(u * inverse(u) - ONE) < 1e-10


def test_amplitude_examples():
    assert amplitude(ONE) == 1.0
    assert abs(amplitude(Tricomplex(1, 1, 0)) - 2.0 ** (1.0 / 3.0)) < 1e-15
    assert amplitude(Tricomplex(1, 1, 1)) == 0.0
    # signed for negative component sums
    assert amplitude(Tricomplex(-1, 0, 0)) == -1.0


def test_amplitude_multiplicative_with_sign():
    rng = np.random.default_rng(11)
    us = random_triples(rng, 300)
    for u, v in zip(us, us[1:]):
        lhs = amplitude(u * v)
        rhs = amplitude(u) * amplitude(v)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_classify_examples():
    assert classify(Tricomplex(1, -1, 0)) is AlgebraClass.ON_NODAL_PLANE
    assert classify(Tricomplex(2, 2, 2)) is AlgebraClass.ON_TRISECTOR_LINE
    assert classify(Tricomplex(1, 2, 3)) is AlgebraClass.REGULAR
    assert classify(ZERO) is AlgebraClass.ZERO
    assert classify(Tricomplex(1, 2, 3), tol=100.0) is AlgebraClass.ZERO
    with pytest.raises(ValueError):
        classify(ONE, tol=-1.0)


def test_zero_product_structure():
    rng = np.random.default_rng(13)
    for _ in range(100):
        c = rng.uniform(0.5, 5.0)
        line = Tricomplex(c, c, c)
        x, y = rng.uniform(-5, 5, size=2)
        plane = Tricomplex(x, y, -(x + y))
        prod = line * plane
        assert abs(prod) < 1e-12 * max(1.0, abs(line) * abs(plane))
        assert classify(line) is AlgebraClass.ON_TRISECTOR_LINE
        assert classify(plane) in (AlgebraClass.ON_NODAL_PLANE, AlgebraClass.ZERO)


def test_sum_and_transverse_product_identities():
    rng = np.random.default_rng(17)
    us = random_triples(rng, 300)
    for u, v in zip(us, us[1:]):
        p = u * v
        # component sums multiply
        lhs = component_sum(p)
        rhs = component_sum(u) * component_sum(v)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))
        # quadratic forms multiply (corrected product-of-forms identity)
        ql, qr = quadratic_form(p), quadratic_form(u) * quadratic_form(v)
        assert abs(ql - qr) <= 1e-12 * max(1.0, abs(ql), abs(qr))
        # the transverse pair multiplies like a complex number
        a1, b1 = u.x - 0.5 * (u.y + u.z), 0.5 * math.sqrt(3.0) * (u.y - u.z)
        a2, b2 = v.x - 0.5 * (v.y + v.z), 0.5 * math.sqrt(3.0) * (v.y - v.z)
        ap, bp = p.x - 0.5 * (p.y + p.z), 0.5 * math.sqrt(3.0) * (p.y - p.z)
        assert abs(ap - (a1 * a2 - b1 * b2)) <= 1e-12 * max(1.0, abs(ap))
        assert abs(bp - (a1 * b2 + b1 * a2)) <= 1e-12 * max(1.0, abs(bp))


def test_to_matrix_examples():
    assert np.array_equal(to_matrix(ONE), np.eye(3))
    assert abs(np.linalg.det(to_matrix(Tricomplex(1, 1, 0))) - 2.0) < 1e-12
    assert np.allclose(to_matrix(H) @ to_matrix(H), to_matrix(K), atol=0)


def test_matrix_is_circulant():
    m = to_matrix(Tricomplex(1.0, 2.0, 3.0))
    assert m[0].tolist() == [1.0, 2.0, 3.0]
    assert m[1].tolist() == [3.0, 1.0, 2.0]
    assert m[2].tolist() == [2.0, 3.0, 1.0]


def test_matrix_homomorphism_and_det():
    rng = np.random.default_rng(19)
    us = random_triples(rng, 200)
    for u, v in zip(us, us[1:]):
        lhs = to_matrix(u) @ to_matrix(v)
        rhs = to_matrix(u * v)
        scale = max(1.0, np.max(np.abs(lhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale
        d1, d2 = np.linalg.det(to_matrix(u)), np.linalg.det(to_matrix(v))
        d12 = np.linalg.det(rhs)
        assert abs(d1 * d2 - d12) <= 1e-10 * max(1.0, abs(d12))
        assert abs(np.linalg.det(to_matrix(u)) - amplitude(u) ** 3) <= 1e-10 * max(
            1.0, abs(amplitude(u) ** 3)
        )


def test_irreducible_rep():
    assert np.array_equal(irreducible_rep(ONE), np.eye(3))
    r = irreducible_rep(H)
    s32 = math.sqrt(3.0) / 2.0
    assert np.allclose(
        r, [[-0.5, s32, 0.0], [-s32, -0.5, 0.0], [0.0, 0.0, 1.0]], atol=1e-15
    )
    # similarity with the circulant representation
    t = np.array(
        [
            [math.sqrt(2.0 / 3.0), -1.0 / math.sqrt(6.0), -1.0 / math.sqrt(6.0)],
            [0.0, 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)],
            [1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)],
        ]
    )
    rng = np.random.default_rng(23)
    for u in random_triples(rng, 50):
        sim = t @ to_matrix(u) @ t.T
        assert np.max(np.abs(sim - irreducible_rep(u))) < 1e-12 * max(1.0, abs(u))
        assert abs(np.linalg.det(irreducible_rep(u)) - amplitude(u) ** 3) <= 1e-10 * max(
            1.0, abs(amplitude(u)) ** 3
        )


def test_pow_and_scalar_operators():
    u = Tricomplex(1.5, -0.25, 2.0)
    assert u**0 == ONE
    assert u**1 == u
    assert tri_err(u**3, u * u * u) < 1e-14
    assert tri_err(u**-2, inverse(u) * inverse(u)) < 1e-14
    assert 2.0 * u == Tricomplex(3.0, -0.5, 4.0)
    assert -u == Tricomplex(-1.5, 0.25, -2.0)


def test_literal_round_trip():
    u = Tricomplex(1.0, -0.5, 0.5)
    assert u.literal() == "(1,-0.5,0.5)"
    assert Tricomplex.parse(u.literal()) == u
    v = Tricomplex(math.pi, -math.e, 1e-17)
    assert Tricomplex.parse(v.literal()) == v
    assert Tricomplex.parse(" (1, -0.5, 0.5) ") == u
    for bad in ["", "1,2,3", "(1,2)", "(1,2,3,4)", "(a,b,c)", "(1 2 3)"]:
        with pytest.raises(ValueError):
            Tricomplex.parse(bad)


def test_components_must_be_finite():
    with pytest.raises(ValueError):
        Tricomplex(float("inf"), 0.0, 0.0)
    with pytest.raises(ValueError):
        Tricomplex(0.0, float("nan"), 0.0)


def test_computed_values_are_plain_values():
    u = Tricomplex(1.5, -0.25, 2.0)
    for scalar in (3, np.float64(0.5), True):
        got = u * scalar
        want = Tricomplex(1.5 * float(scalar), -0.25 * float(scalar), 2.0 * float(scalar))
        assert got == want
        assert hash(got) == hash(want)
        assert all(type(t) is float for t in (got.x, got.y, got.z))
    got = u * H + ONE
    assert got == Tricomplex(1.0 + 2.0, 1.5, -0.25)
    assert hash(got) == hash(Tricomplex(3.0, 1.5, -0.25))


def test_computed_values_beyond_the_double_range_overflow():
    # a result that leaves the double range is Overflow wherever it is
    # computed; only non-finite input is ValueError
    big = Tricomplex(1e200, 0.0, 0.0)
    with pytest.raises(Overflow):
        big * big
    with pytest.raises(Overflow):
        Tricomplex(1.7e308, 0.0, 0.0) + Tricomplex(1.7e308, 0.0, 0.0)
    with pytest.raises(Overflow):
        big * 1e200
    square_minus_one = TriPolynomial.from_components([(1, 0, 0), (0, 0, 0), (-1, 0, 0)])
    with pytest.raises(Overflow):
        square_minus_one(big)
    with pytest.raises(Overflow):
        TriPolynomial.from_roots([big, big])
    with pytest.raises(Overflow):
        taylor_recenter(exp_series(6), Tricomplex(1e100, 0.0, 0.0))
    huge = Tricomplex(1e308, 1e308, 1e308)
    with pytest.raises(Overflow):
        loop_integral_pole(ZERO, Path3.circle(huge, 1e308))
