import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tricomplex import (
    DomainError,
    ElementaryFn,
    H,
    K,
    ONE,
    Overflow,
    Path3,
    PoleSpec,
    TriPolynomial,
    TriSeries,
    Tricomplex,
    TricomplexError,
    ZERO,
    amplitude,
    cx,
    delta,
    enumerate_root_sets,
    eval_series,
    factor,
    inverse,
    mx,
    oracle_eval,
    polar,
    power_from_polar,
    projection_on_nodal_plane,
    px,
    residue_sum,
    taylor_recenter,
    tcos,
    tcosh,
    texp,
    tlog,
    tpow,
    tsin,
    tsinh,
    winding_count,
)
from tricomplex.errors import REASON_NODAL_PLANE_SIDE, REASON_TRISECTOR_LINE
from util import random_triples, tri_err

SQRT3 = math.sqrt(3.0)
S3H = SQRT3 / 2.0


# -- independent closed-form oracles for pure h/k arguments ---------------


def cos_h_oracle(y):
    a, b = math.cos(y) / 3.0, (2.0 / 3.0) * math.cosh(S3H * y) * math.cos(y / 2.0)
    t = math.sinh(S3H * y) * math.sin(y / 2.0) / SQRT3
    return Tricomplex(a + b, a - b / 2.0 + t, a - b / 2.0 - t)


def sin_h_oracle(y):
    a, b = math.sin(y) / 3.0, (2.0 / 3.0) * math.cosh(S3H * y) * math.sin(y / 2.0)
    t = math.sinh(S3H * y) * math.cos(y / 2.0) / SQRT3
    return Tricomplex(a - b, a + b / 2.0 + t, a + b / 2.0 - t)


def cosh_h_oracle(y):
    a, b = math.cosh(y) / 3.0, (2.0 / 3.0) * math.cos(S3H * y) * math.cosh(y / 2.0)
    t = math.sin(S3H * y) * math.sinh(y / 2.0) / SQRT3
    return Tricomplex(a + b, a - b / 2.0 - t, a - b / 2.0 + t)


def sinh_h_oracle(y):
    a, b = math.sinh(y) / 3.0, (2.0 / 3.0) * math.cos(S3H * y) * math.sinh(y / 2.0)
    t = math.sin(S3H * y) * math.cosh(y / 2.0) / SQRT3
    return Tricomplex(a - b, a + b / 2.0 + t, a + b / 2.0 - t)


def swap_hk(u):
    return Tricomplex(u.x, u.z, u.y)


# -- exponential ------------------------------------------------------------


def test_exp_basics():
    assert texp(ZERO) == ONE
    assert texp(H) == Tricomplex(cx(1.0), mx(1.0), px(1.0))
    assert texp(K * 0.7) == Tricomplex(cx(0.7), px(0.7), mx(0.7))


def test_exp_of_symmetric_pure_argument():
    # exp((h+k)y) has closed components in e^{-y} and e^{2y}
    for y in np.linspace(-3.0, 3.0, 25):
        got = texp(Tricomplex(0.0, y, y))
        em, e2 = math.exp(-y), math.exp(2.0 * y)
        off = -em / 3.0 + e2 / 3.0
        want = Tricomplex(2.0 * em / 3.0 + e2 / 3.0, off, off)
        assert tri_err(got, want) < 1e-12


def test_exp_of_antisymmetric_pure_argument():
    # exp((h-k)y) is a rotation: cosine/sine components in sqrt(3)*y; the
    # wide arguments guard against cancellation between exp(hy) and exp(-ky)
    for y in np.concatenate((np.linspace(-3.0, 3.0, 25), np.linspace(-300.0, 300.0, 61))):
        got = texp(Tricomplex(0.0, y, -y))
        c, s = math.cos(SQRT3 * y), math.sin(SQRT3 * y)
        want = Tricomplex(
            1.0 / 3.0 + 2.0 * c / 3.0,
            1.0 / 3.0 - c / 3.0 + s / SQRT3,
            1.0 / 3.0 - c / 3.0 - s / SQRT3,
        )
        assert tri_err(got, want) < 1e-12


def test_exp_homomorphism():
    rng = np.random.default_rng(67)
    us = random_triples(rng, 300, lo=-3.0, hi=3.0)
    for u, v in zip(us, us[1:]):
        assert tri_err(texp(u + v), texp(u) * texp(v)) < 1e-11


def test_exp_overflow():
    with pytest.raises(Overflow):
        texp(Tricomplex(1000.0, 0.0, 0.0))
    with pytest.raises(Overflow):
        texp(Tricomplex(0.0, 1000.0, 0.0))


# First rows of the matrix functions of the circulant representation,
# evaluated at 60 digits and rounded to doubles.
WIDE_ARGUMENT_VALUES = [
    (texp, (0.0, 30.0, -30.0), (0.2500544950429993, 0.94780065826966607, -0.19785515331266537)),
    (
        tsin,
        (-700.0, 400.0, 400.0),
        (-0.45429814130102554, -0.026033749904366626, -0.026033749904366626),
    ),
    (texp, (-700.0, 400.0, 400.0), (8.9603904727204515e42,) * 3),
]


@pytest.mark.parametrize("fn, at, want", WIDE_ARGUMENT_VALUES)
def test_wide_arguments(fn, at, want):
    assert tri_err(fn(Tricomplex(*at)), Tricomplex(*want)) < 1e-12


def test_top_of_double_range():
    # the transverse and longitudinal parts are each near the largest double
    # (the modulus itself would overflow, so compare componentwise)
    u = Tricomplex(709.5, 0.0, 0.0)
    for got, want in ((texp(u), math.exp(709.5)), (tcosh(u), math.cosh(709.5))):
        assert max(abs(got.x - want), abs(got.y), abs(got.z)) < 1e-15 * want


# the whole double range, with extra weight where exp and cosh overflow
whole_range = st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e3, 1e3)
whole_range_triples = st.builds(Tricomplex, whole_range, whole_range, whole_range)


def _polar_parts(u):
    p = polar(u)
    return (p.d, p.s, p.D, p.rho, p.theta_or_none, p.phi_or_none)


def _components(values):
    return tuple(t for a in values for t in (a.x, a.y, a.z))


def _triangle(u, v):
    # a closed polyline through u and v
    return Path3.polyline([u, v, -u, u], closed=True)


# each takes (u, v) and returns a Tricomplex or a tuple of floats
WHOLE_RANGE_OPERATIONS = {
    "exp": lambda u, v: texp(u),
    "log": lambda u, v: tlog(u),
    "sin": lambda u, v: tsin(u),
    "cos": lambda u, v: tcos(u),
    "sinh": lambda u, v: tsinh(u),
    "cosh": lambda u, v: tcosh(u),
    "inverse": lambda u, v: inverse(u),
    "polar": lambda u, v: _polar_parts(u),
    "amplitude": lambda u, v: (amplitude(u),),
    "pow 3": lambda u, v: tpow(u, 3),
    "pow -2": lambda u, v: tpow(u, -2),
    "pow 0.5": lambda u, v: tpow(u, 0.5),
    "mul": lambda u, v: u * v,
    "add": lambda u, v: u + v,
    "delta": lambda u, v: (delta(u),),
    "projection": lambda u, v: projection_on_nodal_plane(u),
    "factor": lambda u, v: _components(factor(TriPolynomial((ONE, u, v))).roots),
    "enumerate_root_sets": lambda u, v: _components(
        r for rs in enumerate_root_sets(TriPolynomial((ONE, u, v))) for r in rs.roots
    ),
    "winding_count": lambda u, v: (float(winding_count(_triangle(u, v), -v)),),
    "residue_sum": lambda u, v: residue_sum([PoleSpec(-v, ONE)], _triangle(u, v)),
    "eval_series": lambda u, v: eval_series(TriSeries((ONE, u, v)), v),
    "taylor_recenter": lambda u, v: _components(taylor_recenter(TriSeries((ONE, u, v)), v).coeffs),
}


@given(u=whole_range_triples, v=whole_range_triples)
# a transverse coefficient whose modulus is beyond the double range
@example(u=Tricomplex(1.3e308, 0.75e308, -0.75e308), v=ZERO)
# components from 1e-107 to 5e307, whose roots, near 5e153, factor
@example(
    u=Tricomplex(6.662140998568333e16, 1.97959841424133e-107, -73.54866650054805),
    v=Tricomplex(-8.468982973470195e58, -4.737443580491874e307, -406.9818898931609),
)
# the root iteration's start circle, near 1e154, has residual moduli
# beyond the double range: Overflow, not a bare OverflowError
@example(u=ZERO, v=Tricomplex(1e308, 0.5, 0.0))
@settings(max_examples=300, deadline=None)
def test_whole_range_results_are_finite_or_reported(u, v):
    # finite input anywhere in the double range gives a finite result or
    # a library error (Overflow, DomainError, ...): never the ValueError
    # of malformed input, never inf or nan
    for name, op in WHOLE_RANGE_OPERATIONS.items():
        try:
            got = op(u, v)
        except TricomplexError:
            continue
        parts = (got.x, got.y, got.z) if isinstance(got, Tricomplex) else got
        assert all(t is None or math.isfinite(t) for t in parts), (name, u, v, got)


@given(u=whole_range_triples)
@settings(max_examples=300, deadline=None)
def test_log_and_square_root_never_overflow(u):
    # both results lie in the double range for every finite u, whatever
    # the split coordinates or |w| of u do on the way
    for op in (tlog, lambda u: tpow(u, 0.5)):
        try:
            op(u)
        except DomainError:
            pass


def _close_relative(a, b, tol):
    return (a - b).max_abs_component() <= tol * max(a.max_abs_component(), b.max_abs_component())


# 0 or at least 1e-100 in size: the components, their sums and
# differences stay clear of the subnormals for every k below
scalable = st.just(0.0) | st.floats(1e-100, 3.0) | st.floats(-3.0, -1e-100)


@given(u=st.builds(Tricomplex, scalable, scalable, scalable), k=st.integers(-100, 511))
@settings(max_examples=300, deadline=None)
def test_square_root_is_homogeneous_across_the_range(u, k):
    # u * 4**k is exact, and up to 3 * 2**1022 its sums leave the range
    try:
        want = tpow(u, 0.5) * 2.0**k
    except DomainError:
        return
    assert _close_relative(tpow(u * 4.0**k, 0.5), want, 1e-15)


def test_square_root_above_the_square_root_of_the_double_range():
    u = Tricomplex(1e200, 1e199, 0.0)
    r = tpow(u, 0.5)
    assert _close_relative(r * r, u, 1e-15)


def test_negative_sums_beyond_the_range_stay_on_the_nodal_plane_side():
    big = 1.7976931348623157e308
    for u in (Tricomplex(-big, -big, 680.0), Tricomplex(-1e308, -1e308, -1e307), Tricomplex(big, -big, -big)):
        for op in (tlog, lambda u: tpow(u, 0.5)):
            with pytest.raises(DomainError) as err:
                op(u)
            assert err.value.reason == REASON_NODAL_PLANE_SIDE


def test_log_at_the_top_of_the_double_range():
    # log(u * 2**1000) = log(u) + 1000 log 2; the component sum and the
    # transverse magnitude overflow on the way, the logarithm does not
    u = Tricomplex(0.75, 0.5, -0.25)
    big = u * 2.0**1000
    got = tlog(big)
    want = tlog(u) + Tricomplex(1000.0 * math.log(2.0), 0.0, 0.0)
    assert tri_err(got, want) < 1e-15
    # exp turns the ulp of 693 (1.1e-13) into a relative error; the
    # modulus of big overflows, so compare componentwise
    assert (texp(got) - big).max_abs_component() < 1e-12 * big.max_abs_component()


def test_power_with_an_angle_beyond_the_double_range_overflows():
    # m * phi is inf, so math.cos raises its domain ValueError
    with pytest.raises(Overflow):
        power_from_polar(Tricomplex(0.2, 1.0, 0.5), 1e308)
    for m in (math.nan, math.inf):
        with pytest.raises(ValueError):
            power_from_polar(Tricomplex(0.2, 1.0, 0.5), m)


def test_unit_power_closed_forms():
    # (h+k)^m and (h-k)^m collapse onto the span of 1 and h+k / h-k
    hk = H + K
    hmk = H - K
    for m in range(1, 9):
        direct = hk**m
        want = (1.0 / 3.0) * ((-1.0) ** (m - 1) + 2.0**m) * hk + Tricomplex(
            (2.0 / 3.0) * ((-1.0) ** m + 2.0 ** (m - 1)), 0.0, 0.0
        )
        assert tri_err(direct, want) < 1e-12
        direct = hmk**m
        if m % 2 == 0:
            half = m // 2
            want = (-1.0) ** (half - 1) * 3.0 ** (half - 1) * (hk - Tricomplex(2, 0, 0))
        else:
            half = (m - 1) // 2
            want = (-1.0) ** half * 3.0**half * hmk
        assert tri_err(direct, want) < 1e-12


# -- logarithm --------------------------------------------------------------


def test_log_basics():
    assert tlog(ONE) == ZERO
    assert tri_err(texp(tlog(Tricomplex(3, 1, 2))), Tricomplex(3, 1, 2)) < 1e-10


def test_log_round_trip_random():
    rng = np.random.default_rng(71)
    for u in random_triples(rng, 300, regular=True, positive_sum=True):
        assert tri_err(texp(tlog(u)), u) < 1e-10


def test_log_domain_errors():
    with pytest.raises(DomainError) as err:
        tlog(Tricomplex(-1.0, 0.0, 0.0))
    assert err.value.reason == REASON_NODAL_PLANE_SIDE
    with pytest.raises(DomainError) as err:
        tlog(Tricomplex(1.0, 1.0, 1.0))
    assert err.value.reason == REASON_TRISECTOR_LINE
    with pytest.raises(DomainError):
        tlog(Tricomplex(1.0, -1.0, 0.0))  # component sum zero


@pytest.mark.parametrize(
    "u",
    [
        # phi + 2*pi rounds to 2*pi
        Tricomplex(0.13016245722351147, 2.2707336261967548e-154, 2.42332734273592e-142),
        # atan2 underflows to -0.0 below the cut
        Tricomplex(9.748203361851255e47, -2.6995583738471487e-284, 3.832577276108936e-280),
    ],
)
def test_log_just_below_the_branch_cut(u):
    # the azimuthal angle is just below 2*pi, not 0: a full turn of the
    # transverse pair is 2*pi/sqrt(3) in y and -z
    got = tlog(u)
    assert abs(got.y - 2.0 * math.pi / SQRT3) < 1e-14
    assert got.z == -got.y


def test_log_of_product_winding():
    # log(uv) - log u - log v is an integer multiple of 2*pi*(h-k)/sqrt(3)
    rng = np.random.default_rng(73)
    us = random_triples(rng, 200, regular=True, positive_sum=True)
    unit_y = 2.0 * math.pi / SQRT3
    for u, v in zip(us, us[1:]):
        uv = u * v
        if uv.x + uv.y + uv.z <= 0.0:
            continue
        d = tlog(uv) - tlog(u) - tlog(v)
        n = round(d.y / unit_y)
        assert abs(d.x) < 1e-10
        assert abs(d.y - n * unit_y) < 1e-10
        assert abs(d.z + n * unit_y) < 1e-10


# -- power ------------------------------------------------------------------


def test_pow_examples():
    assert tpow(Tricomplex(1, 1, 0), 2) == Tricomplex(1, 2, 1)
    u = Tricomplex(0.3, -0.7, 1.9)
    assert tpow(u, 0) == ONE
    assert tri_err(tpow(Tricomplex(1, 1, 0), -1), inverse(Tricomplex(1, 1, 0))) < 1e-15
    assert tri_err(tpow(u, 3), u * u * u) < 1e-14


def test_pow_formula_matches_repeated_multiplication():
    rng = np.random.default_rng(79)
    us = random_triples(rng, 200, regular=True)
    for u in us:
        for m in range(0, 7):
            formula = power_from_polar(u, float(m))
            direct = u**m
            assert tri_err(formula, direct) < 1e-9


def test_pow_product_rule_integer():
    rng = np.random.default_rng(83)
    us = random_triples(rng, 100, lo=-3.0, hi=3.0)
    for u, v in zip(us, us[1:]):
        for m in (2, 3, 5):
            assert tri_err(tpow(u * v, m), tpow(u, m) * tpow(v, m)) < 1e-10


def test_fractional_pow():
    rng = np.random.default_rng(89)
    for u in random_triples(rng, 100, regular=True, positive_sum=True):
        r = tpow(u, 0.5)
        assert tri_err(r * r, u) < 1e-10
        third = tpow(u, 1.0 / 3.0)
        assert tri_err(third * third * third, u) < 1e-10
    with pytest.raises(DomainError):
        tpow(Tricomplex(-2.0, 0.5, 0.5), 0.5)
    with pytest.raises(DomainError):
        tpow(Tricomplex(1.0, 1.0, 1.0), 0.5)


def test_pow_overflow():
    with pytest.raises(Overflow):
        tpow(Tricomplex(1e200, 0.0, 0.0), 2)
    with pytest.raises(Overflow):
        tpow(Tricomplex(10.0, 0.0, 1.0), 400.5)


def test_integer_powers_in_range_do_not_overflow():
    # the square after the top bit of the exponent never reaches the result
    assert tpow(Tricomplex(1e100, 0.0, 0.0), 2) == Tricomplex(1e100 * 1e100, 0.0, 0.0)
    assert tpow(Tricomplex(1e100, 0.0, 0.0), 3) == Tricomplex(1e100 * 1e100 * 1e100, 0.0, 0.0)
    assert tpow(Tricomplex(1e200, 0.0, 0.0), 1) == Tricomplex(1e200, 0.0, 0.0)
    u = Tricomplex(1.0, 1.0, -2.0 + 1e-11)
    v = inverse(u)
    want = ONE
    for _ in range(16):
        want = want * v
    got = tpow(u, -16)
    assert max(abs(a - b) for a, b in zip((got.x, got.y, got.z), (want.x, want.y, want.z))) <= 1e-12 * abs(want.x)


def test_negative_integer_pow_of_zero_divisor():
    from tricomplex import ZeroDivisor

    with pytest.raises(ZeroDivisor):
        tpow(Tricomplex(1.0, 1.0, 1.0), -1)


# -- circular and hyperbolic ------------------------------------------------


def test_trig_at_zero():
    assert tcos(ZERO) == ONE
    assert abs(tsin(ZERO)) == 0.0
    assert tcosh(ZERO) == ONE
    assert abs(tsinh(ZERO)) == 0.0


def test_pure_argument_closed_forms():
    for y in np.linspace(-2.4, 2.4, 33):
        assert tri_err(tcos(H * y), cos_h_oracle(y)) < 1e-12
        assert tri_err(tsin(H * y), sin_h_oracle(y)) < 1e-12
        assert tri_err(tcosh(H * y), cosh_h_oracle(y)) < 1e-12
        assert tri_err(tsinh(H * y), sinh_h_oracle(y)) < 1e-12
        # the k-argument forms are the h-forms with h and k swapped
        assert tri_err(tcos(K * y), swap_hk(cos_h_oracle(y))) < 1e-12
        assert tri_err(tsin(K * y), swap_hk(sin_h_oracle(y))) < 1e-12
        assert tri_err(tcosh(K * y), swap_hk(cosh_h_oracle(y))) < 1e-12
        assert tri_err(tsinh(K * y), swap_hk(sinh_h_oracle(y))) < 1e-12


def _series_eval(u, signs, start, terms=18):
    # sum of signs[n] * u^(start + 2n) / (start + 2n)! by repeated squaring-free
    # multiplication; independent of the production assembly route
    total = ZERO
    power = ONE
    for _ in range(start):
        power = power * u
    for n in range(terms):
        p = start + 2 * n
        total = total + power * (signs(n) / math.factorial(p))
        power = power * u * u
    return total


def test_series_definitions_small_arguments():
    rng = np.random.default_rng(97)
    for u in random_triples(rng, 40, lo=-1.0, hi=1.0):
        alt = lambda n: (-1.0) ** n
        one = lambda n: 1.0
        assert tri_err(tcos(u), _series_eval(u, alt, 0)) < 1e-12
        assert tri_err(tsin(u), _series_eval(u, alt, 1)) < 1e-12
        assert tri_err(tcosh(u), _series_eval(u, one, 0)) < 1e-12
        assert tri_err(tsinh(u), _series_eval(u, one, 1)) < 1e-12
        assert tri_err(texp(u), _series_eval(u, one, 0) + _series_eval(u, one, 1)) < 1e-12


def test_addition_theorems():
    rng = np.random.default_rng(101)
    us = random_triples(rng, 200, lo=-2.0, hi=2.0)
    for u, v in zip(us, us[1:]):
        assert tri_err(tcos(u + v), tcos(u) * tcos(v) - tsin(u) * tsin(v)) < 1e-11
        assert tri_err(tsin(u + v), tsin(u) * tcos(v) + tcos(u) * tsin(v)) < 1e-11
        assert tri_err(tcosh(u + v), tcosh(u) * tcosh(v) + tsinh(u) * tsinh(v)) < 1e-11
        assert tri_err(tsinh(u + v), tsinh(u) * tcosh(v) + tcosh(u) * tsinh(v)) < 1e-11


def test_pythagorean_identity():
    rng = np.random.default_rng(103)
    for u in random_triples(rng, 200, lo=-3.0, hi=3.0):
        # the squares cancel down to unity, so scale by their size
        circ_scale = max(1.0, abs(tcos(u)) ** 2)
        hyp_scale = max(1.0, abs(tcosh(u)) ** 2)
        assert abs(tsin(u) * tsin(u) + tcos(u) * tcos(u) - ONE) < 1e-12 * circ_scale
        assert abs(tcosh(u) * tcosh(u) - tsinh(u) * tsinh(u) - ONE) < 1e-12 * hyp_scale


# -- the canonical-split oracle ---------------------------------------------


def test_oracle_equivalence_examples():
    u = Tricomplex(0.3, -0.2, 0.5)
    assert tri_err(oracle_eval(ElementaryFn.EXP, u), texp(u)) < 1e-12
    assert tri_err(oracle_eval(ElementaryFn.COS, H), tcos(H)) < 1e-12
    small = Tricomplex(0.4, 0.3, 0.1)
    assert tri_err(oracle_eval(ElementaryFn.LOG, texp(small)), small) < 1e-12


def test_oracle_equivalence_random():
    rng = np.random.default_rng(107)
    us = random_triples(rng, 300, lo=-3.0, hi=3.0, regular=True, positive_sum=True)
    for u in us:
        for fn, direct in (
            (ElementaryFn.EXP, texp),
            (ElementaryFn.LOG, tlog),
            (ElementaryFn.SIN, tsin),
            (ElementaryFn.COS, tcos),
            (ElementaryFn.SINH, tsinh),
            (ElementaryFn.COSH, tcosh),
        ):
            assert tri_err(oracle_eval(fn, u), direct(u)) < 1e-10


def test_log_and_its_oracle_where_the_squares_underflow():
    # the squared differences and the cubic form of u underflow, the
    # transverse magnitude, the amplitude and the logarithm do not
    u = Tricomplex(1e-200, 0.0, 0.0)
    want = Tricomplex(math.log(1e-200), 0.0, 0.0)
    for got in (tlog(u), oracle_eval(ElementaryFn.LOG, u)):
        assert abs(got - want) < 1e-15 * abs(want)
    assert amplitude(u) == 1e-200


def test_oracle_exp_overflow():
    # the oracle's product of exponentials leaves the double range
    with pytest.raises(Overflow):
        oracle_eval(ElementaryFn.EXP, Tricomplex(800.0, 0.0, 0.0))


def test_oracle_domain_mirrors_log():
    with pytest.raises(DomainError):
        oracle_eval(ElementaryFn.LOG, Tricomplex(-1.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        oracle_eval(ElementaryFn.LOG, Tricomplex(1.0, 1.0, 1.0))
