import math

import numpy as np
import pytest

from tricomplex import CosexpKind, Overflow, cosexp, cosexp_derivative, cosexp_series, cx, mx, px

GRID = np.linspace(-5.0, 5.0, 101)


def series_oracle(offset: int, y: float, terms: int) -> float:
    # direct summation, independent of the library implementation
    return sum(y ** (3 * n + offset) / math.factorial(3 * n + offset) for n in range(terms))


def test_values_at_zero_are_exact():
    assert cx(0.0) == 1.0
    assert mx(0.0) == 0.0
    assert px(0.0) == 0.0
    assert cosexp_series(CosexpKind.CX, 0.0, 5) == 1.0


def test_series_partial_sums():
    assert cosexp_series(CosexpKind.CX, 1.0, 10) == pytest.approx(
        1.1680583133759186, abs=1e-15
    )
    for kind, offset in ((CosexpKind.CX, 0), (CosexpKind.MX, 1), (CosexpKind.PX, 2)):
        for y in (-2.5, 0.7, 4.0):
            for terms in (1, 3, 12):
                assert cosexp_series(kind, y, terms) == pytest.approx(
                    series_oracle(offset, y, terms), rel=1e-15, abs=1e-300
                )
    with pytest.raises(ValueError):
        cosexp_series(CosexpKind.CX, 1.0, 0)


def test_series_past_the_double_range_of_its_factorials():
    # p! leaves the double range past p = 170, where the terms at y = 1 are
    # below the sum's last digit
    for kind in CosexpKind:
        want = cosexp_series(kind, 1.0, 57)
        assert cosexp_series(kind, 1.0, 58) == want
        assert cosexp_series(kind, 1.0, 60) == want
        # y**p leaves it from p = 155 at y = 100, the terms y**p/p! do not
        assert cosexp_series(kind, 100.0, 150) == pytest.approx(cosexp(kind, 100.0), rel=1e-13)
    with pytest.raises(Overflow):
        cosexp_series(CosexpKind.PX, 1e200, 1)


def test_series_terms_up_to_170_are_the_direct_quotients(monkeypatch):
    # each term up to p = 170 is y**p / p! as written, so every partial
    # sum is too; past the peak a zero term ends the sum, and no factorial
    # beyond 171! is formed
    for kind in CosexpKind:
        for y in (-7.5, -1.0, 0.3, 2.0, 40.0):
            total = 0.0
            for n in range(57):
                total += y ** (3 * n + kind.value) / math.factorial(3 * n + kind.value)
                assert cosexp_series(kind, y, n + 1) == total
    want = cosexp_series(CosexpKind.CX, 1.0, 57)
    calls = []
    factorial = math.factorial
    monkeypatch.setattr(math, "factorial", lambda n: calls.append(n) or factorial(n))
    assert cosexp_series(CosexpKind.CX, 1.0, 8000) == want
    assert len(calls) < 64 and max(calls) == 171


@pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan])
def test_series_refuses_a_non_finite_argument(y):
    for terms in (1, 57, 58):
        with pytest.raises(ValueError, match="non-finite"):
            cosexp_series(CosexpKind.CX, y, terms)

def test_closed_form_agrees_with_series():
    for y in GRID:
        assert abs(cx(y) - series_oracle(0, y, 30)) < 1e-12
        assert abs(mx(y) - series_oracle(1, y, 30)) < 1e-12
        assert abs(px(y) - series_oracle(2, y, 30)) < 1e-12
    assert abs(cx(1.0) - cosexp_series(CosexpKind.CX, 1.0, 20)) < 1e-14


def test_sum_is_exp_and_cubic_identity():
    for y in GRID:
        scale = max(1.0, math.exp(y))
        assert abs(cx(y) + mx(y) + px(y) - math.exp(y)) < 1e-12 * scale
        c, m, p = cx(y), mx(y), px(y)
        val = c**3 + m**3 + p**3 - 3.0 * c * m * p
        # the cubes cancel down to 1, so scale by the largest intermediate
        cube_scale = max(1.0, abs(c) ** 3, abs(m) ** 3, abs(p) ** 3)
        assert abs(val - 1.0) < 1e-12 * cube_scale


def test_addition_theorems():
    rng = np.random.default_rng(61)
    for _ in range(300):
        y, z = rng.uniform(-5.0, 5.0, size=2)
        scale = max(1.0, math.exp(y + z))
        assert abs(cx(y + z) - (cx(y) * cx(z) + mx(y) * px(z) + px(y) * mx(z))) < 1e-12 * scale
        assert abs(mx(y + z) - (px(y) * px(z) + cx(y) * mx(z) + mx(y) * cx(z))) < 1e-12 * scale
        assert abs(px(y + z) - (mx(y) * mx(z) + cx(y) * px(z) + px(y) * cx(z))) < 1e-12 * scale


def test_duplication():
    for y in np.linspace(-2.5, 2.5, 41):
        scale = max(1.0, math.exp(2 * y))
        assert abs(cx(2 * y) - (cx(y) ** 2 + 2.0 * mx(y) * px(y))) < 1e-12 * scale
        assert abs(mx(2 * y) - (px(y) ** 2 + 2.0 * cx(y) * mx(y))) < 1e-12 * scale
        assert abs(px(2 * y) - (mx(y) ** 2 + 2.0 * cx(y) * px(y))) < 1e-12 * scale


def test_opposite_argument_relations():
    for y in GRID:
        assert abs(cx(y) * cx(-y) + mx(y) * px(-y) + px(y) * mx(-y) - 1.0) < 1e-12
        assert abs(px(y) * px(-y) + cx(y) * mx(-y) + mx(y) * cx(-y)) < 1e-12
        assert abs(mx(y) * mx(-y) + cx(y) * px(-y) + px(y) * cx(-y)) < 1e-12


def test_square_sum_identities():
    for y in GRID:
        sq = cx(y) ** 2 + mx(y) ** 2 + px(y) ** 2
        scale = max(1.0, sq, math.exp(2.0 * y))
        assert abs(sq - (2.0 / 3.0) * math.exp(-y) - math.exp(2.0 * y) / 3.0) < 1e-12 * scale
        cross = cx(y) * mx(y) + cx(y) * px(y) + mx(y) * px(y)
        assert abs(cross + math.exp(-y) / 3.0 - math.exp(2.0 * y) / 3.0) < 1e-12 * scale


def test_mixed_sign_products_reduce_to_cosines():
    third = 1.0 / 3.0
    shift = 2.0 * math.pi / 3.0
    for y in GRID:
        a = math.sqrt(3.0) * y
        assert abs(
            cx(y) * cx(-y) + mx(y) * mx(-y) + px(y) * px(-y)
            - (third + 2.0 * third * math.cos(a))
        ) < 1e-12
        assert abs(
            cx(y) * px(-y) + mx(y) * cx(-y) + px(y) * mx(-y)
            - (third + 2.0 * third * math.cos(a - shift))
        ) < 1e-12
        assert abs(
            cx(y) * mx(-y) + mx(y) * px(-y) + px(y) * cx(-y)
            - (third + 2.0 * third * math.cos(a + shift))
        ) < 1e-12


def test_derivative_cycle():
    assert cosexp_derivative(CosexpKind.MX, 0.0) == 1.0  # cx(0)
    assert cosexp_derivative(CosexpKind.CX, 0.0) == 0.0  # px(0)
    assert cosexp_derivative(CosexpKind.PX, 0.0) == 0.0  # mx(0)
    h = 1e-5
    y = 0.7
    fd = (cosexp(CosexpKind.PX, y + h) - cosexp(CosexpKind.PX, y - h)) / (2.0 * h)
    assert abs(fd - cosexp(CosexpKind.MX, y)) < 1e-8
    for kind in CosexpKind:
        fd = (cosexp(kind, y + h) - cosexp(kind, y - h)) / (2.0 * h)
        assert abs(fd - cosexp_derivative(kind, y)) < 1e-8


def test_third_derivative_equals_function():
    s = 1e-2
    for kind in CosexpKind:
        for y in np.linspace(-2.0, 2.0, 21):
            d3 = (
                cosexp(kind, y + 2 * s)
                - 2.0 * cosexp(kind, y + s)
                + 2.0 * cosexp(kind, y - s)
                - cosexp(kind, y - 2 * s)
            ) / (2.0 * s**3)
            assert abs(d3 - cosexp(kind, y)) < 1e-4
