import cmath
import itertools
import math

import numpy as np
import pytest

from tricomplex import (
    CanonicalForm,
    ComplexLongitudinalRoot,
    EP,
    NonConvergent,
    ONE,
    Overflow,
    RootSet,
    Tricomplex,
    TriPolynomial,
    ZERO,
    decompose,
    enumerate_root_sets,
    factor,
    from_canonical,
    to_canonical,
)
from tricomplex import poly
from util import random_triples, tri_err

U2M1 = TriPolynomial((ONE, ZERO, Tricomplex(-1, 0, 0)))


def test_validation():
    with pytest.raises(ValueError):
        TriPolynomial((ONE,))
    with pytest.raises(ValueError):
        TriPolynomial((Tricomplex(2, 0, 0), ZERO))


def test_evaluation_horner():
    p = TriPolynomial((ONE, Tricomplex(0, 1, 0), Tricomplex(-2, 0, 0)))
    u = Tricomplex(1.5, -0.5, 2.0)
    want = u * u + Tricomplex(0, 1, 0) * u + Tricomplex(-2, 0, 0)
    assert tri_err(p(u), want) < 1e-14


def test_from_roots_expands_products():
    r1, r2 = Tricomplex(1, 2, 0), Tricomplex(-1, 0, 1)
    p = TriPolynomial.from_roots([r1, r2])
    # compare against the hand expansion u^2 - (r1+r2) u + r1 r2
    assert tri_err(p.coeffs[1], -(r1 + r2)) < 1e-14
    assert tri_err(p.coeffs[2], r1 * r2) < 1e-14
    assert abs(p(r1)) < 1e-12
    assert abs(p(r2)) < 1e-12


def test_decompose_square_minus_one():
    parts = decompose(U2M1)
    assert parts.transverse == (complex(1.0), complex(0.0), complex(-1.0))
    assert parts.longitudinal == (1.0, 0.0, -1.0)


def test_decompose_linear():
    c = Tricomplex(0.5, -1.5, 2.0)
    parts = decompose(TriPolynomial((ONE, -c)))
    cc = to_canonical(c)
    assert parts.transverse[1] == complex(-cc.v1, -cc.v1t)
    assert parts.longitudinal[1] == -cc.vp


def test_decompose_evaluation_equivalence():
    rng = np.random.default_rng(179)
    coeffs = [ONE] + [Tricomplex(*rng.uniform(-2, 2, 3)) for _ in range(4)]
    p = TriPolynomial(tuple(coeffs))
    parts = decompose(p)
    for u in random_triples(rng, 100, lo=-2.0, hi=2.0):
        cu = to_canonical(u)
        w = complex(cu.v1, cu.v1t)
        acc_w = complex(0.0)
        acc_p = 0.0
        for cw, cp in zip(parts.transverse, parts.longitudinal):
            acc_w = acc_w * w + cw
            acc_p = acc_p * cu.vp + cp
        rebuilt = from_canonical(CanonicalForm(acc_w.real, acc_w.imag, acc_p))
        assert tri_err(rebuilt, p(u)) < 1e-10


def test_factor_square_minus_one():
    rs = factor(U2M1)
    assert rs.roots == (Tricomplex(-1, 0, 0), Tricomplex(1, 0, 0))
    assert rs.pairing == (0, 1)


def test_enumerate_square_minus_one():
    sets = enumerate_root_sets(U2M1)
    assert len(sets) == 2
    assert sets[0].roots == (Tricomplex(-1, 0, 0), Tricomplex(1, 0, 0))
    third = 1.0 / 3.0
    want = {
        (third, -2.0 * third, -2.0 * third),
        (-third, 2.0 * third, 2.0 * third),
    }
    got = {(r.x, r.y, r.z) for r in sets[1].roots}
    assert all(
        min(max(abs(a - b) for a, b in zip(g, w)) for w in want) < 1e-12 for g in got
    )
    # every emitted set reconstructs the polynomial
    for rs in sets:
        rebuilt = TriPolynomial.from_roots(rs.roots)
        for a, b in zip(rebuilt.coeffs, U2M1.coeffs):
            assert abs(a - b) < 1e-8


def test_repeated_root_collapses_pairings():
    p = TriPolynomial.from_roots([ONE, ONE])
    sets = enumerate_root_sets(p)
    assert len(sets) == 1
    assert all(tri_err(r, ONE) < 1e-7 for r in sets[0].roots)


def _split_roots(parts):
    """Roots from (transverse, longitudinal) canonical parts."""
    return [from_canonical(CanonicalForm(t.real, t.imag, v)) for t, v in parts]


def _assert_rebuilds(p, rs, tol=1e-8):
    rebuilt = TriPolynomial.from_roots(rs.roots)
    scale = max(1.0, max(abs(c) for c in p.coeffs))
    for a, b in zip(rebuilt.coeffs, p.coeffs):
        assert abs(a - b) <= tol * scale


def test_triple_root_is_exact():
    # (u - 1)^3: every part is a triple root, polished to the exact value
    rs = factor(TriPolynomial.from_roots([ONE, ONE, ONE]))
    assert rs.roots == (ONE, ONE, ONE)


@pytest.mark.parametrize("multiplicity", [2, 3])
def test_repeated_longitudinal_roots_factor(multiplicity):
    trans = [complex(0.5, 1.0), complex(-1.0, 0.25), complex(1.5, -1.0), complex(-0.5, -1.5)]
    longi = [0.75] * multiplicity + [-1.25, 1.5][: 4 - multiplicity]
    p = TriPolynomial.from_roots(_split_roots(zip(trans, longi)))
    _assert_rebuilds(p, factor(p))
    sets = enumerate_root_sets(p, cap=24)
    assert len(sets) == 24 // math.factorial(multiplicity)
    for rs in sets:
        _assert_rebuilds(p, rs)


def test_mixed_multiplicities_give_distinct_sets():
    # transverse multiplicities (2, 1, 1), longitudinal (2, 2): four
    # distinct ways to pair them
    t1, t2, t3 = complex(1.0, 0.5), complex(-1.0, 1.0), complex(0.25, -1.25)
    parts = [(t1, -0.5), (t1, 1.25), (t2, -0.5), (t3, 1.25)]
    p = TriPolynomial.from_roots(_split_roots(parts))
    sets = enumerate_root_sets(p, cap=24)
    assert len(sets) == 4
    keys = {tuple(sorted((r.x, r.y, r.z) for r in rs.roots)) for rs in sets}
    assert len(keys) == 4
    for rs in sets:
        _assert_rebuilds(p, rs)


def test_multiple_root_splits_from_a_joined_simple_root():
    # the scattered copies of the 8-fold transverse root 44 - 36i have
    # discs wide enough to take in the simple root 28 - 47i, so the disc
    # group of 9 fails the multiplicity check; its 8 nearest members pass
    # it and stand apart from the ninth, and split off as one root
    parts = [(44 - 36j, 19.0)] * 6 + [(15 - 50j, 19.0), (28 - 47j, 19.0)] + [(44 - 36j, -12.0)] * 2
    p = TriPolynomial.from_roots(_split_roots(parts))
    rs = factor(p)
    _assert_rebuilds(p, rs)
    trans = [complex(c.v1, c.v1t) for c in map(to_canonical, rs.roots)]
    assert max(trans.count(t) for t in trans) == 8


def test_simple_root_beside_multiple_roots_is_kept():
    # 5-fold longitudinal roots 37 and 43 beside the simple root 34, which
    # the coefficients resolve poorly: a group with the sweep root of 34 in
    # it passes the 5-fold check at 37 but does not stand apart from the
    # rest of its disc group, so it is not taken and 34 is not lost
    parts = [(-39 - 22j, 43.0), (-43 - 49j, 37.0), (-3 + 16j, 34.0), (24 + 45j, 37.0)]
    parts += [(-3 + 16j, 37.0), (-3 + 16j, 43.0), (24 + 45j, 43.0), (24 + 45j, 43.0)]
    parts += [(-3 + 16j, 37.0), (9 - 44j, 37.0), (9 - 44j, 43.0)]
    rs = factor(TriPolynomial.from_roots(_split_roots(parts)))
    assert min(abs(to_canonical(r).vp - 34.0) for r in rs.roots) < 1e-3


@pytest.mark.parametrize("degree", [7, 9])
def test_trisector_roots_build_one_set(monkeypatch, degree):
    # all transverse parts are zero, so every pairing gives the same set;
    # it must be built once, not found among degree! pairings
    calls = []
    combine = poly._combine
    monkeypatch.setattr(
        poly, "_combine", lambda *args: calls.append(args) or combine(*args)
    )
    roots = [Tricomplex(v, v, v) for v in (0.05 + 0.1 * i for i in range(degree))]
    p = TriPolynomial.from_roots(roots)
    sets = enumerate_root_sets(p, cap=24)
    assert len(calls) == len(sets) == 1
    _assert_rebuilds(p, sets[0])


def _parts_error(roots, parts):
    """Largest distance from a wanted transverse or longitudinal part to
    the nearest one among the roots' parts (the parts are distinct)."""
    cs = [to_canonical(r) for r in roots]
    got = ([complex(c.v1, c.v1t) for c in cs], [c.vp for c in cs])
    want = ([t for t, _ in parts], [v for _, v in parts])
    return max(min(abs(g - w) for g in gs) for gs, ws in zip(got, want) for w in ws)


@pytest.mark.parametrize(
    "values",
    [(1.0, 1.00005, 1.0001), (1.0, 1.0 + 3e-7), (-0.5, 1.0, 1.00003, 1.00006, 2.5)],
)
def test_close_distinct_roots_stay_distinct(values):
    # the coefficients fix these roots to about 1e-6 or better; taken for
    # one multiple root they would be off by the spacing.  In the last
    # case the close roots' inclusion discs overlap, so only the
    # multiplicity check keeps them apart.
    p = TriPolynomial.from_roots([Tricomplex(v, 0, 0) for v in values])
    got = sorted(factor(p).roots, key=lambda r: r.x)
    spacing = min(b - a for a, b in zip(values, values[1:]))
    assert max(tri_err(r, Tricomplex(v, 0, 0)) for r, v in zip(got, values)) < spacing / 5
    assert len(enumerate_root_sets(p, cap=200)) == math.factorial(len(values))


WIDE_PARTS = [
    (complex(0.5, 1.0), 0.75),
    (complex(-1.0, 0.25), -1.25),
    (complex(1.5, -1.0), 1.5),
    (complex(-0.5, -1.5), -0.25),
]


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_roots_at_wide_scales(scale):
    parts = [(t * scale, v * scale) for t, v in WIDE_PARTS]
    p = TriPolynomial.from_roots(_split_roots(parts))
    assert _parts_error(factor(p).roots, parts) < 1e-12 * scale


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_misplaced_root_is_reported(monkeypatch, scale):
    # a simple root that polishes to 1e-8 off its place reaches the
    # rebuild, which checks each coefficient on its own scale
    parts = [(t * scale, v * scale) for t, v in WIDE_PARTS]
    target = parts[0][0]
    polish = poly._polish

    def misplace(coeffs, w, k):
        c = polish(coeffs, w, k)
        return c * (1 + 1e-8) if abs(c - target) < 1e-6 * scale else c

    monkeypatch.setattr(poly, "_polish", misplace)
    with pytest.raises(NonConvergent):
        factor(TriPolynomial.from_roots(_split_roots(parts)))


def test_misplaced_longitudinal_root_is_nonconvergent(monkeypatch):
    # neither the real parts nor the complex roots rebuild the longitudinal
    # coefficients, so the roots are wrong, not complex
    target = WIDE_PARTS[2][1]
    polish = poly._polish

    def misplace(coeffs, w, k):
        c = polish(coeffs, w, k)
        return c * (1 + 1e-8) if abs(c - target) < 1e-6 else c

    monkeypatch.setattr(poly, "_polish", misplace)
    with pytest.raises(NonConvergent):
        factor(TriPolynomial.from_roots(_split_roots(WIDE_PARTS)))


def test_unresolved_real_roots_stay_real():
    # the coefficients fix 1, 1 + 1e-6 and 1 + 2e-6 only to about eps^(1/3),
    # so the sweep finds two of them complex; their real parts rebuild the
    # coefficients within the guard, so five roots are returned, as close
    # to the drawn ones as the coefficients tell
    values = [-0.5, 1.0, 1.0 + 1e-6, 1.0 + 2e-6, 2.5]
    p = TriPolynomial.from_roots([Tricomplex(v, 0, 0) for v in values])
    got = sorted(factor(p).roots, key=lambda r: r.x)
    assert max(tri_err(r, Tricomplex(v, 0, 0)) for r, v in zip(got, values)) < 3 * poly._EPS ** (1 / 3)
    assert len(enumerate_root_sets(p, cap=200)) == math.factorial(len(values))


def _separated_parts(rng, m):
    """m roots whose longitudinal parts lie each in its own slot of
    [-2, 2] and whose transverse parts lie each in its own cell of a 4x4
    grid on [-2, 2]^2."""
    longi = [-2.0 + 4.0 / m * (k + rng.uniform(0.2, 0.8)) for k in rng.permutation(m)]
    cells = rng.choice(16, size=m, replace=False)
    trans = [complex(c % 4 - 2 + rng.uniform(0.2, 0.8), c // 4 - 2 + rng.uniform(0.2, 0.8)) for c in cells]
    return list(zip(trans, longi))


def test_start_circle_about_the_centroid():
    # roots 1, 2, 4: c = 7/3 and |p(c)| = 20/27
    coeffs = [1.0, -7.0, 14.0, -8.0]
    c, radius = 7 / 3, (20 / 27) ** (1 / 3)
    want = [c + radius * cmath.exp(2j * math.pi * i / 3 + 0.4j) for i in range(3)]
    assert poly._start(coeffs) == pytest.approx(want, rel=1e-15)


def test_start_falls_back_to_the_root_bound():
    # roots 1, 2, 3: p(c) = 0 at c = 2; twice Fujiwara's bound max(6, 11^(1/2), 6^(1/3)) is 12
    coeffs = [1.0, -6.0, 11.0, -6.0]
    want = [2 + 12 * cmath.exp(2j * math.pi * i / 3 + 0.4j) for i in range(3)]
    assert poly._start(coeffs) == pytest.approx(want, rel=1e-15)


def _reference_sweep(coeffs, sizes):
    """The Weierstrass sweep through ``_residual`` and ``math.prod``,
    step for step what ``poly._sweep`` computes inline, from the same start."""
    m = len(coeffs) - 1
    roots = poly._start(coeffs)
    done = [False] * m
    for _ in range(poly.MAX_ITERATIONS):
        for i, w in enumerate(roots):
            if done[i]:
                continue
            value, rounding = poly._residual(coeffs, sizes, w)
            if abs(value) <= rounding:
                done[i] = True
                continue
            den = math.prod(w - v for j, v in enumerate(roots) if j != i)
            step = value / den if den else math.sqrt(poly._EPS) * (1.0 + abs(w))
            roots[i] = w - step
            done[i] = abs(step) <= poly._EPS * abs(w)
        if all(done):
            return roots
    raise NonConvergent("reference sweep did not converge")


def _bits(roots):
    return [(w.real.hex(), w.imag.hex()) for w in roots]


def test_sweep_matches_the_residual_form():
    # same roots to the last bit, signed zeros included, on small integer
    # coefficients (with -0.0) and on separated roots up to degree 10
    rng = np.random.default_rng(211)
    values = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]
    polys = [
        TriPolynomial.from_components([(1, 0, 0)] + [tuple(rng.choice(values, 3)) for _ in range(degree)])
        for degree in (2, 3) for _ in range(200)
    ]
    polys += [TriPolynomial.from_roots(_split_roots(_separated_parts(rng, m))) for m in range(2, 11)]
    compared = 0
    for p in polys:
        parts = decompose(p)
        sizes = [abs(a.x) + abs(a.y) + abs(a.z) for a in p.coeffs]
        for coeffs in (parts.transverse, [complex(c) for c in parts.longitudinal]):
            if coeffs[-1] != 0:
                assert _bits(poly._sweep(coeffs, sizes)) == _bits(_reference_sweep(coeffs, sizes))
                compared += 1
    assert compared > 500


def test_sweep_cap_raises_nonconvergent(monkeypatch):
    # one sweep cannot settle three roots started on the circle about their centroid
    monkeypatch.setattr(poly, "MAX_ITERATIONS", 1)
    p = TriPolynomial.from_roots(_split_roots(WIDE_PARTS[:3]))
    with pytest.raises(NonConvergent, match="root iteration did not converge"):
        factor(p)


def test_polish_stops_at_a_zero_slope():
    # w^2 - 1 has slope 0 at 0, where Newton has no step to take
    assert poly._polish([1.0, 0.0, -1.0], 0j, 1) == 0


def test_lone_roots_skip_the_multiplicity_check(monkeypatch):
    # a root alone in its disc is polished once, with no test of whether
    # it is multiple
    calls = []
    multiple = poly._multiple
    monkeypatch.setattr(poly, "_multiple", lambda *args: calls.append(args) or multiple(*args))
    p = TriPolynomial.from_roots(_split_roots(_separated_parts(np.random.default_rng(1206), 6)))
    _assert_rebuilds(p, factor(p))
    assert calls == []


@pytest.mark.parametrize("degree", range(5, 11))
def test_separated_roots_factor_at_high_degree(degree):
    rng = np.random.default_rng(1000 + degree)
    for _ in range(4):
        p = TriPolynomial.from_roots(_split_roots(_separated_parts(rng, degree)))
        _assert_rebuilds(p, factor(p))


@pytest.mark.parametrize("degree", [5, 6])
def test_separated_roots_enumerate_up_to_the_cap(degree):
    # degree! distinct pairings, more than the default cap of 24
    rng = np.random.default_rng(1100 + degree)
    p = TriPolynomial.from_roots(_split_roots(_separated_parts(rng, degree)))
    sets = enumerate_root_sets(p)
    assert len(sets) == 24
    for rs in sets:
        _assert_rebuilds(p, rs)


def test_clustered_roots_are_accurate_or_reported():
    # eight longitudinal parts 0.043 apart, which the coefficients fix only
    # to about 3e-4: the roots returned must be within 1e-3 of them
    trans = [complex(k % 4 - 1.5, k // 4 - 0.5) for k in range(8)]
    longi = [1.0 + 0.3 * k / 7 for k in range(8)]
    p = TriPolynomial.from_roots(_split_roots(zip(trans, longi)))
    try:
        rs = factor(p)
    except NonConvergent:
        return
    assert _parts_error(rs.roots, list(zip(trans, longi))) < 1e-3


def test_close_pair_in_a_cluster_is_not_split_off():
    # longitudinal parts -0.1702 and -0.1698 among eight within 0.22: p'
    # vanishes between the two where p is at rounding, so the pair passes
    # the double-root check, and taken for a double root it rebuilds the
    # polynomial only to 3e-8
    parts = [(1.6759 - 0.5653j, -0.2124), (-0.4561 + 0.3942j, -0.0648), (-1.4947 + 1.5863j, -0.1702)]
    parts += [(0.2364 - 1.5901j, -0.1925), (-0.3295 - 1.5502j, -0.1698), (0.7481 + 1.4688j, -0.1609)]
    parts += [(1.5917 - 1.4763j, -0.0001), (-0.3132 + 1.4124j, -0.0008)]
    p = TriPolynomial.from_roots(_split_roots(parts))
    rs = factor(p)
    _assert_rebuilds(p, rs)
    assert len({to_canonical(r).vp for r in rs.roots}) == len(parts)


def test_cubic_with_distinct_roots_has_six_pairings():
    rng = np.random.default_rng(181)
    while True:
        roots = random_triples(rng, 3, lo=-2.0, hi=2.0, regular=True)
        spread = min(
            abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :]
        )
        if spread > 0.5:
            break
    p = TriPolynomial.from_roots(roots)
    sets = enumerate_root_sets(p, cap=24)
    assert len(sets) == 6
    for rs in sets:
        rebuilt = TriPolynomial.from_roots(rs.roots)
        scale = max(abs(c) for c in p.coeffs)
        for a, b in zip(rebuilt.coeffs, p.coeffs):
            assert abs(a - b) <= 1e-8 * max(1.0, scale)


def test_cap_limits_enumeration():
    rng = np.random.default_rng(191)
    roots = random_triples(rng, 4, lo=-2.0, hi=2.0, regular=True)
    p = TriPolynomial.from_roots(roots)
    assert len(enumerate_root_sets(p, cap=3)) == 3
    with pytest.raises(ValueError):
        enumerate_root_sets(p, cap=0)


def test_construct_then_factor_recovers_roots():
    rng = np.random.default_rng(193)
    for _ in range(20):
        r1, r2 = random_triples(rng, 2, lo=-2.0, hi=2.0, regular=True)
        p = TriPolynomial.from_roots([r1, r2])
        sets = enumerate_root_sets(p)
        best = min(
            min(
                max(tri_err(a, b) for a, b in zip(rs.roots, perm))
                for perm in ([r1, r2], [r2, r1])
            )
            for rs in sets
        )
        assert best < 1e-7


def test_roots_annihilate_polynomial():
    rng = np.random.default_rng(197)
    roots = random_triples(rng, 4, lo=-1.5, hi=1.5, regular=True)
    p = TriPolynomial.from_roots(roots)
    norm = sum(abs(c) for c in p.coeffs)
    for rs in enumerate_root_sets(p, cap=24):
        for r in rs.roots:
            assert abs(p(r)) < 1e-7 * (1.0 + norm)


def test_component_root_multisets_are_pairing_invariant():
    rng = np.random.default_rng(199)
    roots = random_triples(rng, 3, lo=-2.0, hi=2.0, regular=True)
    p = TriPolynomial.from_roots(roots)
    sets = enumerate_root_sets(p, cap=24)

    def multisets(rs: RootSet):
        trans = sorted(
            (round(to_canonical(r).v1, 6), round(to_canonical(r).v1t, 6))
            for r in rs.roots
        )
        longi = sorted(round(to_canonical(r).vp, 6) for r in rs.roots)
        return tuple(trans), tuple(longi)

    reference = multisets(sets[0])
    for rs in sets[1:]:
        assert multisets(rs) == reference


def test_complex_longitudinal_roots_are_reported():
    # longitudinal part v^2 + 1 has no real roots
    p = TriPolynomial((ONE, ZERO, EP))
    with pytest.raises(ComplexLongitudinalRoot):
        factor(p)
    with pytest.raises(ComplexLongitudinalRoot):
        enumerate_root_sets(p)


def test_degree_from_csv_style_rows():
    p = TriPolynomial.from_components([(1, 0, 0), (0, 0, 0), (-1, 0, 0)])
    assert p.degree == 2
    assert p.coeffs == U2M1.coeffs


@pytest.mark.parametrize(
    "row, want",
    [
        # the transverse coefficient's modulus leaves the double range
        (
            (1.3e308, 0.75e308, -0.75e308),
            ("-0x1.72409614c1e6bp+1023", "-0x1.ab36d48e1acefp+1022", "0x1.ab36d48e1acefp+1022"),
        ),
        # the modulus is in range, twice it (Fujiwara's bound) is not
        ((1e308, 0.0, 0.0), ("-0x1.1ccf385ebc8a0p+1023", "0x0.0p+0", "0x0.0p+0")),
    ],
    ids=["row0", "row1"],
)
def test_root_bound_beyond_the_range_factors_exactly(row, want):
    # u + a is factored as its copy scaled by a power of two; the split roots
    # scaled back are exactly -w and -v of a, and the root is their join: -a
    # up to the split's rounding (one ulp in row0, as at (1.3, 0.75, -0.75))
    p = TriPolynomial.from_components([(1, 0, 0), row])
    for route in (factor, lambda p: enumerate_root_sets(p)[0]):
        (root,) = route(p).roots
        assert (root.x.hex(), root.y.hex(), root.z.hex()) == want


def test_residual_beyond_the_range_is_a_complex_longitudinal_root():
    # p(w) would overflow at transverse roots near 2.5e154; the scaled copy
    # factors, and the longitudinal part v^2 + ~1e154 v + 1.8e308 has a
    # negative discriminant
    p = TriPolynomial.from_components(
        [
            (1, 0, 0),
            (2.1163776026983703, 1e154, -6.438402814347291e16),
            (-3.040101193706536, 1.7976931348623157e308, -0.0),
        ]
    )
    for route in (factor, enumerate_root_sets):
        with pytest.raises(ComplexLongitudinalRoot):
            route(p)


def test_complex_longitudinal_root_at_the_top_is_named_unscaled():
    # u^2 + (1e308, 0, 0): v^2 + 1e308 has the roots +-1e154 i; the message
    # names the root of p, not that of the scaled copy the iteration ran on
    p = TriPolynomial.from_components([(1, 0, 0), (0, 0, 0), (1e308, 0, 0)])
    for route in (factor, enumerate_root_sets):
        with pytest.raises(ComplexLongitudinalRoot) as info:
            route(p)
        worst = complex(str(info.value).split("complex up to ")[1].split(",")[0])
        assert worst.real == 0.0 and abs(abs(worst.imag) / 1e154 - 1.0) < 1e-15


def _near_top_draws(seed, n):
    # 1-6 roots with box components times 2**k, k*m in [1000 - 40m, 1020]:
    # coefficients near the top of the double range, roots well inside it
    rng = np.random.default_rng(seed)
    for _ in range(n):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(math.ceil((1000 - 40 * m) / m), 1020 // m + 1))
        roots = [Tricomplex(*(math.ldexp(c, k) for c in rng.uniform(-3.0, 3.0, 3))) for _ in range(m)]
        try:
            p = TriPolynomial.from_roots(roots)
        except Overflow:  # a coefficient itself beyond the range
            continue
        yield p, roots


def _split_parts(roots):
    parts = list(map(to_canonical, roots))
    return [complex(c.v1, c.v1t) for c in parts], sorted(c.vp for c in parts)


@pytest.mark.parametrize("seed", [7, 11])
def test_roots_near_the_top_of_the_range_factor(seed):
    # factor never raises Overflow or NonConvergent on these (about 4% did
    # before polynomials near the top were factored as a scaled copy), and
    # where the drawn split parts stand 1% of the largest apart, the root
    # multisets match them to 1e-9 of the largest
    for p, roots in _near_top_draws(seed, 1500):
        got_w, got_v = _split_parts(factor(p).roots)
        want_w, want_v = _split_parts(roots)
        scale = max(map(abs, want_w + want_v))
        pairs = itertools.chain(itertools.combinations(want_w, 2), itertools.combinations(want_v, 2))
        if any(abs(a - b) < 0.01 * scale for a, b in pairs):
            continue
        assert max(abs(a - b) for a, b in zip(got_v, want_v)) <= 1e-9 * scale
        for w in got_w:
            nearest = min(want_w, key=lambda t: abs(t - w))
            assert abs(nearest - w) <= 1e-9 * scale
            want_w.remove(nearest)
