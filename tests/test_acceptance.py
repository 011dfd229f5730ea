"""Acceptance suite.

Each test covers one numbered criterion at its stated tolerance and
prints one pass/fail line (visible with ``pytest -s`` or in captured
output).  Randomness is seeded, so the suite is deterministic.
"""

import functools
import math

import numpy as np
import pytest

from tricomplex import (
    ComplexLongitudinalRoot,
    CosexpKind,
    E1,
    E1T,
    EP,
    ElementaryFn,
    ONE,
    POLE_LOOP_VALUE,
    Path3,
    PoleSpec,
    Tricomplex,
    TriPolynomial,
    ZERO,
    ZeroDivisor,
    amplitude,
    cauchy_value,
    check_analytic,
    component_sum,
    cosexp,
    cx,
    delta,
    determinant_form,
    enumerate_root_sets,
    factor,
    from_exponential,
    invariant_circle_point,
    inverse,
    irreducible_rep,
    loop_integral_pole,
    modulus,
    mx,
    normalize_phi,
    oracle_eval,
    path_integral,
    polar,
    power_from_polar,
    px,
    residue_sum,
    sigma,
    tcos,
    tcosh,
    texp,
    tlog,
    to_matrix,
    tsin,
    tsinh,
)
from tricomplex.cli import run
from util import random_triples, tri_err

SQRT3 = math.sqrt(3.0)


def criterion(num: int, name: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num:02d}: {name}")
                raise
            print(f"[PASS] criterion {num:02d}: {name}")

        return wrapper

    return deco


@criterion(1, "algebra identities on 10^4 random triples")
def test_criterion_01():
    rng = np.random.default_rng(2001)
    us = random_triples(rng, 10_000)
    worst = 0.0
    for i in range(0, len(us) - 2):
        u, v, w = us[i], us[i + 1], us[i + 2]
        worst = max(worst, tri_err(u * v, v * u))
        worst = max(worst, tri_err((u * v) * w, u * (v * w)))
        worst = max(worst, tri_err(u * (v + w), u * v + u * w))
        p = u * v
        # cubic form factors through the component sum and quadratic form
        direct = u.x**3 + u.y**3 + u.z**3 - 3.0 * u.x * u.y * u.z
        worst = max(
            worst,
            abs(direct - determinant_form(u)) / max(1.0, abs(direct)),
        )
        # component sum multiplies; transverse pair multiplies complexly
        worst = max(
            worst,
            abs(component_sum(p) - component_sum(u) * component_sum(v))
            / max(1.0, abs(component_sum(p))),
        )
        a1, b1 = u.x - 0.5 * (u.y + u.z), 0.5 * SQRT3 * (u.y - u.z)
        a2, b2 = v.x - 0.5 * (v.y + v.z), 0.5 * SQRT3 * (v.y - v.z)
        ap, bp = p.x - 0.5 * (p.y + p.z), 0.5 * SQRT3 * (p.y - p.z)
        worst = max(worst, abs(ap - (a1 * a2 - b1 * b2)) / max(1.0, abs(ap)))
        worst = max(worst, abs(bp - (a1 * b2 + b1 * a2)) / max(1.0, abs(bp)))
        la = amplitude(p)
        ra = amplitude(u) * amplitude(v)
        worst = max(worst, abs(la - ra) / max(1.0, abs(la), abs(ra)))
    assert worst < 1e-10


@criterion(2, "inverse round trip and zero-divisor rejection")
def test_criterion_02():
    rng = np.random.default_rng(2002)
    for u in random_triples(rng, 10_000, regular=True):
        assert abs(u * inverse(u) - ONE) < 1e-10
    for bad in (Tricomplex(2, 2, 2), Tricomplex(1, -3, 2), ZERO, Tricomplex(-5, -5, -5)):
        with pytest.raises(ZeroDivisor):
            inverse(bad)


@criterion(3, "cosexponential series, identities, and third-order equation")
def test_criterion_03():
    rng = np.random.default_rng(2003)

    def series(offset, y, terms=30):
        return sum(
            y ** (3 * n + offset) / math.factorial(3 * n + offset)
            for n in range(terms)
        )

    for y in np.linspace(-5.0, 5.0, 201):
        assert abs(cx(y) - series(0, y)) < 1e-12
        assert abs(mx(y) - series(1, y)) < 1e-12
        assert abs(px(y) - series(2, y)) < 1e-12
        c, m, p = cx(y), mx(y), px(y)
        assert abs(c + m + p - math.exp(y)) < 1e-12 * max(1.0, math.exp(y))
        cube_scale = max(1.0, abs(c) ** 3, abs(m) ** 3, abs(p) ** 3)
        assert abs(c**3 + m**3 + p**3 - 3 * c * m * p - 1.0) < 1e-12 * cube_scale
        sq = c * c + m * m + p * p
        assert abs(sq - (2 / 3) * math.exp(-y) - math.exp(2 * y) / 3) < 1e-12 * max(
            1.0, sq
        )
        cross = c * m + c * p + m * p
        assert abs(cross + math.exp(-y) / 3 - math.exp(2 * y) / 3) < 1e-12 * max(
            1.0, abs(cross)
        )
        a = SQRT3 * y
        third = 1.0 / 3.0
        assert abs(
            c * cx(-y) + m * mx(-y) + p * px(-y) - third - 2 * third * math.cos(a)
        ) < 1e-12
        assert abs(
            c * px(-y) + m * cx(-y) + p * mx(-y)
            - third
            - 2 * third * math.cos(a - 2 * math.pi / 3)
        ) < 1e-12
        assert abs(
            c * mx(-y) + m * px(-y) + p * cx(-y)
            - third
            - 2 * third * math.cos(a + 2 * math.pi / 3)
        ) < 1e-12
    for _ in range(500):
        y, z = rng.uniform(-5.0, 5.0, size=2)
        scale = max(1.0, abs(cx(y + z)), abs(cx(y) * cx(z)))
        assert abs(cx(y + z) - (cx(y) * cx(z) + mx(y) * px(z) + px(y) * mx(z))) < 1e-12 * scale
        assert abs(mx(y + z) - (px(y) * px(z) + cx(y) * mx(z) + mx(y) * cx(z))) < 1e-12 * scale
        assert abs(px(y + z) - (mx(y) * mx(z) + cx(y) * px(z) + px(y) * cx(z))) < 1e-12 * scale
    s = 1e-2
    for kind in CosexpKind:
        for y in np.linspace(-2.0, 2.0, 41):
            d3 = (
                cosexp(kind, y + 2 * s)
                - 2 * cosexp(kind, y + s)
                + 2 * cosexp(kind, y - s)
                - cosexp(kind, y - 2 * s)
            ) / (2 * s**3)
            assert abs(d3 - cosexp(kind, y)) < 1e-4


@criterion(4, "exponential/logarithm round trip, homomorphism, closed forms")
def test_criterion_04():
    rng = np.random.default_rng(2004)
    for u in random_triples(rng, 1000, regular=True, positive_sum=True):
        assert tri_err(texp(tlog(u)), u) < 1e-10
    us = random_triples(rng, 400, lo=-3.0, hi=3.0)
    for u, v in zip(us, us[1:]):
        assert tri_err(texp(u + v), texp(u) * texp(v)) < 1e-11
    for y in np.linspace(-3.0, 3.0, 61):
        em, e2 = math.exp(-y), math.exp(2.0 * y)
        got = texp(Tricomplex(0.0, y, y))
        want = Tricomplex(2 * em / 3 + e2 / 3, e2 / 3 - em / 3, e2 / 3 - em / 3)
        assert tri_err(got, want) < 1e-12
        got = texp(Tricomplex(0.0, y, -y))
        c, s = math.cos(SQRT3 * y), math.sin(SQRT3 * y)
        want = Tricomplex(
            (1 + 2 * c) / 3.0, (1 - c) / 3.0 + s / SQRT3, (1 - c) / 3.0 - s / SQRT3
        )
        assert tri_err(got, want) < 1e-12


@criterion(5, "geometric forms: round trips, product law, reconstruction, circle")
def test_criterion_05():
    rng = np.random.default_rng(2005)
    us = random_triples(rng, 800, regular=True, positive_sum=True)
    for u in us:
        p = polar(u)
        assert tri_err(from_exponential(p.rho, p.theta, p.phi), u) < 1e-10
        d = delta(u)
        rebuilt = (
            E1 * (d * math.cos(p.phi)) + E1T * (d * math.sin(p.phi)) + EP * sigma(u)
        )
        assert tri_err(rebuilt, u) < 1e-12
    for u, v in zip(us, us[1:]):
        pu, pv, pp = polar(u), polar(v), polar(u * v)
        assert abs(pp.s - SQRT3 * pu.s * pv.s) <= 1e-10 * max(1.0, abs(pp.s))
        assert abs(pp.D - math.sqrt(1.5) * pu.D * pv.D) <= 1e-10 * max(1.0, pp.D)
        lhs, rhs = math.tan(pp.theta), math.tan(pu.theta) * math.tan(pv.theta) / math.sqrt(2.0)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))
        dphi = normalize_phi(pu.phi + pv.phi) - pp.phi
        assert min(abs(dphi), abs(abs(dphi) - 2 * math.pi)) < 1e-10
    for _ in range(300):
        a, b = rng.uniform(0.0, 2.0 * math.pi, size=2)
        lhs = invariant_circle_point(a) * invariant_circle_point(b)
        assert tri_err(lhs, invariant_circle_point(a + b)) < 1e-12


@criterion(6, "power function against repeated multiplication")
def test_criterion_06():
    rng = np.random.default_rng(2006)
    us = random_triples(rng, 1000, regular=True)
    for u in us:
        for m in range(0, 7):
            assert tri_err(power_from_polar(u, float(m)), u**m) < 1e-9
    for u, v in zip(us[:200], us[1:201]):
        for m in (2, 3, 4):
            assert tri_err((u * v) ** m, (u**m) * (v**m)) < 1e-9


@criterion(7, "modulus inequalities with trisector equality cases")
def test_criterion_07():
    rng = np.random.default_rng(2007)
    us = random_triples(rng, 10_000)
    for u, v in zip(us, us[1:]):
        mu, mv = modulus(u), modulus(v)
        assert modulus(u + v) <= mu + mv + 1e-12
        assert abs(mu - mv) <= modulus(u + v) + 1e-12
        assert modulus(u * v) <= SQRT3 * mu * mv * (1 + 1e-12)
        assert modulus(u * (v * v)) <= 3.0 * mu * mv * mv * (1 + 1e-12)
    for u in us:
        d2, s1 = delta(u) ** 2, sigma(u)
        for l in range(1, 9):
            bound = 3.0 ** ((l - 1) / 2.0) * modulus(u) ** l
            assert modulus(u**l) <= bound * (1 + 1e-12)
            want = (2.0 / 3.0) * d2**l + (1.0 / 3.0) * s1 ** (2 * l)
            got = modulus(u**l) ** 2
            assert abs(got - want) <= 1e-10 * max(1.0, got, want)
    for u in random_triples(rng, 2000, regular=True):
        assert modulus(inverse(u)) >= (1 - 1e-12) / modulus(u)
    for c in rng.uniform(0.2, 5.0, size=50):
        t = Tricomplex(c, c, c)
        for l in range(1, 9):
            bound = 3.0 ** ((l - 1) / 2.0) * modulus(t) ** l
            assert abs(modulus(t**l) - bound) <= 1e-12 * bound
        s = Tricomplex(2 * c, 2 * c, 2 * c)
        assert abs(modulus(t * s) - SQRT3 * modulus(t) * modulus(s)) <= 1e-12 * (
            SQRT3 * modulus(t) * modulus(s)
        )


@criterion(8, "analyticity residuals for powers/exp/sin; projection flagged")
def test_criterion_08():
    rng = np.random.default_rng(2008)
    fns = [lambda u: u * u, lambda u: u * u * u, texp, tsin]
    # box keeps function components of order one: the stencil residuals
    # carry a roundoff floor around |f| * eps / step^2
    for u0 in random_triples(rng, 100, lo=-0.5, hi=0.5, regular=True):
        for f in fns:
            assert check_analytic(f, u0, step=1e-4).max_residual < 1e-6
    flagged = False
    proj = lambda u: Tricomplex(u.x, 0.0, 0.0)
    for u0 in random_triples(rng, 10, lo=-1.0, hi=1.0):
        if check_analytic(proj, u0, step=1e-4).max_residual > 0.1:
            flagged = True
    assert flagged


@criterion(9, "loop integrals: independence, pole value, residues")
def test_criterion_09():
    rng = np.random.default_rng(2009)
    # path independence across paired random polylines
    for f in (texp, lambda u: u * u, tsin):
        for _ in range(3):
            a = Tricomplex(*rng.uniform(-1, 1, 3))
            b = Tricomplex(*rng.uniform(-1, 1, 3))
            p1 = Path3.polyline([a, Tricomplex(*rng.uniform(-1, 1, 3)), b])
            p2 = Path3.polyline([a, Tricomplex(*rng.uniform(-1, 1, 3)), b])
            assert abs(path_integral(f, p1) - path_integral(f, p2)) < 1e-7
    loop = Path3.circle(Tricomplex(1 / 3, 1 / 3, 1 / 3), math.sqrt(2.0 / 3.0))
    got = loop_integral_pole(ZERO, loop)
    want = Tricomplex(0.0, 2.0 * math.pi / SQRT3, -2.0 * math.pi / SQRT3)
    assert abs(got - want) < 1e-6
    for m in (-3, -2, 0, 1, 2):
        f = (
            (lambda u, m=m: u**m)
            if m >= 0
            else (lambda u, m=m: inverse(u) ** (-m))
        )
        assert abs(path_integral(f, loop)) < 1e-7
    a = Tricomplex(0.5, 0.1, 0.1)
    cl = Path3.circle(a + Tricomplex(1, 1, 1), 1.2)
    assert abs(cauchy_value(texp, a, cl) - POLE_LOOP_VALUE * texp(a)) < 1e-6
    inner = PoleSpec(Tricomplex(0.1, 0.05, 0.0), Tricomplex(0.5, 0.25, -0.5))
    outer = PoleSpec(Tricomplex(6.0, -1.0, 0.0), Tricomplex(1.0, 2.0, 3.0))
    loop2 = Path3.circle(Tricomplex(0.5, 0.5, 0.5), 1.1)
    direct = path_integral(
        lambda u: inner.residue * inverse(u - inner.location)
        + outer.residue * inverse(u - outer.location),
        loop2,
    )
    assert abs(residue_sum([inner, outer], loop2) - direct) < 1e-6


@criterion(10, "polynomial factorizations and reconstruction")
def test_criterion_10():
    p = TriPolynomial((ONE, ZERO, Tricomplex(-1, 0, 0)))
    sets = enumerate_root_sets(p)
    assert len(sets) == 2
    assert sets[0].roots == (Tricomplex(-1, 0, 0), Tricomplex(1, 0, 0))
    third, tt = 1.0 / 3.0, 2.0 / 3.0
    got = sorted((r.x, r.y, r.z) for r in sets[1].roots)
    want = sorted([(-third, tt, tt), (third, -tt, -tt)])
    for g, w in zip(got, want):
        assert max(abs(a - b) for a, b in zip(g, w)) < 1e-12
    rng = np.random.default_rng(2010)
    for degree in (2, 3, 4):
        for _ in range(8):
            roots = random_triples(rng, degree, lo=-2.0, hi=2.0, regular=True)
            poly = TriPolynomial.from_roots(roots)
            try:
                rs = factor(poly)
            except ComplexLongitudinalRoot:
                # roots were regular, so the longitudinal parts are real
                raise AssertionError("unexpected complex longitudinal root")
            rebuilt = TriPolynomial.from_roots(rs.roots)
            scale = max(1.0, max(abs(c) for c in poly.coeffs))
            for a, b in zip(rebuilt.coeffs, poly.coeffs):
                assert abs(a - b) <= 1e-8 * scale


@criterion(11, "matrix representations: homomorphism, determinant, blocks")
def test_criterion_11():
    rng = np.random.default_rng(2011)
    us = random_triples(rng, 500)
    t = np.array(
        [
            [math.sqrt(2.0 / 3.0), -1.0 / math.sqrt(6.0), -1.0 / math.sqrt(6.0)],
            [0.0, 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)],
            [1.0 / SQRT3, 1.0 / SQRT3, 1.0 / SQRT3],
        ]
    )
    for u, v in zip(us, us[1:]):
        lhs = to_matrix(u) @ to_matrix(v)
        rhs = to_matrix(u * v)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(lhs)))
        det = np.linalg.det(to_matrix(u))
        assert abs(det - amplitude(u) ** 3) <= 1e-10 * max(1.0, abs(det))
        r = irreducible_rep(u)
        assert abs(r[0, 2]) < 1e-12 and abs(r[1, 2]) < 1e-12
        assert abs(r[2, 0]) < 1e-12 and abs(r[2, 1]) < 1e-12
        assert r[0, 0] == r[1, 1]
        assert r[0, 1] == -r[1, 0]
        sim = t @ to_matrix(u) @ t.T
        assert np.max(np.abs(sim - r)) <= 1e-12 * max(1.0, abs(u))


@criterion(12, "elementary functions agree with the cosexponential-product oracle")
def test_criterion_12():
    rng = np.random.default_rng(2012)
    pairs = (
        (ElementaryFn.EXP, texp),
        (ElementaryFn.LOG, tlog),
        (ElementaryFn.SIN, tsin),
        (ElementaryFn.COS, tcos),
        (ElementaryFn.SINH, tsinh),
        (ElementaryFn.COSH, tcosh),
    )
    for u in random_triples(rng, 10_000, lo=-3.0, hi=3.0, regular=True, positive_sum=True):
        for fn, direct in pairs:
            assert tri_err(oracle_eval(fn, u), direct(u)) < 1e-10


@criterion(13, "CLI examples byte-for-byte")
def test_criterion_13(capsys, tmp_path):
    assert run(["eval", "--fn", "exp", "--at", "(0,0,0)"]) == 0
    assert capsys.readouterr().out == "(1,0,0)\n"

    assert run(["decompose", "--at", "(1,0,0)"]) == 0
    s = 1.0 / SQRT3
    D = math.sqrt(2.0 / 3.0)
    theta = math.atan2(D, s)
    assert capsys.readouterr().out == (
        "d=1\n"
        f"s={s:.17g}\n"
        f"D={D:.17g}\n"
        f"theta={theta:.17g}\n"
        "phi=0\n"
        "rho=1\n"
        "v1=1\n"
        "v1t=0\n"
        "vp=1\n"
    )

    f = tmp_path / "u2m1.csv"
    f.write_text("1,0,0\n0,0,0\n-1,0,0\n")
    assert run(["factor", "--poly", str(f), "--all"]) == 0
    third = f"{1.0 / 3.0:.17g}"
    tt = f"{2.0 / 3.0:.17g}"
    assert capsys.readouterr().out == (
        "root_set 1: (-1,0,0) (1,0,0)\n"
        f"root_set 2: (-{third},{tt},{tt}) ({third},-{tt},-{tt})\n"
    )
