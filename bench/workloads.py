"""The four workloads: seeded inputs, one library call per operation, and
a check of every result against the benchmark's own reference.

Each workload yields cycles of operations forever.  A cycle holds every
combination of operation kind and input class the workload covers, in
an order shuffled by the seed, and a run measures whole cycles, so that
its mix of cheap and costly operations depends neither on the seed nor
on how fast the machine was: only the input values change.

The timed workloads hold only input classes on which every operation
passes, so any failure in them is a regression.  The input classes on
which the library is known to be wrong at the commit that introduced
this benchmark are ``known_defect_ops``, a fixed set every run checks
once, untimed: wide-range arguments of the elementary functions;
polynomials with repeated (double or triple) roots, which often raise
ComplexLongitudinalRoot or come back unmerged; and ``factor`` on
clustered roots, which rebuild the polynomial only to 1e-8 or worse.
"""

from __future__ import annotations

import cmath
import math
import os
import random
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import reference as ref
from reference import NoValue

Triple = tuple[float, float, float]

#: Relative error (unit floor) an evaluation may have.
POINT_TOL = 1e-9
#: Quadrature is converged to about 1e-9 absolute; anything past this is
#: a wrong winding, sign or residue.
LOOP_TOL = 1e-6
#: Coefficient error of a rebuilt polynomial, relative to the largest
#: coefficient.
POLY_TOL = 1e-8
ENUMERATE_CAP = 24


@dataclass
class Op:
    """One closed-loop operation.

    ``call(tr)`` makes the timed library call; ``check(result, exc)``
    returns (passed, relative error or None when there is no finite
    reference value).
    """

    kind: str
    call: Callable[[Any], Any]
    check: Callable[[Any, BaseException | None], tuple[bool, float | None]]
    subject: Any = None  # the call's main input, for probes that inspect it


def rel_err(got: Triple, want: Triple) -> float:
    """Euclidean distance over the reference's norm, with a unit floor."""
    return math.dist(got, want) / max(1.0, math.hypot(*want))


def triple(u) -> Triple:
    return (u.x, u.y, u.z)


def _check_against(T, reference: Callable[[], Triple], tol: float):
    """Check for calls whose reference may have no finite value: then the
    call must raise the matching library error."""
    expected = {ref.OVERFLOW: T.Overflow, ref.DOMAIN: (T.DomainError, T.ZeroDivisor)}

    def check(got, exc):
        try:
            want = reference()
        except NoValue as nv:
            return isinstance(exc, expected[nv.kind]), None
        if exc is not None:
            return False, None
        err = rel_err(triple(got), want)
        return err <= tol, err

    return check


# -- pointwise ------------------------------------------------------------------

FUNCTIONS = ("exp", "log", "sin", "cos", "sinh", "cosh")
POINT_KINDS = FUNCTIONS + (
    "pow_int",
    "pow_frac",
    "inverse",
    "polar",
    "eval_series",
    "radius_cylindrical",
)
#: Points of each kind in one cycle.
PER_CYCLE = 8
SERIES_TERMS = 30


def box_point(rng: random.Random) -> Triple:
    return (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))


def wide_point(rng: random.Random) -> Triple:
    """Large transverse arguments: |y|, |z| up to 300 with opposite signs,
    or points near (-700, 400, 400)."""
    if rng.random() < 0.5:
        y = rng.choice((-1.0, 1.0)) * rng.uniform(30.0, 300.0)
        return (rng.uniform(-3, 3), y, -math.copysign(rng.uniform(30.0, 300.0), y))
    return (rng.uniform(-710, -690), rng.uniform(395, 405), rng.uniform(395, 405))


def unit_triple(rng: random.Random, norm: float) -> Triple:
    """A seeded triple of the given Euclidean norm."""
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    s = norm / math.hypot(*v)
    return (v[0] * s, v[1] * s, v[2] * s)


def make_series(rng: random.Random) -> list[Triple]:
    """Seeded coefficients with a random geometric decay."""
    q = rng.uniform(0.3, 0.9)
    return [tuple(rng.uniform(-1, 1) * q**n for _ in range(3)) for n in range(SERIES_TERMS)]


def _angle_gap(a: float, b: float) -> float:
    d = abs(a - b) % ref.TWO_PI
    return min(d, ref.TWO_PI - d)


def pointwise_op(T, kind: str, u3: Triple, rng: random.Random, pool) -> Op:
    u = T.Tricomplex(*u3)
    if kind in FUNCTIONS:
        fn = {
            "exp": T.texp, "log": T.tlog, "sin": T.tsin,
            "cos": T.tcos, "sinh": T.tsinh, "cosh": T.tcosh,
        }[kind]
        name = f"functions.{fn.__name__}"
        return Op(
            kind,
            lambda tr: tr.call(name, fn, u),
            _check_against(T, lambda: ref.elementary(kind, u3), POINT_TOL),
        )
    if kind in ("pow_int", "pow_frac"):
        if kind == "pow_int":
            m = rng.choice((-3, -2, -1, 2, 3, 4, 5))
        else:
            m = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 2.5)
        name = "functions.tpow." + kind[4:]
        return Op(
            kind,
            lambda tr: tr.call(name, T.tpow, u, m),
            _check_against(T, lambda: ref.power(u3, m), POINT_TOL),
        )
    if kind == "inverse":
        return Op(
            kind,
            lambda tr: tr.call("algebra.inverse", T.inverse, u),
            _check_against(T, lambda: ref.inverse(u3), POINT_TOL),
        )
    if kind == "polar":

        def check_polar(got, exc):
            if exc is not None:
                return False, None
            want = ref.polar(u3)
            have = (got.d, got.s, got.D, got.theta_or_none, got.phi_or_none, got.rho)
            errs = [
                abs(h - w) / max(1.0, abs(w))
                for i, (h, w) in enumerate(zip(have, want))
                if i != 4
            ]
            errs.append(_angle_gap(have[4], want[4]))
            err = max(errs)
            return err <= POINT_TOL, err

        return Op(kind, lambda tr: tr.call("geometry.polar", T.polar, u), check_polar)
    coeffs, series = pool[rng.randrange(len(pool))]
    if kind == "eval_series":
        return Op(
            kind,
            lambda tr: tr.call("series.eval_series", T.eval_series, series, u),
            _check_against(T, lambda: ref.series_value(coeffs, u3), POINT_TOL),
        )

    def check_radius(got, exc):
        if exc is not None:
            return False, None
        want = ref.radius_cylindrical(coeffs)
        err = max(abs(h - w) / abs(w) for h, w in zip((got.c0, got.c1, got.cplus), want))
        return err <= POINT_TOL, err

    return Op(
        kind,
        lambda tr: tr.call("series.radius_cylindrical", T.radius_cylindrical, series),
        check_radius,
    )


def series_pool(T, rng: random.Random, n: int) -> list:
    pool = []
    for _ in range(n):
        coeffs = make_series(rng)
        pool.append((coeffs, T.TriSeries.from_components(coeffs)))
    return pool


def pointwise(T, seed: int) -> Iterator[list[Op]]:
    rng = random.Random(seed)
    pool = series_pool(T, rng, 32)
    # sin, cos, sinh and cosh, which set the tail, come twice.  That also
    # puts the median latency inside their cluster of times (from 6/16
    # to 14/16 of the ops), not on the cliff between it and the cheap
    # kinds, where it would jump with small shifts in either.
    cycle = list(FUNCTIONS[2:] + POINT_KINDS) * PER_CYCLE
    while True:
        rng.shuffle(cycle)
        yield [pointwise_op(T, kind, box_point(rng), rng, pool) for kind in cycle]


# -- loop integrals ------------------------------------------------------------

_XI1 = (2.0 / math.sqrt(6.0), -1.0 / math.sqrt(6.0), -1.0 / math.sqrt(6.0))
_XI2 = (0.0, 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0))
SHAPES = ("circle1", "circle2", "circle3", "polyline4", "polyline16", "parametric")


def plane_point(c: Triple, a: float, b: float, dsig: float = 0.0) -> Triple:
    """c + a*xi1 + b*xi2, shifted so the component sum grows by ``dsig``."""
    return tuple(c[i] + a * _XI1[i] + b * _XI2[i] + dsig / 3.0 for i in range(3))


@dataclass
class Loop:
    path: Any  # tricomplex.Path3
    points: list[Triple]  # closed sample of the same curve, for the winding
    center: Triple
    inner: float  # the projected pole is inside when nearer the center than this
    outer: float  # ... and outside when farther than this


def make_loop(T, shape: str, rng: random.Random) -> Loop:
    # Quadrature stops at an absolute tolerance, so the integrands' size
    # sets its work.  Loops centred on the trisector line and coefficients
    # of fixed size keep that from depending on the seed.
    c = (rng.uniform(-0.5, 0.5),) * 3
    r = rng.uniform(0.8, 1.25)
    if shape.startswith("circle"):
        turns = int(shape[-1])
        n = 256 * turns
        pts = [
            plane_point(c, r * math.cos(ref.TWO_PI * turns * k / n), r * math.sin(ref.TWO_PI * turns * k / n))
            for k in range(n + 1)
        ]
        return Loop(T.Path3.circle(T.Tricomplex(*c), r, turns), pts, c, 0.9 * r, r)
    if shape.startswith("polyline"):
        nseg = int(shape[8:])
        step = ref.TWO_PI / nseg
        verts = []
        for k in range(nseg):
            ang = step * (k + rng.uniform(-0.15, 0.15))
            rad = r * rng.uniform(0.8, 1.2)
            verts.append(plane_point(c, rad * math.cos(ang), rad * math.sin(ang), rng.uniform(-0.1, 0.1)))
        verts.append(verts[0])
        path = T.Path3.polyline([T.Tricomplex(*v) for v in verts], closed=True)
        # Edges stay outside 0.8 r * cos(0.65 step), and never beyond 1.2 r.
        return Loop(path, verts, c, 0.8 * r * math.cos(0.65 * step), 1.2 * r)
    a, b, eps = r, r * rng.uniform(0.6, 0.9), rng.uniform(0.0, 0.1)

    def at(t: float) -> Triple:
        ang = ref.TWO_PI * t
        return plane_point(c, a * math.cos(ang), b * math.sin(ang), eps * math.sin(3.0 * ang))

    path = T.Path3.parametric(lambda t: T.Tricomplex(*at(t)), samples=64, closed=True)
    return Loop(path, [at(k / 512) for k in range(513)], c, b, a)


def place_pole(loop: Loop, inside: bool, rng: random.Random) -> Triple:
    """A pole well inside or well outside the projected loop, and off the
    range of component sums the loop covers by a distance that scales
    with the loop.  The ranges are narrow so that the quadrature's work
    depends on the loop's kind and shape more than on the seed."""
    ang = rng.uniform(0.0, ref.TWO_PI)
    rad = rng.uniform(0.0, 0.2 * loop.inner) if inside else rng.uniform(2.0, 2.3) * loop.outer
    dsig = rng.choice((-1.0, 1.0)) * (0.15 + loop.outer * rng.uniform(0.6, 0.8))
    return plane_point(loop.center, rad * math.cos(ang), rad * math.sin(ang), dsig)


class Counted:
    """Callable (integrand or path) that counts its evaluations."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn
        self.evals = 0

    def __call__(self, u):
        self.evals += 1
        return self.fn(u)


def _loop_check(want: Triple):
    def check(got, exc):
        if exc is not None:
            return False, None
        err = rel_err(triple(got), want)
        return err <= LOOP_TOL, err

    return check


def loop_op(T, kind: str, shape: str, inside: bool, rng: random.Random) -> Op:
    loop = make_loop(T, shape, rng)
    a3 = place_pole(loop, inside, rng)
    a = T.Tricomplex(*a3)
    n = ref.winding(loop.points, a3)
    wa = ref.split(a3)[0]
    name_shape = shape.rstrip("0123456789")
    if kind == "pole":
        name = f"calculus.loop_integral_pole.{name_shape}"
        return Op(
            kind,
            lambda tr: tr.call(name, T.loop_integral_pole, a, loop.path),
            _loop_check(ref.loop_value(n, 1.0)),
        )
    if kind == "cauchy_exp":
        return Op(
            kind,
            lambda tr: tr.call("calculus.cauchy_value", T.cauchy_value, _traced_exp(T, tr), a, loop.path),
            _loop_check(ref.loop_value(n, cmath.exp(wa))),
        )
    if kind == "cauchy_poly":
        cs = [unit_triple(rng, 0.5) for _ in range(3)]
        ct = [T.Tricomplex(*c) for c in cs]

        def poly(tr):
            def f(u):
                acc = ct[-1]
                for c in reversed(ct[:-1]):
                    acc = tr.call("algebra.add", T.add, tr.call("algebra.mul", T.mul, acc, u), c)
                return acc

            return f

        res = sum(ref.split(c)[0] * wa**k for k, c in enumerate(cs))
        return Op(
            kind,
            lambda tr: tr.call("calculus.cauchy_value", T.cauchy_value, poly(tr), a, loop.path),
            _loop_check(ref.loop_value(n, res)),
        )
    # residue_sum: extra poles, each well inside or outside.
    poles3 = [a3] + [place_pole(loop, rng.random() < 0.5, rng) for _ in range(rng.randint(0, 2))]
    residues = [box_point(rng) for _ in poles3]
    specs = [T.PoleSpec(T.Tricomplex(*p), T.Tricomplex(*r)) for p, r in zip(poles3, residues)]
    total = sum(ref.winding(loop.points, p) * ref.split(r)[0] for p, r in zip(poles3, residues))
    return Op(
        kind,
        lambda tr: tr.call("calculus.residue_sum", T.residue_sum, specs, loop.path),
        _loop_check(ref.loop_value(1, total)),
    )


def _traced_exp(T, tr):
    return lambda u: tr.call("functions.texp", T.texp, u)


def _swap(T):
    """A function that is not analytic: exchanges the h and k parts."""
    return lambda u: T.Tricomplex(u.x, u.z, u.y)


def analytic_op(T, analytic: bool, rng: random.Random) -> Op:
    u3 = tuple(v / 3.0 for v in box_point(rng))
    u0 = T.Tricomplex(*u3)
    scale = math.exp(sum(u3))

    def check(got, exc):
        if exc is not None:
            return False, None
        r = got.max_residual
        return (r <= 1e-4 * scale) if analytic else (r >= 0.5), None

    return Op(
        "check_analytic",
        lambda tr: tr.call(
            "calculus.check_analytic", T.check_analytic, _traced_exp(T, tr) if analytic else _swap(T), u0
        ),
        check,
    )


def loop_integrals(T, seed: int) -> Iterator[list[Op]]:
    rng = random.Random(seed)
    cycle = [
        (kind, shape, inside)
        for kind in ("pole", "cauchy_exp", "cauchy_poly")
        for shape in SHAPES
        for inside in (True, False)
    ]
    cycle += [("residue_sum", shape, True) for shape in SHAPES]
    cycle += [("analytic", "", True), ("analytic", "", False)] * 2
    while True:
        rng.shuffle(cycle)
        yield [
            analytic_op(T, flag, rng) if kind == "analytic" else loop_op(T, kind, shape, flag, rng)
            for kind, shape, flag in cycle
        ]


# -- factorization -------------------------------------------------------------

FAMILIES = ("generic", "repeated", "trisector", "triple", "clustered")
#: Width of the window that holds every longitudinal part of a
#: "clustered" root set.
CLUSTER_WIDTH = 0.3


def root_family(family: str, m: int, rng: random.Random) -> list[tuple[complex, float]]:
    """Transverse/longitudinal parts of m <= 16 roots of the given family.

    Generic roots are well separated: each longitudinal part lies in the
    middle of its own slot of [-2, 2], each transverse part in the middle
    of its own cell of a 4x4 grid on [-2, 2]^2.  Uniform random roots
    instead sometimes bunch up, and then ``factor`` at degree 6 and up
    rebuilds the polynomial only to 1e-8 or worse (one case in a few
    thousand); the "clustered" family, all longitudinal parts within
    CLUSTER_WIDTH, does so in most cases from degree 7 on.
    """
    los = [-2.0 + 4.0 / m * (k + rng.uniform(0.2, 0.8)) for k in range(m)]
    rng.shuffle(los)
    cells = rng.sample(range(16), m)
    ts = [complex(c % 4 - 2 + rng.uniform(0.2, 0.8), c // 4 - 2 + rng.uniform(0.2, 0.8)) for c in cells]
    roots = list(zip(ts, los))
    if family == "clustered":
        lo = rng.uniform(-2.0, 2.0 - CLUSTER_WIDTH)
        roots = [(t, rng.uniform(lo, lo + CLUSTER_WIDTH)) for t in ts]
    elif family == "repeated":
        roots[1] = roots[0]
    elif family == "trisector":
        roots = [(0j, lo) for _, lo in roots]
    elif family == "triple":
        lo = roots[0][1]
        roots[1] = (roots[1][0], lo)
        roots[2] = (roots[2][0], lo)
    return roots


def _coeff_error(T, coeffs, roots) -> float:
    rebuilt = T.TriPolynomial.from_roots(roots).coeffs
    scale = max(1.0, max(abs(c) for c in coeffs))
    return max(abs(a - b) for a, b in zip(coeffs, rebuilt)) / scale


def factor_op(T, op: str, family: str, m: int, rng: random.Random) -> Op:
    parts = root_family(family, m, rng)
    poly = T.TriPolynomial.from_roots([T.Tricomplex(*ref.join(w, p)) for w, p in parts])

    def check_sets(sets) -> tuple[bool, float]:
        err = 0.0
        for rs in sets:
            if len(rs.roots) != m:
                return False, math.inf
            err = max(err, _coeff_error(T, poly.coeffs, rs.roots))
        return err <= POLY_TOL, err

    if op == "factor":

        def check(got, exc):
            if exc is not None:
                return False, None
            return check_sets([got])

        return Op("factor", lambda tr: tr.call("poly.factor", T.factor, poly), check, poly)

    expected = ref.distinct_pairings([w for w, _ in parts], [p for _, p in parts], ENUMERATE_CAP)

    def check_enum(got, exc):
        if exc is not None:
            return False, None
        ok, err = check_sets(got)
        return ok and len(got) == expected, err

    name = f"poly.enumerate_root_sets.{family}"
    return Op(
        "enumerate",
        lambda tr: tr.call(name, T.enumerate_root_sets, poly, ENUMERATE_CAP),
        check_enum,
        poly,
    )


def factorization(T, seed: int) -> Iterator[list[Op]]:
    rng = random.Random(seed)
    cycle = [
        (op, family, m)
        for op, degrees in (("factor", range(2, 11)), ("enumerate", range(2, 8)))
        for family in ("generic", "trisector")
        for m in degrees
    ]
    while True:
        rng.shuffle(cycle)
        yield [factor_op(T, op, family, m, rng) for op, family, m in cycle]


# -- known defects -------------------------------------------------------------

#: Inputs of the known-defect set; fixed, so that its pass rate is the
#: same number in every run of the same code.
DEFECT_SEED = 0


def known_defect_ops(T) -> list[Op]:
    """Every pointwise kind that takes a point, at 16 wide-range points;
    factor (degree 2-10) and enumerate_root_sets (degree 2-7) on repeated
    and triple roots; and factor at degree 5-10 on clustered roots."""
    rng = random.Random(DEFECT_SEED)
    pool = series_pool(T, rng, 4)
    kinds = [k for k in POINT_KINDS if k != "radius_cylindrical"]
    ops = [pointwise_op(T, kind, wide_point(rng), rng, pool) for _ in range(16) for kind in kinds]
    cases = [
        (op, family, m)
        for op, degrees in (("factor", range(2, 11)), ("enumerate", range(2, 8)))
        for family in ("repeated", "triple")
        for m in degrees
        if not (family == "triple" and m < 3)
    ]
    cases += [("factor", "clustered", m) for m in range(5, 11)]
    return ops + [factor_op(T, op, family, m, rng) for op, family, m in cases]


# -- cli -----------------------------------------------------------------------

_LITERAL = re.compile(r"^\(([^,()]+),([^,()]+),([^,()]+)\)\n$")
README_CIRCLE = "circle:center=(1,1,1),radius=1,turns=1"
EXP_TERMS = 24


def _is_17g(token: str) -> bool:
    """Printed at 17 significant digits, as the CLI promises."""
    return f"{float(token):.17g}" == token


def parse_literal(out: str) -> Triple:
    m = _LITERAL.match(out)
    if m is None or not all(_is_17g(g) for g in m.groups()):
        raise ValueError(f"not a literal line: {out!r}")
    return tuple(float(g) for g in m.groups())


def _criterion13_bytes() -> dict[str, str]:
    """Outputs the acceptance suite pins byte for byte."""
    s = 1.0 / ref.SQRT3
    big_d = math.sqrt(2.0 / 3.0)
    third, tt = f"{1.0 / 3.0:.17g}", f"{2.0 / 3.0:.17g}"
    return {
        "exp0": "(1,0,0)\n",
        "decompose": (
            f"d=1\ns={s:.17g}\nD={big_d:.17g}\ntheta={math.atan2(big_d, s):.17g}\n"
            "phi=0\nrho=1\nv1=1\nv1t=0\nvp=1\n"
        ),
        "factor": (
            "root_set 1: (-1,0,0) (1,0,0)\n"
            f"root_set 2: (-{third},{tt},{tt}) ({third},-{tt},-{tt})\n"
        ),
    }


def _cosexp_ref(y: float) -> Triple:
    """cx, mx, px as averages over the cube roots of unity."""
    om = cmath.exp(2j * math.pi / 3.0)
    e = [cmath.exp(om**k * y) for k in range(3)]
    return tuple((e[0] + om ** (-j) * e[1] + om ** (-2 * j) * e[2]).real / 3.0 for j in range(3))


class CliRunner:
    """Runs ``python -m tricomplex`` in a scratch directory inside the
    checkout, with the checkout's ``src`` on the module path."""

    def __init__(self, src: str, workdir: str, rng: random.Random) -> None:
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
        with open(os.path.join(workdir, "u2m1.csv"), "w") as fh:
            fh.write("1,0,0\n0,0,0\n-1,0,0\n")
        with open(os.path.join(workdir, "exp.csv"), "w") as fh:
            for n in range(EXP_TERMS):
                fh.write(f"{1.0 / math.factorial(n):.17g},0,0\n")
        # A polygon around the trisector line, one unit below the origin's
        # component sum, so the pole (0,0,0) sits inside.  A fixed number
        # of sides keeps the cost of integrating along it from depending
        # on the seed.
        nseg = 8
        verts = []
        for k in range(nseg):
            ang = ref.TWO_PI * (k + rng.uniform(-0.15, 0.15)) / nseg
            rad = rng.uniform(0.8, 1.2)
            verts.append(plane_point((-1 / 3, -1 / 3, -1 / 3), rad * math.cos(ang), rad * math.sin(ang)))
        verts.append(verts[0])
        with open(os.path.join(workdir, "loop.csv"), "w") as fh:
            for v in verts:
                fh.write(",".join(f"{c:.17g}" for c in v) + "\n")
        self.loop_winding = ref.winding(verts, (0.0, 0.0, 0.0))

    def run(self, argv: list[str]) -> tuple[int, str, str]:
        p = subprocess.run(
            [sys.executable, "-m", "tricomplex", *argv],
            cwd=self.workdir,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        return p.returncode, p.stdout, p.stderr

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _cli_op(runner: CliRunner, kind: str, argv: list[str], check: Callable[[str, str], tuple[bool, float | None]]) -> Op:
    """``check(stdout, stderr)`` runs only when the exit code is 0."""

    def full(got, exc):
        if exc is not None:
            return False, None
        code, out, err = got
        if code != 0:
            return False, None
        return check(out, err)

    return Op(kind, lambda tr: tr.call("cli.main", runner.run, argv), full)


def _exact(expected: str):
    return lambda out, err: (out == expected, 0.0 if out == expected else None)


def _numeric(want: Triple, tol: float):
    def check(out, err):
        try:
            got = parse_literal(out)
        except ValueError:
            return False, None
        e = rel_err(got, want)
        return e <= tol, e

    return check


def _error_exit(runner: CliRunner, kind: str, argv: list[str], code: int) -> Op:
    def check(got, exc):
        if exc is not None:
            return False, None
        c, out, err = got
        return c == code and out == "" and err.startswith("error:") and err.count("\n") == 1, None

    return Op(kind, lambda tr: tr.call("cli.main", runner.run, argv), check)


def _check_cosexp_table(out: str, err: str):
    lines = out.splitlines()
    if len(lines) != 52 or lines[0] != "y,cx,mx,px" or not out.endswith("\n"):
        return False, None
    worst = 0.0
    for i, line in enumerate(lines[1:]):
        tokens = line.split(",")
        vals = [float(v) for v in tokens]
        if abs(vals[0] - 0.1 * i) > 1e-12 or not all(_is_17g(t) for t in tokens):
            return False, None
        worst = max(worst, rel_err(tuple(vals[1:]), _cosexp_ref(vals[0])))
    return worst <= POINT_TOL, worst


def _check_rho_table(out: str, err: str):
    lines = out.splitlines()
    if len(lines) != 13 or lines[0] != "theta,d":
        return False, None
    worst = 0.0
    for line in lines[1:]:
        tokens = line.split(",")
        if not all(_is_17g(t) for t in tokens):
            return False, None
        theta, d = (float(v) for v in tokens)
        # amplitude of the point at distance d and polar angle theta
        rho = (1.5 * ref.SQRT3 * d**3 * math.cos(theta) * math.sin(theta) ** 2) ** (1.0 / 3.0)
        worst = max(worst, abs(rho - 1.0))
    return worst <= POINT_TOL, worst


def _check_report(out: str, err: str):
    names = [
        "first_order_xy", "first_order_xz", "first_order_yz",
        "second_order_F", "second_order_G", "second_order_H",
        "laplacian_FG", "laplacian_FH", "laplacian_GH",
    ]
    lines = out.splitlines()
    if [ln.split("=")[0] for ln in lines] != names or not all(_is_17g(ln.split("=")[1]) for ln in lines):
        return False, None
    return max(float(ln.split("=")[1]) for ln in lines) <= 1e-4, None


def cli_ops(runner: CliRunner, rng: random.Random) -> list[Op]:
    """One cycle: the README's commands, a domain error, a malformed
    argument, an integral around a seeded circle, and three evaluations
    at seeded points.  The three integrals, the slowest commands, are
    3/16 of the ops, so that p90 falls amid their times."""
    pinned = _criterion13_bytes()
    loop_want = ref.loop_value(runner.loop_winding, 1.0)
    ops = [
        _cli_op(runner, "eval", ["eval", "--fn", "exp", "--at", "(0,0,0)"], _exact(pinned["exp0"])),
        # (1,1,0)^2 = (1,2,1) exactly
        _cli_op(runner, "eval", ["eval", "--fn", "pow", "--at", "(1,1,0)", "--exponent", "2"], _exact("(1,2,1)\n")),
        _cli_op(runner, "decompose", ["decompose", "--at", "(1,0,0)"], _exact(pinned["decompose"])),
        _cli_op(runner, "factor", ["factor", "--poly", "u2m1.csv", "--all"], _exact(pinned["factor"])),
        _cli_op(
            runner,
            "integrate",
            ["integrate", "--pole", "(0,0,0)", "--loop", README_CIRCLE],
            _numeric(ref.loop_value(1, 1.0), LOOP_TOL),
        ),
        _cli_op(
            runner,
            "integrate",
            ["integrate", "--pole", "(0,0,0)", "--loop", "loop.csv"],
            _numeric(loop_want, LOOP_TOL),
        ),
        _cli_op(runner, "check-analytic", ["check-analytic", "--fn", "exp", "--at", "(0.1,0.2,0.3)"], _check_report),
        _cli_op(runner, "cosexp-table", ["cosexp-table", "--min", "0", "--max", "5", "--step", "0.1"], _check_cosexp_table),
        _cli_op(
            runner,
            "rho-table",
            ["rho-table", "--rho", "1", "--min", "0.2", "--max", "1.3", "--step", "0.1"],
            _check_rho_table,
        ),
        _cli_op(
            runner,
            "series",
            ["series", "--coeffs", "exp.csv", "--at", "(0.2,0.1,-0.1)"],
            _numeric(ref.series_value([(1.0 / math.factorial(n), 0.0, 0.0) for n in range(EXP_TERMS)], (0.2, 0.1, -0.1)), POINT_TOL),
        ),
        _error_exit(runner, "domain-error", ["eval", "--fn", "log", "--at", "(-1,0,0)"], 1),
        _error_exit(runner, "malformed", ["eval", "--fn", "exp", "--at", "(1,2)"], 2),
    ]
    c, r = (round(rng.uniform(0.9, 1.1), 6) for _ in range(2))
    circle = f"circle:center=({c!r},{c!r},{c!r}),radius={r!r},turns=1"
    ops.append(
        _cli_op(runner, "integrate", ["integrate", "--pole", "(0,0,0)", "--loop", circle], _numeric(ref.loop_value(1, 1.0), LOOP_TOL))
    )
    for _ in range(3):
        fn = rng.choice(("exp", "sin", "cos", "sinh", "cosh"))
        u3 = tuple(round(rng.uniform(-2, 2), 6) for _ in range(3))
        at = "(" + ",".join(repr(v) for v in u3) + ")"
        ops.append(_cli_op(runner, "eval", ["eval", "--fn", fn, "--at", at], _numeric(ref.elementary(fn, u3), POINT_TOL)))
    return ops


def cli(runner: CliRunner, seed: int) -> Iterator[list[Op]]:
    rng = random.Random(seed)
    while True:
        cycle = cli_ops(runner, rng)
        rng.shuffle(cycle)
        yield cycle
