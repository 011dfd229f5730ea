"""Closed-loop benchmark of the tricomplex library and its CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the package from
``./src`` and fails (exit 1, no result) when that is missing.  One
caller on one thread makes one operation at a time, each a single call
into the public API (or, for ``cli``, one ``python -m tricomplex``
subprocess), and checks every result against ``reference.py``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics: setup_s (median of seven fresh-interpreter imports
spread over the run), ops_per_s (median rate over the run's cycles),
latency_p50_ms and latency_p90_ms, known_defect_pass_rate (the share
of the fixed ``workloads.known_defect_ops`` that pass, checked once and
untimed), accuracy_digits and peak_rss_mb.  Its timings are in
reference seconds (see ``SpeedGauge``).  Every timed operation must
pass: a failure makes the run incorrect.

With ``--trace 1`` each operation runs twice, with and without spans
around the benchmark's calls into the library, and the tracing overhead
is the ratio of the two throughputs.  That run gives the per-layer
metrics: the median span of each layer call made by the workload, or by
a small layer probe on seeded inputs when the workload makes fewer than
``MIN_SPANS`` of that call, plus exact counters that must repeat within
the run.  Spans are in seconds of this machine, not scaled.  They are
written to ``.bench_out/spans-<workload>.csv.gz``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import workloads as wl
from tracing import PROBE_OP, NoTrace, Tracer, median_span

# One caller on one thread: numpy's BLAS would otherwise start a thread
# per core in this process and in every interpreter the benchmark starts,
# and on a machine with few cores their contention is measured instead
# of the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

#: Enough operations for ten latency samples above p90.
MIN_OPS = 100
#: Latency and error samples kept per run (uniform reservoir).
RESERVOIR = 50_000
SETUP_REPEATS = 7
WARMUP_S = 0.3
MIN_SPANS = 10
ACCURACY_CAP = 16.0

WORKLOADS = ("pointwise", "loop_integrals", "factorization", "cli")

#: The speed of a shared host drifts by up to 40% over minutes, so every
#: end-to-end timing is scaled to a reference speed: the time of a fixed
#: interpreter-bound loop, measured every CALIBRATE_EVERY_S between
#: operations, is taken to be CALIBRATION_S.  A change to the library
#: cannot move the loop's time.
CALIBRATION_S = 0.002
CALIBRATE_EVERY_S = 0.02
#: Calibrations whose median gives the current speed.
CALIBRATION_WINDOW = 5


def load_library():
    if not os.path.isfile(os.path.join(SRC, "tricomplex", "__init__.py")):
        sys.exit(f"error: {SRC}/tricomplex not found; run from the root of a tricomplex checkout")
    sys.path.insert(0, SRC)
    import tricomplex

    if not os.path.abspath(tricomplex.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported tricomplex from {tricomplex.__file__}, not from {SRC}")
    return tricomplex


def import_seconds(module: str, repeats: int, warm: bool = True) -> list[float]:
    """Wall time of ``import module`` in fresh interpreters, after one
    unmeasured import that leaves the bytecode cache warm when ``warm``."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = []
    for _ in range(repeats + warm):
        p = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True
        )
        out.append(float(p.stdout))
    return out[warm:]


def calibration_loop() -> float:
    acc = 0.0
    last = {}
    for i in range(3000):
        z = complex(i * 0.001, 0.5)
        acc += abs(z * z + 1.0) ** 0.5
        last[i & 63] = (acc, i)
    return acc


class SpeedGauge:
    """Scale from seconds on this machine, now, to reference seconds."""

    def __init__(self) -> None:
        self.times: collections.deque[float] = collections.deque(maxlen=CALIBRATION_WINDOW)
        self.last = 0.0
        for _ in range(CALIBRATION_WINDOW):
            self.calibrate()

    def calibrate(self) -> None:
        t0 = perf_counter()
        calibration_loop()
        self.last = perf_counter()
        self.times.append(self.last - t0)
        self.scale = CALIBRATION_S / statistics.median(self.times)

    def tick(self) -> None:
        """Calibrate when the last calibration is CALIBRATE_EVERY_S old."""
        if perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.calibrate()


class Reservoir:
    """Uniform sample of at most ``size`` values from a stream, so memory
    does not grow with the number of operations a run completes."""

    def __init__(self, size: int, rng: random.Random) -> None:
        self.size, self.rng, self.seen, self.values = size, rng, 0, []

    def add(self, v: float) -> None:
        self.seen += 1
        if len(self.values) < self.size:
            self.values.append(v)
        else:
            j = self.rng.randrange(self.seen)
            if j < self.size:
                self.values[j] = v


class Tally:
    """Outcomes of the operations made in one mode (traced or not)."""

    def __init__(self, rng: random.Random) -> None:
        self.attempted = self.failed = 0
        self.busy = 0.0
        self.cycle_rates: list[float] = []
        self.latency = Reservoir(RESERVOIR, rng)
        self.errors = Reservoir(RESERVOIR, rng)
        self.failed_kinds: dict[str, int] = {}

    def add(self, op: wl.Op, dt: float, ok: bool, err: float | None) -> None:
        self.attempted += 1
        self.busy += dt
        self.latency.add(dt)
        if not ok:
            self.failed += 1
            self.failed_kinds[op.kind] = self.failed_kinds.get(op.kind, 0) + 1
        elif err is not None:
            self.errors.add(err)

    def cycle(self, attempted: int, busy: float) -> None:
        """Close a cycle that began at the given counts."""
        self.cycle_rates.append((self.attempted - attempted) / (self.busy - busy))


def run_op(op: wl.Op, tr) -> tuple[float, bool, float | None]:
    t0 = perf_counter()
    try:
        got, exc = op.call(tr), None
    except Exception as e:  # the library's failure is the op's outcome
        got, exc = None, e
    dt = perf_counter() - t0
    try:
        ok, err = op.check(got, exc)
    except (AttributeError, TypeError, ValueError):  # result of the wrong shape
        ok, err = False, None
    return dt, ok, err


def closed_loop(cycles, seconds: float, tallies, tracers, min_ops: int, speed: SpeedGauge, between=None) -> None:
    """Run ops one after another, in whole cycles, until ``seconds`` of
    ops have passed and at least ``min_ops`` ran.  Given two (tally,
    tracer) modes, each op runs once in each, in alternating order, so
    that both modes do exactly the same work.  Op times are scaled by
    ``speed``.  ``between(fraction_done)`` runs between cycles; its time
    does not count."""
    end = perf_counter() + WARMUP_S
    for op in next(cycles):
        run_op(op, NoTrace)
        if perf_counter() >= end:
            break
    start = perf_counter()
    end = start + seconds
    modes = list(zip(tallies, tracers))
    n = 0
    while n < min_ops or perf_counter() < end:
        marks = [(t.attempted, t.busy) for t in tallies]
        for op in next(cycles):
            for tally, tr in modes if n % 2 == 0 else modes[::-1]:
                tr.op = n
                speed.tick()
                dt, ok, err = run_op(op, tr)
                tally.add(op, dt * speed.scale, ok, err)
            n += 1
        for tally, mark in zip(tallies, marks):
            tally.cycle(*mark)
        if between is not None:
            t = perf_counter()
            between((t - start) / seconds)
            end += perf_counter() - t


class SetupSampler:
    """Import times, in reference seconds, taken at evenly spaced points
    of the run."""

    def __init__(self, repeats: int, speed: SpeedGauge) -> None:
        self.repeats, self.speed = repeats, speed
        self.samples: list[float] = []
        self._sample(warm=True)  # also warms the bytecode cache

    def _sample(self, warm: bool = False) -> None:
        t = import_seconds("tricomplex", 1, warm)[0]
        self.speed.calibrate()
        self.samples.append(t * self.speed.scale)

    def __call__(self, done: float) -> None:
        if len(self.samples) < self.repeats and done >= len(self.samples) / self.repeats:
            self._sample()

    def finish(self) -> list[float]:
        while len(self.samples) < self.repeats:
            self._sample()
        return self.samples


def p99_digits(errors: list[float]) -> float:
    """-log10 of the 99th-percentile relative error of the passing ops,
    capped; 0 when no op passed."""
    if not errors:
        return 0.0
    e = sorted(errors)[min(len(errors) - 1, math.ceil(0.99 * len(errors)) - 1)]
    return ACCURACY_CAP if e <= 10.0**-ACCURACY_CAP else min(ACCURACY_CAP, -math.log10(e))


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- layer probe -------------------------------------------------------------


def _points(rng: random.Random, n: int, positive: bool = False) -> list[wl.Triple]:
    out = []
    while len(out) < n:
        u = wl.box_point(rng)
        if not positive or sum(u) > 0.5:
            out.append(u)
    return out


def probe_algebra(T, tr, rng):
    pts = [T.Tricomplex(*u) for u in _points(rng, 2000, positive=True)]
    for u in _points(rng, 2000):
        tr.call("algebra.Tricomplex", T.Tricomplex, *u)
    for u, v in zip(pts, pts[1:]):
        tr.call("algebra.mul", T.mul, u, v)
    for u in pts:
        tr.call("algebra.inverse", T.inverse, u)


def probe_geometry(T, tr, rng):
    for u in _points(rng, 1000):
        u = T.Tricomplex(*u)
        tr.call("geometry.polar", T.polar, u)
        tr.call("geometry.from_canonical", T.from_canonical, tr.call("geometry.to_canonical", T.to_canonical, u))


def probe_cosexp(T, tr, rng):
    kinds = list(T.CosexpKind)
    for _ in range(2000):
        tr.call("cosexp.cosexp", T.cosexp, rng.choice(kinds), rng.uniform(-5, 5))


def probe_functions(T, tr, rng) -> int:
    """Each elementary function, both powers and the split oracle on 96
    seeded points, one in eight wide-range; returns the failures."""
    failed = 0
    for i in range(96):
        u3 = wl.wide_point(rng) if i % 8 == 0 else wl.box_point(rng)
        for kind in wl.FUNCTIONS + ("pow_int", "pow_frac"):
            op = wl.pointwise_op(T, kind, u3, rng, None)
            failed += not run_op(op, tr)[1]
        if i % 8:
            tr.call("functions.oracle_eval", T.oracle_eval, T.ElementaryFn.EXP, T.Tricomplex(*u3))
    return failed


def probe_series(T, tr, rng):
    pool = wl.series_pool(T, rng, 8)
    for u3 in _points(rng, 300):
        for kind in ("eval_series", "radius_cylindrical"):
            run_op(wl.pointwise_op(T, kind, u3, rng, pool), tr)


class _Only:
    """Tracer view that records only spans whose name has ``prefix``."""

    def __init__(self, tr, prefix: str) -> None:
        self.tr, self.prefix = tr, prefix

    def call(self, name, fn, *args):
        if name.startswith(self.prefix):
            return self.tr.call(name, fn, *args)
        return fn(*args)


def probe_loops(T, tr, rng):
    tr = _Only(tr, "calculus.")
    for shape, kind, reps in (
        ("circle1", "pole", 4),
        ("polyline4", "pole", 4),
        ("circle1", "cauchy_exp", 2),
        ("polyline16", "residue_sum", 10),
    ):
        for i in range(reps):
            run_op(wl.loop_op(T, kind, shape, i % 2 == 0, rng), tr)
    for i in range(100):
        run_op(wl.analytic_op(T, True, rng), tr)


def probe_poly(T, tr, rng) -> tuple[int, int, float]:
    """Fixed factorization cases: every family at degrees 4 and 8, and
    enumeration of every family at degree 4 plus generic 6 and trisector 6.
    Returns (failures, root sets returned, max |p(root)|)."""
    failed = returned = 0
    residual = 0.0
    cases = [("factor", f, m) for f in wl.FAMILIES for m in (4, 8)]
    cases += [("enumerate", f, 4) for f in wl.FAMILIES]
    cases += [("enumerate", "generic", 6)] * 5 + [("enumerate", "trisector", 6)] * 5
    for op_name, family, m in cases:
        op = wl.factor_op(T, op_name, family, m, rng)
        got = []
        op.call = lambda tr, call=op.call: got.append(call(tr)) or got[-1]
        failed += not run_op(op, tr)[1]
        if got:
            sets = got[0] if op_name == "enumerate" else [got[0]]
            returned += len(sets) if op_name == "enumerate" else 0
            for rs in sets:
                residual = max([residual] + [abs(op.subject(r)) for r in rs.roots])
    return failed, returned, residual


def probe_cli(T, tr, rng):
    import tricomplex.cli as cli

    argv = ["eval", "--fn", "exp", "--at", "(0.1,0.2,0.3)"]
    for _ in range(20):
        with contextlib.redirect_stdout(io.StringIO()):
            tr.call("cli.run", cli.run, argv)


def counted_circle(T, tr) -> tuple[int, int, float]:
    """Integrand evaluations, path points and seconds per evaluation of
    the README circle integral of du/u."""
    circle = T.Path3.circle(T.Tricomplex(1 / 3, 1 / 3, 1 / 3), (2 / 3) ** 0.5)
    return _counted(T, tr, circle.point_at, circle.samples, T.ZERO)


def counted_square(T, tr) -> tuple[int, int, float]:
    """The same counts for a square around the trisector line."""
    c = (-1 / 3, -1 / 3, -1 / 3)
    verts = [T.Tricomplex(*wl.plane_point(c, a, b)) for a, b in ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 0))]
    square = T.Path3.polyline(verts, closed=True)
    return _counted(T, tr, square.point_at, square.samples, T.ZERO)


def _counted(T, tr, point_at, samples, pole):
    points = wl.Counted(point_at)
    path = T.Path3.parametric(points, samples=samples, closed=True)
    points.evals = 0
    f = wl.Counted(lambda u: T.inverse(u - pole))
    t0 = perf_counter()
    tr.call("calculus.path_integral", T.path_integral, f, path)
    return f.evals, points.evals, (perf_counter() - t0) / f.evals


# -- metrics -------------------------------------------------------------------

#: Per-layer timings: metric, unit, span names whose medians are summed,
#: probe that makes those calls.
TIMINGS = (
    ("algebra.construct_us", "us", ("algebra.Tricomplex",), probe_algebra),
    ("algebra.mul_us", "us", ("algebra.mul",), probe_algebra),
    ("algebra.inverse_us", "us", ("algebra.inverse",), probe_algebra),
    ("geometry.polar_us", "us", ("geometry.polar",), probe_geometry),
    (
        "geometry.canonical_roundtrip_us",
        "us",
        ("geometry.to_canonical", "geometry.from_canonical"),
        probe_geometry,
    ),
    ("cosexp.cosexp_us", "us", ("cosexp.cosexp",), probe_cosexp),
    ("functions.exp_us", "us", ("functions.texp",), None),
    ("functions.log_us", "us", ("functions.tlog",), None),
    ("functions.sin_us", "us", ("functions.tsin",), None),
    ("functions.cos_us", "us", ("functions.tcos",), None),
    ("functions.sinh_us", "us", ("functions.tsinh",), None),
    ("functions.cosh_us", "us", ("functions.tcosh",), None),
    ("functions.pow_int_us", "us", ("functions.tpow.int",), None),
    ("functions.pow_frac_us", "us", ("functions.tpow.frac",), None),
    ("functions.oracle_eval_us", "us", ("functions.oracle_eval",), None),
    ("series.eval_series_us", "us", ("series.eval_series",), probe_series),
    ("series.radius_cylindrical_us", "us", ("series.radius_cylindrical",), probe_series),
    ("calculus.loop_pole_circle_ms", "ms", ("calculus.loop_integral_pole.circle",), probe_loops),
    ("calculus.loop_pole_polyline_ms", "ms", ("calculus.loop_integral_pole.polyline",), probe_loops),
    ("calculus.cauchy_ms", "ms", ("calculus.cauchy_value",), probe_loops),
    ("calculus.residue_sum_ms", "ms", ("calculus.residue_sum",), probe_loops),
    ("calculus.check_analytic_us", "us", ("calculus.check_analytic",), probe_loops),
    ("poly.factor_ms", "ms", ("poly.factor",), None),
    ("poly.enumerate_generic_ms", "ms", ("poly.enumerate_root_sets.generic",), None),
    ("poly.enumerate_trisector_ms", "ms", ("poly.enumerate_root_sets.trisector",), None),
    ("cli.run_ms", "ms", ("cli.run",), probe_cli),
)
_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "known_defect_pass_rate": "ratio",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}


def make_ops(T, workload: str, seed: int, closers: list):
    if workload == "cli":
        runner = wl.CliRunner(SRC, os.path.join(OUT, f"cli-{os.getpid()}"), random.Random(seed))
        closers.append(runner.close)
        return wl.cli(runner, seed)
    return getattr(wl, workload)(T, seed)


def known_defects(T) -> tuple[float, int, dict[str, int]]:
    """Share of the known-defect set that passes, its size, and its
    failures by kind."""
    ops = wl.known_defect_ops(T)
    failed: dict[str, int] = {}
    for op in ops:
        if not run_op(op, NoTrace)[1]:
            failed[op.kind] = failed.get(op.kind, 0) + 1
    return 1.0 - sum(failed.values()) / len(ops), len(ops), failed


def end_to_end(workload: str, tally: Tally, setup: list[float], defects: tuple[float, int]) -> dict:
    lat = tally.latency.values
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        # Every cycle holds the same mix, so the median cycle's rate is
        # immune to the bursts in which a shared machine runs slow.
        "ops_per_s": (statistics.median(tally.cycle_rates), len(tally.cycle_rates)),
        "latency_p50_ms": (statistics.median(lat) * 1e3, len(lat)),
        "latency_p90_ms": (deciles[8] * 1e3, len(lat)),
        "known_defect_pass_rate": defects,
        "accuracy_digits": (p99_digits(tally.errors.values), len(tally.errors.values)),
        "peak_rss_mb": (peak_rss_mb(children=workload == "cli"), 1),
    }


def per_layer(T, tr: Tracer, tallies: list[Tally], seed: int) -> tuple[dict, dict, bool]:
    """Per-layer metrics, where each came from, and whether the exact
    counters repeated."""
    rng = random.Random(seed + 1)
    tr.op = PROBE_OP
    groups = tr.group()
    done = set()
    for name, unit, spans, probe in TIMINGS:
        have = sum(len(groups.get((s, False), ())) for s in spans)
        if probe is not None and have < MIN_SPANS and probe not in done:
            probe(T, tr, rng)
            done.add(probe)
    functions_failed = probe_functions(T, tr, rng)
    poly_failed, root_sets, residual = probe_poly(T, tr, rng)
    circle = counted_circle(T, tr)
    square = counted_square(T, tr)
    repeat = counted_circle(T, tr)[:2] == circle[:2] and counted_square(T, tr)[:2] == square[:2]
    groups = tr.group()

    metrics, notes = {}, {}
    for name, unit, spans, probe in TIMINGS:
        parts = [median_span(groups, s, MIN_SPANS) for s in spans]
        metrics[name] = (sum(p[0] for p in parts) * _SCALE[unit], unit)
        notes[name] = f"n={min(p[1] for p in parts)} from {parts[0][2]}"
    untraced, traced = tallies
    overhead = (untraced.attempted / untraced.busy) / (traced.attempted / traced.busy) - 1.0
    metrics.update(
        {
            "functions.failed": (functions_failed, "count"),
            "calculus.integrand_evals": (circle[0], "count"),
            "calculus.path_points": (circle[1], "count"),
            "calculus.us_per_integrand_eval": (circle[2] * 1e6, "us"),
            "calculus.integrand_evals_polyline": (square[0], "count"),
            "poly.root_sets_returned": (root_sets, "count"),
            "poly.max_residual": (residual, "abs"),
            "poly.failed": (poly_failed, "count"),
            "cli.import_s": (statistics.median(import_seconds("tricomplex.cli", 3)), "s"),
            "trace.overhead_pct": (overhead * 100.0, "%"),
            "trace.spans": (len(tr), "count"),
        }
    )
    return metrics, notes, repeat


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    T = load_library()
    os.makedirs(OUT, exist_ok=True)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    rng = random.Random(args.seed)
    closers: list = []
    try:
        cycles = make_ops(T, args.workload, args.seed, closers)
        if args.trace:
            tracer = Tracer()
            tallies = [Tally(rng), Tally(rng)]
            t_origin = perf_counter()
            speed = SpeedGauge()
            closed_loop(cycles, args.seconds, tallies, [NoTrace, tracer], 0, speed)
            metrics, notes, repeat = per_layer(T, tracer, tallies, args.seed)
            tracer.write(os.path.join(OUT, f"spans-{args.workload}.csv.gz"), t_origin)
            correct = repeat
            if not repeat:
                print("# exact counters did not repeat", file=sys.stderr)
        else:
            speed = SpeedGauge()
            sampler = SetupSampler(SETUP_REPEATS, speed)
            tallies = [Tally(rng)]
            closed_loop(cycles, args.seconds, tallies, [NoTrace], MIN_OPS, speed, sampler)
            setup = sampler.finish()
            pass_rate, n_defect, defect_kinds = known_defects(T)
            print(f"# known-defect set: {n_defect} ops, failed by kind={defect_kinds}")
            metrics, notes = {}, {}
            for name, (value, n) in end_to_end(args.workload, tallies[0], setup, (pass_rate, n_defect)).items():
                metrics[name] = (value, END_TO_END_UNITS[name])
                notes[name] = f"n={n}"
            correct = True
    finally:
        for close in closers:
            close()

    # A traced run makes every op in both modes; count the traced ones.
    tally = tallies[-1]
    attempted, failed, kinds = tally.attempted, tally.failed, tally.failed_kinds
    correct = correct and failed == 0
    print(f"# attempted={attempted} failed={failed} by kind={kinds}")
    print(f"# calibration loop: {CALIBRATION_S / speed.scale * 1e3:.3f} ms at the end (reference {CALIBRATION_S * 1e3:g} ms)")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit:8s} {notes.get(name, '')}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
