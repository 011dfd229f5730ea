"""Deterministic command-line front end.

Exit codes: 0 on success, 1 when an argument is outside a function's
domain (zero divisor, logarithm domain, singular path, ...) or a result
leaves the double range, 2 on malformed or non-finite input.  All
numbers are printed with 17 significant digits so every printed value
re-parses to the same double.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from typing import Sequence

from .algebra import Tricomplex
from .errors import Overflow, TricomplexError

# Each handler imports the modules it runs, so a command pays for no
# other: eval and the tables never load calculus, poly or series.

#: Cap on the rows of a table subcommand, checked before any row is built.
_MAX_ROWS = 100_000

_CIRCLE_RE = re.compile(
    r"^circle:center=(\([^)]*\)),radius=([^,]+)(?:,turns=([^,]+))?$"
)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _read_rows(path: str) -> list[tuple[float, float, float]]:
    import csv

    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            try:
                rows.append((float(row[0]), float(row[1]), float(row[2])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric entry") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows


def _parse_loop(spec: str):
    from .calculus import Path3

    m = _CIRCLE_RE.match(spec)
    if m:
        center = Tricomplex.parse(m.group(1))
        radius = float(m.group(2))
        turns = int(m.group(3)) if m.group(3) is not None else 1
        return Path3.circle(center, radius, turns)
    vertices = [Tricomplex(*row) for row in _read_rows(spec)]
    return Path3.polyline(vertices, closed=True)


def _cmd_eval(args: argparse.Namespace) -> list[str]:
    from .functions import DIRECT, ElementaryFn, tpow

    at = Tricomplex.parse(args.at)
    if args.fn == "pow":
        if args.exponent is None:
            raise ValueError("--exponent is required with --fn pow")
        return [tpow(at, args.exponent).literal()]
    return [DIRECT[ElementaryFn(args.fn)](at).literal()]


def _cmd_decompose(args: argparse.Namespace) -> list[str]:
    from .geometry import polar, to_canonical

    at = Tricomplex.parse(args.at)
    c = to_canonical(at)
    return polar(at).lines() + [f"v1={_fmt(c.v1)}", f"v1t={_fmt(c.v1t)}", f"vp={_fmt(c.vp)}"]


def _cmd_factor(args: argparse.Namespace) -> list[str]:
    from .poly import TriPolynomial, enumerate_root_sets, factor

    poly = TriPolynomial.from_components(_read_rows(args.poly))
    if args.all:
        sets = enumerate_root_sets(poly, cap=args.cap)
    else:
        sets = [factor(poly)]
    roots = (" ".join(r.literal() for r in rs.roots) for rs in sets)
    return [f"root_set {i}: {line}" for i, line in enumerate(roots, start=1)]


def _cmd_integrate(args: argparse.Namespace) -> list[str]:
    from .calculus import loop_integral_pole

    pole = Tricomplex.parse(args.pole)
    loop = _parse_loop(args.loop)
    return [loop_integral_pole(pole, loop).literal()]


def _cmd_check_analytic(args: argparse.Namespace) -> list[str]:
    from .derivatives import check_analytic
    from .functions import DIRECT, ElementaryFn

    at = Tricomplex.parse(args.at)
    f = DIRECT[ElementaryFn(args.fn)]
    return check_analytic(f, at, step=args.step).lines()


def _grid(lo: float, hi: float, step: float) -> list[float]:
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError("range bounds and step must be finite")
    if step <= 0.0:
        raise ValueError("step must be > 0")
    if hi < lo:
        raise ValueError("range end must be >= range start")
    if (hi - lo) / step >= _MAX_ROWS:
        raise ValueError(f"range holds more than {_MAX_ROWS} rows")
    # a finer step leaves lo + i*step where it is, and the rows never reach hi
    if step < math.ulp(max(abs(lo), abs(hi))):
        raise ValueError("step is finer than the double spacing at the range bounds")
    out = []
    i = 0
    while True:
        v = lo + i * step
        if v > hi + 1e-12 * step:
            break
        out.append(v)
        i += 1
    return out


def _cmd_cosexp_table(args: argparse.Namespace) -> list[str]:
    from .functions import texp

    # cx, mx, px are the components of exp(h*y)
    lines = ["y,cx,mx,px"]
    for y in _grid(args.min, args.max, args.step):
        e = texp(Tricomplex(0.0, y, 0.0))
        lines.append(f"{_fmt(y)},{_fmt(e.x)},{_fmt(e.y)},{_fmt(e.z)}")
    return lines


def _cmd_rho_table(args: argparse.Namespace) -> list[str]:
    from .geometry import from_exponential

    if not (math.isfinite(args.rho) and args.rho > 0.0):
        raise ValueError("rho must be finite and > 0")
    grid = _grid(args.min, args.max, args.step)
    if not all(0.0 < theta < 0.5 * math.pi for theta in grid):
        raise ValueError("theta grid must stay strictly inside (0, pi/2)")
    lines = ["theta,d"]
    for theta in grid:
        d = abs(from_exponential(args.rho, theta, 0.0))
        if not math.isfinite(d):
            raise Overflow(f"distance at theta={_fmt(theta)} exceeds the double range")
        lines.append(f"{_fmt(theta)},{_fmt(d)}")
    return lines


def _cmd_series(args: argparse.Namespace) -> list[str]:
    from .series import TriSeries, eval_series

    s = TriSeries.from_components(_read_rows(args.coeffs))
    at = Tricomplex.parse(args.at)
    return [eval_series(s, at).literal()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricomplex",
        description="Numerics for commutative three-dimensional hypercomplex numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fn_choices = ["exp", "log", "pow", "sin", "cos", "sinh", "cosh"]

    p = sub.add_parser("eval", help="Evaluate an elementary function at a point.")
    p.add_argument("--fn", required=True, choices=fn_choices)
    p.add_argument("--at", required=True, metavar="(x,y,z)")
    p.add_argument("--exponent", type=float, help="Exponent for --fn pow.")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser(
        "decompose", help="Print polar and canonical coordinates of a point."
    )
    p.add_argument("--at", required=True, metavar="(x,y,z)")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("factor", help="Factor a monic polynomial from a CSV file.")
    p.add_argument(
        "--poly",
        required=True,
        help="CSV rows p,q,r in descending powers; leading row 1,0,0.",
    )
    p.add_argument("--all", action="store_true", help="Enumerate all distinct root sets.")
    p.add_argument("--cap", type=int, default=24, help="Cap on enumerated root sets.")
    p.set_defaults(handler=_cmd_factor)

    p = sub.add_parser("integrate", help="Loop integral of du/(u - pole).")
    p.add_argument("--pole", required=True, metavar="(x,y,z)")
    p.add_argument(
        "--loop",
        required=True,
        help="circle:center=(x,y,z),radius=r[,turns=n] or a CSV polyline file.",
    )
    p.set_defaults(handler=_cmd_integrate)

    p = sub.add_parser(
        "check-analytic", help="Component-derivative residuals of a function."
    )
    p.add_argument("--fn", required=True, choices=[f for f in fn_choices if f != "pow"])
    p.add_argument("--at", required=True, metavar="(x,y,z)")
    p.add_argument("--step", type=float, default=1e-4)
    p.set_defaults(handler=_cmd_check_analytic)

    p = sub.add_parser("cosexp-table", help="CSV table of the cosexponential functions.")
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.set_defaults(handler=_cmd_cosexp_table)

    p = sub.add_parser(
        "rho-table",
        help="CSV table of distance vs polar angle on a constant-amplitude surface.",
    )
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.set_defaults(handler=_cmd_rho_table)

    p = sub.add_parser("series", help="Evaluate a power series from a CSV file.")
    p.add_argument(
        "--coeffs", required=True, help="CSV rows p,q,r in ascending powers."
    )
    p.add_argument("--at", required=True, metavar="(x,y,z)")
    p.set_defaults(handler=_cmd_series)

    # argparse's own pattern takes a negative number such as -1e-3 or -inf for an option
    negative = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = negative
    return parser


def run(argv: Sequence[str]) -> int:
    """Execute one CLI invocation; returns the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        lines = args.handler(args)
    except TricomplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # printed only once the handler returns, so an error leaves stdout empty
    sys.stdout.write("".join(f"{line}\n" for line in lines))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
