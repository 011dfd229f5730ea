import contextlib
import io
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tricomplex
from tricomplex import (
    ONE,
    ZERO,
    Path3,
    TriPolynomial,
    TriSeries,
    Tricomplex,
    check_analytic,
    cx,
    enumerate_root_sets,
    eval_series,
    from_exponential,
    loop_integral_pole,
    mx,
    polar,
    px,
    texp,
    to_canonical,
    tpow,
)
from tricomplex.cli import run


@pytest.fixture
def capout(capsys):
    def invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def test_eval_exp_at_zero_bytes(capout):
    code, out, err = capout("eval", "--fn", "exp", "--at", "(0,0,0)")
    assert code == 0
    assert out == "(1,0,0)\n"
    assert err == ""


def test_decompose_unit_x_bytes(capout):
    code, out, _ = capout("decompose", "--at", "(1,0,0)")
    assert code == 0
    s = 1.0 / math.sqrt(3.0)
    D = math.sqrt(2.0 / 3.0)
    theta = math.atan2(D, s)
    assert out == (
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


def test_decompose_at_the_top_of_the_double_range(capout):
    # every printed descriptor is in range, only intermediate sums are not
    code, out, _ = capout("decompose", "--at", "(1e308,-1e308,1e308)")
    assert code == 0
    values = dict(line.split("=") for line in out.splitlines())
    assert abs(float(values["phi"]) - 5.0 * math.pi / 3.0) < 1e-15
    assert abs(float(values["d"]) / (math.sqrt(3.0) * 1e308) - 1.0) < 1e-15
    assert all(math.isfinite(float(v)) for v in values.values())


def test_decompose_trisector_phi_undefined(capout):
    code, out, _ = capout("decompose", "--at", "(2,2,2)")
    assert code == 0
    assert "phi=undefined\n" in out
    assert "theta=0\n" in out


def test_factor_all_bytes(capout, tmp_path):
    f = tmp_path / "u2m1.csv"
    f.write_text("1,0,0\n0,0,0\n-1,0,0\n")
    code, out, _ = capout("factor", "--poly", str(f), "--all")
    assert code == 0
    third = f"{1.0 / 3.0:.17g}"
    two_thirds = f"{2.0 / 3.0:.17g}"
    assert out == (
        "root_set 1: (-1,0,0) (1,0,0)\n"
        f"root_set 2: (-{third},{two_thirds},{two_thirds})"
        f" ({third},-{two_thirds},-{two_thirds})\n"
    )


def test_factor_canonical_only(capout, tmp_path):
    f = tmp_path / "u2m1.csv"
    f.write_text("1,0,0\n0,0,0\n-1,0,0\n")
    code, out, _ = capout("factor", "--poly", str(f))
    assert code == 0
    assert out == "root_set 1: (-1,0,0) (1,0,0)\n"


def test_factor_triple_root(capout, tmp_path):
    f = tmp_path / "cube.csv"
    f.write_text("1,0,0\n-3,0,0\n3,0,0\n-1,0,0\n")
    code, out, _ = capout("factor", "--poly", str(f), "--all")
    assert code == 0
    assert out == "root_set 1: (1,0,0) (1,0,0) (1,0,0)\n"


def test_cosexp_table(capout):
    code, out, _ = capout("cosexp-table", "--min", "0", "--max", "1", "--step", "0.5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "y,cx,mx,px"
    assert lines[1] == "0,1,0,0"
    assert lines[3] == f"1,{cx(1.0):.17g},{mx(1.0):.17g},{px(1.0):.17g}"
    assert len(lines) == 4


def test_rho_table(capout):
    t = math.pi / 4.0
    code, out, _ = capout(
        "rho-table", "--rho", "1", "--min", str(t), "--max", str(t), "--step", "1"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta,d"
    theta_str, d_str = lines[1].split(",")
    want = 2.0 ** (1.0 / 3.0) / (
        math.sqrt(3.0) * math.sin(t) ** (2.0 / 3.0) * math.cos(t) ** (1.0 / 3.0)
    )
    assert abs(float(theta_str) - t) < 1e-15
    assert abs(float(d_str) - want) < 1e-15 * want


def test_series_subcommand(capout, tmp_path):
    f = tmp_path / "exp.csv"
    rows = [f"{1.0 / math.factorial(l)},0,0" for l in range(25)]
    f.write_text("\n".join(rows) + "\n")
    code, out, _ = capout("series", "--coeffs", str(f), "--at", "(0.2,0.1,-0.1)")
    assert code == 0
    got = Tricomplex.parse(out.strip())
    want = texp(Tricomplex(0.2, 0.1, -0.1))
    assert abs(got - want) < 1e-12


def test_integrate_circle(capout):
    code, out, _ = capout(
        "integrate",
        "--pole",
        "(0,0,0)",
        "--loop",
        "circle:center=(0.33333333333333331,0.33333333333333331,0.33333333333333331)"
        ",radius=0.81649658092772603,turns=1",
    )
    assert code == 0
    got = Tricomplex.parse(out.strip())
    unit = 2.0 * math.pi / math.sqrt(3.0)
    assert abs(got.x) < 1e-6
    assert abs(got.y - unit) < 1e-6
    assert abs(got.z + unit) < 1e-6


def test_integrate_polyline_loop(capout, tmp_path):
    # square loop around the trisector line at positive component sum
    pts = []
    for xi1, xi2 in [(1, 1), (-1, 1), (-1, -1), (1, -1), (1, 1)]:
        e1 = [v / math.sqrt(6.0) for v in (2.0, -1.0, -1.0)]
        e2 = [v / math.sqrt(2.0) for v in (0.0, 1.0, -1.0)]
        p = [1.0 / 3.0 + xi1 * a + xi2 * b for a, b in zip(e1, e2)]
        pts.append(",".join(repr(v) for v in p))
    f = tmp_path / "loop.csv"
    f.write_text("\n".join(pts) + "\n")
    code, out, _ = capout("integrate", "--pole", "(0,0,0)", "--loop", str(f))
    assert code == 0
    got = Tricomplex.parse(out.strip())
    unit = 2.0 * math.pi / math.sqrt(3.0)
    assert abs(got.y - unit) < 1e-6


def test_check_analytic_subcommand(capout):
    code, out, _ = capout("check-analytic", "--fn", "exp", "--at", "(0.1,0.2,0.3)")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    for line in lines:
        name, value = line.split("=")
        assert float(value) < 1e-6


def test_domain_errors_exit_one(capout):
    code, out, err = capout("eval", "--fn", "log", "--at", "(-1,0,0)")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    code, _, err = capout("eval", "--fn", "log", "--at", "(1,1,1)")
    assert code == 1
    code, _, err = capout(
        "integrate", "--pole", "(0,0,0)", "--loop", "circle:center=(0,0,0),radius=1"
    )
    assert code == 1


def test_parse_errors_exit_two(capout):
    code, _, _ = capout("eval", "--fn", "exp", "--at", "1,2,3")
    assert code == 2
    code, _, _ = capout("eval", "--fn", "nope", "--at", "(0,0,0)")
    assert code == 2
    code, _, _ = capout("eval", "--fn", "exp", "--at", "(0,0,0)", "--bogus")
    assert code == 2
    code, _, _ = capout("factor", "--poly", "/nonexistent/file.csv")
    assert code == 2
    code, _, _ = capout("eval", "--fn", "pow", "--at", "(1,0,0)")
    assert code == 2
    code, _, _ = capout()
    assert code == 2


@pytest.mark.parametrize(
    "argv, code",
    [
        (["eval", "--fn", "pow", "--at", "(1e200,0,0)", "--exponent", "2"], 1),
        (["eval", "--fn", "pow", "--at", "(10,0,1)", "--exponent", "400.5"], 1),
        (["cosexp-table", "--min", "700", "--max", "720", "--step", "10"], 1),
        (["eval", "--fn", "exp", "--at", "(inf,0,0)"], 2),
        (["eval", "--fn", "pow", "--at", "(1,1,0)", "--exponent", "nan"], 2),
        (["cosexp-table", "--min", "0", "--max", "inf", "--step", "1"], 2),
        (["cosexp-table", "--min", "nan", "--max", "1", "--step", "1"], 2),
        (["rho-table", "--min", "0.2", "--max", "1", "--step", "nan"], 2),
        (["rho-table", "--rho", "nan", "--min", "0.2", "--max", "1", "--step", "0.1"], 2),
        (["check-analytic", "--fn", "exp", "--at", "(0,0,0)", "--step", "0"], 2),
        (["rho-table", "--rho", "-1", "--min", "0.2", "--max", "0.3", "--step", "0.1"], 2),
        (["rho-table", "--rho", "0", "--min", "0.2", "--max", "0.3", "--step", "0.1"], 2),
        (["rho-table", "--rho", "1e308", "--min", "0.2", "--max", "0.3", "--step", "0.1"], 1),
        # row caps: rejected before any row is built
        (["cosexp-table", "--min", "0", "--max", "1", "--step", "1e-12"], 2),
        (["rho-table", "--min", "0.2", "--max", "1.3", "--step", "1e-9"], 2),
        (["integrate", "--pole", "(0,0,0)", "--loop", "circle:center=(1,1,1),radius=nan"], 2),
        (["integrate", "--pole", "(0,0,0)", "--loop", "circle:center=(1,1,1),radius=inf"], 2),
        # well-formed input whose computed values leave the double range
        (
            [
                "integrate",
                "--pole",
                "(0,0,0)",
                "--loop",
                "circle:center=(1e308,1e308,1e308),radius=1e308",
            ],
            1,
        ),
        (["decompose", "--at", "(1e308,1e308,1e308)"], 1),
        (["check-analytic", "--fn", "exp", "--at", "(709.7,0,0)"], 1),
        # infinities spelled with a sign
        (["eval", "--fn", "pow", "--at", "(1,1,0)", "--exponent", "-inf"], 2),
        (["cosexp-table", "--min", "-Infinity", "--max", "0", "--step", "1"], 2),
        # grids with no rows, or theta outside (0, pi/2)
        (["cosexp-table", "--min", "0", "--max", "1", "--step", "0"], 2),
        (["cosexp-table", "--min", "0", "--max", "1", "--step", "-0.5"], 2),
        (["cosexp-table", "--min", "1", "--max", "0", "--step", "0.5"], 2),
        (["rho-table", "--min", "0", "--max", "1", "--step", "0.5"], 2),
        (["rho-table", "--min", "1", "--max", "2", "--step", "0.5"], 2),
        # a step below the double spacing at the bounds never moves the grid
        (["cosexp-table", "--min", "1", "--max", "1", "--step", "1e-300"], 2),
        (["rho-table", "--rho", "1", "--min", "1e300", "--max", "1e300", "--step", "1"], 2),
        (["rho-table", "--min", "1", "--max", "1", "--step", "1e-17"], 2),
        # finite input whose longitudinal roots are complex (ComplexLongitudinalRoot), where the
        # unscaled iteration would have left the double range
        (["factor", "--poly", "{wide}"], 1),
        (
            [
                "integrate",
                "--pole",
                "(-6.1159378166962194e-85,-3678.5349280246373,1.7976931348623157e+308)",
                "--loop",
                "circle:center=(4.2988776853591313e+52,2.5794426973296476e-225,"
                "2.8799716986218142e+143),radius=2.2611955799201146e+301,turns=1",
            ],
            0,
        ),
        # a coefficient modulus beyond the double range, and one whose root bound (twice it) is:
        # the root -a is in range, and the polynomial is factored as a copy scaled by 2**-k
        (["factor", "--poly", "{bound}"], 0),
        (["factor", "--poly", "{double}"], 0),
    ],
)
def test_error_exit_codes(capout, tmp_path, argv, code):
    # overflow is exit 1, non-finite or malformed input exit 2; either way
    # nothing on stdout and one diagnostic line on stderr.  Exit 0 prints
    # the result and nothing on stderr.
    wide = tmp_path / "wide.csv"
    wide.write_text(
        "1,0,0\n2.1163776026983703,1e154,-6.438402814347291e16\n"
        "-3.040101193706536,1.7976931348623157e308,-0.0\n"
    )
    bound, double = tmp_path / "bound.csv", tmp_path / "double.csv"
    bound.write_text("1,0,0\n1.3e308,0.75e308,-0.75e308\n")
    double.write_text("1,0,0\n1e308,0,0\n")
    got, out, err = capout(*(arg.format(wide=wide, bound=bound, double=double) for arg in argv))
    assert got == code
    if code == 0:
        assert err == "" and len(out.splitlines()) == 1
        return
    assert out == ""
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


# the whole double range, with extra weight where exp and cosh overflow
whole_range = st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e3, 1e3)
whole_range_at = st.builds(
    lambda x, y, z: f"({x!r},{y!r},{z!r})", whole_range, whole_range, whole_range
)
point_argv = st.one_of(
    st.builds(
        lambda fn, at: ["eval", "--fn", fn, "--at", at],
        st.sampled_from(["exp", "log", "sin", "cos", "sinh", "cosh"]),
        whole_range_at,
    ),
    st.builds(
        lambda at, m: ["eval", "--fn", "pow", "--at", at, "--exponent", repr(m)],
        whole_range_at,
        st.sampled_from([3.0, -2.0, 0.5]) | whole_range,
    ),
    st.builds(lambda at: ["decompose", "--at", at], whole_range_at),
    st.builds(
        lambda fn, at: ["check-analytic", "--fn", fn, "--at", at],
        st.sampled_from(["exp", "log", "sin", "cos", "sinh", "cosh"]),
        whole_range_at,
    ),
)


@given(argv=point_argv)
@settings(max_examples=200, deadline=None)
def test_finite_points_never_exit_two(argv):
    # finite, well-formed points anywhere in the double range: a result
    # (0) or a domain error or overflow (1), never malformed input (2),
    # and never an inf or nan on stdout
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1), (argv, err.getvalue())
    assert "inf" not in out.getvalue() and "nan" not in out.getvalue(), argv


# any float, or text that is not one
option_value = st.floats().map(repr) | st.floats(-3.0, 3.0).map(repr)
option_value |= st.sampled_from(["", "x", "1e999", "(1,2)"])
any_at = whole_range_at | st.sampled_from(["(1,2)", "(a,b,c)", "(inf,0,0)", ""])
csv_row = st.tuples(whole_range, whole_range, whole_range).map(lambda r: ",".join(map(repr, r)))
small_row = st.tuples(*[st.floats(-3.0, 3.0)] * 3).map(lambda r: ",".join(map(repr, r)))
csv_rows = st.lists(csv_row | small_row | st.sampled_from(["1,0", "1,x,0", ""]), max_size=4)
monic_rows = csv_rows.map(lambda rows: ["1,0,0", *rows]) | csv_rows
circle = st.builds(
    lambda at, r, turns: f"circle:center={at},radius={r}" + ("" if turns is None else f",turns={turns}"),
    any_at,
    option_value,
    st.none() | st.integers(-3, 3),
)
# drawn values, or a well-formed range inside (0, pi/2)
table_range = st.tuples(option_value, option_value, option_value) | st.tuples(
    st.floats(0.01, 0.8), st.floats(0.8, 1.5), st.floats(0.05, 1.0)
).map(lambda r: tuple(map(repr, r)))
# argv of each command; "{rows}" is the path of a CSV file of drawn rows
command_argv = {
    "factor": st.builds(
        lambda flags: ["factor", "--poly", "{rows}", *flags],
        st.sampled_from([[], ["--all"], ["--all", "--cap", "3"], ["--all", "--cap", "0"]]),
    ),
    "integrate": st.builds(
        lambda pole, loop: ["integrate", "--pole", pole, "--loop", loop],
        any_at,
        circle | st.just("{rows}"),
    ),
    "cosexp-table": st.builds(
        lambda r: ["cosexp-table", "--min", r[0], "--max", r[1], "--step", r[2]], table_range
    ),
    "rho-table": st.builds(
        lambda rho, r: ["rho-table", "--rho", rho, "--min", r[0], "--max", r[1], "--step", r[2]],
        whole_range.map(repr) | option_value,
        table_range,
    ),
    "series": st.builds(lambda at: ["series", "--coeffs", "{rows}", "--at", at], any_at),
}


@pytest.mark.parametrize("command", sorted(command_argv))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_command_exits_0_1_or_2(tmp_path_factory, command, data):
    # each command imports what it runs, so each gets random argv of its
    # own: any outcome is an exit code, never an exception out of run(),
    # and a result is finite
    rows = data.draw(monic_rows if command == "factor" else csv_rows)
    f = tmp_path_factory.getbasetemp() / "rows.csv"
    f.write_text("\n".join(rows) + "\n")
    argv = [arg.replace("{rows}", str(f)) for arg in data.draw(command_argv[command])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    assert "inf" not in out.getvalue() and "nan" not in out.getvalue(), argv
    if code:
        assert out.getvalue() == "", argv


def test_negative_floats_in_exponent_notation(capout):
    # argparse's own pattern takes "-1e-3" for an option; the CLI prints
    # such numbers itself, so it reads them back
    code, out, err = capout("eval", "--fn", "pow", "--at", "(1,1,0)", "--exponent", "-1e-3")
    assert (code, err) == (0, "")
    assert out == tpow(Tricomplex(1.0, 1.0, 0.0), -1e-3).literal() + "\n"
    code, out, err = capout("cosexp-table", "--min", "-1e-1", "--max", "0", "--step", "0.1")
    assert (code, err) == (0, "")
    y = -0.1
    assert out.splitlines()[1:] == [f"{y:.17g},{cx(y):.17g},{mx(y):.17g},{px(y):.17g}", "0,1,0,0"]


@pytest.mark.parametrize(
    "rows",
    ["1,0\n", "1,0,0\n0,x,0\n", "\n\n"],
    ids=["wrong-column-count", "non-numeric-entry", "no-data-rows"],
)
def test_malformed_csv_exits_two(capout, tmp_path, rows):
    f = tmp_path / "rows.csv"
    f.write_text(rows)
    for argv in (["factor", "--poly", str(f)], ["series", "--coeffs", str(f), "--at", "(0,0,0)"]):
        code, out, err = capout(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1


def test_pow_needs_exponent_and_works(capout):
    code, out, _ = capout("eval", "--fn", "pow", "--at", "(1,1,0)", "--exponent", "2")
    assert code == 0
    assert out == "(1,2,1)\n"


def test_pow_near_the_top_of_the_range(capout):
    code, out, _ = capout("eval", "--fn", "pow", "--at", "(1e100,0,0)", "--exponent", "2")
    assert (code, out) == (0, "(9.9999999999999997e+199,0,0)\n")


def test_readme_commands_print_the_library_lines(capout, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    u2m1 = [(1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (-1.0, 0.0, 0.0)]
    coeffs = [(1.0 / math.factorial(n), 0.0, 0.0) for n in range(24)]
    # a square around the trisector line, one unit below the origin's component sum
    e1 = [v / math.sqrt(6.0) for v in (2.0, -1.0, -1.0)]
    e2 = [v / math.sqrt(2.0) for v in (0.0, 1.0, -1.0)]
    square = [
        tuple(-1.0 / 3.0 + xi1 * a + xi2 * b for a, b in zip(e1, e2))
        for xi1, xi2 in [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)]
    ]
    for name, rows in (("u2m1.csv", u2m1), ("exp.csv", coeffs), ("loop.csv", square)):
        (tmp_path / name).write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
    c = to_canonical(ONE)
    sets = enumerate_root_sets(TriPolynomial.from_components(u2m1))
    circle = Path3.circle(Tricomplex(1, 1, 1), 1.0, 1)
    cases = [
        (["eval", "--fn", "exp", "--at", "(0,0,0)"], [texp(ZERO).literal()]),
        (
            ["eval", "--fn", "pow", "--at", "(1,1,0)", "--exponent", "2"],
            [tpow(Tricomplex(1, 1, 0), 2.0).literal()],
        ),
        (
            ["decompose", "--at", "(1,0,0)"],
            polar(ONE).lines() + [f"v1={c.v1:.17g}", f"v1t={c.v1t:.17g}", f"vp={c.vp:.17g}"],
        ),
        (
            ["factor", "--poly", "u2m1.csv", "--all"],
            [
                f"root_set {i}: " + " ".join(r.literal() for r in rs.roots)
                for i, rs in enumerate(sets, start=1)
            ],
        ),
        (
            ["integrate", "--pole", "(0,0,0)", "--loop", "circle:center=(1,1,1),radius=1,turns=1"],
            [loop_integral_pole(ZERO, circle).literal()],
        ),
        (
            ["integrate", "--pole", "(0,0,0)", "--loop", "loop.csv"],
            [loop_integral_pole(ZERO, Path3.polyline([Tricomplex(*v) for v in square], closed=True)).literal()],
        ),
        (
            ["check-analytic", "--fn", "exp", "--at", "(0.1,0.2,0.3)"],
            check_analytic(texp, Tricomplex(0.1, 0.2, 0.3), step=1e-4).lines(),
        ),
        (
            ["cosexp-table", "--min", "0", "--max", "5", "--step", "0.1"],
            ["y,cx,mx,px"]
            + [f"{y:.17g},{cx(y):.17g},{mx(y):.17g},{px(y):.17g}" for y in (i * 0.1 for i in range(51))],
        ),
        (
            ["series", "--coeffs", "exp.csv", "--at", "(0.2,0.1,-0.1)"],
            [eval_series(TriSeries.from_components(coeffs), Tricomplex(0.2, 0.1, -0.1)).literal()],
        ),
    ]
    for argv, lines in cases:
        assert capout(*argv) == (0, "".join(line + "\n" for line in lines), "")
    # the library has no rho table: each row's d is the length of the point
    # at amplitude 1 and polar angle theta
    code, out, err = capout("rho-table", "--rho", "1", "--min", "0.2", "--max", "1.3", "--step", "0.1")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "theta,d"
    assert [line.split(",")[0] for line in lines[1:]] == [f"{0.2 + i * 0.1:.17g}" for i in range(12)]
    for line in lines[1:]:
        theta, d = map(float, line.split(","))
        assert abs(from_exponential(1.0, theta, 0.0)) == pytest.approx(d, rel=1e-15)


def test_round_trip_of_printed_values(capout):
    code, out, _ = capout("eval", "--fn", "sin", "--at", "(0.3,-0.2,0.7)")
    assert code == 0
    v = Tricomplex.parse(out.strip())
    code2, out2, _ = capout("eval", "--fn", "sin", "--at", "(0.3,-0.2,0.7)")
    assert out2 == out
    assert v.literal() == out.strip()


def test_determinism_across_processes():
    cmd = [
        sys.executable,
        "-m",
        "tricomplex",
        "cosexp-table",
        "--min",
        "-1",
        "--max",
        "1",
        "--step",
        "0.25",
    ]
    # the child processes import the package from where this one did
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(tricomplex.__file__))}
    first = subprocess.run(cmd, capture_output=True, text=True, env=env)
    second = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.count("\n") == 10
