"""The library's 11 records: named tuples and immutable slotted classes.

Construction as the benchmark and the tests do it, immutability, the
validation messages, and reprs pinned byte for byte.
"""

import copy
import math
import pickle

import pytest

from tricomplex import (
    ONE,
    ZERO,
    ConvergenceRegion,
    DecomposedPoly,
    Path3,
    PoleSpec,
    RiemannReport,
    RootSet,
    Tricomplex,
    TriPolynomial,
    TriSeries,
)
from tricomplex.calculus import _Circle, _Polyline, _SplitPath
from tricomplex.geometry import _to_split

U1, M1 = Tricomplex(1.0, 0.0, 0.0), Tricomplex(-1.0, 0.0, 0.0)
SQUARE = [Tricomplex(1, 0, 0), Tricomplex(0, 1, 0), Tricomplex(0, 0, 1), Tricomplex(1, 0, 0)]


def _ellipse(t):
    return Tricomplex(math.cos(2 * math.pi * t), 0.5 * math.sin(2 * math.pi * t), 0.0)


def _records():
    """One of each record, made as the benchmark and the tests make them,
    with the name of one of its attributes."""
    pole = PoleSpec(Tricomplex(1, 2, 3), Tricomplex(0.5, -1, 0))
    roots = RootSet(roots=(U1, M1), pairing=(1, 0))
    region = ConvergenceRegion(c0=0.5, c1=2.5, cplus=0.25)
    report = RiemannReport((1.0, 2.0, 3.0), (0.5, 0.25, 0.125), (1e-9, 2e-9, 3e-9))
    split = DecomposedPoly((1 + 0j, -2j), (1.0, 0.5))
    poly = TriPolynomial((ONE, Tricomplex(0, 1, 0)))
    series = TriSeries((ONE, Tricomplex(0, 1, 0)))
    sampled = Path3.parametric(_ellipse, samples=16, closed=True)
    direct = Path3(point_at=_ellipse, samples=4, closed=False)
    square = Path3.polyline(SQUARE, closed=True)
    circle = Path3.circle(Tricomplex(1, 1, 1), 0.5, 2)
    return [
        (pole, "residue"), (roots, "pairing"), (region, "c1"), (report, "laplacian"),
        (split, "longitudinal"), (poly, "coeffs"), (series, "coeffs"), (sampled, "samples"),
        (direct, "point_at"), (square, "vertices"), (square, "edges"), (circle, "center"),
        (circle, "radius_w"),
    ]


def test_records_are_made_as_their_callers_make_them():
    made = dict((name, record) for record, name in _records())
    pole, roots, region, report = made["residue"], made["pairing"], made["c1"], made["laplacian"]
    square, circle = made["vertices"], made["center"]
    assert pole.location == Tricomplex(1, 2, 3) and pole.residue == Tricomplex(0.5, -1, 0)
    assert roots.roots == (U1, M1) and roots.pairing == (1, 0)
    assert region.geometric_radius == 2.5 * math.sqrt(2.0 / 3.0)
    assert report.max_residual == 3.0 and report.lines()[0] == "first_order_xy=1"
    assert isinstance(square, _Polyline) and isinstance(square, _SplitPath)
    assert square.samples == 3 and square.closed and square.vertices == tuple(SQUARE)
    assert isinstance(circle, _Circle) and circle.samples == 128 and circle.closed
    assert Path3.parametric(_ellipse).tangent_at is None
    assert _Polyline(vertices=(ZERO, U1), closed=False).edges == ((0j, 0.0, _to_split(U1)[0], 1.0),)
    assert _Circle(center=ZERO, radius=1.0).turns == 1


@pytest.mark.parametrize("index", range(13))
def test_records_refuse_setting_and_deleting(index):
    record, name = _records()[index]
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.added = 1
    assert repr(record) == before


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Path3.parametric(_ellipse, samples=0), "samples must be an integer >= 1"),
        (lambda: Path3(point_at=_ellipse, samples=2.0, closed=False), "samples must be an integer >= 1"),
        (lambda: Path3.parametric(lambda t: Tricomplex(t, 0, 0), closed=True), "closed path endpoints do not match"),
        (lambda: _Polyline(vertices=(ONE,), closed=False), "a polyline needs at least two vertices"),
        (lambda: Path3.polyline(SQUARE[:3], closed=True), "closed path endpoints do not match"),
        (lambda: _Circle(center=ZERO, radius=0.0), "radius must be finite and > 0"),
        (lambda: Path3.circle(ZERO, math.inf), "radius must be finite and > 0"),
        (lambda: Path3.circle(ZERO, 1.0, 0), "turns must be a nonzero integer"),
        (lambda: Path3.circle(ZERO, 1.0, 1.5), "turns must be a nonzero integer"),
        (lambda: TriPolynomial((ONE,)), "degree must be >= 1"),
        (lambda: TriPolynomial((U1 * 2.0, ONE)), "leading coefficient must be the unity"),
        (lambda: TriSeries(()), "a series needs at least one coefficient"),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_reprs_are_unchanged():
    # captured from the dataclass versions of these records
    pole, roots, region, report, split, poly, series = (r for r, _ in _records()[:7])
    assert repr(pole) == (
        "PoleSpec(location=Tricomplex(x=1.0, y=2.0, z=3.0), residue=Tricomplex(x=0.5, y=-1.0, z=0.0))"
    )
    assert repr(roots) == (
        "RootSet(roots=(Tricomplex(x=1.0, y=0.0, z=0.0), Tricomplex(x=-1.0, y=0.0, z=0.0)), pairing=(1, 0))"
    )
    assert repr(region) == "ConvergenceRegion(c0=0.5, c1=2.5, cplus=0.25)"
    assert repr(report) == (
        "RiemannReport(first_order=(1.0, 2.0, 3.0), second_order=(0.5, 0.25, 0.125), "
        "laplacian=(1e-09, 2e-09, 3e-09))"
    )
    assert repr(split) == "DecomposedPoly(transverse=((1+0j), (-0-2j)), longitudinal=(1.0, 0.5))"
    coeffs = "(Tricomplex(x=1.0, y=0.0, z=0.0), Tricomplex(x=0.0, y=1.0, z=0.0))"
    assert repr(poly) == f"TriPolynomial(coeffs={coeffs})"
    assert repr(series) == f"TriSeries(coeffs={coeffs})"
    assert repr(_Circle(center=Tricomplex(1, 1, 1), radius=0.5, turns=-2)) == (
        "_Circle(samples=128, closed=True, center=Tricomplex(x=1.0, y=1.0, z=1.0), radius=0.5, turns=-2)"
    )
    assert repr(_Polyline(vertices=(ZERO, U1), closed=False)) == (
        "_Polyline(samples=1, closed=False, vertices=(Tricomplex(x=0.0, y=0.0, z=0.0), "
        "Tricomplex(x=1.0, y=0.0, z=0.0)))"
    )


def test_coefficient_records_compare_and_hash_by_their_coefficients():
    for kind in (TriPolynomial, TriSeries):
        a, b = kind([ONE, Tricomplex(0, 1, 0)]), kind((ONE, Tricomplex(0, 1, 0)))
        assert a == b and hash(a) == hash(b) == hash((a.coeffs,))
        assert a != kind((ONE, Tricomplex(0, 0, 1))) and a != a.coeffs


@pytest.mark.parametrize("index", range(13))
def test_records_copy_and_pickle_to_equal_records(index):
    # a slotted record is remade from its defining data, as its constructor makes it
    record, name = _records()[index]
    for remade in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(remade) is type(record) and remade == record and repr(remade) == repr(record)
        assert getattr(remade, name) == getattr(record, name)
        if isinstance(record, Path3):
            assert remade.point_at(0.3) == record.point_at(0.3)
