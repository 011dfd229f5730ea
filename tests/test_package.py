"""The package's public surface: names, star import, dir and lazy loading."""

import inspect
import os
import subprocess
import sys
import types

import pytest

import tricomplex

PUBLIC_NAMES = """
AlgebraClass AmbiguousWinding CanonicalForm ComplexLongitudinalRoot ConvergenceRegion
CosexpKind DIRECT DecomposedPoly DomainError E1 E1T EP ElementaryFn H Indeterminate K
NonConvergent ONE Overflow POLE_LOOP_VALUE Path3 PolarForm PoleSpec RiemannReport RootSet
SingularOnPath TriPolynomial TriSeries Tricomplex TricomplexError UndefinedAngle ZERO
ZeroDivisor add amplitude basis_constants canonical_mul cauchy_value check_analytic classify
component_sum cosexp cosexp_derivative cosexp_series cx decompose default_tolerance delta
derivative determinant_form enumerate_root_sets eval_series exp_series factor from_canonical
from_exponential invariant_circle_point inverse irreducible_rep loop_integral_pole modulus
mul mx normalize_phi oracle_eval path_integral polar power_from_polar
projection_on_nodal_plane px quadratic_form radius_cylindrical radius_spherical residue_sum
sigma taylor_recenter tcos tcosh texp tlog to_canonical to_matrix tpow tsin tsinh
winding_count
""".split()


def test_public_names_resolve():
    assert len(PUBLIC_NAMES) == 86
    assert sorted(tricomplex.__all__) == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        value = getattr(tricomplex, name)
        assert not isinstance(value, types.ModuleType), name
    # a lazily bound name is the object its submodule defines
    assert tricomplex.Path3 is tricomplex.calculus.Path3
    assert tricomplex.factor is tricomplex.poly.factor
    assert tricomplex.TriSeries is tricomplex.series.TriSeries


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from tricomplex import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert set(PUBLIC_NAMES) <= set(dir(tricomplex))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tricomplex.no_such_name
    assert not hasattr(tricomplex, "transverse_longitudinal")


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports the package from this tree."""
    src = os.path.dirname(os.path.dirname(tricomplex.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert done.returncode == 0, done.stderr


def test_import_loads_no_submodule():
    _run_fresh(
        "import sys, tricomplex\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('tricomplex.'))\n"
        "assert not loaded, loaded\n"
    )


@pytest.mark.parametrize(
    "module, name",
    [
        ("errors", "Overflow"),
        ("algebra", "Tricomplex"),
        ("geometry", "polar"),
        ("functions", "texp"),
        ("cosexponential", "cosexp"),
        ("calculus", "Path3"),
        ("derivatives", "check_analytic"),
        ("poly", "factor"),
        ("series", "TriSeries"),
    ],
)
def test_first_import_of_a_name_binds_what_its_submodule_defines(module, name):
    _run_fresh(
        f"from tricomplex import {name}\n"
        "import sys, types\n"
        f"assert not isinstance({name}, types.ModuleType), {name}\n"
        f"assert {name} is sys.modules['tricomplex.{module}'].{name}\n"
    )


@pytest.mark.parametrize(
    "prelude",
    [
        "import tricomplex",
        "import tricomplex.cosexponential",
        "from tricomplex.cosexponential import CosexpKind; import tricomplex",
        "import tricomplex.calculus, tricomplex.poly, tricomplex.series, tricomplex.cli",
        pytest.param(
            "import importlib, os, tricomplex\n"
            "for name in sorted(os.listdir(os.path.dirname(tricomplex.__file__))):\n"
            "    if name.endswith('.py') and name not in ('__init__.py', '__main__.py'):\n"
            "        importlib.import_module(f'tricomplex.{name[:-3]}')",
            id="every submodule first",
        ),
    ],
)
def test_cosexp_is_the_function_whatever_the_import_order(prelude):
    # the public name cosexp is the function whichever submodules load first
    _run_fresh(
        f"{prelude}\n"
        "import inspect, tricomplex\n"
        "assert inspect.isfunction(tricomplex.cosexp), tricomplex.cosexp\n"
        "from tricomplex import cosexp\n"
        "assert inspect.isfunction(cosexp), cosexp\n"
    )
    assert inspect.isfunction(tricomplex.cosexp)
