"""Commutative hypercomplex numbers in three dimensions.

Numbers of the form x + h*y + k*z over the reals, with unit rules
h*h = k, k*k = h, h*k = 1.  The package covers arithmetic and zero
divisors, geometric/exponential/trigonometric forms, cosexponential and
elementary functions, power series with convergence regions, numerical
analyticity checks, loop integrals with residues, and polynomial
factorization, plus a deterministic CLI front end.

``import tricomplex`` loads no submodule: each loads on first use of one
of its names, so a caller or CLI command loads, and without a bytecode
cache compiles, only the modules it runs.  The records are named tuples
or immutable slotted classes, which cost no import at start-up.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_PUBLIC = {
    "errors": (
        "AmbiguousWinding", "ComplexLongitudinalRoot", "DomainError", "Indeterminate",
        "NonConvergent", "Overflow", "SingularOnPath", "TricomplexError", "UndefinedAngle",
        "ZeroDivisor",
    ),
    "algebra": (
        "AlgebraClass", "H", "K", "ONE", "Tricomplex", "ZERO", "add", "amplitude", "classify",
        "component_sum", "default_tolerance", "determinant_form", "inverse", "mul",
        "quadratic_form", "to_matrix",
    ),
    "geometry": (
        "CanonicalForm", "E1", "E1T", "EP", "PolarForm", "basis_constants", "canonical_mul",
        "from_canonical", "from_exponential", "invariant_circle_point", "irreducible_rep",
        "normalize_phi", "polar", "projection_on_nodal_plane", "to_canonical",
    ),
    "functions": (
        "DIRECT", "ElementaryFn", "oracle_eval", "power_from_polar", "tcos", "tcosh", "texp",
        "tlog", "tpow", "tsin", "tsinh",
    ),
    "cosexponential": ("CosexpKind", "cosexp", "cosexp_derivative", "cosexp_series", "cx", "mx", "px"),
    "calculus": (
        "POLE_LOOP_VALUE", "Path3", "PoleSpec", "cauchy_value", "loop_integral_pole",
        "path_integral", "residue_sum", "winding_count",
    ),
    "derivatives": ("RiemannReport", "check_analytic", "derivative"),
    "poly": (
        "DecomposedPoly", "RootSet", "TriPolynomial", "decompose", "enumerate_root_sets",
        "factor",
    ),
    "series": (
        "ConvergenceRegion", "TriSeries", "delta", "eval_series", "exp_series", "modulus",
        "radius_cylindrical", "radius_spherical", "sigma", "taylor_recenter",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _PUBLIC:
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_PUBLIC))
