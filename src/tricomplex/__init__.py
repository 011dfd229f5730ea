"""Commutative hypercomplex numbers in three dimensions.

Numbers of the form x + h*y + k*z over the reals, with unit rules
h*h = k, k*k = h, h*k = 1.  The package covers arithmetic and zero
divisors, geometric/exponential/trigonometric forms, cosexponential and
elementary functions, power series with convergence regions, numerical
analyticity checks, loop integrals with residues, and polynomial
factorization, plus a deterministic CLI front end.

``import tricomplex`` loads the algebra, geometry, elementary and
cosexponential functions and the errors.  The calculus, derivatives, poly
and series modules load on first use of one of their names.  The records
are named tuples or immutable slotted classes, which cost no import at
start-up.
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
    "cosexp": ("CosexpKind", "cosexp", "cosexp_derivative", "cosexp_series", "cx", "mx", "px"),
    # loaded on first use
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
_LAZY = ("calculus", "derivatives", "poly", "series")
_HOME = {name: module for module in _LAZY for name in _PUBLIC[module]}

__all__ = [name for names in _PUBLIC.values() for name in names]

# the names are bound after their module is imported, which binds the
# module itself: so ``cosexp`` ends as the function, not the submodule
for _module, _names in _PUBLIC.items():
    if _module not in _LAZY:
        _m = _import_module(f".{_module}", __name__)
        globals().update((name, getattr(_m, name)) for name in _names)
del _module, _names, _m


def __getattr__(name: str):
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_LAZY))
