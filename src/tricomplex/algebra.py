"""Core arithmetic of the commutative three-dimensional algebra.

A number u = x + h*y + k*z is stored as the real triple (x, y, z).  The
two extra units multiply by the rules h*h = k, k*k = h, h*k = 1, which
make the algebra commutative and associative.  Division fails exactly on
two nodal sets: the plane x + y + z = 0 and the line x = y = z.
"""

from __future__ import annotations

import enum
import math
import re
import sys
from typing import TYPE_CHECKING

from .errors import Overflow, ZeroDivisor

if TYPE_CHECKING:
    import numpy as np

_SQRT3 = math.sqrt(3.0)
_LITERAL_RE = re.compile(
    r"^\(\s*([^\s,()]+)\s*,\s*([^\s,()]+)\s*,\s*([^\s,()]+)\s*\)$"
)


def _cbrt(v: float) -> float:
    """Signed cube root, Newton-polished so that exact cubes come out exact."""
    if v == 0.0:
        return 0.0
    r = math.copysign(abs(v) ** (1.0 / 3.0), v)
    # One Newton step removes the ulp-level error of the pow-based seed.
    return r - (r * r * r - v) / (3.0 * r * r)


class AlgebraClass(enum.Enum):
    """Position of a number relative to the nodal sets."""

    REGULAR = "regular"
    ON_TRISECTOR_LINE = "on-trisector-line"
    ON_NODAL_PLANE = "on-nodal-plane"
    ZERO = "zero"


class _Record:
    """Base of the immutable slotted classes: ``__init__`` fills the slots
    with ``object.__setattr__``, and setting or deleting an attribute raises
    AttributeError.  It prints, compares and hashes by its ``_fields``, and
    pickles and copies as its class called with them."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__name__}({shown})"


class Tricomplex(_Record):
    """Immutable value x + h*y + k*z with real components.

    Equality is componentwise and exact; all components are finite
    floats.  Non-finite input raises ValueError here; a value the library
    computes (sum, product, elementary function, ...) that leaves the
    double range raises Overflow instead.
    Supports ``+``, ``-``, ``*`` (both with another Tricomplex and with a
    real scalar), unary ``-``, ``abs`` (Euclidean modulus) and integer
    ``**``.
    """

    __slots__ = _fields = ("x", "y", "z")
    x: float
    y: float
    z: float

    def __init__(self, x: float, y: float, z: float) -> None:
        x, y, z = float(x), float(y), float(z)
        for name, v in (("x", x), ("y", y), ("z", z)):
            if not math.isfinite(v):
                raise ValueError(f"non-finite component {name}={v!r}")
        _set_x(self, x)
        _set_y(self, y)
        _set_z(self, z)

    def __eq__(self, other):
        if other.__class__ is not Tricomplex:
            return NotImplemented
        return self.x == other.x and self.y == other.y and self.z == other.z

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.z))

    def __reduce__(self):
        return Tricomplex, (self.x, self.y, self.z)

    # -- construction / formatting ------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Tricomplex":
        """Parse the literal form ``(x,y,z)`` with decimal reals."""
        m = _LITERAL_RE.match(text.strip())
        if m is None:
            raise ValueError(f"not a (x,y,z) literal: {text!r}")
        try:
            return cls(float(m.group(1)), float(m.group(2)), float(m.group(3)))
        except ValueError as exc:
            raise ValueError(f"not a (x,y,z) literal: {text!r}") from exc

    def literal(self) -> str:
        """Round-trip-safe literal ``(x,y,z)`` at 17 significant digits."""
        return f"({self.x:.17g},{self.y:.17g},{self.z:.17g})"

    def __str__(self) -> str:
        return self.literal()

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Tricomplex") -> "Tricomplex":
        return _computed(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Tricomplex") -> "Tricomplex":
        return _computed(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Tricomplex":
        return _computed(-self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Tricomplex):
            x, y, z = self.x, self.y, self.z
            X, Y, Z = other.x, other.y, other.z
            return _computed(
                x * X + y * Z + z * Y,
                z * Z + x * Y + y * X,
                y * Y + x * Z + z * X,
            )
        if isinstance(other, (int, float)):
            s = float(other)
            return _computed(self.x * s, self.y * s, self.z * s)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, m: int) -> "Tricomplex":
        if not isinstance(m, int):
            return NotImplemented
        if m < 0:
            return inverse(self) ** (-m)
        result = ONE
        base = self
        while True:
            if m & 1:
                result = result * base
            m >>= 1
            if not m:  # a further square would never reach the result
                return result
            base = base * base

    def __abs__(self) -> float:
        return math.hypot(self.x, self.y, self.z)

    def max_abs_component(self) -> float:
        return max(abs(self.x), abs(self.y), abs(self.z))


#: The slots' own setters, which ``Tricomplex.__setattr__`` refuses.
_set_x, _set_y, _set_z = (getattr(Tricomplex, name).__set__ for name in Tricomplex.__slots__)


def _computed(x: float, y: float, z: float) -> Tricomplex:
    """A value the library computed from floats: Overflow, not the
    constructor's ValueError, when a component left the double range.
    The floats go into the slots without a second check."""
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise Overflow(f"result ({x!r},{y!r},{z!r}) leaves the double range")
    u = object.__new__(Tricomplex)
    _set_x(u, x)
    _set_y(u, y)
    _set_z(u, z)
    return u


ZERO = Tricomplex(0.0, 0.0, 0.0)
ONE = Tricomplex(1.0, 0.0, 0.0)
H = Tricomplex(0.0, 1.0, 0.0)
K = Tricomplex(0.0, 0.0, 1.0)


def add(u: Tricomplex, v: Tricomplex) -> Tricomplex:
    """Componentwise sum."""
    return u + v


def mul(u: Tricomplex, v: Tricomplex) -> Tricomplex:
    """Commutative, associative product of two numbers."""
    return u * v


def quadratic_form(u: Tricomplex) -> float:
    """x^2 + y^2 + z^2 - xy - xz - yz, computed in the cancellation-free
    sum-of-squared-differences form.  Vanishes exactly on the trisector
    line; equals the squared distance to that line times 3/2."""
    dxy = u.x - u.y
    dxz = u.x - u.z
    dyz = u.y - u.z
    return 0.5 * (dxy * dxy + dxz * dxz + dyz * dyz)


def component_sum(u: Tricomplex) -> float:
    """x + y + z; vanishes exactly on the nodal plane."""
    return u.x + u.y + u.z


def determinant_form(u: Tricomplex) -> float:
    """x^3 + y^3 + z^3 - 3xyz via its factorization
    (x+y+z)(x^2+y^2+z^2-xy-xz-yz), which is stable near both nodal sets."""
    return component_sum(u) * quadratic_form(u)


def amplitude(u: Tricomplex) -> float:
    """Signed cube root of x^3 + y^3 + z^3 - 3xyz.

    Multiplicative under the product, including sign.  Zero exactly on
    the two nodal sets.  Raises Overflow when the amplitude itself
    exceeds the double range.
    """
    f = determinant_form(u)
    if sys.float_info.min <= abs(f) < math.inf:
        return _cbrt(f)
    # the cubic form overflowed or left the normal range below (or u is
    # on a nodal set); the amplitude is degree-1 homogeneous
    v, e = _pow2_scaled(u)
    return _times_pow2(_cbrt(determinant_form(v)), e, f"the amplitude of {u}")


def _pow2_scaled(u: Tricomplex) -> tuple[Tricomplex, int]:
    """``u`` divided by the power of two 2**e that brings its largest
    component into [0.5, 1), and e.  The scaling is exact, so a
    degree-1 homogeneous quantity of ``u`` is that of the copy times
    2**e."""
    e = math.frexp(u.max_abs_component())[1]
    return _computed(math.ldexp(u.x, -e), math.ldexp(u.y, -e), math.ldexp(u.z, -e)), e


def _times_pow2(v: float, e: int, what: str) -> float:
    """v * 2**e; Overflow, naming ``what`` v is, beyond the double range."""
    try:
        return math.ldexp(v, e)
    except OverflowError as exc:
        raise Overflow(f"{what} exceeds the double range") from exc


def default_tolerance(u: Tricomplex) -> float:
    return 1e-12 * max(1.0, u.max_abs_component())


def classify(u: Tricomplex, tol: float | None = None) -> AlgebraClass:
    """Classify a number against the nodal sets.

    Two lengths, the distance to the trisector line and the component
    sum, are compared to an absolute tolerance; ``tol`` defaults to
    1e-12 * max(1, max-abs-component).
    """
    if tol is None:
        tol = default_tolerance(u)
    elif tol < 0.0:
        raise ValueError("tolerance must be >= 0")
    if u.max_abs_component() <= tol:
        return AlgebraClass.ZERO
    if math.hypot(u.x - u.y, u.x - u.z, u.y - u.z) / _SQRT3 <= tol:
        return AlgebraClass.ON_TRISECTOR_LINE
    if abs(component_sum(u)) <= tol:
        return AlgebraClass.ON_NODAL_PLANE
    return AlgebraClass.REGULAR


def inverse(u: Tricomplex, tol: float | None = None) -> Tricomplex:
    """Multiplicative inverse.

    Raises ZeroDivisor (carrying the algebra class) when the number lies
    on the nodal plane, on the trisector line, or is zero.
    """
    cls = classify(u, tol)
    if cls is not AlgebraClass.REGULAR:
        raise ZeroDivisor(f"{u} has no inverse ({cls.value})", cls)
    nu = determinant_form(u)
    if nu != 0.0 and math.isfinite(nu):
        try:
            return _computed(
                (u.x * u.x - u.y * u.z) / nu,
                (u.z * u.z - u.x * u.y) / nu,
                (u.y * u.y - u.x * u.z) / nu,
            )
        except Overflow:
            pass
    # a square or the cubic form left the double range: 1/u is 1/v
    # scaled by 2**-e for v = u / 2**e; when v is u, it is the result
    v, e = _pow2_scaled(u)
    if e == 0:
        raise Overflow(f"the inverse of {u} exceeds the double range")
    w = inverse(v, tol=0.0)
    return _computed(*(_times_pow2(t, -e, f"the inverse of {u}") for t in (w.x, w.y, w.z)))


def to_matrix(u: Tricomplex) -> np.ndarray:
    """Circulant 3x3 representation; matrix product mirrors the algebra
    product and the determinant equals amplitude(u)**3."""
    import numpy as np

    return np.array(
        [
            [u.x, u.y, u.z],
            [u.z, u.x, u.y],
            [u.y, u.z, u.x],
        ]
    )

