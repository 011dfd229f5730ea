"""Exception types shared across the library."""

from __future__ import annotations


class TricomplexError(Exception):
    """Base class for all library-specific errors."""


class ZeroDivisor(TricomplexError):
    """Raised when inverting (or dividing by) a number without an inverse.

    Carries the offending number's algebra class (trisector line, nodal
    plane, or zero) in ``algebra_class``.
    """

    def __init__(self, message: str, algebra_class) -> None:
        super().__init__(message)
        self.algebra_class = algebra_class


class UndefinedAngle(TricomplexError):
    """Raised when an angular coordinate does not exist for a point.

    The azimuthal angle is undefined on the trisector line (zero distance
    to the line); the polar angle is undefined at the origin.
    """


class DomainError(TricomplexError):
    """Raised when an argument lies outside a function's real domain.

    ``reason`` is one of the ``REASON_*`` constants below.
    """

    def __init__(self, message: str, reason: str) -> None:
        super().__init__(message)
        self.reason = reason


REASON_NODAL_PLANE_SIDE = "nodal-plane-side"
REASON_TRISECTOR_LINE = "trisector-line"
REASON_ANGLE_RANGE = "angle-range"


class Overflow(TricomplexError):
    """Raised when a value the library computes leaves the double range.

    Input is checked where it enters: a non-finite component given to
    ``Tricomplex(...)`` or ``Tricomplex.parse`` is malformed input and
    raises ValueError.  A computed component or descriptor (a sum, a
    product, an elementary function, a canonical coordinate, an
    amplitude, ...) beyond the double range raises Overflow.
    """


class NonConvergent(TricomplexError):
    """Raised when an iteration does not reach its tolerance.

    Quadrature raises it before evaluating a circle level of more than
    ``cap`` nodes, or a batch of panels that would take the evaluations
    past ``cap``; the winding count (and so the residue sum), before
    sampling, when the loop's sample count is over ``QUADRATURE_CAP``;
    polynomial root iteration at its sweep cap, or when the roots found
    do not rebuild the polynomial's coefficients within their certified
    uncertainty.
    """


class SingularOnPath(TricomplexError):
    """Raised when an integrand is singular (or overflows) on a path sample."""


class AmbiguousWinding(TricomplexError):
    """Raised when a projected pole lies on (or too near) a projected loop."""


class Indeterminate(TricomplexError):
    """Raised when a convergence-radius estimate has no usable tail ratios."""


class ComplexLongitudinalRoot(TricomplexError):
    """Raised when a polynomial's longitudinal roots rebuild it only as
    found, complex, and their real parts fail the rebuild guard: no
    factorization into linear factors with real components was found.
    The condition is reported rather than silently dropped.
    """
