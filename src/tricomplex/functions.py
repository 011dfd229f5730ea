"""Elementary functions of a three-component hypercomplex variable.

Every function here is the analytic continuation, through its power
series, of the usual real function.  The canonical basis splits the
algebra into a complex plane transverse to the trisector line and a real
line along it, and a power series acts on each part separately.  So the
production route for exp and the circular/hyperbolic functions is one
split evaluation: the complex function on the transverse pair, the real
function on the component sum, joined back in the canonical basis.
log and the power take the same route: log|w| + i*phi and |w|^m
rotated by m*phi on the transverse pair w, the real ones on the sum.

``oracle_eval`` evaluates instead as a product of cosexponential
factors, exp(x) * exp(hy) * exp(kz) over complex scalars, and log in the
paper's exponential form; it exists so tests can compare two routes.
"""

from __future__ import annotations

import cmath
import enum
import math

from .algebra import Tricomplex, _computed
from .errors import (
    REASON_NODAL_PLANE_SIDE,
    REASON_TRISECTOR_LINE,
    DomainError,
    Overflow,
)
from .geometry import _SQRT3, _azimuth, _from_split, _scaled_split, _to_split, polar

_LN2 = math.log(2.0)
#: Primitive cube root of unity, the eigenvalue of h on the transverse plane.
_OMEGA = complex(-0.5, 0.5 * _SQRT3)


class ElementaryFn(enum.Enum):
    """Uniform selector over the elementary functions."""

    EXP = "exp"
    LOG = "log"
    SIN = "sin"
    COS = "cos"
    SINH = "sinh"
    COSH = "cosh"


def _split(u: Tricomplex, cfn, rfn) -> Tricomplex:
    """f(u) for a real power series f: the complex ``cfn`` on the
    transverse pair and the real ``rfn`` on the component sum.  Both
    report a result beyond the double range as OverflowError."""
    w, vp = _to_split(u)
    try:
        fw, fp = cfn(w), rfn(vp)
    except OverflowError as exc:
        raise Overflow(f"{rfn.__name__} overflows at {u}") from exc
    return _from_split(fw, fp)


def texp(u: Tricomplex) -> Tricomplex:
    """Exponential: complex exp on the transverse pair, real exp on the
    component sum."""
    return _split(u, cmath.exp, math.exp)


def tsin(u: Tricomplex) -> Tricomplex:
    """Sine: complex sin on the transverse pair, real sin on the
    component sum."""
    return _split(u, cmath.sin, math.sin)


def tcos(u: Tricomplex) -> Tricomplex:
    """Cosine: complex cos on the transverse pair, real cos on the
    component sum."""
    return _split(u, cmath.cos, math.cos)


def tsinh(u: Tricomplex) -> Tricomplex:
    """Hyperbolic sine: complex sinh on the transverse pair, real sinh on
    the component sum."""
    return _split(u, cmath.sinh, math.sinh)


def tcosh(u: Tricomplex) -> Tricomplex:
    """Hyperbolic cosine: complex cosh on the transverse pair, real cosh
    on the component sum."""
    return _split(u, cmath.cosh, math.cosh)


def _log_pieces(u: Tricomplex, purpose: str | None) -> tuple[float, float, float, int]:
    """(|w|, phi, sigma, e) of ``_scaled_split``, with the domain checks
    of log and the power: strictly off the trisector line and, when
    ``purpose`` names a real logarithm or fractional power, component
    sum > 0.  The checks run on the scaled copy, whose sums stay in the
    double range."""
    w, r, sigma, e = _scaled_split(u)
    phi = _azimuth(w)
    if phi is None:
        raise DomainError(
            "argument lies on the trisector line (azimuthal angle undefined)",
            REASON_TRISECTOR_LINE,
        )
    if purpose is not None and sigma <= 0.0:
        raise DomainError(
            f"component sum x+y+z must be > 0 for {purpose}",
            REASON_NODAL_PLANE_SIDE,
        )
    return r, phi, sigma, e


def tlog(u: Tricomplex) -> Tricomplex:
    """Principal logarithm, the inverse of ``texp``.

    Defined for x+y+z > 0 off the trisector line; the azimuthal angle is
    taken in [0, 2*pi).  The complex log, log|w| + i*phi, on the
    transverse pair w and the real log on the component sum; where u was
    taken scaled by 2**-e, both add e*log(2).
    """
    r, phi, sigma, e = _log_pieces(u, "a real logarithm")
    shift = e * _LN2
    return _from_split(complex(math.log(r) + shift, phi), math.log(sigma) + shift)


def power_from_polar(u: Tricomplex, m: float) -> Tricomplex:
    """Power through the split core: |w|^m rotated by m*phi on the
    transverse pair w, sigma^m on the component sum; where u was taken
    scaled by 2**-e, both are multiplied by 2**(e*m).

    Accurate for integer m whenever the azimuthal angle exists, though
    not exact: ``tpow`` sends integer exponents to ``__pow__`` for
    exactness.  For fractional m this is the principal branch (phi in
    [0, 2*pi)) and requires x+y+z > 0.  A non-finite exponent is
    malformed input (ValueError).
    """
    if not math.isfinite(m):
        raise ValueError("pow exponent must be finite")
    fractional = not float(m).is_integer()
    r, phi, sigma, e = _log_pieces(u, "a fractional power" if fractional else None)
    # OverflowError from ** and pow; ValueError from rect at an angle
    # beyond the double range and from the pole 0**m, m < 0
    try:
        scale = 2.0 ** (e * m)
        fw = cmath.rect(scale * r**m, m * phi)
        fp = scale * math.pow(sigma, m)
    except (OverflowError, ValueError) as exc:
        raise Overflow(f"pow overflows at {u}") from exc
    return _from_split(fw, fp)


def tpow(u: Tricomplex, m: float) -> Tricomplex:
    """Power function.

    Integer exponents use ``Tricomplex.__pow__``, exact repeated
    multiplication (negative ones invert first, so zero divisors are
    rejected); fractional exponents go through the principal-branch
    exponential form.
    """
    if isinstance(m, int) or float(m).is_integer():
        return u ** int(m)
    return power_from_polar(u, float(m))


DIRECT = {
    ElementaryFn.EXP: texp,
    ElementaryFn.LOG: tlog,
    ElementaryFn.SIN: tsin,
    ElementaryFn.COS: tcos,
    ElementaryFn.SINH: tsinh,
    ElementaryFn.COSH: tcosh,
}


# -- independent oracle -----------------------------------------------------


def _cosexp_complex(w: complex) -> tuple[complex, complex, complex]:
    """(cx w, mx w, px w) for a complex argument: the components of
    exp(h*w), each an average of exp over the cube roots of unity r,
    weighted by r^-n for the powers n mod 3 it collects."""
    e0 = cmath.exp(w)
    e1 = cmath.exp(_OMEGA * w)
    e2 = cmath.exp(_OMEGA.conjugate() * w)
    return (
        (e0 + e1 + e2) / 3.0,
        (e0 + _OMEGA.conjugate() * e1 + _OMEGA * e2) / 3.0,
        (e0 + _OMEGA * e1 + _OMEGA.conjugate() * e2) / 3.0,
    )


def _exp_product(x: complex, y: complex, z: complex) -> list[complex]:
    """Components of exp(x + hy + kz) for complex x, y, z as the product
    exp(x) * (cx y + h mx y + k px y) * (cx z + h px z + k mx z)."""
    a, b, c = _cosexp_complex(y)
    A, C, B = _cosexp_complex(z)
    s = cmath.exp(x)
    return [
        s * (a * A + b * C + c * B),
        s * (c * C + a * B + b * A),
        s * (b * B + a * C + c * A),
    ]


def oracle_eval(fn: ElementaryFn, u: Tricomplex) -> Tricomplex:
    """Evaluate ``fn`` independently of the split evaluation.

    exp is the product of cosexponential factors; cos and sin are the
    real and imaginary parts of exp(i*u); cosh and sinh are the half sum
    and half difference of exp(u) and exp(-u).  log is the paper's
    exponential form, ln rho + (1/3)(h+k) ln(sqrt(2)/tan theta)
    + (h-k) phi/sqrt(3), from the amplitude rho and the polar and
    azimuthal angles of ``polar``; its domain is ``tlog``'s (x+y+z > 0
    off the trisector line, phi in [0, 2*pi)).
    """
    try:
        if fn is ElementaryFn.LOG:
            _log_pieces(u, "a real logarithm")  # tlog's domain checks
            p = polar(u)
            longitudinal = math.log(math.sqrt(2.0) / math.tan(p.theta)) / 3.0
            transverse = p.phi / _SQRT3
            return _computed(math.log(p.rho), longitudinal + transverse, longitudinal - transverse)
        if fn is ElementaryFn.EXP:
            return _computed(*(e.real for e in _exp_product(u.x, u.y, u.z)))
        if fn in (ElementaryFn.COS, ElementaryFn.SIN):
            e = _exp_product(1j * u.x, 1j * u.y, 1j * u.z)
            parts = [v.real for v in e] if fn is ElementaryFn.COS else [v.imag for v in e]
            return _computed(*parts)
        ep = _exp_product(u.x, u.y, u.z)
        em = _exp_product(-u.x, -u.y, -u.z)
        sign = 1.0 if fn is ElementaryFn.COSH else -1.0
        return _computed(*(0.5 * (a.real + sign * b.real) for a, b in zip(ep, em)))
    except OverflowError as exc:
        raise Overflow(f"{fn.value} overflows at {u}") from exc
