"""Reference values computed without the library's evaluation code.

The algebra splits into a complex plane transverse to the trisector line
and a real axis along it: u = (x, y, z) maps to the complex number
w = x - (y + z)/2 + i*sqrt(3)/2*(y - z) and the real number p = x + y + z,
and products map to products in both parts.  Every function of a
tricomplex variable built from a power series is therefore the complex
function on w together with the real function on p.  Everything here
uses plain floats with ``cmath``/``math``, so the checks stay independent
of whichever route the library takes.
"""

from __future__ import annotations

import cmath
import math
from itertools import combinations_with_replacement
from typing import Sequence

SQRT3 = math.sqrt(3.0)
TWO_PI = 2.0 * math.pi

#: Outcome markers for a reference that has no finite value.
OVERFLOW = "overflow"
DOMAIN = "domain"

Triple = tuple[float, float, float]


class NoValue(Exception):
    """The reference has no finite value; ``kind`` is OVERFLOW or DOMAIN."""

    def __init__(self, kind: str) -> None:
        super().__init__(kind)
        self.kind = kind


def split(u: Triple) -> tuple[complex, float]:
    x, y, z = u
    return complex(x - 0.5 * (y + z), 0.5 * SQRT3 * (y - z)), x + y + z


def join(w: complex, p: float) -> Triple:
    r = SQRT3 * w.imag
    out = ((2.0 * w.real + p) / 3.0, (-w.real + r + p) / 3.0, (-w.real - r + p) / 3.0)
    if not all(math.isfinite(c) for c in out):
        raise NoValue(OVERFLOW)
    return out


def _arg_0_2pi(w: complex) -> float:
    a = cmath.phase(w)
    return a + TWO_PI if a < 0.0 else a


_PAIRS = {
    "exp": (cmath.exp, math.exp),
    "sin": (cmath.sin, math.sin),
    "cos": (cmath.cos, math.cos),
    "sinh": (cmath.sinh, math.sinh),
    "cosh": (cmath.cosh, math.cosh),
}


def elementary(fn: str, u: Triple) -> Triple:
    """exp, log, sin, cos, sinh or cosh of ``u``; raises NoValue."""
    w, p = split(u)
    try:
        if fn == "log":
            if w == 0 or p <= 0.0:
                raise NoValue(DOMAIN)
            return join(complex(math.log(abs(w)), _arg_0_2pi(w)), math.log(p))
        cf, rf = _PAIRS[fn]
        return join(cf(w), rf(p))
    except OverflowError:
        raise NoValue(OVERFLOW) from None


def power(u: Triple, m: float) -> Triple:
    """Integer powers for any invertible base (or m >= 0); fractional
    powers on the principal branch, argument in [0, 2*pi), p > 0."""
    w, p = split(u)
    try:
        if float(m).is_integer():
            k = int(m)
            if k < 0 and (w == 0 or p == 0.0):
                raise NoValue(DOMAIN)
            return join(w**k, p**k)
        if w == 0 or p <= 0.0:
            raise NoValue(DOMAIN)
        return join(cmath.rect(abs(w) ** m, m * _arg_0_2pi(w)), p**m)
    except OverflowError:
        raise NoValue(OVERFLOW) from None


def inverse(u: Triple) -> Triple:
    w, p = split(u)
    if w == 0 or p == 0.0:
        raise NoValue(DOMAIN)
    return join(1.0 / w, 1.0 / p)


def polar(u: Triple) -> tuple[float, ...]:
    """(d, s, D, theta, phi, rho) of a point off the trisector line."""
    w, p = split(u)
    d = math.sqrt(u[0] ** 2 + u[1] ** 2 + u[2] ** 2)
    s = p / SQRT3
    big_d = abs(w) * math.sqrt(2.0 / 3.0)
    rho = math.copysign(abs(p * abs(w) ** 2) ** (1.0 / 3.0), p)
    return d, s, big_d, math.atan2(big_d, s), _arg_0_2pi(w), rho


def series_value(coeffs: Sequence[Triple], u: Triple) -> Triple:
    """Truncated power series (ascending coefficients), Horner in each part."""
    w, p = split(u)
    aw, ap = complex(0.0), 0.0
    for c in reversed(coeffs):
        cw, cp = split(c)
        aw = aw * w + cw
        ap = ap * p + cp
    return join(aw, ap)


def _tail_mean(values: Sequence[float], tail: int = 8) -> float:
    t = values[-tail:]
    return sum(t) / len(t)


def _ratios(mags: Sequence[float], scale: float = 1.0) -> list[float]:
    return [
        mags[i] / (scale * mags[i + 1])
        for i in range(len(mags) - 1)
        if mags[i] > 0.0 and mags[i + 1] > 0.0
    ]


def radius_cylindrical(coeffs: Sequence[Triple]) -> Triple:
    """(c0, c1, cplus): mean of the last eight coefficient ratios of the
    Euclidean modulus (divided by sqrt 3), of |w| and of |p|."""
    parts = [split(c) for c in coeffs]
    mods = [math.sqrt(sum(v * v for v in c)) for c in coeffs]
    return (
        _tail_mean(_ratios(mods, SQRT3)),
        _tail_mean(_ratios([abs(w) for w, _ in parts])),
        _tail_mean(_ratios([abs(p) for _, p in parts])),
    )


# -- loops ------------------------------------------------------------------


def winding(points: Sequence[Triple], pole: Triple) -> int:
    """Turns of the closed point sequence around ``pole``, both projected
    on the transverse plane (angle sum of consecutive chords)."""
    wa, _ = split(pole)
    total = 0.0
    prev = split(points[0])[0] - wa
    for q in points[1:]:
        cur = split(q)[0] - wa
        total += cmath.phase(cur / prev)
        prev = cur
    return round(total / TWO_PI)


def loop_value(turns: int, transverse_residue: complex) -> Triple:
    """turns * residue * (0, 2*pi/sqrt(3), -2*pi/sqrt(3)): one positive
    turn contributes 2*pi*i times the residue's transverse part, and the
    longitudinal part of a closed real integral vanishes."""
    return join(2j * math.pi * turns * transverse_residue, 0.0)


# -- polynomials ----------------------------------------------------------------


def distinct_pairings(trans: Sequence[complex], longi: Sequence[float], cap: int) -> int:
    """Number of distinct root multisets obtained by pairing the two root
    lists in every order, capped at ``cap``.

    A distinct multiset of pairs is a table of pair counts whose row sums
    are the transverse multiplicities and whose column sums are the
    longitudinal ones, so this counts such tables.
    """
    rows = sorted(_multiplicities(trans), reverse=True)
    cols = sorted(_multiplicities(longi), reverse=True)

    def count(i: int, cols: tuple[int, ...], budget: int) -> int:
        if i == len(rows):
            return 1
        total = 0
        for row in _row_fillings(rows[i], cols):
            rest = tuple(c - r for c, r in zip(cols, row))
            total += count(i + 1, rest, budget - total)
            if total >= budget:
                return total
        return total

    return min(count(0, tuple(cols), cap), cap)


def _multiplicities(values: Sequence) -> list[int]:
    counts: dict = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return list(counts.values())


def _row_fillings(total: int, caps: tuple[int, ...]):
    """All ways to spread ``total`` over columns with the given capacities."""
    for picks in combinations_with_replacement(range(len(caps)), total):
        row = [0] * len(caps)
        for j in picks:
            row[j] += 1
        if all(r <= c for r, c in zip(row, caps)):
            yield row
