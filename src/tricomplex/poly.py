"""Monic polynomials and their factorization into linear factors.

In the canonical basis a polynomial splits into an ordinary complex
polynomial in the transverse variable and a real polynomial in the
longitudinal variable.  Each part factors on its own, by a sweep
started about its roots' centroid; the longitudinal roots are real when
their real parts rebuild the real polynomial within the guard that every
root list must pass.  A full set of roots pairs each transverse root
with a longitudinal root, and since the pairing is arbitrary the
factorization is not unique.  ``factor`` fixes a
canonical pairing (both lists sorted); ``enumerate_root_sets`` generates
the distinct alternatives directly, a multiple root being equal copies.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from typing import Iterator, NamedTuple, Sequence

from .algebra import ONE, Tricomplex, _Record, _rescaled
from .errors import ComplexLongitudinalRoot, NonConvergent, Overflow
from .geometry import _from_split, _to_split

_EPS = sys.float_info.epsilon
MAX_ITERATIONS = 200


class TriPolynomial(_Record):
    """Monic polynomial, coefficients in descending powers.

    ``coeffs[0]`` must be the unity; the degree is ``len(coeffs) - 1``
    and must be at least 1.
    """

    __slots__ = _fields = ("coeffs",)
    coeffs: tuple[Tricomplex, ...]

    def __init__(self, coeffs: Sequence[Tricomplex]) -> None:
        coeffs = tuple(coeffs)
        if len(coeffs) < 2:
            raise ValueError("degree must be >= 1")
        if coeffs[0] != ONE:
            raise ValueError("leading coefficient must be the unity")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, u: Tricomplex) -> Tricomplex:
        acc = self.coeffs[0]
        for a in self.coeffs[1:]:
            acc = acc * u + a
        return acc

    @classmethod
    def from_components(cls, rows: Sequence[Sequence[float]]) -> "TriPolynomial":
        return cls(tuple(Tricomplex(p, q, r) for p, q, r in rows))

    @classmethod
    def from_roots(cls, roots: Sequence[Tricomplex]) -> "TriPolynomial":
        """Expand the product of (u - root) over the given roots."""
        coeffs = [ONE]
        for r in roots:
            prev = coeffs
            coeffs = [prev[0]]
            coeffs += [prev[j] - r * prev[j - 1] for j in range(1, len(prev))]
            coeffs.append(-(r * prev[-1]))
        return cls(tuple(coeffs))


class DecomposedPoly(NamedTuple):
    """Split coefficients, descending powers: complex transverse pairs
    and real longitudinal components."""

    transverse: tuple[complex, ...]
    longitudinal: tuple[float, ...]


class RootSet(NamedTuple):
    """One complete set of roots.

    ``pairing[i]`` records which entry of the sorted longitudinal root
    list was combined with the i-th sorted transverse root.
    """

    roots: tuple[Tricomplex, ...]
    pairing: tuple[int, ...]


def decompose(p: TriPolynomial) -> DecomposedPoly:
    """Split into the transverse complex polynomial and the longitudinal
    real polynomial; evaluating both and recombining through the
    canonical basis reproduces the polynomial's values."""
    return DecomposedPoly(*zip(*map(_to_split, p.coeffs)))


def _residual(coeffs: Sequence[complex], sizes: Sequence[float], w: complex) -> tuple[complex, float]:
    """p(w) and its rounding level when each coefficient is known to eps times its size."""
    value, bound, r = complex(0.0), 0.0, abs(w)
    for c, s in zip(coeffs, sizes):
        value, bound = value * w + c, bound * r + s
    return value, (len(coeffs) - 1) * _EPS * bound


def _derivative(coeffs: Sequence, j: int) -> Sequence:
    """Coefficients of the j-th derivative (the coefficients themselves for j = 0)."""
    if j == 0:
        return coeffs
    n = len(coeffs) - 1
    return [c * math.perm(n - i, j) for i, c in enumerate(coeffs[: n + 1 - j])]


def _start(coeffs: Sequence[complex]) -> list[complex]:
    """m points on the circle about the roots' centroid c = -a1/m whose
    radius |p(c)|^(1/m) is the geometric mean of the roots' distances from
    c (Aberth 1973).  Twice Fujiwara's root bound is the radius where p(c) is 0 or
    not finite; ``_root_lists`` scales the roots so that it stays in the range."""
    m = len(coeffs) - 1
    c = -coeffs[1] / m
    value = complex(0.0)
    for a in coeffs:
        value = value * c + a
    radius = math.hypot(value.real, value.imag) ** (1.0 / m)
    if not 0.0 < radius < math.inf:
        radius = 2.0 * max(abs(a) ** (1.0 / i) for i, a in enumerate(coeffs[1:], 1))
    return [c + radius * cmath.exp(2j * math.pi * (i / m) + 0.4j) for i in range(m)]


def _sweep(coeffs: Sequence[complex], sizes: Sequence[float]) -> list[complex]:
    """Weierstrass iteration (nonzero constant term) from ``_start``'s circle; a root
    stops once its step or residual is at rounding level, a k-fold root scattered by
    eps^(1/k).  A value, level, root product or modulus beyond the range raises Overflow."""
    m = len(coeffs) - 1
    done, tol = [False] * m, m * _EPS
    try:
        roots = _start(coeffs)
        for _ in range(MAX_ITERATIONS):
            for i, w in enumerate(roots):
                if done[i]:
                    continue
                # _residual inline: p(w) and its rounding level in one Horner pass
                value, level, r = complex(0.0), 0.0, abs(w)
                for c, s in zip(coeffs, sizes):
                    value, level = value * w + c, level * r + s
                if abs(value) <= tol * level < math.inf:
                    done[i] = True
                    continue
                den = 1  # the int 1, as in math.prod: 1 * z can flip the sign of a zero part
                for v in roots[:i] + roots[i + 1 :]:
                    den *= w - v
                if not (level < math.inf and cmath.isfinite(value) and cmath.isfinite(den)):
                    raise OverflowError
                # an exact collision with another root is nudged apart
                step = value / den if den else math.sqrt(_EPS) * (1.0 + r)
                roots[i] = w - step
                done[i] = abs(step) <= _EPS * r
            if all(done):
                return roots
    except OverflowError:  # raised above, or by a modulus
        raise Overflow("a root iterate, its residual or its root product leaves the double range") from None
    raise NonConvergent(f"root iteration did not converge in {MAX_ITERATIONS} sweeps")


def _polish(coeffs: Sequence[complex], w: complex, k: int) -> complex:
    """Newton on the (k-1)-th derivative, where a k-fold root is simple, until
    the step stops shrinking; quadratic, so representable roots land exactly."""
    f = _derivative(coeffs, k - 1)
    prev = math.inf
    for _ in range(MAX_ITERATIONS):
        value = slope = complex(0.0)
        for c in f:
            value, slope = value * w + c, slope * w + value
        step = value / slope if slope else 0.0
        if not 0.0 < abs(step) < prev:
            break
        w, prev = w - step, abs(step)
    return w


def _multiple(
    coeffs: Sequence[complex], sizes: Sequence[float], group: Sequence[complex]
) -> complex | None:
    """The group's polished centre if the first k = len(group) derivatives
    vanish there to rounding (a k-fold root), else None."""
    k = len(group)
    c = _polish(coeffs, sum(group) / k, k)
    tests = (_residual(_derivative(coeffs, j), _derivative(sizes, j), c) for j in range(k))
    if all(math.hypot(value.real, value.imag) <= rounding for value, rounding in tests):
        return c
    return None


def _group_roots(
    coeffs: Sequence[complex], sizes: Sequence[float], found: Sequence[complex], group: list[int]
) -> list[complex]:
    """Roots from a group of overlapping discs: a lone root polished once,
    k copies of a k-fold root if the whole group passes ``_multiple``, else
    the largest set of k >= 3 members nearest one member that passes it and
    stands apart from the rest, with the rest grouped the same way; else k
    simple roots.  Pairs are not split off: between two close simple roots
    p' vanishes where p is at rounding, so they pass the double-root check."""
    c = _multiple(coeffs, sizes, [found[i] for i in group]) if len(group) > 1 else None
    if c is not None:
        return [c] * len(group)
    seen = set()
    for k in range(len(group) - 1, 2, -1):
        for i in group:
            part = sorted(group, key=lambda j: abs(found[j] - found[i]))[:k]
            if frozenset(part) in seen:
                continue
            seen.add(frozenset(part))
            c = _multiple(coeffs, sizes, [found[j] for j in part])
            if c is None:
                continue
            # apart: each other member lies more than 3 times as far from c
            # as the farthest of the part, so farther from every member of
            # the part than those can be from one another
            near = max(abs(found[j] - c) for j in part)
            rest = [j for j in group if j not in part]
            if all(abs(found[j] - c) > 3.0 * near for j in rest):
                return [c] * k + _group_roots(coeffs, sizes, found, rest)
    return [_polish(coeffs, found[i], 1) for i in group]


def _roots(coeffs: Sequence[complex], sizes: Sequence[float]) -> tuple[list[complex], float]:
    """Roots of a monic polynomial whose coefficients are known to eps
    times ``sizes``, a k-fold root as k equal copies.

    Trailing zero coefficients are exact roots at 0 (trisector-line roots
    make the transverse part w^m, where the sweep is only linear).  A
    component of k overlapping discs |z - w_i| <= m|W_i|, W_i a sweep
    root's Weierstrass correction with rounding added, holds k roots
    (Carstensen 1991).  ``_group_roots`` makes it k copies of its polished
    centre if the first k derivatives vanish there to rounding (a k-fold
    root's centre is well conditioned, Zeng 2005), else splits its
    multiple roots off or polishes k simple roots.  Returned with the sum
    of the disc radii, the slack ``_misfit`` gives the rebuild.
    """
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0:
        n -= 1
    head, heads = coeffs[:n], sizes[:n]
    found = _sweep(head, heads) if n > 1 else []
    radii = []
    for i, w in enumerate(found):
        value, rounding = _residual(head, heads, w)
        den = abs(math.prod(w - v for v in found[:i] + found[i + 1 :]))
        # coinciding roots (den 0) join one component through their zero distance
        radii.append((n - 1) * (abs(value) + rounding) / den if den else 0.0)
        if not math.isfinite(radii[-1]):
            raise Overflow(f"the residual at root {w} or its disc radius leaves the double range")
    roots: list[complex] = []
    todo = set(range(len(found)))
    while todo:
        component = [todo.pop()]
        for i in component:  # grows while it is walked
            joined = {j for j in todo if abs(found[i] - found[j]) <= radii[i] + radii[j]}
            todo -= joined
            component += joined
        roots += _group_roots(head, heads, found, component)
    roots += [complex(0.0)] * (len(coeffs) - n)
    return roots, sum(radii)


def _misfit(
    roots: Sequence[complex], coeffs: Sequence[complex], sizes: Sequence[float], slack: float
) -> str | None:
    """The first coefficient the roots rebuild off by more than its rounding
    plus ``slack`` times the bound on the coefficient below it, or None."""
    rebuilt, bound = [complex(1.0)], [1.0]
    for r in roots:
        rebuilt = [a - r * b for a, b in zip(rebuilt + [0.0], [0.0] + rebuilt)]
        bound = [a + abs(r) * b for a, b in zip(bound + [0.0], [0.0] + bound)]
    m = len(roots)
    # to first order, roots moved within their discs move coefficient i by sum(radii) * bound[i-1]
    for i, (a, b, s, t, below) in enumerate(zip(rebuilt, coeffs, sizes, bound, [0.0] + bound)):
        if not abs(a - b) <= m * _EPS * (s + t) + slack * below:
            return f"roots rebuild coefficient {i} only to {abs(a - b):.3g}"
    return None


def _split_roots(p: TriPolynomial) -> tuple[list[complex], list[float], complex | None]:
    """The sorted transverse and real longitudinal roots of p, and None; where the
    longitudinal roots pass the rebuild guard (``_misfit``) only as found, complex,
    the one farthest off the real axis stands for None, and where neither their
    real parts nor they pass it, NonConvergent."""
    # |x|+|y|+|z| bounds both split parts of a coefficient and their rounding
    parts = decompose(p)
    sizes = [abs(a.x) + abs(a.y) + abs(a.z) for a in p.coeffs]
    longi = [complex(c) for c in parts.longitudinal]
    trans, slack = _roots(parts.transverse, sizes)
    misfit = _misfit(trans, parts.transverse, sizes, slack)
    if misfit:
        raise NonConvergent(misfit)
    found, slack = _roots(longi, sizes)
    if _misfit([complex(w.real) for w in found], longi, sizes, slack):
        misfit = _misfit(found, longi, sizes, slack)
        if misfit:
            raise NonConvergent(misfit)
        return trans, [], max(found, key=lambda w: abs(w.imag))
    return sorted(trans, key=lambda w: (w.real, w.imag)), sorted(w.real for w in found), None


def _root_lists(p: TriPolynomial) -> tuple[list[complex], list[float]]:
    """``_split_roots`` of q(u) = p(2**k u) / 2**(km), whose roots are p's over 2**k,
    scaled back.  k is the least shift that keeps (2**top)**m within 2**896, 2**top
    being the largest (max component of c_i)^(1/i) within a factor 2, so that no
    iteration leaves the range on the way to roots in it, and fewest parts underflow."""
    top = max(math.frexp(a.max_abs_component())[1] / i for i, a in enumerate(p.coeffs[1:], 1))
    k = max(0, math.ceil(top - 896 / p.degree))
    what = "a root or an iterate's modulus"
    trans, longi, worst = _rescaled(lambda cs: _split_roots(TriPolynomial(cs)), p.coeffs, k, 1, what, graded=True)
    if worst is not None:
        raise ComplexLongitudinalRoot(
            f"longitudinal roots pass the rebuild guard only as found, complex up to {worst}, not as reals"
        )
    return trans, longi


def _combine(trans: Sequence[complex], longi: Sequence[float], order: Sequence[int]) -> RootSet:
    roots = tuple(_from_split(t, longi[j]) for t, j in zip(trans, order))
    return RootSet(roots=roots, pairing=tuple(order))


def factor(p: TriPolynomial) -> RootSet:
    """Canonical factorization into degree-many linear factors.

    Both root lists are sorted (transverse by real then imaginary part,
    longitudinal by value) and paired index by index, which makes the
    result deterministic.
    """
    trans, longi = _root_lists(p)
    return _combine(trans, longi, range(len(longi)))


def _pairings(trans: Sequence[complex], longi: Sequence[float]) -> Iterator[tuple[int, ...]]:
    """Each pairing that gives a distinct root set, once, identity first.

    Equal longitudinal roots are taken lowest index first, and a run of
    equal transverse roots takes its partners in ascending order, each
    leaving enough free indices above it for the rest of the run.
    """
    def extend(order: tuple[int, ...], free: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        i = len(order)
        if i == len(longi):
            yield order
            return
        lo = order[-1] if i and trans[i] == trans[i - 1] else -1
        for n in range(len(free) - trans[i + 1 :].count(trans[i])):
            j = free[n]
            if j > lo and not (n and longi[free[n - 1]] == longi[j]):
                yield from extend(order + (j,), free[:n] + free[n + 1 :])

    return extend((), tuple(range(len(longi))))


def enumerate_root_sets(p: TriPolynomial, cap: int = 24) -> list[RootSet]:
    """Distinct root sets over the pairings of the two root lists.

    At most ``cap`` sets are returned, canonical pairing first.  Each set
    is built once: pairings that only swap equal roots are never made.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    trans, longi = _root_lists(p)
    pairings = itertools.islice(_pairings(trans, longi), cap)
    return [_combine(trans, longi, order) for order in pairings]
