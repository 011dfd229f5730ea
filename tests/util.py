"""Shared helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np

from tricomplex import AlgebraClass, Tricomplex, classify, component_sum

#: In-plane unit directions spanning the nodal plane: the first toward the
#: meridian of the x axis, the second a quarter turn from it.
XI1 = Tricomplex(2.0, -1.0, -1.0) * (1.0 / math.sqrt(6.0))
XI2 = Tricomplex(0.0, 1.0, -1.0) * (1.0 / math.sqrt(2.0))


def rel_err(a: float, b: float) -> float:
    """|a-b| scaled by the magnitudes with a unit floor."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def tri_err(u: Tricomplex, v: Tricomplex) -> float:
    """Componentwise scaled distance between two values."""
    return abs(u - v) / max(1.0, abs(u), abs(v))


def random_triples(
    rng: np.random.Generator,
    n: int,
    lo: float = -10.0,
    hi: float = 10.0,
    regular: bool = False,
    positive_sum: bool = False,
) -> list[Tricomplex]:
    """Uniform samples from a cube, optionally filtered to regular
    and/or positive-component-sum points."""
    out: list[Tricomplex] = []
    while len(out) < n:
        batch = rng.uniform(lo, hi, size=(n, 3))
        for x, y, z in batch:
            u = Tricomplex(x, y, z)
            if regular and classify(u) is not AlgebraClass.REGULAR:
                continue
            if positive_sum and component_sum(u) <= 0.0:
                continue
            out.append(u)
            if len(out) == n:
                break
    return out
