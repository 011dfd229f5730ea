"""Numerical derivatives and analyticity checks: the central differences
behind ``derivative`` and ``check_analytic``'s residuals of the relations
f_y = h f_x and f_z = k f_x that functions given by power series obey.
"""

from __future__ import annotations

import math
from operator import sub
from typing import Callable, NamedTuple

from .algebra import H, K, ONE, Tricomplex, inverse
from .errors import Overflow

TriFunction = Callable[[Tricomplex], Tricomplex]

DEFAULT_DERIVATIVE_STEP = 1e-5
DEFAULT_STENCIL_STEP = 1e-4


class RiemannReport(NamedTuple):
    """Residual magnitudes of the component-derivative relations.

    ``first_order``: the largest components of h f_x - f_y, k f_x - f_z
    and h f_y - f_z.  ``second_order``: per component F, G, H, the
    largest of f_xx - f_yz, f_yy - f_xz and f_zz - f_xy.  ``laplacian``:
    the Laplacians of F-G, F-H, G-H.
    """

    first_order: tuple[float, float, float]
    second_order: tuple[float, float, float]
    laplacian: tuple[float, float, float]

    @property
    def max_residual(self) -> float:
        return max(*self.first_order, *self.second_order, *self.laplacian)

    def lines(self) -> list[str]:
        tags = (("xy", "xz", "yz"), ("F", "G", "H"), ("FG", "FH", "GH"))
        return [f"{g}_{t}={v:.17g}" for g, ts, vs in zip(self._fields, tags, self) for t, v in zip(ts, vs)]


def derivative(
    f: TriFunction,
    u0: Tricomplex,
    step: float = DEFAULT_DERIVATIVE_STEP,
    direction: Tricomplex = ONE,
) -> Tricomplex:
    """Central difference quotient of ``f`` at ``u0``.

    The increment runs along ``direction`` (default: the real axis),
    which must be invertible (off the nodal sets), else ZeroDivisor is
    raised.  ``step`` must be finite, > 0 and large enough to move ``u0``.
    """
    scale = inverse(direction) * (0.5 / _checked_step(step))
    du = direction * step
    hi, lo = u0 + du, u0 - du
    if hi == lo:
        raise ValueError("step is finer than the double spacing at u0")
    return (f(hi) - f(lo)) * scale


def _checked_step(step: float) -> float:
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError("step must be finite and > 0")
    return step


def check_analytic(
    f: TriFunction, u0: Tricomplex, step: float = DEFAULT_STENCIL_STEP
) -> RiemannReport:
    """Residuals of the component-derivative relations at ``u0``.

    A function given by a power series has f_y = h f_x and f_z = k f_x,
    so f_yz = f_xx, f_xz = f_yy, f_xy = f_zz, and f_xx + f_yy + f_zz is
    (1 + h + k) f'', on the trisector line.  All partials are central
    differences on a stencil of size ``step``, from 19 values of f;
    residuals are reported, never judged, so a caller chooses its own
    threshold.  A residual beyond the double range raises Overflow.
    """
    s = _checked_step(step)
    ex, ey, ez = Tricomplex(s, 0.0, 0.0), Tricomplex(0.0, s, 0.0), Tricomplex(0.0, 0.0, s)
    xp, yp, zp, xm, ym, zm = u0 + ex, u0 + ey, u0 + ez, u0 - ex, u0 - ey, u0 - ez
    f0 = f(u0)
    plus, minus = [f(xp), f(yp), f(zp)], [f(xm), f(ym), f(zm)]
    corners = [
        (f(p + e), f(p - e), f(m + e), f(m - e))
        for p, m, e in ((yp, ym, ez), (xp, xm, ez), (xp, xm, ey))
    ]
    try:
        # 2s times f_x, f_y, f_z; s^2 times f_xx, f_yy, f_zz and f_yz, f_xz, f_xy
        dx, dy, dz = (p - m for p, m in zip(plus, minus))
        pure = [p - f0 * 2.0 + m for p, m in zip(plus, minus)]
        mixed = [(pp - pm - mp + mm) * 0.25 for pp, pm, mp, mm in corners]
        first = (H * dx - dy, K * dx - dz, H * dy - dz)
        second = [(d.x, d.y, d.z) for d in map(sub, pure, mixed)]
        lap = pure[0] + pure[1] + pure[2]
        report = RiemannReport(
            tuple(d.max_abs_component() / (2.0 * s) for d in first),
            tuple(max(map(abs, c)) / (s * s) for c in zip(*second)),
            tuple(abs(a - b) / (s * s) for a, b in ((lap.x, lap.y), (lap.x, lap.z), (lap.y, lap.z))),
        )
        if math.isfinite(report.max_residual):
            return report
    except Overflow:  # a difference of the values of f
        pass
    raise Overflow(f"derivative residuals at {u0} exceed the double range")
