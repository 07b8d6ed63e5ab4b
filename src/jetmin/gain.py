"""Gain functions c(t) and the tail transform h(t) = int_t^inf c(s) e^{-s} ds.

Admissible gains have c > 0 with c(t) e^{-t} non-increasing and h(0) finite.
Three kinds are supported: a positive constant, an exponential e^{delta t}
with delta < 1, and a tabulated grid with log-linear interpolation.  The
tabulated kind is extended by constants beyond its grid, which preserves both
admissibility conditions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadInputError, NumericalError

TAG_ONE = "->1"
TAG_ZERO = "->0"
TAG_INF = "->inf"


@dataclass(frozen=True)
class GainFunction:
    kind: str = "constant"  # "constant" | "exponential" | "tabulated"
    value: float = 1.0
    rate: float = 0.0
    grid_t: tuple[float, ...] = field(default=())
    grid_c: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind == "constant":
            if not (self.value > 0 and math.isfinite(self.value)):
                raise BadInputError(f"constant gain needs value > 0, got {self.value}")
        elif self.kind == "exponential":
            if not (self.rate < 1 and math.isfinite(self.rate)):
                raise BadInputError(
                    f"exponential gain needs rate < 1 for h(0) < inf, got {self.rate}"
                )
        elif self.kind == "tabulated":
            t = np.asarray(self.grid_t, dtype=float)
            c = np.asarray(self.grid_c, dtype=float)
            if t.size < 2 or t.size != c.size:
                raise BadInputError("tabulated gain needs matching grids of length >= 2")
            if not np.all(np.diff(t) > 0):
                raise BadInputError("tabulated gain grid must be strictly increasing")
            if not (np.all(c > 0) and np.all(np.isfinite(c)) and np.all(np.isfinite(t))):
                raise BadInputError("tabulated gain values must be positive and finite")
            if t[0] < 0:
                raise BadInputError("tabulated gain grid must start at t >= 0")
            object.__setattr__(self, "grid_t", tuple(float(x) for x in t))
            object.__setattr__(self, "grid_c", tuple(float(x) for x in c))
        else:
            raise BadInputError(f"unknown gain kind {self.kind!r}")
        margin = class_p_margin(self)
        if margin < -1e-12:
            raise BadInputError(
                f"gain is not admissible: log(c(t)e^-t) increases by {-margin:.3e} "
                "on a knot interval"
            )

    @classmethod
    def constant(cls, value: float = 1.0) -> "GainFunction":
        return cls(kind="constant", value=float(value))

    @classmethod
    def exponential(cls, delta: float) -> "GainFunction":
        return cls(kind="exponential", rate=float(delta))

    @classmethod
    def tabulated(cls, grid_t, grid_c) -> "GainFunction":
        return cls(kind="tabulated", grid_t=tuple(grid_t), grid_c=tuple(grid_c))


def class_p_margin(g: GainFunction) -> float:
    """Smallest decrease of log(c(t) e^{-t}) over one knot interval.

    log c is affine on each knot interval and constant off the grid, so
    c(t) e^{-t} is non-increasing exactly when log c rises by at most the
    interval's length on every interval: the margin is >= 0 exactly for
    admissible gains, and 0 for the constant and exponential kinds.
    """
    if g.kind != "tabulated":
        # c(t) e^{-t} is e^{-t} or e^{(rate-1) t} with rate < 1: decreasing
        return 0.0
    t = np.asarray(g.grid_t)
    return float(np.min(np.diff(t) - np.diff(np.log(np.asarray(g.grid_c)))))


def eval_c(g: GainFunction, t):
    """c(t) for t > 0; vectorized over numpy arrays."""
    scalar = np.isscalar(t)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr <= 0):
        raise BadInputError("eval_c needs t > 0")
    if g.kind == "constant":
        out = np.full_like(t_arr, g.value)
    elif g.kind == "exponential":
        out = np.exp(g.rate * t_arr)
    else:
        gt = np.asarray(g.grid_t)
        gc = np.asarray(g.grid_c)
        # log-linear in c between samples, constant beyond the grid
        out = np.exp(np.interp(t_arr, gt, np.log(gc)))
    return float(out[0]) if scalar else out


def eval_log_c(g: GainFunction, t):
    """log c(t) without forming c; stable for arguments deep in the tail."""
    scalar = np.isscalar(t)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr <= 0):
        raise BadInputError("eval_log_c needs t > 0")
    if g.kind == "constant":
        out = np.full_like(t_arr, math.log(g.value))
    elif g.kind == "exponential":
        out = g.rate * t_arr
    else:
        out = np.interp(t_arr, np.asarray(g.grid_t), np.log(np.asarray(g.grid_c)))
    return float(out[0]) if scalar else out


def _tail_integral(g: GainFunction, a: float, t: float) -> float:
    """int_t^inf c(s) e^{-a s} ds, requiring convergence."""
    if g.kind == "constant":
        if a <= 0:
            raise BadInputError(f"divergent tail integral for a = {a}")
        return g.value * math.exp(-a * t) / a
    if g.kind == "exponential":
        if a <= g.rate:
            raise BadInputError(f"divergent tail integral for a = {a} <= rate {g.rate}")
        return math.exp(-(a - g.rate) * t) / (a - g.rate)
    if a <= 0:
        raise BadInputError(f"divergent tail integral for a = {a}")
    # exact: log c is affine on each knot interval, so the integrand is the
    # exponential of an affine function there; c is constant off the grid
    gt = np.asarray(g.grid_t)
    lc = np.log(np.asarray(g.grid_c))
    total = g.grid_c[-1] * math.exp(-a * max(t, gt[-1])) / a
    if t < gt[0]:
        total += g.grid_c[0] * math.exp(-a * t) * -math.expm1(-a * (gt[0] - t)) / a
    i = np.nonzero(gt[1:] > t)[0]  # knot intervals reaching past t
    lo = np.maximum(gt[i], t)
    L = gt[i + 1] - lo
    m = (lc[i + 1] - lc[i]) / (gt[i + 1] - gt[i])
    k = m - a  # slope of the exponent
    head = np.exp(lc[i] + m * (lo - gt[i]) - a * lo)
    ratio = np.divide(np.expm1(k * L), k, out=L.copy(), where=k * L != 0)
    total += float(np.sum(head * ratio))
    if not math.isfinite(total):
        raise NumericalError("tabulated tail integral is not finite")
    return total


def eval_h(g: GainFunction, t: float) -> float:
    """h(t) = int_t^inf c(s) e^{-s} ds; strictly decreasing, h(inf) = 0."""
    t = float(t)
    if t < 0:
        raise BadInputError("eval_h needs t >= 0")
    return _tail_integral(g, 1.0, t)


def invert_h(g: GainFunction, r: float) -> float:
    """The t with h(t) = r, for 0 < r < h(0).

    Monotone bisection with bracket growth; absolute tolerance 1e-12 h(0)
    (h can be flat near infinity, so the tolerance is anchored at h(0)).
    """
    r = float(r)
    h0 = eval_h(g, 0.0)
    if not (0 < r < h0):
        raise BadInputError(f"invert_h needs 0 < r < h(0) = {h0:g}, got {r}")
    lo, hi = 0.0, 1.0
    while eval_h(g, hi) > r:
        lo, hi = hi, 2 * hi
        if hi > 1e6:
            raise NumericalError("invert_h bracket growth failed")
    tol = 1e-12 * h0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        hm = eval_h(g, mid)
        if abs(hm - r) <= tol:
            return mid
        if hm > r:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RatioProbeResult:
    tag: str
    fitted_rate: float
    t_grid: tuple[float, ...]
    ratios: tuple[float, ...]


def ratio_probe(g: GainFunction, a: float, t_grid=None) -> RatioProbeResult:
    """Classify the trend of int_t^inf c e^{-a s} / int_t^inf c e^{-s}.

    The limit is 1 iff a = 1, 0 for a > 1 and infinity for a < 1.  A finite
    grid can only classify the empirical trend: the probe fits an exponential
    rate to the ratio sequence and tags by its sign, reporting the rate.
    """
    if t_grid is None:
        t_grid = np.linspace(1.0, 20.0, 20)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 3 or not np.all(np.diff(t_grid) > 0):
        raise BadInputError("ratio_probe needs an increasing grid of >= 3 points")
    ratios = np.array([
        _tail_integral(g, a, t) / _tail_integral(g, 1.0, t) for t in t_grid
    ])
    if np.any(ratios <= 0):
        raise NumericalError("ratio probe produced nonpositive ratios")
    slope = float(np.polyfit(t_grid, np.log(ratios), 1)[0])
    rate_tol = 0.02
    if slope > rate_tol:
        tag = TAG_INF
    elif slope < -rate_tol:
        tag = TAG_ZERO
    else:
        # flat trend: ->1 only if the values actually sit near 1
        tag = TAG_ONE if abs(ratios[-1] - 1.0) < 0.1 else (
            TAG_ZERO if ratios[-1] < 1.0 else TAG_INF
        )
    return RatioProbeResult(
        tag=tag,
        fitted_rate=slope,
        t_grid=tuple(float(x) for x in t_grid),
        ratios=tuple(float(x) for x in ratios),
    )


def growth_rate_bound(g: GainFunction) -> float:
    """A delta with c(t) <= C e^{delta t}; used by integrability prechecks."""
    if g.kind == "exponential":
        return max(g.rate, 0.0)
    return 0.0
