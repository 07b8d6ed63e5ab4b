"""Gain functions c(t) and the tail transform h(t) = int_t^inf c(s) e^{-s} ds.

Admissible gains have c > 0 with c(t) e^{-t} non-increasing and h(0) finite.
A positive constant v, an exponential e^{delta t} with delta < 1 and a
tabulated grid are each normalised once, when built, into one piecewise
log-linear table: knots t_0 < ... < t_K with c and log c there, log c affine
between knots, c constant below t_0 and log c of slope s beyond t_K.  A
constant is ([0], [v], s = 0), an exponential ([0], [1], s = delta) and a
tabulated gain its grid with s = 0.  Every function below reads that table
with no case per kind: on each piece c(s) e^{-a s} is the exponential of an
affine function, so h is a closed form there, and so is h^{-1}.  The same
tail integral, at the rates of a radial one-point Gram, gives that Gram's
diagonal (forms.analytic_reduction).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import BadInputError, NumericalError

TAG_ONE = "->1"
TAG_ZERO = "->0"
TAG_INF = "->inf"


class _Table(NamedTuple):
    t: np.ndarray  # knots t_0 < ... < t_K
    c: np.ndarray  # c at the knots, exactly as given
    log_c: np.ndarray  # log c at the knots
    slope: float  # slope of log c beyond t_K


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
            t, c, log_c, slope = [0.0], [self.value], [math.log(self.value)], 0.0
        elif self.kind == "exponential":
            if not (self.rate < 1 and math.isfinite(self.rate)):
                raise BadInputError(
                    f"exponential gain needs rate < 1 for h(0) < inf, got {self.rate}"
                )
            t, c, log_c, slope = [0.0], [1.0], [0.0], self.rate
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
            log_c, slope = np.log(c), 0.0
        else:
            raise BadInputError(f"unknown gain kind {self.kind!r}")
        # an attribute, not a field: equality, asdict and problem files skip it
        arrays = (np.asarray(x, dtype=float) for x in (t, c, log_c))
        object.__setattr__(self, "_table", _Table(*arrays, float(slope)))
        margin = class_p_margin(self)
        if margin < -1e-12:
            raise BadInputError(
                f"gain is not admissible: log(c(t)e^-t) increases by {-margin:.3e} "
                "on a knot interval"
            )

    @cached_property
    def _h_knots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """0 and the knots, log c there and h there: the ends of h^-1's pieces."""
        tab = self._table
        t = np.concatenate(([0.0], tab.t))
        log_c = np.concatenate((tab.log_c[:1], tab.log_c))
        return t, log_c, np.array([eval_h(self, x) for x in t])

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

    log c is affine on each knot interval, constant below the knots and of
    slope s < 1 beyond them, so c(t) e^{-t} is non-increasing exactly when
    log c rises by at most the interval's length on every interval: the
    margin is >= 0 exactly for admissible gains, and 0 without intervals.
    """
    tab = g._table
    drop = np.diff(tab.t) - np.diff(tab.log_c)
    return float(np.min(drop)) if drop.size else 0.0


def eval_log_c(g: GainFunction, t):
    """log c(t) without forming c; stable for arguments deep in the tail."""
    scalar = np.isscalar(t)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(t_arr > 0):
        raise BadInputError("c(t) needs t > 0")
    tab = g._table
    if tab.t.size == 1:  # constant and exponential gains: log c(t_0) up to the tail
        out = np.full(t_arr.shape, tab.log_c[0])
    else:
        out = np.interp(t_arr, tab.t, tab.log_c)
    if tab.slope:
        out += tab.slope * np.maximum(t_arr - tab.t[-1], 0.0)
    return float(out[0]) if scalar else out


def eval_c(g: GainFunction, t):
    """c(t) for t > 0; vectorized over numpy arrays."""
    out = np.exp(eval_log_c(g, t))
    return float(out) if np.isscalar(t) else out


def _scaled_exp(c: float, log_c: float, x: float) -> float:
    """c e^{-x}, rounded once from c times e^{-x} while e^{-x} is a normal
    float (so constant and exponential gains stay exact), and with log c in
    the exponent past x = 708, where e^{-x} alone loses its digits."""
    e = math.exp(-x)
    return c * e if e >= sys.float_info.min else math.exp(log_c - x)


def _tail_integral(g: GainFunction, a, t: float):
    """int_t^inf c(s) e^{-a s} ds for a rate a > s, or for each rate of an
    array a; exact on every piece of the table.

    The tail beyond the last knot and the head below the first go per rate
    through _scaled_exp (math.exp), the knot intervals through one numpy
    product over [rate, interval].  A float rate gives a float, bit for bit
    what one rate of an array gives.
    """
    gt, gc, lc, s = g._table
    rates = np.atleast_1d(np.asarray(a, dtype=float))
    if not np.all(rates > s):
        raise BadInputError(f"divergent tail integral for a = {a} <= tail slope {s}")
    total = np.array([
        _scaled_exp(gc[-1], lc[-1], (r - s) * max(t, gt[-1]) + s * gt[-1]) / (r - s)
        for r in rates.tolist()
    ])
    if t < gt[0]:
        total += [_scaled_exp(gc[0], lc[0], r * t) * -math.expm1(-r * (gt[0] - t)) / r
                  for r in rates.tolist()]
    i = np.nonzero(gt[1:] > t)[0]  # knot intervals reaching past t
    lo = np.maximum(gt[i], t)
    L = gt[i + 1] - lo
    m = (lc[i + 1] - lc[i]) / (gt[i + 1] - gt[i])
    k = m - rates[:, None]  # slope of the exponent
    # a rate below a steep interval's slope can overflow expm1: that total is
    # refused below, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        head = np.exp(lc[i] + m * (lo - gt[i]) - rates[:, None] * lo)
        ratio = np.divide(np.expm1(k * L), k, out=np.broadcast_to(L, k.shape).copy(),
                          where=k * L != 0)
        total += np.sum(head * ratio, axis=1)
    if not np.all(np.isfinite(total)):
        raise NumericalError("gain tail integral is not finite")
    return float(total[0]) if np.ndim(a) == 0 else total


def eval_h(g: GainFunction, t: float) -> float:
    """h(t) = int_t^inf c(s) e^{-s} ds; strictly decreasing, h(inf) = 0."""
    t = float(t)
    if not (t >= 0):
        raise BadInputError("eval_h needs t >= 0")
    return _tail_integral(g, 1.0, t)


def invert_h(g: GainFunction, r: float) -> float:
    """The t with h(t) = r, for 0 < r < h(0), in closed form.

    h at 0 and at the knots picks the piece [a, b] that holds r.  Beyond the
    last knot h(t) = h(t_K) e^{-(1-s)(t - t_K)}.  On [a, b], where log c has
    slope m (0 below the knots), c(t) e^{-t} = w e^{k(t-a)} with k = m - 1 <= 0
    and w = c(a) e^{-a}, its largest value there, so h(t) = h(a) + w
    expm1(k(t - a)) / k.  With q = (h(a) - r) / w and y = -k q this gives
    t = a + log1p(-y) / k, or a + q on an interval of slope 1 (k = 0).  For
    y > 1/2 the same e^{k(t-a)} = 1 - y is summed from the right end instead,
    e^{k(b-a)} + y (r - h(b)) / (h(a) - r), since 1 - y would cancel.
    """
    r = float(r)
    t, lc, h = g._h_knots
    if not (0 < r < h[0]):
        raise BadInputError(f"invert_h needs 0 < r < h(0) = {h[0]:g}, got {r}")
    j = int(np.count_nonzero(h > r))
    if j == t.size:
        return float(t[-1] + math.log(h[-1] / r) / (1.0 - g._table.slope))
    a, b = float(t[j - 1]), float(t[j])
    k = (lc[j] - lc[j - 1]) / (b - a) - 1.0
    w = math.exp(lc[j - 1] - a)
    if w == 0:
        raise NumericalError(f"h^-1({r:g}) lies beyond t = {a:g}, where c(t) e^-t underflows")
    q = (h[j - 1] - r) / w
    y = -k * q
    if y > 0.5:
        q = math.log(math.exp(k * (b - a)) + y * (r - h[j]) / (h[j - 1] - r)) / k
    elif k:
        q = math.log1p(-y) / k
    return float(a + q)


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
    if t_grid.size < 3 or not np.all(np.diff(t_grid) > 0) or not t_grid[0] >= 0:
        raise BadInputError("ratio_probe needs an increasing grid of >= 3 points t >= 0")
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
