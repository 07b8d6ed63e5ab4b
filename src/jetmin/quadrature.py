"""Adaptive polar quadrature over Green-sublevel regions of the unit disc.

A region is a sorted cut list t_0 < t_1 < ... < t_K in disc coordinates.
Band k is {-t_{k+1} <= psi < -t_k}, and level k is the union of the bands
j >= k, that is {-t_K <= psi < -t_k}.  With t_K = inf the levels are
sublevel sets: {psi < -t} is the cut list (t, inf), the sublevel sets of a
scan grid are (t_0, ..., t_{K-1}, inf), and the band {-t1 <= psi < -t2} is
(t2, t1).  Every entry point takes one request, the levels ``ts`` under
an outer cut ``top`` (inf for sublevel sets, t1 for a band), and the
two-level driver turns it into the cut list.

A region is one table of rays (``Rays``) in fans.  Fan 0, the global fan,
casts rays from zeta = 0 to the circle.  Each singular center c adds a
patch fan, whose rays run from c to its reach R = min(0.1, (1 - |c|)/2,
0.45 times the distance to the next center).  A C^4 partition of unity
hands the disc |zeta - c| < R to the patch fan: its nodes carry the mask
chi and the global nodes 1 - sum chi.  Every ray carries its origin, and
its nodes their offset x from it: zeta on the global fan, zeta - c on a
patch fan, where psi and the weight read the center's own Green term from
x (weights.WeightKernel), so a level 1e-80 wide about c is resolved as well
as one 1e-2 wide.

The table is built in one pass of each stage over all of its rays.  Each
ray is cut at every threshold (one sorted search of the psi samples, one
secant search of all crossings of every ray; psi < 0, so t <= 0 is never
cut and a t = 0 ray is one unsampled piece), each piece is tagged with its
band and integrated with Gauss-Legendre panels split at every patch circle
and half-radius circle, taken in the ray's own coordinate.  A Gram region
is also cut at the gain's knots, which define bands but no level, so no
panel straddles a kink of c(-psi).  A global ray is sampled densely,
clustered about the centers; a patch fan ray, where psi is 2p log|x| plus a
smooth term, on a grid uniform in log |x| down to its deepest cut.  On a
patch fan ray a panel that reaches toward the pole is split geometrically,
so each panel lies at least its own width from it, and the panel that
touches the pole takes a Gauss-Jacobi rule with the weight r^(sigma + 1),
sigma the center's local exponent, which integrates r^sigma times any
polynomial of degree 19 exactly.  A one-point problem is solved in the
chart that puts its point at 0 (weights.disc_chart).

Values are accumulated per band; level k sums the bands j >= k, and a Gram
is reduced from weighted monomial moments M, P^H M P with P the basis
coefficients.  Every region records where each run of nodes on one ray
(and in one band) starts, and a run sums 2N + 1 radial moments per node,
not (N + 1)^2.  The moments of a patch fan are taken in x, with the basis
coefficients Taylor-shifted to its center and the enforced vanishing order
factored out of them into the weight; one moment pass serves every fan.

The default mesh (``mesh.QuadratureConfig``, re-exported here) casts 256
global rays with about 64 radial nodes per level length, and 32 rays per
patch fan with 4 panels per level length, all in panels of 10 nodes whose
count per piece is rounded up, and at least 2 panels on a piece in a
blending annulus.  The error estimate is the difference from the
half-resolution mesh, which has every count halved: each of its fans
takes every other ray of the fine fan, the same trapezoid rule turned by a
quarter of its spacing.  One cut search over the union of both meshes' rays
serves both, and each mesh cuts its own radial panels and tangency
sub-rays.  Both meshes of a Gram assembly share each center's
Taylor-shifted basis.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadInputError, NonIntegrableWeightError, NumericalError
from .gain import eval_log_c
from .mesh import PatchSpec, QuadratureConfig  # noqa: F401 (re-exported)

_LOG2 = math.log(2.0)
_GL10 = np.polynomial.legendre.leggauss(10)
_BISECT_ITERS = 60
_CUT_ULPS = 4  # a cut bracket this many ulps wide has converged
_RAY_SAMPLES = 1024
_ONE_CENTER_SAMPLES = 64  # psi is monotone on rays from the only center
_FAN_DEPTH = 1e-8  # the first log-r grid of a patch fan ray reaches this fraction of its reach
_FAN_UNIFORM = 16  # samples uniform in r on a patch fan ray
_FAN_LOG_STEP = math.log(4.0)  # log-r spacing of a patch fan ray's samples
_TINY = np.finfo(float).tiny  # an area weight below the smallest normal float is dropped
_TANGENT_SPLIT = 16
_MASK_FLOOR = 1e-14
_CHUNK = 8192
_GRAM_CHUNK = 2048  # nodes per moment pass, which holds a [2N + 1, chunk] real array
_RAY_BLOCK = 32  # rays sampled and cut together
_SIGMA_TOL = 1e-12  # a local exponent within this of -2 is not integrable
_triu_indices = functools.lru_cache(maxsize=16)(np.triu_indices)  # read-only, one per degree


@dataclass
class Rays:
    """A table of rays.  Ray i leaves ``origin[i]`` at the angle
    ``theta[i]`` and runs out to ``reach[i]``; ``w`` is its angular weight
    and ``budget`` its radial panels per level length.  A table of base
    rays or of tangency sub-rays lists the rays of each fan together, by
    angle.

    ``fan`` is 0 on the global fan, whose rays leave 0 for the circle, are
    sampled densely about every center and leave the patch discs to the
    patch fans, and i on the patch fan of center i - 1, whose rays are
    sampled on a log-r grid and whose panel at the pole integrates r^sigma
    exactly, ``sigma`` the center's local exponent.  ``nu`` is the enforced
    vanishing order that the fan's moments factor out.
    """

    fan: np.ndarray
    theta: np.ndarray
    w: np.ndarray
    origin: np.ndarray
    reach: np.ndarray
    sigma: np.ndarray
    nu: np.ndarray
    budget: np.ndarray

    def take(self, idx, **columns) -> "Rays":
        """The rays ``idx``, with the given columns replaced."""
        return Rays(**{k: columns[k] if k in columns else v[idx] for k, v in vars(self).items()})


def _concat(tables):
    """The rays of the tables, in their order, as one table."""
    return Rays(*map(np.concatenate, zip(*(vars(t).values() for t in tables))))


@dataclass
class RegionNodes:
    """Nodes, their offsets from the origin of their ray, area weights and
    band indices, sorted by fan and, within a fan, by band.

    ``x`` is ``zeta`` on the global fan and zeta - c on the patch fan of a
    center c, where it is the more accurate of the two.  Fan f holds the
    nodes fan_start[f]:fan_start[f + 1]; its rays leave ``origin[f]``, and
    its moments factor out the vanishing order ``nu[f]``.  A run of
    consecutive nodes on one ray and in one band starts at each index of
    ``starts``, on the ray in direction ``e``.  ``underflow`` marks the
    bands that lost a node whose area weight underflowed.
    """

    zeta: np.ndarray
    x: np.ndarray
    area_w: np.ndarray
    band: np.ndarray
    n_bands: int
    underflow: np.ndarray
    fan_start: np.ndarray
    origin: np.ndarray
    nu: np.ndarray
    starts: np.ndarray
    e: np.ndarray


def _smooth_step(x):
    # C^4 step: 0 at 0, 1 at 1, first four derivatives vanish at both ends
    return x**5 * (126 + x * (-420 + x * (540 + x * (-315 + x * 70))))


def _chi(dist, radius):
    """C^4 bump: 1 for dist <= radius/2, 0 for dist >= radius."""
    u = np.asarray(dist, dtype=float) / radius
    out = np.ones_like(u)
    out[u >= 1.0] = 0.0
    ramp = (u > 0.5) & (u < 1.0)
    out[ramp] = 1.0 - _smooth_step(2.0 * u[ramp] - 1.0)
    return out


def _band_of(cuts, vals):
    """Band index of psi values; -1 or len(cuts) - 1 outside every band."""
    return np.searchsorted(cuts, -vals, side="left") - 1


def _fan_reaches(patches):
    """The reach of each patch fan: min(0.1, (1 - |c|)/2, 0.45 times the
    distance to the nearest other center)."""
    reaches = [min([0.1, (1.0 - abs(p.center)) / 2.0]
                   + [0.45 * abs(p.center - q.center) for q in patches if q is not p])
               for p in patches]
    if min(reaches, default=1.0) <= 0:
        worst = patches[reaches.index(min(reaches))].center
        raise BadInputError(f"patch center {worst} too close to the boundary")
    return reaches


@functools.lru_cache(maxsize=64)
def _pole_rule(sigma):
    """Gauss-Jacobi rule (u, w) on (0, 2) for int_0^2 u^(sigma + 1) g(u) du,
    exact for g a polynomial of degree 19, with the weight taken as
    w u^(-sigma) times the Gauss-Legendre weight's u: a panel [0, 2h] of a
    ray then has nodes r = h u and area weights h^2 w, as ``_panel_nodes``
    forms them.  The nodes come from the eigenvalues of the Jacobi matrix
    of P^(0, sigma + 1) (Golub & Welsch, Math. Comp. 23, 1969).
    """
    b = sigma + 1.0
    k = np.arange(1, _GL10[0].size, dtype=float)
    s = 2.0 * k + b
    diag = np.r_[b / (b + 2.0), b * b / (s * (s + 2.0))]
    off = 2.0 * k * (k + b) / s / np.sqrt((s + 1.0) * (s - 1.0))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return 1.0 + x, 2.0 ** (b + 1.0) / (b + 1.0) * v[0] ** 2 * (1.0 + x) ** (-sigma)


# -- the ray table -------------------------------------------------------------

def _ray_table(patches, mesh, first):
    """The base rays of ``mesh`` at the angles (k + first) 2 pi / n of each
    fan: the global fan of ``mesh.angular`` rays with the radial budget
    ``mesh.radial`` / 10, then one patch fan per center (PatchSpec) of
    ``mesh.patch_angular`` rays out to its reach, with
    ``mesh.patch_radial`` / 8 panels per level length."""
    fans = [(mesh.angular, 0j, 1.0, math.nan, 0, max(4, mesh.radial // 10))]
    fans += [(mesh.patch_angular, p.center, r, p.exponent, p.order, -(-mesh.patch_radial // 8))
             for p, r in zip(patches, _fan_reaches(patches))]
    counts, *columns = zip(*fans)
    return Rays(np.repeat(np.arange(len(fans)), counts),
                np.concatenate([(np.arange(n) + first) * (2 * math.pi / n) for n in counts]),
                np.repeat([2 * math.pi / n for n in counts], counts),
                *(np.repeat(c, counts) for c in columns))


def _base_pieces(psi_fn, tables, cuts, centers):
    """(table, its ``_ray_pieces``) for each ray table, from one search over
    the union of their rays: each (fan, angle) is searched once, so a
    half-resolution table whose rays are every other fine ray needs no
    search of its own."""
    both = _concat(tables)
    order = np.lexsort((both.theta, both.fan))
    first = _run_starts(both.fan[order], both.theta[order])  # of each distinct (fan, angle)
    row = np.empty(order.size, dtype=int)  # the union row of each ray of every table
    row[order] = np.searchsorted(first, np.arange(order.size), side="right") - 1
    union = both.take(order[first])
    found = _ray_pieces(psi_fn, union, cuts, centers)
    out = []
    for t, rows in zip(tables, np.split(row, np.cumsum([t.fan.size for t in tables[:-1]]))):
        slot = np.full(union.fan.size, -1)  # the table's pieces, numbered on its rays
        slot[rows] = np.arange(rows.size)
        ray = slot[found[0]]
        out.append((t, (ray[ray >= 0], *(a[ray >= 0] for a in found[1:]))))
    return out


# -- cuts and panels -------------------------------------------------------------

def _sample_rays(psi_fn, thetas, centers, n_samples):
    """Radial psi samples along each global ray, clustered near center
    approaches, ending on the circle (psi = 0), so no level t > 0 crosses
    unbracketed."""
    base = np.arange(1, n_samples + 2) / (n_samples + 1.0)
    cols = [np.broadcast_to(base, (thetas.size, base.size))]
    conj_e = np.exp(-1j * thetas)[:, None]
    for c in centers:
        rstar = np.real(conj_e * c)
        dperp = np.maximum(np.abs(np.imag(conj_e * c)), 1e-7)
        scales = 2.0 ** np.arange(0, 7)[None, :]
        offs = dperp * scales
        cand = np.concatenate([rstar, rstar - offs, rstar + offs], axis=1)
        cols.append(np.clip(cand, 1e-9, 1 - 1e-12))
    rs = np.sort(np.concatenate(cols, axis=1), axis=1)
    vals = psi_fn(rs * np.exp(1j * thetas)[:, None])
    return rs, vals


def _sample_fan(psi_fn, thetas, finite, reach):
    """Radial psi samples along patch fan rays, for the thresholds ``finite``:
    r = 0, a grid uniform in log r from _FAN_DEPTH of the reach up to it,
    and _FAN_UNIFORM samples uniform in r.

    psi = 2p log r + O(1) near the center, so a threshold that crosses
    between 0 and the first positive sample crosses deeper: the grid is
    deepened (its depth in log r doubled) until no ray has such a crossing,
    or until its first sample is the smallest normal float, below which a
    crossing is not resolved.
    """
    log_top = math.log(reach)
    log_lo = log_top + math.log(_FAN_DEPTH)
    while True:
        log_lo = max(log_lo, math.log(_TINY))
        n_log = math.ceil((log_top - log_lo) / _FAN_LOG_STEP)
        rs = np.sort(np.r_[0.0, np.exp(np.linspace(log_lo, log_top, n_log + 1)[:-1]),
                           reach * np.arange(1, _FAN_UNIFORM + 1) / _FAN_UNIFORM])
        vals = psi_fn(rs * np.exp(1j * thetas)[:, None])
        below = np.searchsorted(finite, -vals[:, :2])
        if log_lo <= math.log(_TINY) or np.array_equal(below[:, 0], below[:, 1]):
            return np.broadcast_to(rs, vals.shape), vals
        log_lo = 2.0 * log_lo - log_top


def _bisect_cuts(psi_fn, origin, e_ray, lo, hi, f_lo, f_hi, thresh):
    """The crossings of psi(origin + r e) + thresh = 0 on brackets [lo, hi]
    whose ends have the values f_lo and f_hi, one negative and one not.

    Illinois steps (regula falsi that halves the value of an end kept twice
    in a row; Dowell & Jarratt, BIT 11, 1971) shrink each bracket until it
    spans at most _CUT_ULPS ulps, and only the brackets not yet converged
    are evaluated.  A secant point within _CUT_ULPS ulps of an end is moved
    that far inward, so a bracket whose end sits on the root collapses too;
    a non-finite one is replaced by the midpoint.  Bisection then finishes
    every bracket and stops once no bracket moves, as every further step
    would repeat the same decisions.
    """
    neg_lo = f_lo < 0
    lo, hi, f_lo, f_hi = (np.array(x, dtype=float) for x in (lo, hi, f_lo, f_hi))
    kept_hi = np.zeros(lo.size, dtype=np.int8)  # the last step kept hi (1) or lo (-1)
    act = np.arange(lo.size)
    for _ in range(_BISECT_ITERS):
        act = act[hi[act] - lo[act] > _CUT_ULPS * np.spacing(hi[act])]
        if not act.size:
            break
        a, b, fa, fb = lo[act], hi[act], f_lo[act], f_hi[act]
        nudge = np.minimum(_CUT_ULPS * np.spacing(b), 0.5 * (b - a))
        x = b - fb * ((b - a) / (fb - fa))
        x = np.where(np.isfinite(x), np.clip(x, a + nudge, b - nudge), 0.5 * (a + b))
        fx = psi_fn(x * e_ray[act], origin[act]) + thresh[act]
        left = (fx < 0) == neg_lo[act]  # x replaces lo, hi is kept
        fb = np.where(left & (kept_hi[act] == 1), 0.5 * fb, fb)
        fa = np.where(~left & (kept_hi[act] == -1), 0.5 * fa, fa)
        lo[act], f_lo[act] = np.where(left, x, a), np.where(left, fx, fa)
        hi[act], f_hi[act] = np.where(left, b, x), np.where(left, fb, fx)
        kept_hi[act] = np.where(left, 1, -1)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        fm = psi_fn(mid * e_ray, origin) + thresh
        go_right = (fm < 0) == neg_lo
        if not np.where(go_right, mid != lo, mid != hi).any():
            break
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)


def _ray_pieces(psi_fn, rays, cuts, centers, bands=None):
    """Band pieces of the rays of a table: arrays (ray, r_lo, r_hi, band,
    level_len), r measured from the ray's origin.

    psi_fn(x, origin) gives psi at origin + x (weights.WeightKernel.psi).
    ``centers`` lists the singular centers the global rays are sampled
    about; patch fan rays are sampled by _sample_fan.  The rays of each fan
    are sampled in blocks of _RAY_BLOCK to bound memory, and the brackets of
    every block of every fan are bisected together.  Each piece between
    consecutive breakpoints is tagged with its band by psi at its midpoint;
    pieces outside every band are dropped.  ``level_len`` is the length, on
    the piece's ray, of the level of its band (that band and the bands
    inside it).  psi < 0 on the open disc, so thresholds t <= 0 are never
    cut: without a positive one, each ray is one piece and is not sampled.
    Global rays from the only center (``centers`` is [0]) cross each level
    once, since psi = 2p G(., c) rises along them, so any sample grid
    brackets every crossing and _ONE_CENTER_SAMPLES samples suffice; other
    global rays, a lone center off 0 among them, take _RAY_SAMPLES.

    With ``bands`` (a boolean [fan, band] mask) the rays of fan f are cut
    only at the two thresholds of each band marked on f: the pieces and
    level lengths of the marked bands are the same, and a piece of another
    band may span several bands.
    """
    n_bands = cuts.size - 1
    n = rays.fan.size
    positive = np.isfinite(cuts) & (cuts > 0)
    e = np.exp(1j * rays.theta)
    n_samples = _ONE_CENTER_SAMPLES if list(centers) == [0] else _RAY_SAMPLES
    found = []  # (ray, r_lo, r_hi, psi + t at r_lo and r_hi, t) per threshold t a pair brackets
    for f0, f1 in _runs(rays.fan):
        fan, origin = rays.fan[f0], rays.origin[f0]
        finite = cuts[positive if bands is None else
                      positive & (np.r_[bands[fan], False] | np.r_[False, bands[fan]])]
        for i0 in range(f0, f1 if finite.size else f0, _RAY_BLOCK):
            block = rays.theta[i0:min(i0 + _RAY_BLOCK, f1)]
            rs, vals = (_sample_rays(psi_fn, block, centers, n_samples) if fan == 0 else
                        _sample_fan(lambda x: psi_fn(x, origin), block, finite, rays.reach[f0]))
            # psi + t < 0 exactly when -psi > t, so a sample pair brackets the
            # thresholds between the counts of thresholds below -psi at its ends
            below = np.searchsorted(finite, -vals)
            a, b = below[:, :-1], below[:, 1:]
            r, c = np.nonzero(a != b)
            count = np.abs(b - a)[r, c]
            pair = np.repeat(np.arange(r.size), count)
            t = finite[np.minimum(a, b)[r, c][pair] + np.arange(pair.size)
                       - (np.cumsum(count) - count)[pair]]
            r, c = r[pair], c[pair]
            found.append((r + i0, rs[r, c], rs[r, c + 1], vals[r, c] + t, vals[r, c + 1] + t, t))
    ray, brk = [np.arange(n), np.arange(n)], [np.zeros(n), rays.reach]
    if found:
        ray_idx, *brackets = (np.concatenate(x) for x in zip(*found))
        ray.append(ray_idx)
        brk.append(_bisect_cuts(psi_fn, rays.origin[ray_idx], e[ray_idx], *brackets))
    ray, brk = np.concatenate(ray), np.concatenate(brk)
    order = np.lexsort((brk, ray))
    ray, brk = ray[order], brk[order]
    lo, hi = brk[:-1], brk[1:]
    ok = (ray[:-1] == ray[1:]) & (hi - lo > _CUT_ULPS * np.spacing(hi))
    ray, lo, hi = ray[:-1][ok], lo[ok], hi[ok]
    band = _band_of(cuts, psi_fn(0.5 * (lo + hi) * e[ray], rays.origin[ray]))
    keep = (band >= 0) & (band < n_bands)
    ray, lo, hi, band = ray[keep], lo[keep], hi[keep], band[keep]
    length = np.zeros((n, n_bands))
    np.add.at(length, (ray, band), hi - lo)
    level_len = np.cumsum(length[:, ::-1], axis=1)[:, ::-1]
    return ray, lo, hi, band, level_len[ray, band]


def _panels(rays, ray, lo, hi, level_len, circles):
    """Gauss-Legendre panels on radial pieces: arrays (mid, half, piece).

    Piece i is [lo[i], hi[i]] on the ray ray[i] of the table ``rays``.  It
    is split where the ray crosses a patch circle (radius and half radius),
    ``circles[j - 1]`` the (center, reach) of patch fan j: a global ray at
    every circle, a patch fan ray at its own, taken about its origin.  Each
    sub-piece gets ceil(budget * length / level_len) equal panels, budget
    the ray's, and at least 2 where it lies in a blending annulus (half
    radius to radius), whose C^4 mask one panel of the coarse budget does
    not resolve.  A global sub-piece inside a half-radius disc, where its
    mask 1 - sum chi is 0, gets no panel.  On a patch fan ray a panel
    [a, b] with 0 < a < b / 2, which reaches toward the pole at 0, is split
    at b / 2, b / 4, ... down to a, so that no panel lies closer to the pole
    than its own width.  A panel is its midpoint and half width and the
    index of its piece.
    """
    fan = rays.fan[ray]
    conj_e = np.exp(-1j * rays.theta[ray])
    edges, met = [lo, hi], []
    for j, (c, radius) in enumerate(circles, 1):
        # circle j meets the global rays, and the rays of its fan, which leave its center
        own = fan == j
        meets = own | (fan == 0)
        c, c2 = np.where(own, 0j, c), np.where(own, 0.0, abs(c) ** 2)
        met.append((meets, c))
        b = (c * conj_e).real
        for rho in (radius, radius / 2):
            disc = b * b - (c2 - rho**2)
            s = np.sqrt(np.maximum(disc, 0.0))
            for x in (b - s, b + s):
                inside = meets & (disc > 0) & (x > lo + 1e-14) & (x < hi - 1e-14)
                edges.append(np.where(inside, x, np.nan))
    edges = np.sort(np.stack(edges, axis=1), axis=1)  # lo, splits, hi, then nan
    piece, col = np.nonzero(edges[:, 1:] > edges[:, :-1])
    s_lo, s_hi = edges[piece, col], edges[piece, col + 1]
    # a sub-piece lies wholly inside or outside each annulus: test its midpoint
    s_mid = 0.5 * (s_lo + s_hi) * np.exp(1j * rays.theta[ray[piece]])
    blend = np.zeros(piece.size, dtype=bool)
    inside = np.zeros(piece.size, dtype=bool)
    for (meets, c), (_, radius) in zip(met, circles):
        dist = np.abs(s_mid - c[piece])
        blend |= meets[piece] & (dist > radius / 2) & (dist < radius)
        inside |= (fan[piece] == 0) & (dist <= radius / 2)
    piece, s_lo, s_hi, blend = piece[~inside], s_lo[~inside], s_hi[~inside], blend[~inside]
    n_pan = np.maximum(np.where(blend, 2, 1),
                       np.ceil(rays.budget[ray[piece]] * ((s_hi - s_lo) / level_len[piece]))
                       ).astype(int)
    sub = np.repeat(np.arange(n_pan.size), n_pan)
    j = np.arange(sub.size) - (np.cumsum(n_pan) - n_pan)[sub]
    step = ((s_hi - s_lo) / n_pan)[sub]
    p_lo = j * step + s_lo[sub]
    p_hi = np.where(j + 1 == n_pan[sub], s_hi[sub], (j + 1) * step + s_lo[sub])
    owner = piece[sub]
    ratio = p_hi / np.where(p_lo > 0, p_lo, p_hi)
    n_geo = np.where(fan[owner] > 0, np.maximum(1, np.ceil(np.log2(ratio))), 1).astype(int)
    sub = np.repeat(np.arange(n_geo.size), n_geo)
    k = np.arange(sub.size) - (np.cumsum(n_geo) - n_geo)[sub]
    top = p_hi[sub]
    p_hi = np.ldexp(top, -k)
    p_lo = np.where(k + 1 == n_geo[sub], p_lo[sub], np.ldexp(top, -k - 1))
    return 0.5 * (p_hi + p_lo), 0.5 * (p_hi - p_lo), owner[sub]


def _panel_nodes(mid, half, ray, rays, circles):
    """Nodes in the coordinate of their ray's origin and polar area weights
    of the panels on the rays ``ray`` of the table, the number of nodes each
    panel keeps, and whether it lost one to underflow: (x, weight, kept,
    lost).

    On the global fan patch neighborhoods go to the patch fans via the C^4
    partition, so the weights carry the complementary mask 1 - chi.
    ``_panels`` splits every ray at each patch circle and half-radius circle
    and leaves out the half-radius discs, so a panel lies wholly outside a
    circle (mask 1) or in its blending annulus: its midpoint tells which,
    and chi is evaluated on annulus panels only.  On a patch fan the
    weights carry chi itself, of the ray's reach, and a panel that starts at
    the pole takes the rule of ``_pole_rule`` for the ray's sigma, or raises
    NonIntegrableWeightError where sigma <= -2.  Nodes whose weight is below
    the smallest normal float (a level about 1e-154 wide about a center) are
    dropped, and their panels marked lost.
    """
    gx, gw = _GL10
    fan, e = rays.fan[ray], np.exp(1j * rays.theta[ray])
    w_half = rays.w[ray] * half
    r = mid[:, None] + half[:, None] * gx[None, :]
    wgt = w_half[:, None] * gw[None, :] * r  # polar Jacobian r
    at_pole = np.flatnonzero((fan > 0) & (mid == half))  # patch fan panels [0, 2 half]
    sigma = rays.sigma[ray[at_pole]]
    if np.any(sigma + 2.0 <= _SIGMA_TOL):
        raise NonIntegrableWeightError(
            f"weighted integrand exponent {sigma.min():g} diverges at a center inside the "
            "region; the weight is integrable only against forms with enforced vanishing")
    for s in set(sigma.tolist()):
        on = at_pole[sigma == s]
        u, w = _pole_rule(s)
        r[on] = half[on, None] * u[None, :]
        wgt[on] = (w_half * half)[on, None] * w[None, :]
    x = r * e[:, None]
    mask = np.ones(r.shape)
    for c, radius in circles:
        dist = np.abs(mid * e - c)
        blend = np.flatnonzero((fan == 0) & (dist > radius / 2) & (dist < radius))
        mask[blend] *= 1.0 - _chi(np.abs(x[blend] - c), radius)
    reach = rays.reach[ray]
    blend = np.flatnonzero((fan > 0) & (mid > reach / 2))
    mask[blend] = _chi(r[blend], reach[blend, None])
    wgt *= mask
    keep = (mask > _MASK_FLOOR) & (wgt >= _TINY)
    return x[keep], wgt[keep], keep.sum(axis=1), np.any((mask > _MASK_FLOOR) & ~keep, axis=1)


def _region_panels(psi_fn, cuts, rays, pieces, centers, circles):
    """Panels of a region on the base rays ``rays`` with their
    ``_ray_pieces``, with per-band tangency refinement: (rays, mid, half,
    ray, band), the table extended by the sub-rays and the panels sorted by
    fan and, within a fan, by band; the arguments after ``pieces`` are those
    of ``_ray_pieces`` and ``_panels``.

    A ray whose piece count in some band differs from a neighbor's in its
    fan (the rays of a fan wrap around) is cut again on _TANGENT_SPLIT
    sub-rays, at the thresholds of the bands that differ on its fan, in one
    search over the sub-rays of every fan; the sub-rays carry only those
    bands, and the parent ray keeps the rest.  A sub-ray near a tangency
    crosses a short chord of its level, so its pieces get the radial panel
    density of the widest base ray of their fan and band instead of the
    full budget per chord.
    """
    n, n_fans, n_bands = rays.fan.size, rays.fan.max() + 1, cuts.size - 1
    ray, lo, hi, band, level_len = pieces
    counts = np.zeros((n_bands, n), dtype=int)
    np.add.at(counts, (band, ray), 1)
    first = _run_starts(rays.fan)
    last = np.r_[first[1:], n] - 1
    prev, next_ = np.arange(n) - 1, np.arange(n) + 1
    prev[first], next_[last] = last, first  # the rays of a fan wrap around
    refine = (counts != counts[:, prev]) | (counts != counts[:, next_])
    stay = ~refine[band, ray]
    pieces = [(ray[stay], lo[stay], hi[stay], band[stay], level_len[stay])]
    parents = np.flatnonzero(refine.any(axis=0))
    if parents.size:
        widest = np.zeros((n_fans, n_bands))
        np.maximum.at(widest, (rays.fan[ray], band), level_len)
        marked = np.zeros((n_fans, n_bands), dtype=bool)
        marked[rays.fan[first]] = np.logical_or.reduceat(refine, first, axis=1).T
        offsets = (np.arange(_TANGENT_SPLIT) + 0.5) / _TANGENT_SPLIT - 0.5
        w = rays.w[parents][:, None]
        sub = rays.take(np.repeat(parents, _TANGENT_SPLIT),
                        theta=(rays.theta[parents][:, None] + offsets[None, :] * w).ravel(),
                        w=np.repeat(w / _TANGENT_SPLIT, _TANGENT_SPLIT))
        ray, lo, hi, band, level_len = _ray_pieces(psi_fn, sub, cuts, centers, bands=marked)
        keep = refine[band, parents[ray // _TANGENT_SPLIT]]
        ray, band = ray[keep], band[keep]
        pieces.append((n + ray, lo[keep], hi[keep], band,
                       np.maximum(level_len[keep], widest[sub.fan[ray], band])))
        rays = _concat([rays, sub])
    ray, lo, hi, band, level_len = (np.concatenate(x) for x in zip(*pieces))
    order = np.lexsort((band, rays.fan[ray]))
    mid, half, piece = _panels(rays, ray[order], lo[order], hi[order], level_len[order], circles)
    return rays, mid, half, ray[order][piece], band[order][piece]


def _run_starts(*keys):
    """Indices where a run of equal entries of all the key arrays starts."""
    change = np.zeros(keys[0].size, dtype=bool)
    change[:1] = True
    for k in keys:
        change[1:] |= k[1:] != k[:-1]
    return np.flatnonzero(change)


def build_region(psi_fn, patches, config, cuts, base=None):
    """Band-tagged nodes and area weights for the bands of the cut list.

    ``cuts`` is the sorted array t_0 < ... < t_K; ``patches`` lists the
    singular centers (PatchSpec).  psi_fn(x, origin) gives psi at origin +
    x, reading the Green term of a center at the origin from x
    (weights.WeightKernel.psi).  The region is the ray table of ``config``
    (``_ray_table``): the global fan and one patch fan per center, out to
    the center's reach; a piece outside every band is dropped.  The
    region records where each run of its nodes on one ray, in one band,
    starts.  ``base`` (a ray table and its ``_ray_pieces``, from a search
    shared with another mesh) gives the base rays of a mesh of a two-level
    build; by default the region is a fine mesh of its own.
    """
    centers = [p.center for p in patches]
    circles = list(zip(centers, _fan_reaches(patches)))
    if base is None:
        base = _base_pieces(psi_fn, [_ray_table(patches, config, 0.5)], cuts, centers)[0]
    fans = _run_starts(base[0].fan)  # the first ray of each fan
    rays, mid, half, ray, band = _region_panels(psi_fn, cuts, *base, centers, circles)
    # nodes are written chunk by chunk into arrays sized for every panel node,
    # so no full-size temporary is held beside them
    size = mid.size * _GL10[0].size
    zeta = np.empty(size, dtype=complex)
    x = np.empty(size, dtype=complex)
    wgt = np.empty(size)
    node_band = np.empty(size, dtype=np.int32)
    underflow = np.zeros(cuts.size - 1, dtype=bool)
    kept = np.empty(mid.size, dtype=np.int64)
    step = max(1, _CHUNK // _GL10[0].size)
    pos = 0
    for i0 in range(0, mid.size, step):
        sl = slice(i0, i0 + step)
        x_c, w_c, kept[sl], lost = _panel_nodes(mid[sl], half[sl], ray[sl], rays, circles)
        underflow[band[sl][lost]] = True
        end = pos + x_c.size
        x[pos:end], wgt[pos:end] = x_c, w_c
        node_band[pos:end] = np.repeat(band[sl], kept[sl])
        zeta[pos:end] = np.repeat(rays.origin[ray[sl]], kept[sl]) + x_c
        pos = end
    first = _run_starts(ray, band)
    start = (np.cumsum(kept) - kept)[first]
    # a run whose panels keep no node shares its start with the next run
    nonempty = start < np.r_[start[1:], pos]
    per_fan = np.bincount(rays.fan[ray], weights=kept, minlength=fans.size).astype(int)
    return RegionNodes(zeta=zeta[:pos], x=x[:pos], area_w=wgt[:pos], band=node_band[:pos],
                       n_bands=cuts.size - 1, underflow=underflow,
                       fan_start=np.r_[0, np.cumsum(per_fan)],
                       origin=base[0].origin[fans], nu=base[0].nu[fans],
                       starts=start[nonempty], e=np.exp(1j * rays.theta[ray[first[nonempty]]]))


# -- assembly ----------------------------------------------------------------

def _coeff_matrix(basis):
    dmax = max(len(b) for b in basis)
    P = np.zeros((dmax, len(basis)), dtype=complex)
    for j, b in enumerate(basis):
        P[: len(b), j] = b
    return P


def _runs(*keys):
    """(start, stop) of each run of equal entries of all the key arrays."""
    starts = _run_starts(*keys)
    return zip(starts.tolist(), np.r_[starts[1:], keys[0].size].tolist())


def _taylor_shift(P, center):
    """Coefficients in x = zeta - center of the polynomials whose zeta
    coefficients are the columns of P.

    Horner's rule in polynomial arithmetic, p = (a_d (x + c) + a_(d-1)) (x + c)
    + ...; at degree 64 and |c| near 0.57 its shifted values were about 1.5x
    more accurate than those of the product with the binomial matrix
    c^(n-k) C(n, k).
    """
    Q = np.zeros(P.shape, dtype=complex)
    R = np.empty_like(Q)
    for a in P[::-1]:
        np.multiply(Q, center, out=R)  # R = (x + c) Q + a
        R[1:] += Q[:-1]
        R[0] += a
        Q, R = R, Q
    return Q


def gram_on_nodes(nodes, kernel, gain, basis, shifted=None):
    """Hermitian Grams of the basis under 2 e^{-phi} c(-psi), one per band.

    Returns an array [n_bands, n_basis, n_basis]; entry [k][l][m] is
    conjugate-linear in l.  One pass over the nodes sums the weighted
    monomial moments M_f,k[i, j] = sum w conj(x)^i x^j of every fan f and
    band k, each fan in its own coordinate x, and the Gram is the sum over
    the fans of Q_f^H M_f,k Q_f, taken in one product.  On the global fan
    Q_f is P, the basis coefficients in its monomials; on a patch fan Q_f
    holds the local coefficients in x = zeta - center, Taylor-shifted, with
    the enforced vanishing order nu dropped from the basis, moved into the
    log-space weight |x|^(2 nu) and padded with zero rows.

    A node at distance r from its origin on the ray of direction
    e^{i theta} has conj(x)^i x^j = r^(i+j) e^{i(j-i)theta}: each run on one
    ray sums S_m = sum w r^m, m <= 2d - 2, and M_ij = sum over the runs
    e^{i(j-i)theta} S_(i+j), so the work per node grows with the degree, not
    its square.  The sums are taken in node chunks, with psi and phi + psi
    from one kernel call per chunk, ``psi_and_phi_plus_psi``, which reads
    each node's offset from its fan's origin; a run that straddles a chunk
    boundary adds up its pieces.  The product of the radial sums and the
    angular factors is taken in reals, on their (re, im) pairs, one (fan,
    band) at a time.  ``shifted`` (a dict, center -> shifted coefficients)
    keeps each center's Taylor shift of this basis, so the meshes of one
    assembly compute it once.
    """
    P = _coeff_matrix(basis)
    d = P.shape[0]
    shifted = {} if shifted is None else shifted
    starts, n = nodes.starts, nodes.x.size
    S = np.zeros((starts.size, 2 * d - 1))
    for i0 in range(0, n, _GRAM_CHUNK):
        i1 = min(i0 + _GRAM_CHUNK, n)
        x = nodes.x[i0:i1]
        # the fan of each node; a chunk inside one fan passes the kernel a scalar origin
        fan = np.searchsorted(nodes.fan_start, (i0, i1 - 1), side="right") - 1
        fan = fan[0] if fan[0] == fan[1] else np.searchsorted(
            nodes.fan_start, np.arange(i0, i1), side="right") - 1
        psi, phi_plus_psi = kernel.psi_and_phi_plus_psi(x, nodes.origin[fan])
        log_w = _LOG2 + psi - phi_plus_psi + eval_log_c(gain, -psi)
        if nodes.nu[fan].any():
            log_w = log_w + 2.0 * nodes.nu[fan] * np.log(np.abs(x))
        r = np.abs(x)
        R = np.empty((2 * d - 1, x.size))  # row m holds w r^m
        R[0] = nodes.area_w[i0:i1] * np.exp(log_w)
        for m in range(1, 2 * d - 1):
            np.multiply(R[m - 1], r, out=R[m])
        a = np.searchsorted(starts, i0, side="right") - 1  # runs a:b meet the chunk
        b = np.searchsorted(starts, i1, side="left")
        S[a:b] += np.add.reduceat(R, np.maximum(starts[a:b], i0) - i0, axis=1).T
    M = np.zeros((nodes.origin.size, nodes.n_bands, d, d), dtype=complex)
    run_fan = np.searchsorted(nodes.fan_start, starts, side="right") - 1
    run_band = nodes.band[starts]
    for s, t in _runs(run_fan, run_band):
        m = d - nodes.nu[run_fan[s]]
        if m > 0:
            i, j = _triu_indices(int(m))
            ang = np.vander(nodes.e[s:t], m, increasing=True)
            upper = (S[s:t, :2 * m - 1].T @ ang.view(float)).view(complex)[i + j, j - i]
            M[run_fan[s], run_band[s], j, i] = upper.conj()  # the diagonal is then upper's
            M[run_fan[s], run_band[s], i, j] = upper
    Q = np.zeros((nodes.origin.size, d, len(basis)), dtype=complex)
    for f, (c, nu) in enumerate(zip(nodes.origin.tolist(), nodes.nu.tolist())):
        if c and c not in shifted:
            shifted[c] = _taylor_shift(P, c)
        Q[f, :max(d - nu, 0)] = (shifted[c] if c else P)[nu:]
    M = Q.conj().swapaxes(1, 2)[:, None] @ M  # Q_f^H M_f,k, held in place of M
    H = (M @ Q[:, None]).sum(axis=0)
    return 0.5 * (H + H.conj().transpose(0, 2, 1))


def integral_on_nodes(nodes, fn):
    """Sums of the rows of fn over the nodes with area weights, an array
    [band, row]; fn(zeta) returns the rows [row, node] of the full integrand
    apart from the polar Jacobian and blending masks."""
    z = nodes.zeta
    w = nodes.area_w
    total = np.zeros((nodes.n_bands, len(fn(z[:0]))), dtype=complex)
    for i0 in range(0, z.size, _CHUNK):
        vals = w[i0:i0 + _CHUNK] * fn(z[i0:i0 + _CHUNK])
        for s, e in _runs(nodes.band[i0:i0 + _CHUNK]):
            total[nodes.band[i0 + s]] += vals[:, s:e].sum(axis=1)
    return total


def _two_level(psi_fn, evaluate, patches, config, ts, top=math.inf, knots=()):
    """evaluate(nodes) over each level, with a two-level error estimate.

    The levels are {-top <= psi < -t} for t in ``ts``, each t in [0, top):
    the sublevel sets {psi < -t} under top = inf, and the band
    {-t1 <= psi < -t2} as ts = (t2,) under top = t1.  The cut list is the
    levels' t, the knots between them and top, and top.  One region per
    mesh level serves all of them: evaluate returns one value per band, and
    a level's value is the sum over its bands.  ``knots`` (the gain's) are
    extra cuts inside the region, on every fan, so no radial panel
    straddles a kink of c(-psi); they define bands but no level.  Returns
    arrays (value, err) with one entry per level, in the order of ``ts``;
    err is the max entrywise difference from the half-resolution mesh when
    config.levels is 2, whose fans have the same reaches and take every
    other ray of the fine fans.  One cut search over the union of both
    meshes' ray tables (``_base_pieces``) serves both meshes, and each mesh
    cuts its own radial panels and tangency sub-rays.  Each mesh's nodes
    are built, evaluated and freed before the next mesh is built.  A level
    with no node, a node whose area weight underflowed, or a non-finite
    value (a weight that overflows) on either mesh is a NumericalError: a
    level about 1e-154 wide about a center (t above about 700 p for a point
    of mass p) is refused so.
    """
    ts, top = [float(t) for t in ts], float(top)
    if not ts or not all(t >= 0 for t in ts):
        raise BadInputError("sublevel parameter t must be >= 0")
    if not all(t < top for t in ts):
        raise BadInputError(f"band needs t1 > t2 >= 0, got ({top:.6g}, {max(ts):.6g})")
    inner = [float(k) for k in knots if min(ts) < k < top]
    cuts = np.array(sorted(set(ts + inner)) + [top])
    level = np.searchsorted(cuts, ts)
    where = [f"in {{psi < -t}} at t = {t:.6g}" if top == math.inf
             else f"in the band ({top:.6g}, {t:.6g})" for t in ts]
    meshes = [config]
    if config.levels == 2:
        meshes.append(config.halved())
        if any(getattr(meshes[1], f) >= getattr(config, f)
               for f in ("angular", "radial", "patch_angular", "patch_radial")):
            raise BadInputError(
                "a two-level mesh needs every count above the half-resolution floors "
                "(angular 32, radial 40, patch_angular 16, patch_radial 16), else its "
                "error estimate reads 0; set levels: 1 to skip the estimate")
    tables = [_ray_table(patches, mesh, 0.25 if i else 0.5) for i, mesh in enumerate(meshes)]

    def on_mesh(i):
        """Checked values of the requested levels on mesh i, whose nodes die on return."""
        nodes = build_region(psi_fn, patches, meshes[i], cuts, base.pop(0))  # fine, then coarse
        count = _level_sums(np.bincount(nodes.band, minlength=nodes.n_bands))[level]
        lost = _level_sums(nodes.underflow)[level]
        val = _level_sums(evaluate(nodes))[level]
        for n, under, v, label in zip(count, lost, val, where):
            if n == 0:
                raise NumericalError(f"no quadrature node {label}: "
                                     "the mesh cannot resolve this level")
            if under:
                raise NumericalError(f"quadrature weights underflow {label}: "
                                     "the level is too deep about a center")
            if not np.all(np.isfinite(v)):
                raise NumericalError(f"non-finite quadrature values {label}: "
                                     "the weight overflows on the region")
        return val

    with np.errstate(over="ignore", invalid="ignore"):
        base = _base_pieces(psi_fn, tables, cuts, [p.center for p in patches])
        val = on_mesh(0)
        err = np.zeros(level.size)
        if config.levels == 2:
            diff = np.abs(val - on_mesh(1))
            err = diff.reshape(diff.shape[0], -1).max(axis=1)
    return val, err


def _level_sums(per_band):
    """Values over the levels: suffix sums of the band values."""
    return np.cumsum(per_band[::-1], axis=0)[::-1]


def assembled_gram(kernel, gain, basis, patches, config, *, ts=(0.0,), top=math.inf):
    """Two-level Grams of the basis on the levels ``ts`` under ``top``, one
    per level, as _two_level returns them; the region is cut at the gain's
    knots as well.  Both meshes share the Taylor-shifted basis of each
    center."""
    shifted = {}
    return _two_level(kernel.psi,
                      lambda nodes: gram_on_nodes(nodes, kernel, gain, basis, shifted=shifted),
                      patches, config, ts, top, gain._table.t)


def assembled_integral(psi_fn, fn, patches, config, *, ts=(0.0,)):
    """Integrals of the rows of fn over the sublevel sets {psi < -t}, t in
    ``ts``, as _two_level returns them (value [level, row], err the largest
    over the rows); one pass of fn per node chunk serves every row."""
    return _two_level(psi_fn, lambda nodes: integral_on_nodes(nodes, fn), patches, config, ts)
