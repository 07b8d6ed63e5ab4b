"""Adaptive polar quadrature over Green-sublevel regions of the unit disc.

A region is a sorted cut list t_0 < t_1 < ... < t_K in disc coordinates.
Band k is {-t_{k+1} <= psi < -t_k}, and level k is the union of the bands
j >= k, that is {-t_K <= psi < -t_k}.  With t_K = inf the levels are
sublevel sets: {psi < -t} is the cut list (t, inf), the sublevel sets of a
scan grid are (t_0, ..., t_{K-1}, inf), and the band {-t1 <= psi < -t2} is
(t2, t1).  The public entry points take ``ts=`` or ``band=`` and convert
them once, in the two-level driver.

A region is a list of fans of rays.  Fan 0, the global fan, casts rays
from zeta = 0 to the circle.  Each singular center c adds a patch fan,
whose rays run from c to its reach R = min(0.1, (1 - |c|)/2, 0.45 times
the distance to the next center).  A C^4 partition of unity hands the disc
|zeta - c| < R to the patch fan: its nodes carry the mask chi and the
global nodes 1 - sum chi.  A patch fan's nodes carry their offset
x = zeta - c, and psi and the weight read the center's own Green term from
x (weights.WeightKernel), so a level 1e-80 wide about c is resolved as well
as one 1e-2 wide.

Every fan is built by one path.  Each ray is cut at every threshold in one
pass (one sorted search of the psi samples, one secant search of all
crossings; psi < 0, so t <= 0 is never cut and a t = 0 ray is one
unsampled piece), each piece is tagged with its band and integrated with
Gauss-Legendre panels split at every patch circle and half-radius circle.
A Gram region is also cut at the gain's knots, which define bands but no
level, so no panel straddles a kink of c(-psi).  A global ray is sampled
densely, clustered about the centers; a patch fan ray, where psi is
2p log|x| plus a smooth term, on a grid uniform in log |x| down to its
deepest cut.  On a patch fan a panel that reaches toward the pole is split
geometrically, so each panel lies at least its own width from it, and the
panel that touches the pole takes a Gauss-Jacobi rule with the weight
r^(sigma + 1), sigma the center's local exponent, which integrates r^sigma
times any polynomial of degree 19 exactly.  A one-point problem is solved
in the chart that puts its point at 0 (weights.disc_chart).

Values are accumulated per band; level k sums the bands j >= k, and a Gram
is reduced from weighted monomial moments M, P^H M P with P the basis
coefficients.  Every region records where each run of nodes on one ray
(and in one band) starts, and a run sums 2N + 1 radial moments per node,
not (N + 1)^2.  A patch fan's moments are taken in x, with the basis
coefficients Taylor-shifted to its center and the enforced vanishing
order factored out of them into the weight.

The default mesh (``mesh.QuadratureConfig``, re-exported here) casts 256
global rays with about 64 radial nodes per level length, and 32 rays per
patch fan with 4 panels per level length, all in panels of 10 nodes whose
count per piece is rounded up, and at least 2 panels on a piece in a
blending annulus.  The error estimate is the difference from the
half-resolution mesh, which has every count halved: each of its fans
takes every other ray of the fine fan, the same trapezoid rule turned by a
quarter of its spacing, and reuses the fine mesh's cut search on those
rays, but keeps its own radial panels and tangency sub-rays.  Both meshes
of a Gram assembly share each center's Taylor-shifted basis.
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


@dataclass
class Fan:
    """The nodes ``sl`` of the rays cast from one origin: 0 for the global
    fan (``spec`` None), the center ``spec.center`` of a patch fan.  A run
    of consecutive nodes on one ray and in one band starts at each index of
    ``starts``, on the ray in direction ``e``."""

    spec: PatchSpec | None
    sl: slice
    starts: np.ndarray
    e: np.ndarray


@dataclass
class RegionNodes:
    """Nodes, their offsets from the origin of their fan, area weights and
    band indices; the global fan comes first and is sorted by band.

    ``x`` is ``zeta`` on the global fan and zeta - c on the patch fan of a
    center c, where it is the more accurate of the two.  ``underflow``
    marks the bands that lost a node whose area weight underflowed.
    """

    zeta: np.ndarray
    x: np.ndarray
    area_w: np.ndarray
    band: np.ndarray
    n_bands: int
    fans: list
    underflow: np.ndarray


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


# -- fans of rays ------------------------------------------------------------

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


def _bisect_cuts(psi_fn, e_ray, lo, hi, f_lo, f_hi, thresh):
    """The crossings of psi(r e) + thresh = 0 on brackets [lo, hi] whose ends
    have the values f_lo and f_hi, one negative and one not.

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
        fx = psi_fn(x * e_ray[act]) + thresh[act]
        left = (fx < 0) == neg_lo[act]  # x replaces lo, hi is kept
        fb = np.where(left & (kept_hi[act] == 1), 0.5 * fb, fb)
        fa = np.where(~left & (kept_hi[act] == -1), 0.5 * fa, fa)
        lo[act], f_lo[act] = np.where(left, x, a), np.where(left, fx, fa)
        hi[act], f_hi[act] = np.where(left, b, x), np.where(left, fb, fx)
        kept_hi[act] = np.where(left, 1, -1)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        fm = psi_fn(mid * e_ray) + thresh
        go_right = (fm < 0) == neg_lo
        if not np.where(go_right, mid != lo, mid != hi).any():
            break
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)


def _ray_pieces(psi_fn, thetas, cuts, centers, bands=None, reach=1.0):
    """Band pieces of the rays: arrays (ray, r_lo, r_hi, band, level_len).

    The ray at angle thetas[i] runs from 0 to ``reach``; psi_fn takes
    points in the fan's own coordinate.  ``centers`` lists the singular
    centers a global ray (reach 1, ending on the circle) is sampled about;
    None marks a patch fan, whose rays start at its center and are sampled
    by _sample_fan.  Rays are sampled in blocks of _RAY_BLOCK to bound
    memory, and the brackets of all blocks are bisected together.  Each
    piece between consecutive breakpoints is tagged with its band by psi at
    its midpoint; pieces outside every band are dropped.  ``level_len`` is
    the length, on the piece's ray, of the level of its band (that band and
    the bands inside it).  psi < 0 on the open disc, so thresholds t <= 0
    are never cut: without a positive one, each ray is one piece and is not
    sampled.  Global rays from the only center (``centers`` is [0]) cross
    each level once, since psi = 2p G(., c) rises along them, so any sample
    grid brackets every crossing and _ONE_CENTER_SAMPLES samples suffice;
    other global rays, a lone center off 0 among them, take _RAY_SAMPLES.

    With ``bands`` (a boolean mask over the bands) only the two thresholds
    of each marked band are cut: the pieces and level lengths of the marked
    bands are the same, and a piece of another band may span several bands.
    """
    n_bands = cuts.size - 1
    n = thetas.size
    cut_at = np.ones(cuts.size, dtype=bool)
    if bands is not None:
        cut_at = np.r_[bands, False] | np.r_[False, bands]
    finite = cuts[cut_at & np.isfinite(cuts) & (cuts > 0)]
    e = np.exp(1j * thetas)
    n_samples = _ONE_CENTER_SAMPLES if list(centers or ()) == [0] else _RAY_SAMPLES
    rays, breaks = [np.arange(n), np.arange(n)], [np.zeros(n), np.full(n, reach)]
    found = []  # (ray, r_lo, r_hi, psi + t at r_lo and r_hi, t) per threshold t a pair brackets
    for i0 in range(0, n if finite.size else 0, _RAY_BLOCK):
        block = thetas[i0:i0 + _RAY_BLOCK]
        rs, vals = (_sample_rays(psi_fn, block, centers, n_samples) if centers is not None
                    else _sample_fan(psi_fn, block, finite, reach))
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
    if found:
        ray_idx, *brackets = (np.concatenate(x) for x in zip(*found))
        rays.append(ray_idx)
        breaks.append(_bisect_cuts(psi_fn, e[ray_idx], *brackets))
    ray, brk = np.concatenate(rays), np.concatenate(breaks)
    order = np.lexsort((brk, ray))
    ray, brk = ray[order], brk[order]
    lo, hi = brk[:-1], brk[1:]
    ok = (ray[:-1] == ray[1:]) & (hi - lo > _CUT_ULPS * np.spacing(hi))
    ray, lo, hi = ray[:-1][ok], lo[ok], hi[ok]
    band = _band_of(cuts, psi_fn(0.5 * (lo + hi) * e[ray]))
    keep = (band >= 0) & (band < n_bands)
    ray, lo, hi, band = ray[keep], lo[keep], hi[keep], band[keep]
    length = np.zeros((n, n_bands))
    np.add.at(length, (ray, band), hi - lo)
    level_len = np.cumsum(length[:, ::-1], axis=1)[:, ::-1]
    return ray, lo, hi, band, level_len[ray, band]


def _panels(theta, w_theta, lo, hi, level_len, mask_patches, budget, patch_fan=False):
    """Gauss-Legendre panels on radial pieces: arrays (mid, half, e, w_half, piece).

    Each piece [lo, hi] of the ray at angle theta is split where the ray
    crosses a patch circle (radius and half radius), and each sub-piece gets
    ceil(budget * length / level_len) equal panels, and at least 2 where it
    lies in a blending annulus (half radius to radius), whose C^4 mask one
    panel of the coarse budget does not resolve.  On the global fan a
    sub-piece inside a half-radius disc, where its mask 1 - sum chi is 0,
    gets no panel.  On a patch fan (``patch_fan``) a panel [a, b] with
    0 < a < b / 2, which reaches toward the pole at 0, is split at b / 2,
    b / 4, ... down to a, so that no panel lies closer to the pole than its
    own width.  A panel is its
    midpoint and half width, the ray direction e = exp(i theta), the
    angular weight times the half width, and the index of its piece.
    """
    conj_e = np.exp(-1j * theta)
    edges = [lo, hi]
    for c, radius in mask_patches:
        b = (c * conj_e).real
        for rho in (radius, radius / 2):
            disc = b * b - (abs(c) ** 2 - rho**2)
            s = np.sqrt(np.maximum(disc, 0.0))
            for x in (b - s, b + s):
                inside = (disc > 0) & (x > lo + 1e-14) & (x < hi - 1e-14)
                edges.append(np.where(inside, x, np.nan))
    edges = np.sort(np.stack(edges, axis=1), axis=1)  # lo, splits, hi, then nan
    piece, col = np.nonzero(edges[:, 1:] > edges[:, :-1])
    s_lo, s_hi = edges[piece, col], edges[piece, col + 1]
    # a sub-piece lies wholly inside or outside each annulus: test its midpoint
    s_mid = 0.5 * (s_lo + s_hi) * np.exp(1j * theta[piece])
    blend = np.zeros(piece.size, dtype=bool)
    inside = np.zeros(piece.size, dtype=bool)
    for c, radius in mask_patches:
        dist = np.abs(s_mid - c)
        blend |= (dist > radius / 2) & (dist < radius)
        inside |= dist <= radius / 2
    if not patch_fan:
        piece, s_lo, s_hi, blend = piece[~inside], s_lo[~inside], s_hi[~inside], blend[~inside]
    n_pan = np.maximum(np.where(blend, 2, 1),
                       np.ceil(budget * ((s_hi - s_lo) / level_len[piece]))).astype(int)
    sub = np.repeat(np.arange(n_pan.size), n_pan)
    j = np.arange(sub.size) - (np.cumsum(n_pan) - n_pan)[sub]
    step = ((s_hi - s_lo) / n_pan)[sub]
    p_lo = j * step + s_lo[sub]
    p_hi = np.where(j + 1 == n_pan[sub], s_hi[sub], (j + 1) * step + s_lo[sub])
    owner = piece[sub]
    if patch_fan:
        ratio = p_hi / np.where(p_lo > 0, p_lo, p_hi)
        n_geo = np.maximum(1, np.ceil(np.log2(ratio))).astype(int)
        sub = np.repeat(np.arange(n_geo.size), n_geo)
        k = np.arange(sub.size) - (np.cumsum(n_geo) - n_geo)[sub]
        top = p_hi[sub]
        p_hi = np.ldexp(top, -k)
        p_lo = np.where(k + 1 == n_geo[sub], p_lo[sub], np.ldexp(top, -k - 1))
        owner = owner[sub]
    half = 0.5 * (p_hi - p_lo)
    return 0.5 * (p_hi + p_lo), half, np.exp(1j * theta[owner]), w_theta[owner] * half, owner


def _panel_nodes(mid, half, e, w_half, band, mask_patches, pole=None):
    """Nodes in the fan's coordinate, polar area weights and bands of
    panels, the number of nodes each panel keeps, and whether it lost one
    to underflow: (x, weight, band, kept, lost).

    On the global fan (``pole`` None) patch neighborhoods go to the patch
    fans via the C^4 partition, so the weights carry the complementary mask
    1 - chi.  ``_panels`` splits every ray at each patch circle and
    half-radius circle and leaves out the half-radius discs, so a panel lies
    wholly outside a circle (mask 1) or in its blending annulus: its
    midpoint tells which, and chi is evaluated on annulus panels only.  On
    a patch fan, ``pole`` is (reach, local exponent sigma): the weights
    carry chi itself, and a panel that starts at the pole takes the rule of
    ``_pole_rule``, or raises NonIntegrableWeightError where sigma <= -2.
    Nodes whose weight is below the smallest normal float (a level about
    1e-154 wide about a center) are dropped, and their panels marked lost.
    """
    gx, gw = _GL10
    r = mid[:, None] + half[:, None] * gx[None, :]
    wgt = w_half[:, None] * gw[None, :] * r  # polar Jacobian r
    at_pole = np.flatnonzero(mid == half) if pole else []  # a patch fan's panels [0, 2 half]
    if len(at_pole):
        if pole[1] + 2.0 <= _SIGMA_TOL:
            raise NonIntegrableWeightError(
                f"weighted integrand exponent {pole[1]:g} diverges at a center inside the "
                "region; the weight is integrable only against forms with enforced vanishing")
        u, w = _pole_rule(pole[1])
        r[at_pole] = half[at_pole, None] * u[None, :]
        wgt[at_pole] = (w_half * half)[at_pole, None] * w[None, :]
    x = r * e[:, None]
    mask = np.ones(r.shape)
    for c, radius in mask_patches:
        dist = np.abs(mid * e - c)
        blend = np.flatnonzero((dist > radius / 2) & (dist < radius))
        mask[blend] *= 1.0 - _chi(np.abs(x[blend] - c), radius)
    if pole:
        blend = np.flatnonzero(mid > pole[0] / 2)
        mask[blend] = _chi(r[blend], pole[0])
    wgt *= mask
    keep = (mask > _MASK_FLOOR) & (wgt >= _TINY)
    return (x[keep], wgt[keep], np.repeat(band, gx.size)[keep.ravel()], keep.sum(axis=1),
            np.any((mask > _MASK_FLOOR) & ~keep, axis=1))


def _fan_thetas(n_ang, first):
    """The angles (k + first) 2 pi / n_ang, k < n_ang, of a fan's base rays."""
    return (np.arange(n_ang) + first) * (2 * math.pi / n_ang)


class _SharedCuts:
    """The base-ray pieces of every fan on each mesh of one region, from one
    cut search per fan over the union of the meshes' angles.

    ``meshes`` are QuadratureConfigs, the fine mesh first.  A fan of n rays
    points them at (k + 1/2) 2 pi / n on the fine mesh and at
    (k + 1/4) 2 pi / n on a later one, the same trapezoid rule turned by a
    quarter of its spacing: at half the fine count these are every other
    fine ray, equal in floats, so the union is the fine fan and its search
    serves both meshes.  A fan is searched when the first mesh asks for it,
    and each mesh's pieces are dropped once handed out.
    """

    def __init__(self, meshes):
        self.meshes = list(meshes)
        # the angles of the global fan (key "angular") and of every patch fan on each mesh
        self.thetas = {count: [_fan_thetas(getattr(m, count), 0.25 if i else 0.5)
                               for i, m in enumerate(self.meshes)]
                       for count in ("angular", "patch_angular")}
        self.union = {count: _sorted_union(t) for count, t in self.thetas.items()}
        self._held = {}

    def take(self, mesh, fan, search):
        """(thetas, base pieces) of fan ``fan`` (0 global, i the patch fan
        of center i - 1) on ``mesh``; search(thetas) runs its _ray_pieces."""
        count = "patch_angular" if fan else "angular"
        if fan not in self._held:
            found = search(self.union[count])
            self._held[fan] = [_on_rays(found, self.union[count], t) for t in self.thetas[count]]
        held = self._held[fan]
        i = self.meshes.index(mesh)
        out, held[i] = held[i], None
        return self.thetas[count][i], out


def _sorted_union(arrays):
    """The distinct values of the arrays, sorted.  np.unique (numpy 2.3 on)
    fills a hash table instead, whose many small heap allocations raised
    the peak RSS of the scan workload by about 1 MB (numpy 2.4, x86-64)."""
    out = np.sort(np.concatenate(arrays))
    return out[np.r_[True, out[1:] != out[:-1]]]


def _on_rays(pieces, union, thetas):
    """The ``_ray_pieces`` arrays of the rays ``union`` restricted to the
    rays ``thetas`` (sorted, a subset of ``union``) and numbered on them."""
    if thetas.size == union.size:
        return pieces
    slot = np.full(union.size, -1)
    slot[np.searchsorted(union, thetas)] = np.arange(thetas.size)
    ray = slot[pieces[0]]
    keep = ray >= 0
    return (ray[keep], *(a[keep] for a in pieces[1:]))


def _fan_panels(psi_fn, cuts, thetas, pieces, budget, mask_patches, centers, reach=1.0):
    """Band-sorted panels of one fan with base rays at the angles
    ``thetas``, (k + offset) 2 pi / n, and their ``_ray_pieces``, with
    per-band tangency refinement; the arguments after ``budget`` are those
    of ``_panels`` and ``_ray_pieces``.

    A ray whose piece count in some band differs from a neighbor's is cut
    again on _TANGENT_SPLIT sub-rays, at the thresholds of the bands that
    differ; the sub-rays carry only those bands, and the parent ray keeps
    the rest.  A sub-ray near a tangency crosses a short chord of its
    level, so its pieces get the radial panel density of the widest base
    ray of their band instead of the full budget per chord.  Returns
    (mid, half, e, w_half, band) per panel.
    """
    n_ang = thetas.size
    d_theta = 2 * math.pi / n_ang
    ray, lo, hi, band, level_len = pieces
    counts = np.zeros((cuts.size - 1, n_ang), dtype=int)
    np.add.at(counts, (band, ray), 1)
    refine = np.zeros(counts.shape, dtype=bool)
    if n_ang > 2:
        refine = ((counts != np.roll(counts, 1, axis=1))
                  | (counts != np.roll(counts, -1, axis=1)))
    stay = ~refine[band, ray]
    pieces = [(thetas[ray[stay]], np.full(int(stay.sum()), d_theta),
               lo[stay], hi[stay], band[stay], level_len[stay])]
    parents = np.flatnonzero(refine.any(axis=0))
    if parents.size:
        widest = np.zeros(cuts.size - 1)
        np.maximum.at(widest, band, level_len)
        offsets = ((np.arange(_TANGENT_SPLIT) + 0.5) / _TANGENT_SPLIT - 0.5) * d_theta
        sub_thetas = (thetas[parents][:, None] + offsets[None, :]).ravel()
        ray, lo, hi, band, level_len = _ray_pieces(psi_fn, sub_thetas, cuts, centers,
                                                   bands=refine.any(axis=1), reach=reach)
        keep = refine[band, parents[ray // _TANGENT_SPLIT]]
        pieces.append((sub_thetas[ray[keep]],
                       np.full(int(keep.sum()), d_theta / _TANGENT_SPLIT),
                       lo[keep], hi[keep], band[keep],
                       np.maximum(level_len[keep], widest[band[keep]])))
    theta, w_theta, lo, hi, band, level_len = (np.concatenate(x) for x in zip(*pieces))
    order = np.argsort(band, kind="stable")
    *panels, piece = _panels(theta[order], w_theta[order], lo[order], hi[order],
                             level_len[order], mask_patches, budget, patch_fan=centers is None)
    return (*panels, band[order][piece])


def _run_starts(*keys):
    """Indices where a run of equal entries of all the key arrays starts."""
    change = np.zeros(keys[0].size, dtype=bool)
    change[:1] = True
    for k in keys:
        change[1:] |= k[1:] != k[:-1]
    return np.flatnonzero(change)


def build_region(psi_fn, patches, config, cuts, shared=None):
    """Band-tagged nodes and area weights for the bands of the cut list.

    ``cuts`` is the sorted array t_0 < ... < t_K; ``patches`` lists the
    singular centers (PatchSpec).  psi_fn(zeta) gives psi, and
    psi_fn(x, c) gives psi at c + x for a center c, reading c's own Green
    term from x (weights.WeightKernel.psi).  The region is the global fan,
    ``config.angular`` rays with the radial budget ``config.radial`` / 10,
    and one patch fan per center, ``config.patch_angular`` rays with
    ``config.patch_radial`` / 8 panels per level length, out to the
    center's reach; a fan piece outside every band is dropped, as a ray
    piece is.  Each fan records where each run of its nodes on one ray, in
    one band, starts.  ``shared`` (a _SharedCuts that lists ``config``)
    supplies the base-ray cuts of a mesh of a two-level build; by default
    the region is a fine mesh of its own.
    """
    reaches = _fan_reaches(patches)
    mask_patches = [(p.center, r) for p, r in zip(patches, reaches)]
    shared = shared if shared is not None else _SharedCuts([config])

    def panels(fan, fan_psi, budget, cut_masks, centers, reach=1.0):
        # the fan's base pieces die with this call, before the next fan's search
        search = functools.partial(_ray_pieces, fan_psi, cuts=cuts, centers=centers, reach=reach)
        return _fan_panels(fan_psi, cuts, *shared.take(config, fan, search), budget, cut_masks,
                           centers, reach)

    parts = [(None, mask_patches, None,
              panels(0, psi_fn, max(4, config.radial // 10), mask_patches,
                     [p.center for p in patches]))]
    for i, (p, r) in enumerate(zip(patches, reaches), 1):
        parts.append((p, (), (r, p.exponent),
                       panels(i, lambda x, c=p.center: psi_fn(x, c), -(-config.patch_radial // 8),
                              [(0j, r)], None, r)))
    # nodes are written chunk by chunk into arrays sized for every panel node,
    # so no full-size temporary is held beside them
    n_gl = _GL10[0].size
    size = sum(panels[0].size for *_, panels in parts) * n_gl
    zeta = np.empty(size, dtype=complex)
    x = np.empty(size, dtype=complex)
    wgt = np.empty(size)
    band = np.empty(size, dtype=np.int32)
    underflow = np.zeros(cuts.size - 1, dtype=bool)
    step = max(1, _CHUNK // n_gl)
    pos, fans = 0, []
    for spec, masks, pole, panels in parts:
        first_node = pos
        kept = np.empty(panels[0].size, dtype=np.int64)
        for i0 in range(0, panels[0].size, step):
            x_c, w_c, b_c, kept[i0:i0 + step], lost = _panel_nodes(
                *(a[i0:i0 + step] for a in panels), masks, pole)
            underflow[panels[4][i0:i0 + step][lost]] = True
            end = pos + x_c.size
            x[pos:end], wgt[pos:end], band[pos:end] = x_c, w_c, b_c
            zeta[pos:end] = x_c if spec is None else spec.center + x_c
            pos = end
        e = panels[2]
        first = _run_starts(e, panels[4])
        start = first_node + (np.cumsum(kept) - kept)[first]
        # a run whose panels keep no node shares its start with the next run
        nonempty = start < np.r_[start[1:], pos]
        fans.append(Fan(spec=spec, sl=slice(first_node, pos), starts=start[nonempty],
                        e=e[first][nonempty]))
    return RegionNodes(zeta=zeta[:pos], x=x[:pos], area_w=wgt[:pos], band=band[:pos],
                       n_bands=cuts.size - 1, fans=fans, underflow=underflow)


# -- assembly ----------------------------------------------------------------

def _coeff_matrix(basis):
    dmax = max(len(b) for b in basis)
    P = np.zeros((dmax, len(basis)), dtype=complex)
    for j, b in enumerate(basis):
        P[: len(b), j] = b
    return P


def _band_runs(band):
    """(band, start, stop) for each run of equal entries of a band array."""
    starts = _run_starts(band)
    stops = np.r_[starts[1:], band.size]
    return zip(band[starts].tolist(), starts.tolist(), stops.tolist())


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


def _moments_of_runs(ang, rad, run_band, n_bands):
    """Hermitian M_k with M_k[i, j] = sum over the runs of band k of
    ang_(j-i) rad_(i+j), j >= i.

    ``rad`` is [run, 0 .. 2d-2] (real); ``ang(s, e)`` returns a C-contiguous
    complex [run, 0 .. d-1] for the runs s:e only, so no angular table of
    every run is held at once.  The product is taken in reals, on the
    (re, im) pairs of ``ang``.
    """
    d = rad.shape[1] // 2 + 1
    i, j = np.triu_indices(d)
    M = np.zeros((n_bands, d, d), dtype=complex)
    for k, s, e in _band_runs(run_band):
        M[k, i, j] += (rad[s:e].T @ ang(s, e).view(float)).view(complex)[i + j, j - i]
    return M + np.triu(M, 1).conj().transpose(0, 2, 1)


def _ray_moments(nodes, fan, weights, d):
    """Per-band monomial moments conj(x)^i x^j of one fan's nodes, in the
    fan's coordinate x.

    A node at distance r from the origin on the ray of direction
    e^{i theta} has conj(x)^i x^j = r^(i+j) e^{i(j-i)theta}: each run on
    one ray sums S_m = sum w r^m, m <= 2d - 2, and M_ij = sum_runs
    e^{i(j-i)theta} S_(i+j).  The sums are taken in node chunks; a run that
    straddles a chunk boundary adds up its pieces.
    """
    starts, e = fan.starts, fan.e
    S = np.zeros((starts.size, 2 * d - 1))
    for i0 in range(starts[0], fan.sl.stop, _GRAM_CHUNK):
        i1 = min(i0 + _GRAM_CHUNK, fan.sl.stop)
        x, w = weights(i0, i1)
        r = np.abs(x)
        R = np.empty((2 * d - 1, x.size))  # row m holds w r^m
        R[0] = w
        for m in range(1, 2 * d - 1):
            np.multiply(R[m - 1], r, out=R[m])
        a = np.searchsorted(starts, i0, side="right") - 1  # runs a:b meet the chunk
        b = np.searchsorted(starts, i1, side="left")
        S[a:b] += np.add.reduceat(R, np.maximum(starts[a:b], i0) - i0, axis=1).T
    return _moments_of_runs(lambda s, t: np.vander(e[s:t], d, increasing=True), S,
                            nodes.band[starts], nodes.n_bands)


def gram_on_nodes(nodes, kernel, gain, basis, shifted=None):
    """Hermitian Grams of the basis under 2 e^{-phi} c(-psi), one per band.

    Returns an array [n_bands, n_basis, n_basis]; entry [k][l][m] is
    conjugate-linear in l.  Each fan sums weighted monomial moments M_k per
    band, run by run (``_ray_moments``), so the work per node grows with
    the degree, not its square, and adds Q^H M_k Q.  On the global fan Q is
    P, the basis coefficients in its monomials; on a patch fan Q holds the
    local coefficients in x = zeta - center, Taylor-shifted, with the
    enforced vanishing order nu dropped from the basis and moved into the
    log-space weight |x|^(2 nu).  psi and phi + psi come from one kernel
    call, ``psi_and_phi_plus_psi``, which reads a patch fan's offsets.
    ``shifted`` (a dict, center -> shifted coefficients) keeps each
    center's Taylor shift of this basis, so the meshes of one assembly
    compute it once.
    """
    H = np.zeros((nodes.n_bands, len(basis), len(basis)), dtype=complex)
    P = _coeff_matrix(basis)
    d = P.shape[0]
    shifted = {} if shifted is None else shifted

    def weights(i0, i1, center, nu):
        """Offsets i0:i1 and their area weights times 2 e^{-phi} c(-psi), and
        times |x|^(2 nu) when nu is factored out of the basis."""
        x = nodes.x[i0:i1]
        psi, phi_plus_psi = kernel.psi_and_phi_plus_psi(x, center)
        log_w = _LOG2 + psi - phi_plus_psi + eval_log_c(gain, -psi)
        if nu:
            log_w = log_w + 2.0 * nu * np.log(np.abs(x))
        return x, nodes.area_w[i0:i1] * np.exp(log_w)

    for fan in nodes.fans:
        center, nu = (0j, 0) if fan.spec is None else (fan.spec.center, fan.spec.order)
        if fan.sl.stop == fan.sl.start or nu >= d:
            continue
        if fan.spec is None:
            Q = P
        else:
            if center not in shifted:
                shifted[center] = _taylor_shift(P, center)
            Q = shifted[center][nu:]
        M = _ray_moments(nodes, fan, lambda i0, i1: weights(i0, i1, center, nu), d - nu)
        H += Q.conj().T @ M @ Q
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
        for k, s, e in _band_runs(nodes.band[i0:i0 + _CHUNK]):
            total[k] += vals[:, s:e].sum(axis=1)
    return total


def _two_level(psi_fn, evaluate, patches, config, ts, band, knots=()):
    """evaluate(nodes) over each level, with a two-level error estimate.

    The levels are the sublevel sets {psi < -t} for t in ``ts``, or the one
    band {-t1 <= psi < -t2} when ``band`` is (t1, t2).  One region per mesh
    level serves all of them: evaluate returns one value per band, and a
    level's value is the sum over its bands.  ``knots`` (the gain's) are
    extra cuts inside the region, on every fan, so no radial panel
    straddles a kink of c(-psi); they define bands but no level.  Returns
    arrays (value, err) with one entry per level, in the order of ``ts``;
    err is the max entrywise difference from the half-resolution mesh when
    config.levels is 2, whose fans have the same reaches and take every
    other ray of the fine fans, cut by the fine mesh's search
    (_SharedCuts), with radial panels and tangency sub-rays of their own.
    Each mesh's nodes are built, evaluated and freed before the next mesh
    is built.  A level with no
    node, a node whose area weight underflowed, or a non-finite value (a
    weight that overflows) on either mesh is a NumericalError: a level
    about 1e-154 wide about a center (t above about 700 p for a point of
    mass p) is refused so.
    """
    if band is None:
        ts = [float(t) for t in ts]
        if not ts or not all(t >= 0 for t in ts):
            raise BadInputError("sublevel parameter t must be >= 0")
        inner = [float(k) for k in knots if k > min(ts)]
        cuts = np.array(sorted(set(ts + inner)) + [math.inf])
        level = np.searchsorted(cuts, ts)
        where = [f"in {{psi < -t}} at t = {t:.6g}" for t in ts]
    else:
        t_hi, t_lo = float(band[0]), float(band[1])
        if not (t_hi > t_lo >= 0):
            raise BadInputError(f"band needs t1 > t2 >= 0, got {band!r}")
        inner = [float(k) for k in knots if t_lo < k < t_hi]
        cuts = np.array([t_lo, *inner, t_hi])
        level = np.zeros(1, dtype=int)
        where = [f"in the band ({t_hi:.6g}, {t_lo:.6g})"]
    meshes = [config]
    if config.levels == 2:
        meshes.append(config.halved())
        if any(getattr(meshes[1], f) >= getattr(config, f)
               for f in ("angular", "radial", "patch_angular", "patch_radial")):
            raise BadInputError(
                "a two-level mesh needs every count above the half-resolution floors "
                "(angular 32, radial 40, patch_angular 16, patch_radial 16), else its "
                "error estimate reads 0; set levels: 1 to skip the estimate")
    shared = _SharedCuts(meshes)

    def on_mesh(mesh):
        """Checked values of the requested levels on one mesh, whose nodes die on return."""
        nodes = build_region(psi_fn, patches, mesh, cuts, shared)
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
        val = on_mesh(config)
        err = np.zeros(level.size)
        if config.levels == 2:
            diff = np.abs(val - on_mesh(meshes[1]))
            err = diff.reshape(diff.shape[0], -1).max(axis=1)
    return val, err


def _level_sums(per_band):
    """Values over the levels: suffix sums of the band values."""
    return np.cumsum(per_band[::-1], axis=0)[::-1]


def assembled_gram(kernel, gain, basis, patches, config, *, ts=(0.0,), band=None):
    """Two-level Grams of the basis, one per level, as _two_level returns
    them; the region is cut at the gain's knots as well.  Both meshes share
    the Taylor-shifted basis of each center."""
    shifted = {}
    return _two_level(kernel.psi,
                      lambda nodes: gram_on_nodes(nodes, kernel, gain, basis, shifted=shifted),
                      patches, config, ts, band, gain._table.t)


def assembled_integral(psi_fn, fn, patches, config, *, ts=(0.0,)):
    """Integrals of the rows of fn over the sublevel sets {psi < -t}, t in
    ``ts``, as _two_level returns them (value [level, row], err the largest
    over the rows); one pass of fn per node chunk serves every row."""
    return _two_level(psi_fn, lambda nodes: integral_on_nodes(nodes, fn),
                      patches, config, ts, None)
