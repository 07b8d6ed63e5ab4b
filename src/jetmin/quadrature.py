"""Adaptive polar quadrature over Green-sublevel regions of the unit disc.

A region is a sorted cut list t_0 < t_1 < ... < t_K in disc coordinates.
Band k is {-t_{k+1} <= psi < -t_k}, and level k is the union of the bands
j >= k, that is {-t_K <= psi < -t_k}.  With t_K = inf the levels are
sublevel sets: {psi < -t} is the cut list (t, inf), the sublevel sets of a
scan grid are (t_0, ..., t_{K-1}, inf), and the band {-t1 <= psi < -t2} is
(t2, t1).  The public entry points take ``ts=`` or ``band=`` and convert
them once, in the two-level driver.

A global polar grid cuts each ray at every threshold in one pass (one
sorted search of the psi samples, one secant search of all crossings; psi
< 0, so t <= 0 is never cut and a t = 0 ray is one unsampled piece), tags
each piece with its band, and integrates with Gauss-Legendre panels split
at every patch-circle crossing.  A Gram region is also cut at the gain's
knots, which define bands but no level, so no panel straddles a kink of
c(-psi).  Rays start at the singular center when there is only one (its
levels are discs around it, so psi rises along every ray and a coarse
sample grid brackets each crossing) and at the origin otherwise.
Values are accumulated per band; level k sums the bands j >= k, and a Gram
is reduced from weighted monomial moments M, Q^H M Q with Q the basis
coefficients.  Rays and patch rings have polar moments: every region
records where each run of nodes on one ray (and in one band) starts.  A
run on a ray sums 2N + 1 radial moments about the ray origin c per node,
not (N + 1)^2, over its nodes with |zeta - c| <= 1 - |c|, where
coefficients Taylor-shifted to c lose no digits; nodes beyond, on rays
from a pole near the circle, sum the monomial moments of zeta itself.

Neighborhoods of singular centers are handed to local geometric-ring
patches through a C^4 partition of unity.  Each patch is one whole ring
grid in one band: its radius is halved until it lies inside the deepest
level, and it joins the band of its circle maximum.  Every ring node sits
at one of the patch grid's fixed angles phi_a, so the angular moments of a
patch are one product of its weights, laid out as a [ring, angle] array,
with a table of e^{i k phi_a} built once per region; no power is formed
per ring node.  Patch products are assembled in log space with the
enforced vanishing order factored out of the basis (the leading local
coefficients of its Taylor shift to the center), so near-critical
exponents do not overflow, and a last ring at the inner edge carries the
radial tail inside it.

The default mesh (``QuadratureConfig``) casts 256 rays with about 128 radial
nodes per level length, in panels of 10 nodes whose count per piece is
rounded up, and at least 2 panels on a piece in a blending annulus; it
gives each patch 64 geometric radial intervals of 8 Gauss rings and the
tail ring, each ring of 32 angles.  The error estimate is the difference from the mesh with
every count halved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BadInputError, NonIntegrableWeightError, NumericalError
from .gain import eval_log_c

_LOG2 = math.log(2.0)
_GL10 = np.polynomial.legendre.leggauss(10)
_GL8 = np.polynomial.legendre.leggauss(8)
_BISECT_ITERS = 60
_CUT_ULPS = 4  # a cut bracket this many ulps wide has converged
_BOUNDARY_SAMPLES = 512
_RAY_SAMPLES = 1024
_ONE_CENTER_SAMPLES = 64  # psi is monotone on rays from the only center
_TANGENT_SPLIT = 16
_MASK_FLOOR = 1e-14
_CHUNK = 8192
# nodes per moment pass, which holds a [2N + 1, chunk] real array, and two
# [N + 1, chunk] complex ones for the nodes of a ray beyond 1 - |origin|
_GRAM_CHUNK = 2048
_RAY_BLOCK = 32  # rays sampled and cut together
_TAIL_EPS = 1e-13  # relative radial tail of a patch integrand left to the tail ring
_SIGMA_TOL = 1e-12  # a local exponent within this of -2 is not integrable
_REP_FLOOR = 1e-12  # patch radii and rings stay above this times max(1, |center|)


@dataclass(frozen=True)
class PatchSpec:
    """A singular center of the weighted integrand, in disc coordinates.

    ``order`` is the vanishing order factored out of basis products there;
    ``exponent`` is the local radial power of the full product integrand,
    which must exceed -2 for integrability.
    """

    center: complex
    order: int = 0
    exponent: float = 0.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Mesh sizes: global angular/radial counts, per-patch counts, levels.

    ``levels`` is 1 (fine mesh only) or 2 (plus the half-resolution mesh that
    gives the error estimate).  ``halved`` halves every count down to the
    floors (32, 40, 16, 16), so a two-level mesh needs every count above its
    floor; at a floor the two meshes would be one and the estimate 0.

    ``radial`` is about the number of radial nodes across one level on one
    ray, in Gauss-Legendre panels of 10 nodes.  128 suffices because the
    rays are cut at every level and gain knot, so each panel sees a smooth
    integrand; panel counts round up, and a piece in a patch's blending
    annulus gets at least 2 panels, so the coarse level (64) still resolves
    the blending mask there.

    32 angles per patch ring suffice: a ring is a periodic trapezoid rule,
    and angular mode k of the integrand on a ring of radius rho decays like
    (rho / R)^k, R the distance to the unit circle or to the next center.
    Patch radii keep rho <= R / 2, so 32 angles alias at most about 0.5^32
    (2e-10).  A gain knot that cuts a ring leaves a kink, whose modes decay
    only algebraically; the coarse level's 16 angles carry that into the
    estimate.
    """

    angular: int = 256
    radial: int = 128
    patch_angular: int = 32
    patch_radial: int = 64
    levels: int = 2

    def __post_init__(self) -> None:
        if min(self.angular, self.radial, self.patch_angular, self.patch_radial) < 8:
            raise BadInputError("quadrature mesh counts must be >= 8")
        if self.levels not in (1, 2):
            raise BadInputError(
                f"quadrature levels must be 1 (no error estimate) or 2, got {self.levels!r}")

    def halved(self) -> "QuadratureConfig":
        return replace(
            self,
            angular=max(32, self.angular // 2),
            radial=max(40, self.radial // 2),
            patch_angular=max(16, self.patch_angular // 2),
            patch_radial=max(16, self.patch_radial // 2),
        )


@dataclass
class PatchBlock:
    """The nodes ``sl`` of one patch, all in band ``band``: whole rings of
    ``RegionNodes.patch_angular`` nodes each, ring k of radius rho[k]
    starting at sl.start + k * patch_angular, in angle order."""

    spec: PatchSpec
    sl: slice
    rho: np.ndarray
    band: int


@dataclass
class RegionNodes:
    """Nodes, area weights and band indices; the global part is sorted by
    band, and each patch block lies in one band.

    The global rays start at ``origin``.  ``ray_runs`` is (start,
    direction) for each run of consecutive global nodes on one ray and in
    one band.  ``patch_angular`` is the number of angles on every patch ring.
    """

    zeta: np.ndarray
    area_w: np.ndarray
    band: np.ndarray
    n_bands: int
    blocks: list
    n_global: int
    origin: complex
    ray_runs: tuple
    patch_angular: int


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


def _patch_radii(psi_fn, patches, threshold):
    """(radius, top) per patch: the blending radius and the largest psi on
    the patch circle.

    The radius is halved until the closed disc lies inside {psi < -threshold},
    the deepest level asked for (t1 of a band, the largest t of a list of
    sublevel sets); psi is subharmonic off its poles, so a circle maximum
    below the threshold certifies the whole disc.  Halving stops at the
    representability floor of ``_patch_nodes``, 1e-12 max(1, |c|), where the
    disc need not fit (a level deeper than about 55 p at a psi pole of mass
    p, or a divisor zero without psi mass).
    """
    locs = [p.center for p in patches]
    out = []
    ang = np.exp(1j * (np.arange(_BOUNDARY_SAMPLES) + 0.5)
                 * (2 * math.pi / _BOUNDARY_SAMPLES))
    for i, p in enumerate(patches):
        r = min(0.1, (1.0 - abs(p.center)) / 2.0)
        for j, q in enumerate(locs):
            if j != i:
                r = min(r, 0.45 * abs(p.center - q))
        if r <= 0:
            raise BadInputError(f"patch center {p.center} too close to the boundary")
        floor = _REP_FLOOR * max(1.0, abs(p.center))
        top = float(np.max(psi_fn(p.center + r * ang)))
        while top >= -threshold and r >= floor:
            r *= 0.5
            top = float(np.max(psi_fn(p.center + r * ang)))
        out.append((r, top))
    return out


# -- global polar part -------------------------------------------------------

def _sample_rays(psi_fn, thetas, reach, centers, n_samples):
    """Radial psi samples along each ray, clustered near center approaches,
    ending on the circle (psi = 0), so no level t > 0 crosses unbracketed."""
    base = np.arange(1, n_samples + 2) / (n_samples + 1.0)
    cols = [base[None, :] * reach[:, None]]
    conj_e = np.exp(-1j * thetas)[:, None]
    for c in centers:
        rstar = np.real(conj_e * c)
        dperp = np.maximum(np.abs(np.imag(conj_e * c)), 1e-7)
        scales = 2.0 ** np.arange(0, 7)[None, :]
        offs = dperp * scales
        cand = np.concatenate([rstar, rstar - offs, rstar + offs], axis=1)
        cols.append(np.clip(cand, 1e-9, (1 - 1e-12) * reach[:, None]))
    rs = np.sort(np.concatenate(cols, axis=1), axis=1)
    vals = psi_fn(rs * np.exp(1j * thetas)[:, None])
    return rs, vals


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


def _ray_pieces(psi_fn, thetas, reach, cuts, centers, bands=None):
    """Band pieces of the rays: arrays (ray, r_lo, r_hi, band, level_len).

    The ray at angle thetas[i] runs from 0 to reach[i].  Rays are sampled
    in blocks of _RAY_BLOCK to bound memory, and the brackets of all blocks
    are bisected together.  Each piece between consecutive breakpoints is
    tagged with its band by psi at its midpoint; pieces outside every band
    are dropped.  ``level_len`` is the length, on the piece's ray, of the
    level of its band (that band and the bands inside it).  psi < 0 on the
    open disc, so thresholds t <= 0 are never cut: without a positive one,
    each ray is one piece and is not sampled.  Rays from the only center
    (``centers`` is [0]) cross each level once, since psi = 2p G(., c) rises
    along them, so any sample grid brackets every crossing and
    _ONE_CENTER_SAMPLES samples suffice; other rays take _RAY_SAMPLES.

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
    n_samples = _ONE_CENTER_SAMPLES if list(centers) == [0] else _RAY_SAMPLES
    rays, breaks = [np.arange(n), np.arange(n)], [np.zeros(n), reach]
    found = []  # (ray, r_lo, r_hi, psi + t at r_lo and r_hi, t) per threshold t a pair brackets
    for i0 in range(0, n if finite.size else 0, _RAY_BLOCK):
        rs, vals = _sample_rays(psi_fn, thetas[i0:i0 + _RAY_BLOCK],
                                reach[i0:i0 + _RAY_BLOCK], centers, n_samples)
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
    ok = (ray[:-1] == ray[1:]) & (hi - lo > 1e-14)
    ray, lo, hi = ray[:-1][ok], lo[ok], hi[ok]
    band = _band_of(cuts, psi_fn(0.5 * (lo + hi) * e[ray]))
    keep = (band >= 0) & (band < n_bands)
    ray, lo, hi, band = ray[keep], lo[keep], hi[keep], band[keep]
    length = np.zeros((n, n_bands))
    np.add.at(length, (ray, band), hi - lo)
    level_len = np.cumsum(length[:, ::-1], axis=1)[:, ::-1]
    return ray, lo, hi, band, level_len[ray, band]


def _panels(theta, w_theta, lo, hi, level_len, mask_patches, budget):
    """Gauss-Legendre panels on radial pieces: arrays (mid, half, e, w_half, piece).

    Each piece [lo, hi] of the ray at angle theta is split where the ray
    crosses a patch circle (radius and half radius), and each sub-piece gets
    ceil(budget * length / level_len) equal panels, and at least 2 where it
    lies in a blending annulus (half radius to radius), whose C^4 mask one
    panel of the coarse budget does not resolve.  A panel is its midpoint
    and half width, the ray direction e = exp(i theta), the angular weight
    times the half width, and the index of its piece.
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
    for c, radius in mask_patches:
        dist = np.abs(s_mid - c)
        blend |= (dist > radius / 2) & (dist < radius)
    n_pan = np.maximum(np.where(blend, 2, 1),
                       np.ceil(budget * ((s_hi - s_lo) / level_len[piece]))).astype(int)
    sub = np.repeat(np.arange(n_pan.size), n_pan)
    j = np.arange(sub.size) - (np.cumsum(n_pan) - n_pan)[sub]
    step = ((s_hi - s_lo) / n_pan)[sub]
    p_lo = j * step + s_lo[sub]
    p_hi = np.where(j + 1 == n_pan[sub], s_hi[sub], (j + 1) * step + s_lo[sub])
    half = 0.5 * (p_hi - p_lo)
    owner = piece[sub]
    return 0.5 * (p_hi + p_lo), half, np.exp(1j * theta[owner]), w_theta[owner] * half, owner


def _panel_nodes(mid, half, e, w_half, band, mask_patches, origin):
    """Nodes, polar area weights and bands of panels, and the number of
    nodes each panel keeps: (zeta, weight, band, kept).

    Panels and patch circles are relative to the ray origin; the nodes are
    returned in disc coordinates.  Patch neighborhoods go to the local
    grids via the C^4 partition, so the global weights carry the
    complementary mask 1 - chi.  ``_panels`` splits every ray at each patch
    circle and half-radius circle, so a panel lies wholly outside a circle
    (mask 1), inside its half-radius disc (mask 0) or in its blending
    annulus: its midpoint tells which, and chi is evaluated on annulus
    panels only.
    """
    gx, gw = _GL10
    r = mid[:, None] + half[:, None] * gx[None, :]
    wgt = (w_half[:, None] * gw[None, :] * r).ravel()  # polar Jacobian r
    zeta = r * e[:, None]
    mask = np.ones(zeta.shape)
    for c, radius in mask_patches:
        dist = np.abs(mid * e - c)
        mask[dist <= radius / 2] = 0.0
        blend = np.flatnonzero((dist > radius / 2) & (dist < radius))
        mask[blend] *= 1.0 - _chi(np.abs(zeta[blend] - c), radius)
    zeta, mask = zeta.ravel(), mask.ravel()
    keep = mask > _MASK_FLOOR
    return (zeta[keep] + origin, wgt[keep] * mask[keep], np.repeat(band, gx.size)[keep],
            keep.reshape(-1, gx.size).sum(axis=1))


def _reach(thetas, origin):
    """Distance from origin to the unit circle along each direction."""
    if origin == 0:
        return np.ones(thetas.size)
    b = np.real(np.conj(origin) * np.exp(1j * thetas))
    return np.sqrt(b * b + (1.0 - abs(origin) ** 2)) - b


def _global_panels(psi_fn, cuts, config, mask_patches, all_centers, origin):
    """Band-sorted global panels with per-band tangency refinement.

    Rays start at ``origin``; psi_fn, the patch circles and the centers are
    given relative to it, and panels are returned in those coordinates.  A
    ray whose piece count in some band differs from a neighbor's is cut
    again on _TANGENT_SPLIT sub-rays, at the thresholds of the bands that
    differ; the sub-rays carry only those bands, and the parent ray keeps
    the rest.  A sub-ray near a tangency crosses a short chord of its
    level, so its pieces get the radial panel density of the widest base
    ray of their band instead of the full budget per chord.  Returns
    (mid, half, e, w_half, band) per panel.
    """
    n_ang = config.angular
    d_theta = 2 * math.pi / n_ang
    thetas = (np.arange(n_ang) + 0.5) * d_theta
    ray, lo, hi, band, level_len = _ray_pieces(psi_fn, thetas, _reach(thetas, origin),
                                               cuts, all_centers)
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
        ray, lo, hi, band, level_len = _ray_pieces(psi_fn, sub_thetas,
                                                   _reach(sub_thetas, origin), cuts, all_centers,
                                                   bands=refine.any(axis=1))
        keep = refine[band, parents[ray // _TANGENT_SPLIT]]
        pieces.append((sub_thetas[ray[keep]],
                       np.full(int(keep.sum()), d_theta / _TANGENT_SPLIT),
                       lo[keep], hi[keep], band[keep],
                       np.maximum(level_len[keep], widest[band[keep]])))
    theta, w_theta, lo, hi, band, level_len = (np.concatenate(x) for x in zip(*pieces))
    order = np.argsort(band, kind="stable")
    budget = max(4, config.radial // 10)
    *panels, piece = _panels(theta[order], w_theta[order], lo[order], hi[order],
                             level_len[order], mask_patches, budget)
    return (*panels, band[order][piece])


def _patch_nodes(spec, radius, config):
    """Geometric-ring polar nodes around one singular center: (zeta, weight,
    rho), the nodes ring by ring and rho the ring radii.

    The rings stop at an inner edge e, where the radial tail left out is
    about _TAIL_EPS of the integrand, or at the representability floor.  One
    more ring at e carries the disc inside it: an integrand ~ r^sigma there,
    sigma = ``spec.exponent``, has int_0^e f r dr = f(e) e^2 / (sigma + 2);
    sigma <= -2 is not integrable and raises NonIntegrableWeightError.
    Rings whose blending weight vanishes are left out.
    """
    margin = spec.exponent + 2.0
    if margin <= _SIGMA_TOL:
        raise NonIntegrableWeightError(
            f"weighted integrand exponent {spec.exponent:g} at center {spec.center} "
            "diverges; the weight is integrable only against forms with enforced vanishing"
        )
    frac = _TAIL_EPS ** (1.0 / margin)
    # rings below roundoff of an off-origin center collapse onto it exactly;
    # clamp so every node stays representable away from the singular point
    rep_floor = _REP_FLOOR * max(1.0, abs(spec.center)) / radius
    frac = max(frac, min(rep_floor, 0.5))
    n_ring = config.patch_radial
    edges = radius * frac ** (np.arange(n_ring + 1) / n_ring)  # decreasing
    gx, gw = _GL8
    half = 0.5 * (edges[:-1] - edges[1:])
    mid = 0.5 * (edges[:-1] + edges[1:])
    rho = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    w_rho = (half[:, None] * gw[None, :]).ravel() * rho
    rho = np.r_[rho, edges[-1]]
    w_rho = np.r_[w_rho, edges[-1] ** 2 / margin]
    n_ang = config.patch_angular
    w_ring = w_rho * (2 * math.pi / n_ang) * _chi(rho, radius)
    rho, w_ring = rho[w_ring != 0], w_ring[w_ring != 0]
    phi = (np.arange(n_ang) + 0.5) * (2 * math.pi / n_ang)
    zeta = (spec.center + rho[:, None] * np.exp(1j * phi)[None, :]).ravel()
    return zeta, np.repeat(w_ring, n_ang), rho


def _run_starts(*keys):
    """Indices where a run of equal entries of all the key arrays starts."""
    change = np.zeros(keys[0].size, dtype=bool)
    change[:1] = True
    for k in keys:
        change[1:] |= k[1:] != k[:-1]
    return np.flatnonzero(change)


def build_region(psi_fn, patches, config, cuts, radii):
    """Band-tagged nodes and area weights for the bands of the cut list.

    ``cuts`` is the sorted array t_0 < ... < t_K; ``patches`` lists the
    singular centers (PatchSpec), and ``radii`` carries their (radius, top)
    pairs (``_patch_radii``), so two refinement levels share the same
    geometry.  A patch lies in the band of its circle maximum ``top``, the
    deepest level that holds all of it; a patch below every band (a psi pole
    of a band list) or above every level is left out, and its disc is not
    masked from the rays.  The region records where each run of global
    nodes on one ray, in one band, starts.
    """
    n_bands = cuts.size - 1
    active = []
    for p, (r, top) in zip(patches, radii):
        k = int(_band_of(cuts, top))
        if 0 <= k < n_bands:
            active.append((p, r, k))
    origin = patches[0].center if len(patches) == 1 else 0j
    mask_patches = [(p.center - origin, r) for p, r, _ in active]
    ray_centers = [p.center - origin for p in patches]
    ray_psi = (lambda z: psi_fn(z + origin)) if origin != 0 else psi_fn

    panels = _global_panels(ray_psi, cuts, config, mask_patches, ray_centers, origin)
    patch_parts = [(p, k, *_patch_nodes(p, r, config)) for p, r, k in active]
    # nodes are written chunk by chunk into arrays sized for every panel node,
    # so no full-size temporary is held beside them
    n_gl = _GL10[0].size
    size = panels[0].size * n_gl + sum(part[2].size for part in patch_parts)
    zeta = np.empty(size, dtype=complex)
    wgt = np.empty(size)
    band = np.empty(size, dtype=np.int32)
    kept = np.empty(panels[0].size, dtype=np.int64)
    pos = 0
    step = max(1, _CHUNK // n_gl)
    for i0 in range(0, panels[0].size, step):
        *nodes, kept[i0:i0 + step] = _panel_nodes(*(x[i0:i0 + step] for x in panels),
                                                  mask_patches, origin)
        end = pos + nodes[0].size
        zeta[pos:end], wgt[pos:end], band[pos:end] = nodes
        pos = end
    n_global = pos
    e = panels[2]
    first = _run_starts(e, panels[4])
    start = (np.cumsum(kept) - kept)[first]
    # a run whose panels keep no node shares its start with the next run
    nonempty = start < np.r_[start[1:], n_global]
    ray_runs = (start[nonempty], e[first][nonempty])
    blocks = []
    for p, k, z_p, w_p, rho in patch_parts:
        end = pos + z_p.size
        zeta[pos:end], wgt[pos:end], band[pos:end] = z_p, w_p, k
        blocks.append(PatchBlock(spec=p, sl=slice(pos, end), rho=rho, band=k))
        pos = end
    return RegionNodes(zeta=zeta[:pos], area_w=wgt[:pos], band=band[:pos], n_bands=n_bands,
                       blocks=blocks, n_global=n_global, origin=origin, ray_runs=ray_runs,
                       patch_angular=config.patch_angular)


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


def _add_zeta_moments(M, z, w, band):
    """Add the per-band monomial moments V^H W V, V[n, l] = z_n^l, of nodes
    z with weights w and bands ``band`` (sorted) to M [band, d, d]."""
    d = M.shape[1]
    V = np.empty((d, z.size), dtype=complex)  # row k holds z^k
    V[0] = 1.0
    for k in range(1, d):
        np.multiply(V[k - 1], z, out=V[k])
    Vw = V.conj()
    Vw *= w
    for k, s, e in _band_runs(band):
        M[k] += Vw[:, s:e] @ V[:, s:e].T


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


def _ray_moments(nodes, weights, d):
    """Per-band moments of the global nodes: (M_ray, M_zeta).

    The rays start at c = ``nodes.origin``.  In x = zeta - c a node on a ray
    at angle theta has conj(x)^i x^j = r^(i+j) e^{i(j-i)theta}: each run on
    one ray sums S_m = sum w r^m, m <= 2d - 2, over its nodes with
    r <= 1 - |c|, and M_ray_ij = sum_runs e^{i(j-i)theta} S_(i+j) are the
    moments of x.  There (|c| + r)^k <= 1, so coefficients Taylor-shifted
    to c lose no digits.  The nodes beyond, which a ray from a center near
    the circle reaches up to r = 1 + |c|, sum the monomial moments of zeta
    itself into M_zeta, None when there are none (always when c = 0).  The
    sums are taken in node chunks; a run that straddles a chunk boundary
    adds up its pieces.
    """
    starts, e = nodes.ray_runs
    c = nodes.origin
    S = np.zeros((starts.size, 2 * d - 1))
    M_zeta = None
    for i0 in range(starts[0], nodes.n_global, _GRAM_CHUNK):
        i1 = min(i0 + _GRAM_CHUNK, nodes.n_global)
        z, w = weights(i0, i1)
        r = np.abs(z - c)
        far = r > 1.0 - abs(c)
        if far.any():
            if M_zeta is None:
                M_zeta = np.zeros((nodes.n_bands, d, d), dtype=complex)
            _add_zeta_moments(M_zeta, z[far], w[far], nodes.band[i0:i1][far])
            r[far] = w[far] = 0.0
        R = np.empty((2 * d - 1, z.size))  # row m holds w r^m
        R[0] = w
        for m in range(1, 2 * d - 1):
            np.multiply(R[m - 1], r, out=R[m])
        a = np.searchsorted(starts, i0, side="right") - 1  # runs a:b meet the chunk
        b = np.searchsorted(starts, i1, side="left")
        S[a:b] += np.add.reduceat(R, np.maximum(starts[a:b], i0) - i0, axis=1).T
    M_ray = _moments_of_runs(lambda s, t: np.vander(e[s:t], d, increasing=True), S,
                             nodes.band[starts], nodes.n_bands)
    return M_ray, M_zeta


def _angle_table(n_ang, d):
    """e^{i k phi_a} for the patch grid's angles phi_a = (a + 1/2) 2 pi / n_ang
    and 0 <= k < d, as a real [angle, 2d] array of (cos, sin) pairs.

    k phi_a = k (2a + 1) pi / n_ang is reduced modulo 2 pi in integers, so
    the rounding of an entry does not grow with k.
    """
    m = np.outer(2 * np.arange(n_ang) + 1, np.arange(d)) % (2 * n_ang)
    return np.exp(1j * (math.pi / n_ang) * m).view(float)


def _ring_moments(blk, weights, table):
    """Moments conj(x)^i x^j of a patch block, x = zeta - center.

    A node of a ring of radius rho sits at a grid angle phi_a, so
    conj(x)^i x^j = rho^(i+j) e^{i(j-i)phi_a}.  The block's weights, taken in
    _CHUNK slices, form W [ring, angle], and one product with ``table``
    (``_angle_table``) gives each ring A_k = sum w e^{i k phi_a}, 0 <= k < d;
    then M_ij = sum_rings rho^(i+j) A_(j-i) for j >= i.
    """
    d = table.shape[1] // 2
    lo, hi = blk.sl.start, blk.sl.stop
    W = np.empty(hi - lo)
    for i0 in range(lo, hi, _CHUNK):
        i1 = min(i0 + _CHUNK, hi)
        W[i0 - lo:i1 - lo] = weights(i0, i1)[1]
    A = (W.reshape(blk.rho.size, -1) @ table).view(complex)
    return _moments_of_runs(lambda s, t: A[s:t], np.vander(blk.rho, 2 * d - 1, increasing=True),
                            np.zeros(blk.rho.size, dtype=int), 1)[0]


def gram_on_nodes(nodes, kernel, gain, basis):
    """Hermitian Grams of the basis under 2 e^{-phi} c(-psi), one per band.

    Returns an array [n_bands, n_basis, n_basis]; entry [k][l][m] is
    conjugate-linear in l.  The global part sums weighted monomial moments
    M_k per band and adds Q^H M_k Q, Q the basis coefficients in its
    monomials; each patch block, which lies in one band, adds its Q^H M Q
    to that band.  Global rays sum polar moments run by run, and patch
    rings ring by ring (``_ray_moments``, ``_ring_moments``), so the work
    per node grows with the degree, not its square.  Ray moments are taken about the ray origin c, in coefficients
    Taylor-shifted to c, on the disc |zeta - c| <= 1 - |c|; the nodes beyond
    it (rays from a pole near the circle reach |zeta - c| = 1 + |c|, where a
    local expansion would lose every digit) sum the monomial moments of
    zeta directly.  Patch blocks use local coefficients in zeta - center
    with the enforced vanishing order nu dropped from the basis and moved
    into the log-space weight.  psi and phi + psi come from one kernel
    call, ``psi_and_phi_plus_psi``.
    """
    H = np.zeros((nodes.n_bands, len(basis), len(basis)), dtype=complex)
    P = _coeff_matrix(basis)
    d = P.shape[0]

    def weights(i0, i1, center=0j, nu=0):
        """Nodes i0:i1 and their area weights times 2 e^{-phi} c(-psi), and
        times |zeta - center|^(2 nu) when nu is factored out of the basis."""
        z = nodes.zeta[i0:i1]
        psi, phi_plus_psi = kernel.psi_and_phi_plus_psi(z)
        log_w = _LOG2 + psi - phi_plus_psi + eval_log_c(gain, -psi)
        if nu:
            log_w = log_w + 2.0 * nu * np.log(np.abs(z - center))
        return z, nodes.area_w[i0:i1] * np.exp(log_w)

    if nodes.n_global:
        M_ray, M_zeta = _ray_moments(nodes, weights, d)
        Q = _taylor_shift(P, nodes.origin)
        H += Q.conj().T @ M_ray @ Q
        if M_zeta is not None:
            H += P.conj().T @ M_zeta @ P
    table = _angle_table(nodes.patch_angular, d)
    for blk in nodes.blocks:
        nu = blk.spec.order
        if nu >= d:
            continue
        center = blk.spec.center
        Q = _taylor_shift(P, center)[nu:]
        M = _ring_moments(blk, lambda i0, i1: weights(i0, i1, center, nu),
                          table[:, :2 * (d - nu)])
        H[blk.band] += Q.conj().T @ M @ Q
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
    extra cuts inside the region, so no radial panel straddles a kink of
    c(-psi); they define bands but no level, and a patch lies in the band
    of its circle maximum, at or below the deepest level, so it still falls
    in every level where knots beyond the deepest t split it.  Returns
    arrays (value, err) with one entry per level, in the order of ``ts``;
    err is the max entrywise difference from the half-resolution mesh when
    config.levels is 2.  Both meshes share the patch radii, which the
    deepest level sets.  A level with no node or a non-finite value (a
    weight that overflows) on either mesh is a NumericalError.
    """
    if band is None:
        ts = [float(t) for t in ts]
        if not ts or not all(t >= 0 for t in ts):
            raise BadInputError("sublevel parameter t must be >= 0")
        inner = [float(k) for k in knots if k > min(ts)]
        cuts = np.array(sorted(set(ts + inner)) + [math.inf])
        level = np.searchsorted(cuts, ts)
        deepest = max(ts)
        where = [f"in {{psi < -t}} at t = {t:.6g}" for t in ts]
    else:
        t_hi, t_lo = float(band[0]), float(band[1])
        if not (t_hi > t_lo >= 0):
            raise BadInputError(f"band needs t1 > t2 >= 0, got {band!r}")
        inner = [float(k) for k in knots if t_lo < k < t_hi]
        cuts = np.array([t_lo, *inner, t_hi])
        level = np.zeros(1, dtype=int)
        deepest = t_hi
        where = [f"in the band ({t_hi:.6g}, {t_lo:.6g})"]
    if config.levels == 2:
        coarse_config = config.halved()
        if any(getattr(coarse_config, f) >= getattr(config, f)
               for f in ("angular", "radial", "patch_angular", "patch_radial")):
            raise BadInputError(
                "a two-level mesh needs every count above the half-resolution floors "
                "(angular 32, radial 40, patch_angular 16, patch_radial 16), else its "
                "error estimate reads 0; set levels: 1 to skip the estimate")

    def on_mesh(mesh):
        """Checked values of the requested levels on one mesh, whose nodes die on return."""
        nodes = build_region(psi_fn, patches, mesh, cuts, radii)
        count = _level_sums(np.bincount(nodes.band, minlength=nodes.n_bands))[level]
        val = _level_sums(evaluate(nodes))[level]
        for n, v, label in zip(count, val, where):
            if n == 0:
                raise NumericalError(f"no quadrature node {label}: "
                                     "the mesh cannot resolve this level")
            if not np.all(np.isfinite(v)):
                raise NumericalError(f"non-finite quadrature values {label}: "
                                     "the weight overflows on the region")
        return val

    with np.errstate(over="ignore", invalid="ignore"):
        radii = _patch_radii(psi_fn, patches, deepest)
        val = on_mesh(config)
        err = np.zeros(level.size)
        if config.levels == 2:
            diff = np.abs(val - on_mesh(coarse_config))
            err = diff.reshape(diff.shape[0], -1).max(axis=1)
    return val, err


def _level_sums(per_band):
    """Values over the levels: suffix sums of the band values."""
    return np.cumsum(per_band[::-1], axis=0)[::-1]


def assembled_gram(kernel, gain, basis, patches, config, *, ts=(0.0,), band=None):
    """Two-level Grams of the basis, one per level, as _two_level returns
    them; the region is cut at the gain's knots as well."""
    return _two_level(kernel.psi, lambda nodes: gram_on_nodes(nodes, kernel, gain, basis),
                      patches, config, ts, band, gain._table.t)


def assembled_integral(psi_fn, fn, patches, config, *, ts=(0.0,)):
    """Integrals of the rows of fn over the sublevel sets {psi < -t}, t in
    ``ts``, as _two_level returns them (value [level, row], err the largest
    over the rows); one pass of fn per node chunk serves every row."""
    return _two_level(psi_fn, lambda nodes: integral_on_nodes(nodes, fn),
                      patches, config, ts, None)
