"""Adaptive polar quadrature over Green-sublevel regions of the unit disc.

A region is a sorted cut list t_0 < t_1 < ... < t_K in disc coordinates.
Band k is {-t_{k+1} <= psi < -t_k}, and level k is the union of the bands
j >= k, that is {-t_K <= psi < -t_k}.  With t_K = inf the levels are
sublevel sets: {psi < -t} is the cut list (t, inf), the sublevel sets of a
scan grid are (t_0, ..., t_{K-1}, inf), and the band {-t1 <= psi < -t2} is
(t2, t1).  The public entry points take ``ts=`` or ``band=`` and convert
them once, in the two-level driver.

A global polar grid cuts each ray at every threshold in one pass
(sampling, then bisection), tags each piece between cuts with its band,
and integrates with Gauss-Legendre panels split at every patch-circle
crossing.  Its rays start at the singular center when there is only one
(the levels are then discs around it, crossed once by every ray) and at
the origin otherwise.  Values are accumulated per band; the value
over level k is the sum of the bands j >= k.  Neighborhoods of singular
centers are handed to local geometric-ring patches through a C^4 partition
of unity; patch products are assembled in log space with the enforced
vanishing order factored out of the basis, so near-critical exponents
neither overflow nor lose their radial tail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BadInputError, NonIntegrableWeightError
from .gain import eval_log_c

_LOG2 = math.log(2.0)
_GL10 = np.polynomial.legendre.leggauss(10)
_GL8 = np.polynomial.legendre.leggauss(8)
_BISECT_ITERS = 60
_BOUNDARY_SAMPLES = 512
_RAY_SAMPLES = 1024
_TANGENT_SPLIT = 16
_MIN_RADIUS_FRACTION = 1e-36
_MASK_FLOOR = 1e-14
_CHUNK = 8192
_RAY_BLOCK = 32  # rays sampled and cut together
_TAIL_EPS = 1e-13  # relative radial tail of a patch integrand left uncovered


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
    gives the error estimate).
    """

    angular: int = 256
    radial: int = 256
    patch_angular: int = 64
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
    spec: PatchSpec
    sl: slice


@dataclass
class RegionNodes:
    """Nodes, area weights and band indices; the global part and every patch
    block are sorted by band."""

    zeta: np.ndarray
    area_w: np.ndarray
    band: np.ndarray
    n_bands: int
    blocks: list
    n_global: int


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
    """Blending radius per patch plus a containment flag.

    A patch is "contained" when its closed disc lies inside {psi < -threshold},
    the deepest level of the region (t_K for a band list, t_{K-1} for a list
    of sublevel sets), so it lies inside every level; psi is subharmonic off
    its poles, so a boundary-circle maximum below the threshold certifies the
    whole disc.
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
        contained = threshold == 0
        if not contained:
            for _ in range(40):
                if float(np.max(psi_fn(p.center + r * ang))) < -threshold:
                    contained = True
                    break
                if r < 1e-9:
                    break
                r *= 0.5
        out.append((r, contained))
    return out


# -- global polar part -------------------------------------------------------

def _sample_rays(psi_fn, thetas, reach, centers):
    """Radial psi samples along each ray, clustered near center approaches."""
    base = np.arange(1, _RAY_SAMPLES + 1) / (_RAY_SAMPLES + 1.0)
    cols = [base[None, :] * reach[:, None]]
    conj_e = np.exp(-1j * thetas)[:, None]
    for c in centers:
        if c == 0:
            continue
        rstar = np.real(conj_e * c)
        dperp = np.maximum(np.abs(np.imag(conj_e * c)), 1e-7)
        scales = 2.0 ** np.arange(0, 7)[None, :]
        offs = dperp * scales
        cand = np.concatenate([rstar, rstar - offs, rstar + offs], axis=1)
        cols.append(np.clip(cand, 1e-9, (1 - 1e-12) * reach[:, None]))
    rs = np.sort(np.concatenate(cols, axis=1), axis=1)
    vals = psi_fn(rs * np.exp(1j * thetas)[:, None])
    return rs, vals


def _bisect_cuts(psi_fn, e_ray, lo, hi, f_lo, thresh):
    """Vectorized bisection for psi(r e) + thresh = 0 on brackets [lo, hi]."""
    lo = lo.copy()
    hi = hi.copy()
    neg_lo = f_lo < 0
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        fm = psi_fn(mid * e_ray) + thresh
        go_right = (fm < 0) == neg_lo
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)


def _ray_pieces(psi_fn, thetas, reach, cuts, centers, bands=None):
    """Band pieces of the rays: arrays (ray, r_lo, r_hi, band, level_len).

    The ray at angle thetas[i] runs from 0 to reach[i].  Each ray is cut
    at the finite thresholds of ``cuts`` in one pass, the cuts refined to
    bisection accuracy; each piece between consecutive breakpoints is
    tagged with its band by psi at its midpoint, and pieces outside every
    band are dropped.  ``level_len`` is the length, on the piece's ray, of
    the level of its band (that band and the bands inside it).  Rays are
    sampled in blocks of _RAY_BLOCK to bound memory.

    With ``bands`` (a boolean mask over the bands) only the two thresholds
    of each marked band are cut: the pieces and level lengths of the marked
    bands are the same, and a piece of another band may span several bands.
    """
    n_bands = cuts.size - 1
    cut_at = np.ones(cuts.size, dtype=bool)
    if bands is not None:
        cut_at = np.r_[bands, False] | np.r_[False, bands]
    finite = cuts[cut_at & np.isfinite(cuts)]
    parts = []
    for i0 in range(0, thetas.size, _RAY_BLOCK):
        th = thetas[i0:i0 + _RAY_BLOCK]
        n = th.size
        rs, vals = _sample_rays(psi_fn, th, reach[i0:i0 + _RAY_BLOCK], centers)
        found = []  # (ray, sample column, threshold) per sign change of psi + t
        for thresh in finite:
            f = vals + thresh
            ray_idx, col_idx = np.nonzero((f[:, 1:] < 0) != (f[:, :-1] < 0))
            found.append((ray_idx, col_idx, np.full(ray_idx.size, thresh)))
        ray_idx, col_idx, thresh = (np.concatenate(x) for x in zip(*found))
        roots = _bisect_cuts(psi_fn, np.exp(1j * th[ray_idx]), rs[ray_idx, col_idx],
                             rs[ray_idx, col_idx + 1],
                             vals[ray_idx, col_idx] + thresh, thresh)
        ray = np.concatenate([np.arange(n), np.arange(n), ray_idx])
        brk = np.concatenate([np.zeros(n), reach[i0:i0 + _RAY_BLOCK], roots])
        order = np.lexsort((brk, ray))
        ray, brk = ray[order], brk[order]
        lo, hi = brk[:-1], brk[1:]
        ok = (ray[:-1] == ray[1:]) & (hi - lo > 1e-14)
        ray, lo, hi = ray[:-1][ok], lo[ok], hi[ok]
        band = _band_of(cuts, psi_fn(0.5 * (lo + hi) * np.exp(1j * th[ray])))
        keep = (band >= 0) & (band < n_bands)
        parts.append((ray[keep] + i0, lo[keep], hi[keep], band[keep]))
    ray, lo, hi, band = (np.concatenate(x) for x in zip(*parts))
    length = np.zeros((thetas.size, n_bands))
    np.add.at(length, (ray, band), hi - lo)
    level_len = np.cumsum(length[:, ::-1], axis=1)[:, ::-1]
    return ray, lo, hi, band, level_len[ray, band]


def _panels(theta, w_theta, lo, hi, level_len, mask_patches, budget):
    """Gauss-Legendre panels on radial pieces: arrays (mid, half, e, w_half, piece).

    Each piece [lo, hi] of the ray at angle theta is split where the ray
    crosses a patch circle (radius and half radius), and each sub-piece gets
    max(1, round(budget * length / level_len)) equal panels.  A panel is its
    midpoint and half width, the ray direction e = exp(i theta), the angular
    weight times the half width, and the index of its piece.
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
    n_pan = np.maximum(1, np.rint(budget * (s_hi - s_lo) / level_len[piece])).astype(int)
    sub = np.repeat(np.arange(n_pan.size), n_pan)
    j = np.arange(sub.size) - (np.cumsum(n_pan) - n_pan)[sub]
    step = ((s_hi - s_lo) / n_pan)[sub]
    p_lo = j * step + s_lo[sub]
    p_hi = np.where(j + 1 == n_pan[sub], s_hi[sub], (j + 1) * step + s_lo[sub])
    half = 0.5 * (p_hi - p_lo)
    owner = piece[sub]
    return 0.5 * (p_hi + p_lo), half, np.exp(1j * theta[owner]), w_theta[owner] * half, owner


def _panel_nodes(mid, half, e, w_half, band, mask_patches, origin):
    """Nodes, polar area weights and bands of panels: (zeta, weight, band).

    Panels and patch circles are relative to the ray origin; the nodes are
    returned in disc coordinates.  Patch neighborhoods go to the local
    grids via the C^4 partition, so the global weights carry the
    complementary mask.
    """
    gx, gw = _GL10
    r = mid[:, None] + half[:, None] * gx[None, :]
    wgt = (w_half[:, None] * gw[None, :] * r).ravel()  # polar Jacobian r
    zeta = (r * e[:, None]).ravel()
    mask = np.ones_like(wgt)
    for c, radius in mask_patches:
        mask *= 1.0 - _chi(np.abs(zeta - c), radius)
    keep = mask > _MASK_FLOOR
    return zeta[keep] + origin, wgt[keep] * mask[keep], np.repeat(band, gx.size)[keep]


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
    """Geometric-ring polar nodes around one singular center."""
    margin = spec.exponent + 2.0
    if margin <= 0:
        raise NonIntegrableWeightError(
            f"integrand exponent {spec.exponent} at {spec.center} is not integrable"
        )
    frac = max(_TAIL_EPS ** (1.0 / margin), _MIN_RADIUS_FRACTION)
    # rings below roundoff of an off-origin center collapse onto it exactly;
    # clamp so every node stays representable away from the singular point
    rep_floor = 1e-12 * max(1.0, abs(spec.center)) / radius
    frac = max(frac, min(rep_floor, 0.5))
    n_ring = config.patch_radial
    edges = radius * frac ** (np.arange(n_ring + 1) / n_ring)  # decreasing
    gx, gw = _GL8
    half = 0.5 * (edges[:-1] - edges[1:])
    mid = 0.5 * (edges[:-1] + edges[1:])
    rho = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    w_rho = (half[:, None] * gw[None, :]).ravel() * rho
    n_ang = config.patch_angular
    phi = (np.arange(n_ang) + 0.5) * (2 * math.pi / n_ang)
    ring = np.exp(1j * phi)
    zeta = (spec.center + rho[:, None] * ring[None, :]).ravel()
    wgt = (w_rho[:, None] * np.full((1, n_ang), 2 * math.pi / n_ang)).ravel()
    chi = _chi(np.abs(rho[:, None] * np.ones((1, n_ang))).ravel(), radius)
    return zeta, wgt * chi


def build_region(psi_fn, patches, config, cuts, radii):
    """Band-tagged nodes and area weights for the bands of the cut list.

    ``cuts`` is the sorted array t_0 < ... < t_K; ``patches`` lists the
    singular centers (PatchSpec), and ``radii`` carries their (radius,
    contained) pairs, so two refinement levels share the same geometry.  A
    contained patch lies in the deepest band of a list of sublevel sets and
    below every band of a band list, where it is left out.
    """
    n_bands = cuts.size - 1
    sublevel = not math.isfinite(cuts[-1])
    active = [(p, r, contained) for p, (r, contained) in zip(patches, radii)
              if sublevel or not contained]
    origin = patches[0].center if len(patches) == 1 else 0j
    mask_patches = [(p.center - origin, r) for p, r, _ in active]
    ray_centers = [p.center - origin for p in patches]
    ray_psi = (lambda z: psi_fn(z + origin)) if origin != 0 else psi_fn

    panels = _global_panels(ray_psi, cuts, config, mask_patches, ray_centers, origin)
    patch_parts = []
    for p, r, contained in active:
        z_p, w_p = _patch_nodes(p, r, config)
        if contained:
            b_p = np.full(z_p.size, n_bands - 1)
        else:
            b_p = _band_of(cuts, psi_fn(z_p))
        keep = np.flatnonzero((w_p != 0) & (b_p >= 0) & (b_p < n_bands))
        keep = keep[np.argsort(b_p[keep], kind="stable")]
        patch_parts.append((p, z_p[keep], w_p[keep], b_p[keep]))
    # nodes are written chunk by chunk into arrays sized for every panel node,
    # so no full-size temporary is held beside them
    n_gl = _GL10[0].size
    size = panels[0].size * n_gl + sum(part[1].size for part in patch_parts)
    zeta = np.empty(size, dtype=complex)
    wgt = np.empty(size)
    band = np.empty(size, dtype=np.int32)
    pos = 0
    step = max(1, _CHUNK // n_gl)
    for i0 in range(0, panels[0].size, step):
        nodes = _panel_nodes(*(x[i0:i0 + step] for x in panels), mask_patches, origin)
        end = pos + nodes[0].size
        zeta[pos:end], wgt[pos:end], band[pos:end] = nodes
        pos = end
    n_global = pos
    blocks = []
    for p, z_p, w_p, b_p in patch_parts:
        end = pos + z_p.size
        zeta[pos:end], wgt[pos:end], band[pos:end] = z_p, w_p, b_p
        blocks.append(PatchBlock(spec=p, sl=slice(pos, end)))
        pos = end
    return RegionNodes(zeta=zeta[:pos], area_w=wgt[:pos], band=band[:pos], n_bands=n_bands,
                       blocks=blocks, n_global=n_global)


# -- assembly ----------------------------------------------------------------

def _deflate(coeffs, center, order):
    """Divide a polynomial by (zeta - center)^order, dropping the remainder.

    Valid only for polynomials vanishing to that order at the center up to
    roundoff; the dropped remainder then contributes O(eps * norm).
    """
    c = np.asarray(coeffs, dtype=complex).copy()
    for _ in range(order):
        if c.size <= 1:
            return np.zeros(1, dtype=complex)
        q = np.empty(c.size - 1, dtype=complex)
        acc = 0.0 + 0.0j
        for k in range(c.size - 1, 0, -1):
            acc = c[k] + center * acc
            q[k - 1] = acc
        c = q
    return c


def _coeff_matrix(basis):
    dmax = max(len(b) for b in basis)
    P = np.zeros((dmax, len(basis)), dtype=complex)
    for j, b in enumerate(basis):
        P[: len(b), j] = b
    return P


def _eval_block(zeta, P):
    """Vandermonde x coefficient product, chunk-friendly: [n_nodes, n_basis]."""
    V = np.empty((zeta.size, P.shape[0]), dtype=complex)
    V[:, 0] = 1.0
    for k in range(1, P.shape[0]):
        V[:, k] = V[:, k - 1] * zeta
    return V @ P


def _band_runs(band):
    """(band, start, stop) for each run of equal entries of a band array."""
    cut = np.flatnonzero(band[1:] != band[:-1]) + 1
    starts = np.concatenate([[0], cut])
    stops = np.concatenate([cut, [band.size]])
    return zip(band[starts].tolist(), starts.tolist(), stops.tolist())


def gram_on_nodes(nodes, kernel, gain, basis):
    """Hermitian Grams of the basis under 2 e^{-phi} c(-psi), one per band.

    Returns an array [n_bands, n_basis, n_basis]; entry [k][l][m] is
    conjugate-linear in l.  Patch blocks use the log-space weight with the
    enforced vanishing factored out.
    """
    n_b = len(basis)
    H = np.zeros((nodes.n_bands, n_b, n_b), dtype=complex)
    if nodes.zeta.size == 0:
        return H
    P_global = _coeff_matrix(basis)

    def accumulate(i0, i1, P, extra_order, center):
        # one chunk; its [n, n_basis] temporaries are freed on return
        z = nodes.zeta[i0:i1]
        psi = kernel.psi(z)
        log_w = _LOG2 + psi - kernel.phi_plus_psi(z) + eval_log_c(gain, -psi)
        if extra_order:
            log_w = log_w + 2.0 * extra_order * np.log(np.abs(z - center))
        B = _eval_block(z, P)
        Bw = B.conj().T
        Bw *= nodes.area_w[i0:i1] * np.exp(log_w)
        for k, s, e in _band_runs(nodes.band[i0:i1]):
            H[k] += Bw[:, s:e] @ B[s:e]

    groups = [(slice(0, nodes.n_global), P_global, 0, 0.0 + 0.0j)]
    for blk in nodes.blocks:
        nu = blk.spec.order
        P = _coeff_matrix([_deflate(b, blk.spec.center, nu) for b in basis]) if nu else P_global
        groups.append((blk.sl, P, nu, blk.spec.center))
    for sl, P, nu, center in groups:
        for i0 in range(sl.start, sl.stop, _CHUNK):
            accumulate(i0, min(i0 + _CHUNK, sl.stop), P, nu, center)
    return 0.5 * (H + H.conj().transpose(0, 2, 1))


def integral_on_nodes(nodes, fn):
    """Sums of fn over the nodes with area weights, one per band; fn supplies
    the full integrand apart from the polar Jacobian and blending masks."""
    total = np.zeros(nodes.n_bands, dtype=complex)
    z = nodes.zeta
    w = nodes.area_w
    for i0 in range(0, z.size, _CHUNK):
        vals = w[i0:i0 + _CHUNK] * fn(z[i0:i0 + _CHUNK])
        for k, s, e in _band_runs(nodes.band[i0:i0 + _CHUNK]):
            total[k] += complex(np.sum(vals[s:e]))
    return total


def _two_level(psi_fn, evaluate, patches, config, ts, band):
    """evaluate(nodes) over each level, with a two-level error estimate.

    The levels are the sublevel sets {psi < -t} for t in ``ts``, or the one
    band {-t1 <= psi < -t2} when ``band`` is (t1, t2).  One region per mesh
    level serves all of them: evaluate returns one value per band, and a
    level's value is the sum over its bands.  Returns arrays (value, err,
    degenerate) with one entry per level, in the order of ``ts``; err is the
    max entrywise difference from the half-resolution mesh when
    config.levels is 2.  Both meshes share the patch radii, which the
    deepest level sets.
    """
    if band is None:
        ts = [float(t) for t in ts]
        if not ts or not all(t >= 0 for t in ts):
            raise BadInputError("sublevel parameter t must be >= 0")
        cuts = np.array(sorted(set(ts)) + [math.inf])
        level = np.searchsorted(cuts, ts)
        deepest = cuts[-2]
    else:
        t_hi, t_lo = float(band[0]), float(band[1])
        if not (t_hi > t_lo >= 0):
            raise BadInputError(f"band needs t1 > t2 >= 0, got {band!r}")
        cuts = np.array([t_lo, t_hi])
        level = np.zeros(1, dtype=int)
        deepest = t_hi
    radii = _patch_radii(psi_fn, patches, deepest)
    fine = build_region(psi_fn, patches, config, cuts, radii)
    per_band = np.bincount(fine.band, minlength=fine.n_bands)
    degenerate = np.cumsum(per_band[::-1])[::-1] == 0
    val = _level_sums(evaluate(fine))
    del fine  # the coarse mesh is built without the fine nodes in memory
    err = np.zeros(degenerate.size)
    if config.levels == 2 and not degenerate.all():
        coarse = build_region(psi_fn, patches, config.halved(), cuts, radii)
        diff = np.abs(val - _level_sums(evaluate(coarse)))
        err = np.where(degenerate, 0.0, diff.reshape(diff.shape[0], -1).max(axis=1))
    return val[level], err[level], degenerate[level]


def _level_sums(per_band):
    """Values over the levels: suffix sums of the band values."""
    return np.cumsum(per_band[::-1], axis=0)[::-1]


def assembled_gram(kernel, gain, basis, patches, config, *, ts=(0.0,), band=None):
    """Two-level Grams of the basis, one per level: arrays (H, err, degenerate)."""
    return _two_level(kernel.psi, lambda nodes: gram_on_nodes(nodes, kernel, gain, basis),
                      patches, config, ts, band)


def assembled_integral(psi_fn, fn, patches, config, *, ts=(0.0,), band=None):
    """Two-level scalar integrals of fn, one per level: arrays (value, err, degenerate)."""
    return _two_level(psi_fn, lambda nodes: integral_on_nodes(nodes, fn),
                      patches, config, ts, band)
