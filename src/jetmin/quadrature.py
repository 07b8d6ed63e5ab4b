"""Adaptive polar quadrature over Green-sublevel regions of the unit disc.

A region is one pair (t_lo, t_hi) meaning {-t_hi <= psi < -t_lo} in disc
coordinates: t_hi = inf gives the sublevel set {psi < -t} (t_lo = t), and a
band {-t1 <= psi < -t2} is (t2, t1).  The public entry points keep the
``t=``/``band=`` keywords and convert them once, in the two-level driver.
A global polar grid centered at the origin locates the region cuts along
each ray by bisection and integrates with Gauss-Legendre panels split at
every cut and patch-circle crossing.  Neighborhoods of singular centers
are handed to local geometric-ring patches through a C^4 partition of
unity; patch products are assembled in log space with the enforced
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
_CHUNK = 16384
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
    """Mesh sizes: global angular/radial counts, per-patch counts, levels."""

    angular: int = 256
    radial: int = 256
    patch_angular: int = 64
    patch_radial: int = 64
    levels: int = 2

    def __post_init__(self) -> None:
        if min(self.angular, self.radial, self.patch_angular, self.patch_radial) < 8:
            raise BadInputError("quadrature mesh counts must be >= 8")
        if self.levels < 1:
            raise BadInputError("quadrature needs at least one refinement level")

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
    radius: float
    sl: slice
    masked: bool  # True when per-node region membership had to be applied


@dataclass
class RegionNodes:
    zeta: np.ndarray
    area_w: np.ndarray
    blocks: list
    n_global: int
    degenerate: bool


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


def _membership(vals, t_lo, t_hi):
    return (vals < -t_lo) & (vals >= -t_hi)


def _patch_radii(psi_fn, patches, t_lo, t_hi):
    """Blending radius per patch plus a containment flag.

    A patch is "contained" when its closed disc lies inside the deep region
    {psi < -threshold}, the threshold being t_lo for a sublevel set and t_hi
    for a band; psi is subharmonic off its poles, so a boundary-circle
    maximum below the threshold certifies the whole disc.
    """
    locs = [p.center for p in patches]
    out = []
    ang = np.exp(1j * (np.arange(_BOUNDARY_SAMPLES) + 0.5)
                 * (2 * math.pi / _BOUNDARY_SAMPLES))
    threshold = t_hi if math.isfinite(t_hi) else t_lo
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

def _sample_rays(psi_fn, thetas, centers):
    """Radial psi samples along each ray, clustered near center approaches."""
    base = np.arange(1, _RAY_SAMPLES + 1) / (_RAY_SAMPLES + 1.0)
    n = len(thetas)
    cols = [np.broadcast_to(base, (n, base.size))]
    conj_e = np.exp(-1j * thetas)[:, None]
    for c in centers:
        if c == 0:
            continue
        rstar = np.real(conj_e * c)
        dperp = np.maximum(np.abs(np.imag(conj_e * c)), 1e-7)
        scales = 2.0 ** np.arange(0, 7)[None, :]
        offs = dperp * scales
        cand = np.concatenate([rstar, rstar - offs, rstar + offs], axis=1)
        cols.append(np.clip(cand, 1e-9, 1 - 1e-12))
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


def _ray_intervals(psi_fn, thetas, t_lo, t_hi, centers):
    """Kept radial intervals of the region along each ray.

    Returns a list (per ray) of lists of (r_lo, r_hi) with the region cuts
    refined to bisection accuracy.
    """
    rs, vals = _sample_rays(psi_fn, thetas, centers)
    thresholds = [x for x in (t_hi, t_lo) if math.isfinite(x)]
    cuts_per_ray = [[] for _ in thetas]
    for thresh in thresholds:
        f = vals + thresh
        sign_change = (f[:, 1:] < 0) != (f[:, :-1] < 0)
        ray_idx, col_idx = np.nonzero(sign_change)
        if ray_idx.size:
            lo = rs[ray_idx, col_idx]
            hi = rs[ray_idx, col_idx + 1]
            f_lo = f[ray_idx, col_idx]
            e_ray = np.exp(1j * thetas[ray_idx])
            roots = _bisect_cuts(psi_fn, e_ray, lo, hi, f_lo, thresh)
            for i, r in zip(ray_idx, roots):
                cuts_per_ray[i].append(float(r))
    # classify the subintervals between consecutive breakpoints by midpoint
    candidates = []  # (ray index, r_lo, r_hi)
    for i, cuts in enumerate(cuts_per_ray):
        brk = sorted(set([0.0, 1.0] + cuts))
        for a, b in zip(brk[:-1], brk[1:]):
            if b - a > 1e-14:
                candidates.append((i, a, b))
    intervals = [[] for _ in thetas]
    if candidates:
        mids = np.array([0.5 * (a + b) for _, a, b in candidates])
        owner = np.array([i for i, _, _ in candidates])
        keep = _membership(psi_fn(mids * np.exp(1j * thetas[owner])), t_lo, t_hi)
        for (i, a, b), k in zip(candidates, keep):
            if k:
                intervals[i].append((a, b))
    return intervals


def _circle_splits(theta, c, rho):
    """Radii where the ray at angle theta crosses |zeta - c| = rho."""
    b = (c * np.exp(-1j * theta)).real
    disc = b * b - (abs(c) ** 2 - rho**2)
    if disc <= 0:
        return ()
    s = math.sqrt(disc)
    return (b - s, b + s)


def _panel_nodes(theta, w_theta, intervals, splits, budget):
    """Gauss-Legendre nodes/weights along one ray, in polar area measure."""
    rs, ws = [], []
    total = sum(b - a for a, b in intervals)
    if total <= 0:
        return rs, ws
    gx, gw = _GL10
    for a, b in intervals:
        inner = sorted({s for s in splits if a + 1e-14 < s < b - 1e-14})
        pieces = list(zip([a] + inner, inner + [b]))
        for lo, hi in pieces:
            n_pan = max(1, round(budget * (hi - lo) / total))
            edges = np.linspace(lo, hi, n_pan + 1)
            for p_lo, p_hi in zip(edges[:-1], edges[1:]):
                half = 0.5 * (p_hi - p_lo)
                mid = 0.5 * (p_hi + p_lo)
                r = mid + half * gx
                rs.append(r)
                ws.append(w_theta * half * gw * r)  # polar Jacobian r
    return rs, ws


def _global_nodes(psi_fn, t_lo, t_hi, config, mask_patches, all_centers):
    """Global polar nodes with tangency-aware angular refinement."""
    n_ang = config.angular
    d_theta = 2 * math.pi / n_ang
    thetas = (np.arange(n_ang) + 0.5) * d_theta
    intervals = _ray_intervals(psi_fn, thetas, t_lo, t_hi, all_centers)
    counts = np.array([len(iv) for iv in intervals])
    refine = np.zeros(n_ang, dtype=bool)
    if n_ang > 2:
        refine = (counts != np.roll(counts, 1)) | (counts != np.roll(counts, -1))

    rays = []  # (theta, weight, intervals)
    sub_thetas, sub_parent = [], []
    for i in range(n_ang):
        if refine[i]:
            for j in range(_TANGENT_SPLIT):
                sub_thetas.append(
                    thetas[i] + ((j + 0.5) / _TANGENT_SPLIT - 0.5) * d_theta
                )
                sub_parent.append(i)
        else:
            rays.append((thetas[i], d_theta, intervals[i]))
    if sub_thetas:
        sub_thetas = np.asarray(sub_thetas)
        sub_intervals = _ray_intervals(psi_fn, sub_thetas, t_lo, t_hi, all_centers)
        for th, iv in zip(sub_thetas, sub_intervals):
            rays.append((float(th), d_theta / _TANGENT_SPLIT, iv))

    budget = max(4, config.radial // 10)
    zeta_list, w_list = [], []
    for theta, w_theta, iv in rays:
        if not iv:
            continue
        splits = []
        for c, radius in mask_patches:
            splits.extend(_circle_splits(theta, c, radius))
            splits.extend(_circle_splits(theta, c, radius / 2))
        rs, ws = _panel_nodes(theta, w_theta, iv, splits, budget)
        for r, w in zip(rs, ws):
            zeta_list.append(r * np.exp(1j * theta))
            w_list.append(w)
    if not zeta_list:
        return np.empty(0, complex), np.empty(0, float)
    zeta = np.concatenate(zeta_list)
    wgt = np.concatenate(w_list)
    # transfer patch neighborhoods to the local grids via the C^4 partition
    mask = np.ones_like(wgt)
    for c, radius in mask_patches:
        mask *= 1.0 - _chi(np.abs(zeta - c), radius)
    keep = mask > _MASK_FLOOR
    return zeta[keep], wgt[keep] * mask[keep]


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


def build_region(psi_fn, patches, config, t_lo, t_hi, radii):
    """Nodes and area weights for {-t_hi <= psi < -t_lo}, or a degenerate flag.

    ``patches`` lists the singular centers (PatchSpec); ``radii`` carries
    their (radius, contained) pairs, so two refinement levels share the
    same geometry.
    """
    is_band = math.isfinite(t_hi)
    active = []   # patches integrated on local grids
    for p, (r, contained) in zip(patches, radii):
        if is_band and contained:
            continue  # deep below the band: zero contribution, no mask
        active.append((p, r, is_band or not contained))
    mask_patches = [(p.center, r) for p, r, _ in active]
    all_centers = [p.center for p in patches]

    zeta_g, w_g = _global_nodes(psi_fn, t_lo, t_hi, config, mask_patches, all_centers)
    zeta_parts = [zeta_g]
    w_parts = [w_g]
    blocks = []
    pos = zeta_g.size
    for p, r, needs_indicator in active:
        z_p, w_p = _patch_nodes(p, r, config)
        if needs_indicator:
            w_p = w_p * _membership(psi_fn(z_p), t_lo, t_hi)
        keep = w_p != 0
        z_p, w_p = z_p[keep], w_p[keep]
        blocks.append(PatchBlock(spec=p, radius=r, sl=slice(pos, pos + z_p.size),
                                 masked=needs_indicator))
        zeta_parts.append(z_p)
        w_parts.append(w_p)
        pos += z_p.size
    zeta = np.concatenate(zeta_parts)
    wgt = np.concatenate(w_parts)
    return RegionNodes(
        zeta=zeta,
        area_w=wgt,
        blocks=blocks,
        n_global=zeta_g.size,
        degenerate=zeta.size == 0,
    )


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


def gram_on_nodes(nodes, kernel, gain, basis):
    """Hermitian Gram of the basis under 2 e^{-phi} c(-psi) on the nodes.

    Entry [l][m] is conjugate-linear in the first index.  Patch blocks use
    the log-space weight with the enforced vanishing factored out.
    """
    n_b = len(basis)
    H = np.zeros((n_b, n_b), dtype=complex)
    if nodes.degenerate:
        return H
    P_global = _coeff_matrix(basis)

    def accumulate(sl, P, extra_order=0, center=0.0 + 0.0j):
        nonlocal H
        z_all = nodes.zeta[sl]
        w_all = nodes.area_w[sl]
        for i0 in range(0, z_all.size, _CHUNK):
            z = z_all[i0:i0 + _CHUNK]
            w = w_all[i0:i0 + _CHUNK]
            psi = kernel.psi(z)
            log_w = _LOG2 + psi - kernel.phi_plus_psi(z) + eval_log_c(gain, -psi)
            if extra_order:
                log_w = log_w + 2.0 * extra_order * np.log(np.abs(z - center))
            B = _eval_block(z, P)
            H += (B.conj().T * (w * np.exp(log_w))) @ B

    accumulate(slice(0, nodes.n_global), P_global)
    for blk in nodes.blocks:
        nu = blk.spec.order
        if nu:
            P = _coeff_matrix([_deflate(b, blk.spec.center, nu) for b in basis])
        else:
            P = P_global
        accumulate(blk.sl, P, extra_order=nu, center=blk.spec.center)
    return 0.5 * (H + H.conj().T)


def integral_on_nodes(nodes, fn):
    """Sum of fn over the nodes with area weights; fn supplies the full
    integrand apart from the polar Jacobian and blending masks."""
    if nodes.degenerate:
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    z = nodes.zeta
    w = nodes.area_w
    for i0 in range(0, z.size, _CHUNK):
        total += complex(np.sum(w[i0:i0 + _CHUNK] * fn(z[i0:i0 + _CHUNK])))
    return total


def _two_level(psi_fn, evaluate, patches, config, t, band):
    """evaluate(nodes) on the region, with a two-level error estimate.

    The region is {psi < -t}, or the band {-t1 <= psi < -t2} when ``band``
    is (t1, t2).  Returns (value, err, degenerate); err is the max entrywise
    difference from the half-resolution mesh when config.levels >= 2.  Both
    levels share the patch radii.
    """
    if band is None:
        if t < 0:
            raise BadInputError("sublevel parameter t must be >= 0")
        t_lo, t_hi = t, math.inf
    else:
        t_hi, t_lo = float(band[0]), float(band[1])
        if not (t_hi > t_lo >= 0):
            raise BadInputError(f"band needs t1 > t2 >= 0, got {band!r}")
    radii = _patch_radii(psi_fn, patches, t_lo, t_hi)
    fine = build_region(psi_fn, patches, config, t_lo, t_hi, radii)
    val = evaluate(fine)
    err = 0.0
    if config.levels >= 2 and not fine.degenerate:
        coarse = build_region(psi_fn, patches, config.halved(), t_lo, t_hi, radii)
        err = float(np.max(np.abs(val - evaluate(coarse))))
    return val, err, fine.degenerate


def assembled_gram(kernel, gain, basis, patches, config, *, t=0.0, band=None):
    """Two-level Gram of the basis over the region: (H, err, degenerate)."""
    return _two_level(kernel.psi, lambda nodes: gram_on_nodes(nodes, kernel, gain, basis),
                      patches, config, t, band)


def assembled_integral(psi_fn, fn, patches, config, *, t=0.0, band=None):
    """Two-level scalar integral of fn over the region: (value, err, degenerate)."""
    return _two_level(psi_fn, lambda nodes: integral_on_nodes(nodes, fn),
                      patches, config, t, band)
