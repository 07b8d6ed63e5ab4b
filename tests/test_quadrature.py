"""Region geometry of the polar quadrature (ray origin, threshold cuts, sub-rays)
and the moment Gram kernel."""
import math

import numpy as np
import pytest

from jetmin.forms import _patch_specs, constraint_basis, jet_constraints
from jetmin.gain import GainFunction
from jetmin.geometry import UNIT_DISC, MarkedPoint
from jetmin.quadrature import (
    QuadratureConfig,
    _global_panels,
    _patch_radii,
    _ray_pieces,
    _reach,
    build_region,
    gram_on_nodes,
)
from jetmin.weights import WeightKernel, WeightPair
from oracles import gram_direct

CUTS = np.array([0.2, 0.7, 1.5, 3.0, 5.0, math.inf])


def single_pole_region(zeta0):
    w = WeightPair.standard((MarkedPoint(zeta0, green_weight=1.0, jet_order=0, jet_coeff=1.0),))
    kernel = WeightKernel(UNIT_DISC, w)
    specs = _patch_specs(kernel, GainFunction.constant(1.0))
    radii = _patch_radii(kernel.psi, specs, CUTS[-2])
    return kernel, build_region(kernel.psi, specs, QuadratureConfig(), CUTS, radii)


def test_single_pole_rays_start_at_the_pole():
    # the sublevel sets of a one-pole Green function are discs around the
    # pole, so rays from the pole cross each level once wherever it lies:
    # the global node count barely moves with the pole (rays from the origin
    # would be tangent to every level that leaves the origin outside)
    counts = []
    for zeta0 in (0.0, 0.1, 0.45 - 0.2j, 0.6j):
        kernel, nodes = single_pole_region(zeta0)
        counts.append(nodes.n_global)
        z = nodes.zeta[:nodes.n_global]
        assert np.all(np.abs(z) < 1.0)
        band = np.searchsorted(CUTS, -kernel.psi(z), side="left") - 1
        assert np.array_equal(band, nodes.band[:nodes.n_global])
    assert max(counts) <= 1.05 * min(counts)


def test_single_pole_region_area():
    # area weights of every level add up to the area of its Apollonius disc
    for zeta0 in (0.3, -0.5 + 0.1j):
        _, nodes = single_pole_region(zeta0)
        per_band = np.bincount(nodes.band, weights=nodes.area_w, minlength=nodes.n_bands)
        level_area = np.cumsum(per_band[::-1])[::-1]
        for t, area in zip(CUTS[:-1], level_area):
            s = math.exp(-t / 2)  # {psi < -t} is {|phi_zeta0| < s}
            a = abs(zeta0)
            radius = s * (1 - a * a) / (1 - s * s * a * a)
            assert area == pytest.approx(math.pi * radius**2, rel=1e-9)


def test_reach_ends_on_the_unit_circle():
    thetas = np.linspace(0.0, 2 * math.pi, 17)
    for origin in (0j, 0.3 - 0.4j, 0.9):
        ends = origin + _reach(thetas, origin) * np.exp(1j * thetas)
        assert np.allclose(np.abs(ends), 1.0, atol=1e-14)


def split_level_kernel():
    # psi(0) = -5.32: the levels below t = 5.32 are split into two discs
    pts = (MarkedPoint(0.33, green_weight=1.2, jet_order=1, jet_coeff=1.0),
           MarkedPoint(-0.33, green_weight=1.2, jet_order=0, jet_coeff=0.5))
    return WeightKernel(UNIT_DISC, WeightPair.standard(pts))


def test_marked_band_cuts_keep_their_pieces():
    # sub-rays cut only at the thresholds of the bands they refine; the
    # pieces and level lengths of those bands match a cut at every threshold
    kernel = split_level_kernel()
    cuts = np.array([0.1, 1.0, 3.0, 5.0, 5.5, 6.0, math.inf])
    thetas = (np.arange(64) + 0.5) * (2 * math.pi / 64)
    reach = _reach(thetas, 0j)
    centers = [0.33, -0.33]
    full = _ray_pieces(kernel.psi, thetas, reach, cuts, centers)
    for marked in ([3, 4], [5], [0, 4]):
        bands = np.zeros(cuts.size - 1, dtype=bool)
        bands[marked] = True
        part = _ray_pieces(kernel.psi, thetas, reach, cuts, centers, bands=bands)
        sel_full, sel_part = bands[full[3]], bands[part[3]]
        assert sel_full.sum() > 0
        for a, b in zip(full, part):
            assert np.array_equal(a[sel_full], b[sel_part])


@pytest.mark.parametrize("cuts", [(0.1, 1.0, 3.0, 5.0, 5.5, 6.0), (0.5, 2.0, 5.5)])
def test_sub_rays_take_the_widest_base_density(cuts):
    # tangency sub-rays cross short chords of the split levels; at the
    # panel density of the widest base ray they need fewer panels than the
    # full per-level budget each (about 37 per sub-ray at the full budget)
    kernel = split_level_kernel()
    config = QuadratureConfig()
    mid, half, e, w_half, band = _global_panels(
        kernel.psi, np.array([*cuts, math.inf]), config, [], [0.33, -0.33], 0j)
    w_theta = w_half / half
    sub = w_theta < 0.5 * w_theta.max()
    n_sub_rays = np.unique(np.round(np.angle(e[sub]), 12)).size
    assert n_sub_rays > 0
    assert sub.sum() < 1.2 * (config.radial // 10) * n_sub_rays


def level_on_rays(pieces, k):
    """[ray, r_lo, r_hi] of each run of pieces in band k or deeper."""
    out = []
    ray, lo, hi, band, _ = pieces
    inside = band >= k
    for r, a, b in zip(ray[inside], lo[inside], hi[inside]):
        if out and out[-1][0] == r and out[-1][2] == a:
            out[-1][2] = b
        else:
            out.append([r, a, b])
    return out


def test_all_thresholds_cut_as_each_alone():
    # one pass finds every threshold a sample pair brackets (5.5 and 5.501
    # share sample pairs), and the brackets of all ray blocks are bisected
    # together: each level's ends on every ray are bitwise those of a run
    # with its threshold alone
    kernel = split_level_kernel()
    cuts = np.array([0.1, 1.0, 3.0, 5.0, 5.5, 5.501, 6.0, math.inf])
    thetas = (np.arange(80) + 0.5) * (2 * math.pi / 80)  # blocks of 32, 32 and 16 rays
    reach = _reach(thetas, 0j)
    centers = [0.33, -0.33]
    full = _ray_pieces(kernel.psi, thetas, reach, cuts, centers)
    for k, t in enumerate(cuts[:-1]):
        alone = _ray_pieces(kernel.psi, thetas, reach, np.array([t, math.inf]), centers)
        assert level_on_rays(alone, 0)
        assert level_on_rays(full, k) == level_on_rays(alone, 0)


def test_zero_threshold_rays_are_not_sampled():
    # psi < 0 on the open disc, so the level t = 0 has no threshold to cut:
    # each ray is one piece [0, reach], and psi is evaluated only at the
    # piece midpoints to tag their band
    kernel = split_level_kernel()
    origin = 0.2 - 0.1j  # rays start here; psi and centers are relative to it
    seen = []

    def psi(z):
        seen.append(np.array(z, dtype=complex).ravel())
        return kernel.psi(z + origin)

    thetas = (np.arange(64) + 0.5) * (2 * math.pi / 64)
    reach = _reach(thetas, origin)
    ray, lo, hi, band, level_len = _ray_pieces(psi, thetas, reach, np.array([0.0, math.inf]),
                                               [0.33 - origin, -0.33 - origin])
    assert np.array_equal(ray, np.arange(64))
    assert np.array_equal(lo, np.zeros(64))
    assert np.array_equal(hi, reach)
    assert np.array_equal(band, np.zeros(64))
    assert np.array_equal(level_len, reach)
    assert np.array_equal(np.concatenate(seen), 0.5 * reach * np.exp(1j * thetas))


def test_moment_gram_matches_direct_products():
    # the moment kernel sums V^H W V per band and reduces it with each node
    # group's coefficient matrix; on a multi-band region whose first patch
    # deflates the (complex) basis it agrees with the direct products B^H W B
    pts = (MarkedPoint(0.3 + 0.15j, green_weight=1.2, jet_order=1, jet_coeff=0.8 + 0.6j),
           MarkedPoint(-0.25 - 0.2j, green_weight=1.2, jet_order=0, jet_coeff=0.5j))
    kernel = WeightKernel(UNIT_DISC, WeightPair.standard(pts))
    gain = GainFunction.exponential(0.3)
    specs = _patch_specs(kernel, gain)
    cuts = np.array([0.0, 1.0, 3.0, 4.0, math.inf])
    config = QuadratureConfig(angular=64, radial=64, patch_angular=32, patch_radial=32)
    nodes = build_region(kernel.psi, specs, config, cuts, _patch_radii(kernel.psi, specs, 4.0))
    assert any(blk.spec.order > 0 and blk.sl.stop > blk.sl.start for blk in nodes.blocks)
    assert np.unique(nodes.band[:nodes.n_global]).size == nodes.n_bands
    a_part, Z = constraint_basis(jet_constraints(kernel.w, 16))
    basis = [a_part] + list(Z.T)
    got = gram_on_nodes(nodes, kernel, gain, basis)
    ref = gram_direct(nodes, kernel, gain, basis)
    ref = 0.5 * (ref + ref.conj().transpose(0, 2, 1))
    for k in range(nodes.n_bands):
        assert np.abs(got[k] - ref[k]).max() <= 1e-13 * np.abs(ref[k]).max()
