"""Region geometry of the polar quadrature: ray origin and sub-ray cuts."""
import math

import numpy as np
import pytest

from jetmin.forms import _patch_specs
from jetmin.gain import GainFunction
from jetmin.geometry import UNIT_DISC, MarkedPoint
from jetmin.quadrature import (
    QuadratureConfig,
    _global_panels,
    _patch_radii,
    _ray_pieces,
    _reach,
    build_region,
)
from jetmin.weights import WeightKernel, WeightPair

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
