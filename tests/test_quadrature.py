"""Region geometry of the polar quadrature (ray origin, threshold cuts, sub-rays)
and the moment Gram kernel."""
import math
from dataclasses import replace

import numpy as np
import pytest

from jetmin import quadrature
from jetmin.errors import BadInputError, NumericalError
from jetmin.forms import _patch_specs, constraint_basis, jet_constraints
from jetmin.gain import GainFunction
from jetmin.geometry import UNIT_DISC, MarkedPoint
from jetmin.problems import random_concavity_problem
from jetmin.quadrature import (
    QuadratureConfig,
    _global_panels,
    _panels,
    _patch_radii,
    _ray_pieces,
    _reach,
    _taylor_shift,
    _two_level,
    assembled_integral,
    build_region,
    gram_on_nodes,
    integral_on_nodes,
)
from jetmin.weights import WeightKernel, WeightPair
from oracles import bisect_cuts, gram_direct

CUTS = np.array([0.2, 0.7, 1.5, 3.0, 5.0, math.inf])


def pole_region(pts, cuts):
    """The weight's kernel and its default-mesh region for the cut list."""
    kernel = WeightKernel(UNIT_DISC, WeightPair.standard(pts))
    specs = _patch_specs(kernel, GainFunction.constant(1.0))
    radii = _patch_radii(kernel.psi, specs, cuts[-2])
    return kernel, build_region(kernel.psi, specs, QuadratureConfig(), cuts, radii)


def single_pole_region(zeta0):
    return pole_region((MarkedPoint(zeta0, green_weight=1.0, jet_order=0, jet_coeff=1.0),), CUTS)


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


@pytest.mark.parametrize("zeta0,p", [(0.7j, 1.5), (0.8, 1.0), (-0.75 + 0.2j, 1.2)])
def test_shallow_levels_are_cut_up_to_the_circle(zeta0, p):
    # a level t > 0 near the circle can cross a ray between its last
    # interior sample and the circle, where psi = 0; the end sample brackets
    # it there, so the level keeps the area of its Apollonius disc
    cuts = np.array([0.0005, 0.005, 0.02, 0.057, math.inf])
    _, nodes = pole_region((MarkedPoint(zeta0, green_weight=p, jet_order=0, jet_coeff=1.0),),
                           cuts)
    per_band = np.bincount(nodes.band, weights=nodes.area_w, minlength=nodes.n_bands)
    level_area = np.cumsum(per_band[::-1])[::-1]
    a = abs(zeta0)
    for t, area in zip(cuts[:-1], level_area):
        s = math.exp(-t / (2 * p))
        radius = s * (1 - a * a) / (1 - s * s * a * a)
        assert area == pytest.approx(math.pi * radius**2, rel=1e-10)


def test_rays_from_the_origin_are_cut_up_to_the_circle():
    # two points near the origin: psi is about -0.0047 at the last interior
    # sample 1024/1025 of every ray, so the level t = 0.004 crosses beyond
    # it; the clustered samples of a center reach the circle only on rays
    # far off the axis through the points
    pts = (MarkedPoint(0.1, green_weight=1.2, jet_order=1, jet_coeff=1.0),
           MarkedPoint(-0.1, green_weight=1.2, jet_order=0, jet_coeff=0.5))
    cuts = np.array([0.004, 1.0, math.inf])
    kernel, nodes = pole_region(pts, cuts)
    z = nodes.zeta[:nodes.n_global]
    band = np.searchsorted(cuts, -kernel.psi(z), side="left") - 1
    assert np.array_equal(band, nodes.band[:nodes.n_global])


def sample_counts(psi_fn, calls):
    """psi_fn, recording the samples per ray of each 2-D (ray sampling) call."""
    def recorded(z):
        if np.ndim(z) == 2:
            calls.append(np.shape(z)[1])
        return psi_fn(z)
    return recorded


def test_one_center_rays_take_coarse_samples(monkeypatch):
    # psi = 2p G(., c) rises along every ray from the only center c, so 64
    # samples bracket each crossing: the (ray, band) pieces are those of
    # 1024 samples, with breaks within 4 ulps.  Every ray also takes its end
    # on the circle, and the center at the ray origin adds its 15 clustered
    # samples (down to 1e-9) as any center does, so the level t = 12 about
    # a pole at 0, of radius e^-6 inside the first uniform sample 1/65, is
    # still bracketed.
    thetas = (np.arange(64) + 0.5) * (2 * math.pi / 64)
    deep = np.array([0.2, 12.0, math.inf])
    for zeta0, cuts in ((0.0, CUTS), (0.1, CUTS), (0.45 - 0.2j, CUTS), (0.6j, CUTS),
                        (0.0, deep)):
        kernel, _ = single_pole_region(zeta0)
        reach = _reach(thetas, zeta0)
        pieces = {}
        for n in (64, 1024):
            monkeypatch.setattr(quadrature, "_ONE_CENTER_SAMPLES", n)
            calls = []
            psi = sample_counts(lambda z: kernel.psi(z + zeta0), calls)
            pieces[n] = _ray_pieces(psi, thetas, reach, cuts, [0j])
            assert set(calls) == {n + 16}
        (ray, lo, hi, band, _), (ray_f, lo_f, hi_f, band_f, _) = pieces[64], pieces[1024]
        assert np.array_equal(ray, ray_f) and np.array_equal(band, band_f)
        assert np.unique(band).size == cuts.size - 1
        for a, b in ((lo, lo_f), (hi, hi_f)):
            assert np.all(np.abs(a - b) <= 4 * np.spacing(np.maximum(a, b)))


def test_rays_among_two_centers_take_fine_samples():
    # psi need not be monotone along rays from the origin between two poles
    kernel = split_level_kernel()
    thetas = (np.arange(64) + 0.5) * (2 * math.pi / 64)
    calls = []
    _ray_pieces(sample_counts(kernel.psi, calls), thetas, _reach(thetas, 0j),
                np.array([1.0, 5.5, math.inf]), [0.33, -0.33])
    assert calls and min(calls) >= 1024


def test_reach_ends_on_the_unit_circle():
    thetas = np.linspace(0.0, 2 * math.pi, 17)
    for origin in (0j, 0.3 - 0.4j, 0.9):
        ends = origin + _reach(thetas, origin) * np.exp(1j * thetas)
        assert np.allclose(np.abs(ends), 1.0, atol=1e-14)


# psi(0) = -5.32: the levels below t = 5.32 are split into two discs
SPLIT_POINTS = (MarkedPoint(0.33, green_weight=1.2, jet_order=1, jet_coeff=1.0),
                MarkedPoint(-0.33, green_weight=1.2, jet_order=0, jet_coeff=0.5))


def split_level_kernel():
    return WeightKernel(UNIT_DISC, WeightPair.standard(SPLIT_POINTS))


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


def test_whole_level_pieces_get_the_budget():
    # a piece that is its whole level gets exactly `budget` panels: the
    # length ratio is taken first, as 12 * x / x can round to 12 + 2 ulps
    rng = np.random.default_rng(7)
    lo = rng.uniform(0.0, 0.5, 1000)
    hi = lo + rng.uniform(1e-3, 0.5, 1000)
    n = lo.size
    *_, piece = _panels(rng.uniform(0, 2 * math.pi, n), np.ones(n), lo, hi, hi - lo, [], 12)
    assert np.array_equal(np.bincount(piece, minlength=n), np.full(n, 12))


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


SMALL = QuadratureConfig(angular=64, radial=64, patch_angular=32, patch_radial=32)
GAIN = GainFunction.exponential(0.3)
TWO_POINTS = (MarkedPoint(0.3 + 0.15j, green_weight=1.2, jet_order=1, jet_coeff=0.8 + 0.6j),
              MarkedPoint(-0.25 - 0.2j, green_weight=1.2, jet_order=0, jet_coeff=0.5j))
FAR_POINTS = (MarkedPoint(0.57 * np.exp(0.7j), green_weight=1.0, jet_order=2,
                          jet_coeff=0.6 - 0.3j),
              MarkedPoint(-0.2 + 0.3j, green_weight=1.3, jet_order=0, jet_coeff=0.5))
ONE_POINT = (MarkedPoint(0.45 - 0.2j, green_weight=1.0, jet_order=1, jet_coeff=0.7),)
CUTS_SPLIT = (0.1, 1.0, 3.0, 5.0, 5.5, 6.0)


def region_and_basis(pts, cuts, N, config=SMALL):
    """Kernel, region and constrained basis [a_part | Z] of a standard pair."""
    kernel = WeightKernel(UNIT_DISC, WeightPair.standard(pts))
    specs = _patch_specs(kernel, GAIN)
    cuts = np.array(cuts)
    nodes = build_region(kernel.psi, specs, config, cuts,
                         _patch_radii(kernel.psi, specs, cuts[-2]))
    a_part, Z = constraint_basis(jet_constraints(kernel.w, N))
    return kernel, nodes, [a_part] + list(Z.T)


def assert_matches_direct(kernel, nodes, basis):
    got = gram_on_nodes(nodes, kernel, GAIN, basis)
    ref = gram_direct(nodes, kernel, GAIN, basis)
    ref = 0.5 * (ref + ref.conj().transpose(0, 2, 1))
    for k in range(nodes.n_bands):
        assert np.abs(got[k] - ref[k]).max() <= 1e-13 * np.abs(ref[k]).max()


def recorded_cut_searches(monkeypatch):
    """Each later _bisect_cuts call as (psi_fn, args, cuts, kernel passes)."""
    calls = []
    search = quadrature._bisect_cuts

    def recorded(psi_fn, *args):
        passes = []

        def counted(z):
            passes.append(1)
            return psi_fn(z)

        cuts = search(counted, *args)
        calls.append((psi_fn, args, cuts, len(passes)))
        return cuts

    monkeypatch.setattr(quadrature, "_bisect_cuts", recorded)
    return calls


@pytest.mark.parametrize("pts,cuts", [(ONE_POINT, CUTS),
                                      (TWO_POINTS, [0.2, 0.7, 1.5, 3.0, math.inf])],
                         ids=["one-point", "two-point"])
def test_secant_cut_search_matches_bisection(pts, cuts, monkeypatch):
    # Illinois steps find every crossing within 4 ulps of plain bisection
    # from the same brackets, in at most 16 kernel passes per call, where
    # bisection takes 44 to 49.  (Where a ray grazes a deep level, the
    # rounding of psi + t leaves a run of float roots, and the two searches
    # may end at different ones.)
    calls = recorded_cut_searches(monkeypatch)
    region_and_basis(pts, cuts, 4, QuadratureConfig())
    assert calls
    for psi_fn, (e_ray, lo, hi, f_lo, _f_hi, thresh), got, passes in calls:
        want = bisect_cuts(psi_fn, e_ray, lo, hi, f_lo, thresh)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
        assert passes <= 16


def test_moment_gram_matches_direct_products():
    # the polar moments of rays from the origin and of patch rings agree with
    # the direct products B^H W B on a multi-band region whose first patch
    # deflates the (complex) basis
    kernel, nodes, basis = region_and_basis(TWO_POINTS, [0.0, 1.0, 3.0, 4.0, math.inf], 16)
    assert nodes.ray_runs is not None
    assert any(blk.spec.order > 0 and blk.sl.stop > blk.sl.start for blk in nodes.blocks)
    assert np.unique(nodes.band[:nodes.n_global]).size == nodes.n_bands
    assert_matches_direct(kernel, nodes, basis)


def test_moment_gram_on_tangency_sub_rays():
    # several bands of a split level, refined on sub-rays between the base rays
    kernel, nodes, basis = region_and_basis(SPLIT_POINTS, [*CUTS_SPLIT, math.inf], 16)
    assert np.unique(nodes.ray_runs[1]).size > SMALL.angular
    assert_matches_direct(kernel, nodes, basis)


def test_moment_gram_far_patch_with_vanishing():
    # a patch at |c| = 0.57 with nu = 2: the Taylor-shifted basis drops its two
    # leading local coefficients
    kernel, nodes, basis = region_and_basis(FAR_POINTS, [0.0, 2.0, math.inf], 24)
    far = [blk for blk in nodes.blocks if abs(blk.spec.center) > 0.5]
    assert far[0].spec.order == 2 and far[0].sl.stop > far[0].sl.start
    assert_matches_direct(kernel, nodes, basis)


def test_moment_gram_degree_40():
    kernel, nodes, basis = region_and_basis(TWO_POINTS, [0.0, 2.0, math.inf], 40)
    assert len(basis[0]) == 41
    assert_matches_direct(kernel, nodes, basis)


@pytest.mark.parametrize("N", [16, 40, 64])
@pytest.mark.parametrize("radius", [0.49, 0.6, 0.86, 0.95])
def test_moment_gram_on_rays_from_a_pole(radius, N):
    # rays cast from a pole c off the origin take polar moments about c, in
    # Taylor-shifted coefficients, on |zeta - c| <= 1 - |c| and the monomial
    # moments of zeta beyond it; nodes lie on both sides of that circle
    pole = radius * np.exp(-0.42j)
    pts = (MarkedPoint(pole, green_weight=1.0, jet_order=1, jet_coeff=0.7),)
    kernel, nodes, basis = region_and_basis(pts, [0.2, 1.5, math.inf], N)
    assert nodes.origin == pole and nodes.ray_runs is not None
    x = np.abs(nodes.zeta[:nodes.n_global] - pole)
    assert np.any(x <= 1 - radius) and np.any(x > 1 - radius)
    assert_matches_direct(kernel, nodes, basis)


@pytest.mark.parametrize("pts", [ONE_POINT, TWO_POINTS], ids=["one-pole", "two-pole"])
def test_moment_gram_of_emptied_patch_blocks(pts):
    # {psi < -200} lies inside the representability floor of every pole: no
    # patch fits inside it, so no patch block is built, no ray node lies in
    # it, and the Gram is zero
    kernel, nodes, basis = region_and_basis(pts, [200.0, math.inf], 8)
    assert nodes.zeta.size == 0 and not nodes.blocks
    assert not np.any(gram_on_nodes(nodes, kernel, GAIN, basis))


def test_ray_runs_skip_wholly_masked_pieces():
    # a patch of radius 0.75 at the origin (psi = 2 log|z| on its circle, in
    # band 0) masks all of the inner level {|z| < e^-1} on the global rays:
    # those runs keep no node and are left out of the run table, which then
    # starts strictly increasing runs only
    kernel = WeightKernel(UNIT_DISC, WeightPair.standard(
        (MarkedPoint(0.0, green_weight=1.0, jet_order=0, jet_coeff=1.0),)))
    specs = _patch_specs(kernel, GAIN)
    nodes = build_region(kernel.psi, specs, SMALL, np.array([0.5, 2.0, math.inf]),
                         [(0.75, 2 * math.log(0.75))])
    starts = nodes.ray_runs[0]
    assert [blk.band for blk in nodes.blocks] == [0]
    assert np.all(nodes.band[:nodes.n_global] == 0)
    assert np.all(np.diff(starts) > 0) and starts[-1] < nodes.n_global
    a_part, Z = constraint_basis(jet_constraints(kernel.w, 8))
    assert_matches_direct(kernel, nodes, [a_part] + list(Z.T))


@pytest.mark.parametrize("cuts", [[0.0, 6.5, math.inf], [5.5, 6.5, 7.2]],
                         ids=["sublevel", "band"])
@pytest.mark.parametrize("halved", [False, True], ids=["fine", "coarse"])
def test_patches_are_whole_rings_in_one_band(cuts, halved):
    # each patch is whole rings of patch_angular nodes, all in the band of
    # its circle maximum, and lies inside that band's level; a band region
    # builds none at a psi pole, whose patch lies below every band
    config = SMALL.halved() if halved else SMALL
    kernel, nodes, basis = region_and_basis(TWO_POINTS, cuts, 16, config)
    n_ang = config.patch_angular
    if math.isfinite(cuts[-1]):
        assert not nodes.blocks
    else:
        assert len(nodes.blocks) == 2
    for blk in nodes.blocks:
        size = blk.sl.stop - blk.sl.start
        assert size == blk.rho.size * n_ang
        assert np.all(nodes.band[blk.sl] == blk.band)
        assert np.all(kernel.psi(nodes.zeta[blk.sl]) < -cuts[blk.band])
        x = (nodes.zeta[blk.sl] - blk.spec.center).reshape(-1, n_ang)
        assert np.allclose(np.abs(x), blk.rho[:, None], rtol=1e-12)
    assert_matches_direct(kernel, nodes, basis)


def test_ray_runs_end_at_band_changes_on_one_ray():
    # psi is deep only on the three rays nearest the angle 0 and below
    # |z| = 0.3; those rays start band 1's pieces, and the base ray at
    # angle -d_theta / 2 holds both band 0's last piece and band 1's first,
    # which must be separate runs
    config = QuadratureConfig(angular=16, radial=40, patch_angular=8, patch_radial=8)
    d_theta = 2 * math.pi / config.angular

    def psi(z):
        z = np.asarray(z)
        deep = (np.abs(z) < 0.3) & (np.abs(np.angle(z) + 0.5 * d_theta) < 1.5 * d_theta)
        return np.where(deep, -2.0, -0.5)

    nodes = build_region(psi, [], config, np.array([0.0, 1.0, math.inf]), [])
    change = np.flatnonzero(np.diff(nodes.band))
    assert change.size == 1
    last, first = nodes.zeta[change[0]:change[0] + 2]
    assert abs(np.angle(last) - np.angle(first)) < 1e-12
    kernel = WeightKernel(UNIT_DISC, WeightPair.standard(TWO_POINTS))
    a_part, Z = constraint_basis(jet_constraints(kernel.w, 12))
    assert_matches_direct(kernel, nodes, [a_part] + list(Z.T))


@pytest.mark.parametrize("pts", [ONE_POINT, FAR_POINTS, SPLIT_POINTS],
                         ids=["one-pole", "far-patch", "split"])
def test_moment_gram_runs_straddle_chunks(pts, monkeypatch):
    # small odd chunks cut ray and ring runs at every few nodes; a run's
    # pieces in successive chunks add up to the whole run
    monkeypatch.setattr(quadrature, "_GRAM_CHUNK", 7)
    monkeypatch.setattr(quadrature, "_CHUNK", 11)
    config = QuadratureConfig(angular=16, radial=40, patch_angular=8, patch_radial=8)
    kernel, nodes, basis = region_and_basis(pts, [*CUTS_SPLIT[:3], math.inf], 12, config)
    n_ang = config.patch_angular
    runs = [blk.sl.start + n_ang * np.arange(blk.rho.size) for blk in nodes.blocks]
    runs.append(nodes.ray_runs[0])
    assert any(np.any(np.diff(r) > 7) for r in runs)
    assert_matches_direct(kernel, nodes, basis)


def direct_values(zeta, P):
    """Values of the columns of P at zeta by Horner's rule in extended precision."""
    z = zeta.astype(np.clongdouble)
    out = np.zeros((P.shape[1], z.size), dtype=np.clongdouble)
    for row in P[::-1].astype(np.clongdouble):
        out = out * z + row[:, None]
    return out


@pytest.mark.parametrize("N", [24, 64])
@pytest.mark.parametrize("seed", [0, 1, 3])
def test_taylor_shift_matches_direct_values(seed, N):
    # the shifted constrained basis [a_part | Z], evaluated in x = zeta - c on
    # every 11th node of the patch rings, against the basis evaluated at zeta
    p = random_concavity_problem(seed)
    kernel = WeightKernel(p.domain, p.weights)
    specs = _patch_specs(kernel, p.gain)
    nodes = build_region(kernel.psi, specs, QuadratureConfig(), np.array([0.0, math.inf]),
                         _patch_radii(kernel.psi, specs, 0.0))
    a_part, Z = constraint_basis(jet_constraints(p.weights, N, p.domain))
    P = np.column_stack([a_part, Z])
    for blk in nodes.blocks:
        c = blk.spec.center
        assert abs(c) <= 0.6
        z = nodes.zeta[blk.sl][::11]
        want = direct_values(z, P)
        got = np.polynomial.polynomial.polyval(z - c, _taylor_shift(P, c))
        err = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
        assert err.max() <= 1e-13


def test_half_resolution_mesh_is_checked_too():
    # a non-finite value on the coarse mesh alone would read as a NaN error
    # estimate, which every gate passes; the driver refuses it instead
    kernel = WeightKernel(UNIT_DISC, WeightPair.standard(TWO_POINTS))
    specs = _patch_specs(kernel, GAIN)
    config = QuadratureConfig()

    def area(nodes):
        val = integral_on_nodes(nodes, lambda z: np.ones((1, z.size)))
        return val if nodes.patch_angular == config.patch_angular else val * np.nan

    with pytest.raises(NumericalError, match="non-finite quadrature values"):
        _two_level(kernel.psi, area, specs, config, (0.5,), None)
    val, err = _two_level(kernel.psi, area, specs, replace(config, levels=1), (0.5,), None)
    assert np.isfinite(val).all() and err[0] == 0


@pytest.mark.parametrize("count,floor", [("angular", 32), ("radial", 40),
                                         ("patch_angular", 16), ("patch_radial", 16)])
def test_two_level_mesh_needs_counts_above_the_coarse_floors(count, floor):
    # a count at its floor is not halved, so that part of the mesh would be
    # compared with itself; one level at the floor needs no coarse mesh
    kernel = WeightKernel(UNIT_DISC, WeightPair.standard(TWO_POINTS))
    specs = _patch_specs(kernel, GAIN)

    def area_error(config):
        return assembled_integral(kernel.psi, lambda z: np.ones((1, z.size)), specs, config,
                                  ts=(0.5,))[1][0]

    at_floor = replace(QuadratureConfig(), **{count: floor})
    with pytest.raises(BadInputError, match="half-resolution floors"):
        area_error(at_floor)
    assert area_error(replace(at_floor, levels=1)) == 0
    assert area_error(replace(at_floor, **{count: floor + 1})) > 0
