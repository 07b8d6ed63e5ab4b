"""Region geometry of the polar quadrature (the global fan of rays from 0, patch
fans, threshold cuts, sub-rays, the one-point disc chart) and the moment Gram
kernel."""
import math
from dataclasses import replace

import numpy as np
import pytest

from jetmin import quadrature
from jetmin.errors import BadInputError, NumericalError
from jetmin.forms import _patch_specs, constraint_basis, jet_constraints
from jetmin.gain import GainFunction
from jetmin.geometry import UNIT_DISC, DomainSpec, MarkedPoint
from jetmin.problems import random_concavity_problem
from jetmin.quadrature import (
    PatchSpec,
    QuadratureConfig,
    _band_of,
    _panel_nodes,
    _panels,
    _ray_pieces,
    _ray_table,
    _region_panels,
    _taylor_shift,
    _two_level,
    assembled_integral,
    build_region,
    gram_on_nodes,
    integral_on_nodes,
)
from jetmin.weights import WeightKernel, WeightPair, disc_chart
from oracles import bisect_cuts, gram_direct

CUTS = np.array([0.2, 0.7, 1.5, 3.0, 5.0, math.inf])
SMALL = QuadratureConfig(angular=64, radial=64, patch_angular=32, patch_radial=32)
GAIN = GainFunction.exponential(0.3)
TWO_POINTS = (MarkedPoint(0.3 + 0.15j, green_weight=1.2, jet_order=1, jet_coeff=0.8 + 0.6j),
              MarkedPoint(-0.25 - 0.2j, green_weight=1.2, jet_order=0, jet_coeff=0.5j))
FAR_POINTS = (MarkedPoint(0.57 * np.exp(0.7j), green_weight=1.0, jet_order=2,
                          jet_coeff=0.6 - 0.3j),
              MarkedPoint(-0.2 + 0.3j, green_weight=1.3, jet_order=0, jet_coeff=0.5))
ONE_POINT = (MarkedPoint(0.45 - 0.2j, green_weight=1.0, jet_order=1, jet_coeff=0.7),)
CUTS_SPLIT = (0.1, 1.0, 3.0, 5.0, 5.5, 6.0)


def pole_region(pts, cuts):
    """The weight's chart (weights.disc_chart), its kernel there, and its
    default-mesh region for the cut list, whose patch fans expect an
    integrand of local power 0, as an area is."""
    w = WeightPair.standard(pts)
    chart = disc_chart(UNIT_DISC, w)
    kernel = WeightKernel(chart, w)
    specs = [PatchSpec(center=z) for z, *_ in kernel.singular_centers()]
    return chart, kernel, build_region(kernel.psi, specs, QuadratureConfig(), cuts)


def single_pole_region(zeta0, cuts=CUTS, p=1.0):
    return pole_region((MarkedPoint(zeta0, green_weight=p, jet_order=0, jet_coeff=1.0),), cuts)


def fan_nodes(nodes, f):
    """The slice of the nodes of fan f (0 the global fan)."""
    return slice(*nodes.fan_start[f:f + 2])


def fan_runs(nodes, f):
    """The first node and the ray direction of each run of fan f."""
    on = np.searchsorted(nodes.fan_start, nodes.starts, side="right") - 1 == f
    return nodes.starts[on], nodes.e[on]


def global_fan(n):
    """The ray table of a lone global fan of n rays at (k + 1/2) 2 pi / n."""
    return _ray_table([], QuadratureConfig(angular=n), 0.5)


def user_level_areas(chart, nodes):
    """Areas of the levels in the disc coordinate of the unit disc, from
    region nodes in the chart: each area weight times |chart'|^2."""
    jac = np.abs(chart.derivative(nodes.zeta)) ** 2
    per_band = np.bincount(nodes.band, weights=nodes.area_w * jac, minlength=nodes.n_bands)
    return np.cumsum(per_band[::-1])[::-1]


def apollonius_area(zeta0, t, p):
    """Area of {psi < -t} for psi = 2p G(., zeta0): the disc {|phi_zeta0| < s}."""
    s = math.exp(-t / (2 * p))
    a = abs(zeta0)
    return math.pi * (s * (1 - a * a) / (1 - s * s * a * a)) ** 2


@pytest.mark.parametrize("zeta0", [0.0, 0.3, 0.999999, -0.75 + 0.2j, 0.6j])
def test_disc_chart_puts_the_lone_point_at_0(zeta0):
    # the chart takes the point to exactly 0 (the one-center sample count and
    # the closed form test for it), also through a Moebius image of the disc
    for dom in (UNIT_DISC, DomainSpec.moebius(2, 0.3, 0.1, 1.2),
                DomainSpec.moebius(1.3j, 0.4 - 0.5j, 0.3 - 0.2j, 1)):
        loc = complex(dom.forward(zeta0))
        w = WeightPair.standard((MarkedPoint(loc),))
        chart = disc_chart(dom, w)
        assert chart.inverse(loc) == 0j
        assert WeightKernel(chart, w).points[0][0] == 0j
        assert abs(chart.forward(0j) - loc) <= 1e-15 * max(1.0, abs(loc))
        if dom.inverse(loc) == 0:
            assert chart is dom


def test_disc_chart_keeps_multi_point_weights():
    # two marked points, or one plus a divisor zero elsewhere: no chart
    # puts both at 0, so the domain is returned as it is
    dom = DomainSpec.moebius(2, 0.3, 0.1, 1.2)
    for w in (WeightPair.standard(TWO_POINTS),
              WeightPair.standard(ONE_POINT, zeros=((0.45 - 0.2j, 2), (0.1, 1)))):
        assert len(w.points) == 2
        assert disc_chart(dom, w) is dom
        assert disc_chart(UNIT_DISC, w) is UNIT_DISC


@pytest.mark.parametrize("pts,chart", [(ONE_POINT, False), (ONE_POINT, True),
                                       (TWO_POINTS, False)],
                         ids=["lone-pole-off-0", "lone-pole-chart", "two-poles"])
def test_every_global_node_lies_on_a_ray_from_0(pts, chart):
    # a lone center off 0 (a low-level caller's region) takes rays from 0
    # as any multi-point region does; each run of global nodes lies on the
    # ray from 0 in its recorded direction
    w = WeightPair.standard(pts)
    kernel = WeightKernel(disc_chart(UNIT_DISC, w) if chart else UNIT_DISC, w)
    specs = _patch_specs(kernel, GAIN)
    nodes = build_region(kernel.psi, specs, SMALL, CUTS)
    sl, (starts, e) = fan_nodes(nodes, 0), fan_runs(nodes, 0)
    direction = np.repeat(e, np.diff(np.r_[starts, sl.stop]))
    x = nodes.zeta[starts[0]:sl.stop] * direction.conj()
    assert np.all(x.real > 0)
    assert np.all(np.abs(x.imag) <= 1e-15 * x.real)
    band = np.searchsorted(CUTS, -kernel.psi(nodes.zeta[sl]), side="left") - 1
    assert np.array_equal(band, nodes.band[sl])


def test_single_pole_rays_start_at_the_pole():
    # in its chart the pole sits at 0, where the rays start: the sublevel
    # sets are discs around it, so each ray crosses each level once and the
    # global node count does not move with the pole
    counts = []
    for zeta0 in (0.0, 0.1, 0.45 - 0.2j, 0.6j):
        _, kernel, nodes = single_pole_region(zeta0)
        assert kernel.points[0][0] == 0j
        n_global = nodes.fan_start[1]
        counts.append(n_global)
        z = nodes.zeta[:n_global]
        assert np.all(np.abs(z) < 1.0)
        band = np.searchsorted(CUTS, -kernel.psi(z), side="left") - 1
        assert np.array_equal(band, nodes.band[:n_global])
    assert max(counts) == min(counts)


def test_single_pole_region_area():
    # area weights of every level, carried back from the chart, add up to
    # the area of its Apollonius disc about the pole
    for zeta0 in (0.3, -0.5 + 0.1j):
        chart, _, nodes = single_pole_region(zeta0)
        for t, area in zip(CUTS[:-1], user_level_areas(chart, nodes)):
            assert area == pytest.approx(apollonius_area(zeta0, t, 1.0), rel=1e-9)


@pytest.mark.parametrize("zeta0,p", [(0.7j, 1.5), (0.8, 1.0), (-0.75 + 0.2j, 1.2)])
def test_shallow_levels_are_cut_up_to_the_circle(zeta0, p):
    # a level t > 0 near the circle can cross a ray between its last
    # interior sample and the circle, where psi = 0; the end sample brackets
    # it there, so the level, carried back from the chart, keeps the area of
    # its Apollonius disc
    cuts = np.array([0.0005, 0.005, 0.02, 0.057, math.inf])
    chart, _, nodes = single_pole_region(zeta0, cuts, p)
    for t, area in zip(cuts[:-1], user_level_areas(chart, nodes)):
        assert area == pytest.approx(apollonius_area(zeta0, t, p), rel=1e-10)


def test_rays_from_the_origin_are_cut_up_to_the_circle():
    # two points near the origin: psi is about -0.0047 at the last interior
    # sample 1024/1025 of every ray, so the level t = 0.004 crosses beyond
    # it; the clustered samples of a center reach the circle only on rays
    # far off the axis through the points
    pts = (MarkedPoint(0.1, green_weight=1.2, jet_order=1, jet_coeff=1.0),
           MarkedPoint(-0.1, green_weight=1.2, jet_order=0, jet_coeff=0.5))
    cuts = np.array([0.004, 1.0, math.inf])
    _, kernel, nodes = pole_region(pts, cuts)
    n_global = nodes.fan_start[1]
    band = np.searchsorted(cuts, -kernel.psi(nodes.zeta[:n_global]), side="left") - 1
    assert np.array_equal(band, nodes.band[:n_global])


def sample_counts(psi_fn, calls):
    """psi_fn, recording the samples per ray of each 2-D (ray sampling) call."""
    def recorded(z, *origin):
        if np.ndim(z) == 2:
            calls.append(np.shape(z)[1])
        return psi_fn(z, *origin)
    return recorded


def test_one_center_rays_take_coarse_samples(monkeypatch):
    # psi = 2p G(., 0) rises along every ray from the only center 0, so 64
    # samples bracket each crossing: the (ray, band) pieces are those of
    # 1024 samples, with breaks within 4 ulps.  Every ray also takes its end
    # on the circle, and the center at 0 adds its 15 clustered samples (down
    # to 1e-9) as any center does, so the level t = 12, of radius e^-6
    # inside the first uniform sample 1/65, is still bracketed.
    _, kernel, _ = single_pole_region(0.45 - 0.2j)  # its chart puts the pole at 0
    for cuts in (CUTS, np.array([0.2, 12.0, math.inf])):
        pieces = {}
        for n in (64, 1024):
            monkeypatch.setattr(quadrature, "_ONE_CENTER_SAMPLES", n)
            calls = []
            pieces[n] = _ray_pieces(sample_counts(kernel.psi, calls), global_fan(64), cuts,
                                    [kernel.points[0][0]])
            assert set(calls) == {n + 16}
        (ray, lo, hi, band, _), (ray_f, lo_f, hi_f, band_f, _) = pieces[64], pieces[1024]
        assert np.array_equal(ray, ray_f) and np.array_equal(band, band_f)
        assert np.unique(band).size == cuts.size - 1
        for a, b in ((lo, lo_f), (hi, hi_f)):
            assert np.all(np.abs(a - b) <= 4 * np.spacing(np.maximum(a, b)))


def test_rays_among_two_centers_take_fine_samples():
    # psi need not be monotone along rays from the origin between two poles
    kernel = split_level_kernel()
    calls = []
    _ray_pieces(sample_counts(kernel.psi, calls), global_fan(64),
                np.array([1.0, 5.5, math.inf]), [0.33, -0.33])
    assert calls and min(calls) >= 1024


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
    rays = global_fan(64)
    centers = [0.33, -0.33]
    full = _ray_pieces(kernel.psi, rays, cuts, centers)
    for marked in ([3, 4], [5], [0, 4]):
        bands = np.zeros(cuts.size - 1, dtype=bool)
        bands[marked] = True
        part = _ray_pieces(kernel.psi, rays, cuts, centers, bands=bands[None, :])
        sel_full, sel_part = bands[full[3]], bands[part[3]]
        assert sel_full.sum() > 0
        for a, b in zip(full, part):
            assert np.array_equal(a[sel_full], b[sel_part])


def table_panels(psi_fn, cuts, rays, centers, circles=()):
    """_region_panels of the ray table ``rays``, searched alone:
    (rays with the sub-rays, mid, half, ray, band)."""
    pieces = _ray_pieces(psi_fn, rays, cuts, centers)
    return _region_panels(psi_fn, cuts, rays, pieces, centers, circles)


@pytest.mark.parametrize("cuts", [(0.1, 1.0, 3.0, 5.0, 5.5, 6.0), (0.5, 2.0, 5.5)])
def test_sub_rays_take_the_widest_base_density(cuts):
    # tangency sub-rays cross short chords of the split levels; at the
    # panel density of the widest base ray they need fewer panels than the
    # full per-level budget each (about 37 per sub-ray at the full budget)
    kernel = split_level_kernel()
    config = QuadratureConfig()
    rays, mid, half, ray, band = table_panels(
        kernel.psi, np.array([*cuts, math.inf]), global_fan(config.angular), [0.33, -0.33])
    assert np.all(rays.budget == config.radial // 10)
    w_theta = rays.w[ray]
    sub = w_theta < 0.5 * w_theta.max()
    n_sub_rays = np.unique(ray[sub]).size
    assert n_sub_rays > 0
    assert sub.sum() < 1.2 * (config.radial // 10) * n_sub_rays


def test_whole_level_pieces_get_the_budget():
    # a piece that is its whole level gets exactly `budget` panels: the
    # length ratio is taken first, as 12 * x / x can round to 12 + 2 ulps
    rng = np.random.default_rng(7)
    lo = rng.uniform(0.0, 0.5, 1000)
    hi = lo + rng.uniform(1e-3, 0.5, 1000)
    n = lo.size
    rays = global_fan(8).take(np.zeros(n, dtype=int), theta=rng.uniform(0, 2 * math.pi, n),
                              budget=np.full(n, 12))
    *_, piece = _panels(rays, np.arange(n), lo, hi, hi - lo, [])
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
    rays = global_fan(80)  # blocks of 32, 32 and 16 rays
    centers = [0.33, -0.33]
    full = _ray_pieces(kernel.psi, rays, cuts, centers)
    for k, t in enumerate(cuts[:-1]):
        alone = _ray_pieces(kernel.psi, rays, np.array([t, math.inf]), centers)
        assert level_on_rays(alone, 0)
        assert level_on_rays(full, k) == level_on_rays(alone, 0)


def test_zero_threshold_rays_are_not_sampled():
    # psi < 0 on the open disc, so the level t = 0 has no threshold to cut:
    # each ray is one piece [0, 1], and psi is evaluated only at the piece
    # midpoints to tag their band
    kernel = split_level_kernel()
    seen = []

    def psi(z, origin=0j):
        seen.append(np.array(z, dtype=complex).ravel())
        return kernel.psi(z, origin)

    rays = global_fan(64)
    ray, lo, hi, band, level_len = _ray_pieces(psi, rays, np.array([0.0, math.inf]),
                                               [0.33, -0.33])
    assert np.array_equal(ray, np.arange(64))
    assert np.array_equal(lo, np.zeros(64))
    assert np.array_equal(hi, np.ones(64))
    assert np.array_equal(band, np.zeros(64))
    assert np.array_equal(level_len, np.ones(64))
    assert np.array_equal(np.concatenate(seen), 0.5 * np.exp(1j * rays.theta))


def region_and_basis(pts, cuts, N, config=SMALL, w=None, dom=UNIT_DISC):
    """Kernel, region and constrained basis [a_part | Z] of a standard pair
    (or of ``w``) in the disc chart ``dom``."""
    kernel = WeightKernel(dom, w or WeightPair.standard(pts))
    specs = _patch_specs(kernel, GAIN)
    cuts = np.array(cuts)
    nodes = build_region(kernel.psi, specs, config, cuts)
    a_part, Z = constraint_basis(jet_constraints(kernel.w, N, dom))
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

        def counted(z, origin):
            passes.append(1)
            return psi_fn(z, origin)

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
    # may end at different ones, as on rays from 0 past a lone pole off 0;
    # the solver casts a lone pole's rays in its chart, from the pole.)
    calls = recorded_cut_searches(monkeypatch)
    chart = disc_chart(UNIT_DISC, WeightPair.standard(pts))
    region_and_basis(pts, cuts, 4, QuadratureConfig(), dom=chart)
    assert calls
    for psi_fn, (origin, e_ray, lo, hi, f_lo, _f_hi, thresh), got, passes in calls:
        want = bisect_cuts(lambda z: psi_fn(z, origin), e_ray, lo, hi, f_lo, thresh)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
        assert passes <= 16


def test_moment_gram_matches_direct_products():
    # the polar moments of the global fan and of the patch fans agree with
    # the direct products B^H W B on a multi-band region whose first patch
    # fan deflates the (complex) basis
    kernel, nodes, basis = region_and_basis(TWO_POINTS, [0.0, 1.0, 3.0, 4.0, math.inf], 16)
    sizes = np.diff(nodes.fan_start)
    assert any(nodes.nu[f] > 0 and sizes[f] > 0 for f in range(1, sizes.size))
    assert np.unique(nodes.band[fan_nodes(nodes, 0)]).size == nodes.n_bands
    assert_matches_direct(kernel, nodes, basis)


def test_moment_gram_on_tangency_sub_rays():
    # several bands of a split level, refined on sub-rays between the base rays
    kernel, nodes, basis = region_and_basis(SPLIT_POINTS, [*CUTS_SPLIT, math.inf], 16)
    assert np.unique(fan_runs(nodes, 0)[1]).size > SMALL.angular
    assert_matches_direct(kernel, nodes, basis)


def test_moment_gram_far_patch_with_vanishing():
    # a patch fan at |c| = 0.57 with nu = 2: the Taylor-shifted basis drops
    # its two leading local coefficients
    kernel, nodes, basis = region_and_basis(FAR_POINTS, [0.0, 2.0, math.inf], 24)
    far = [f for f in range(1, nodes.origin.size) if abs(nodes.origin[f]) > 0.5]
    assert nodes.nu[far[0]] == 2 and nodes.fan_start[far[0] + 1] > nodes.fan_start[far[0]]
    assert_matches_direct(kernel, nodes, basis)


def test_moment_gram_degree_40():
    kernel, nodes, basis = region_and_basis(TWO_POINTS, [0.0, 2.0, math.inf], 40)
    assert len(basis[0]) == 41
    assert_matches_direct(kernel, nodes, basis)


@pytest.mark.parametrize("N", [16, 40, 64])
@pytest.mark.parametrize("radius", [0.49, 0.6, 0.86, 0.95])
def test_moment_gram_on_rays_from_a_pole(radius, N):
    # a pole off the origin is solved in its chart, where it sits at 0 and
    # the rays start at it; the harmonic part u and the jet rows carry the
    # chart map, so the weight and the constrained basis differ per radius
    pole = radius * np.exp(-0.42j)
    w = WeightPair.standard((MarkedPoint(pole, green_weight=1.0, jet_order=1, jet_coeff=0.7),),
                            u_coeffs=(0.0, 0.4 + 0.2j))
    chart = disc_chart(UNIT_DISC, w)
    kernel, nodes, basis = region_and_basis(None, [0.2, 1.5, math.inf], N, w=w, dom=chart)
    assert kernel.points[0][0] == 0j and nodes.origin[1] == 0j
    assert np.any(np.abs(nodes.zeta[fan_nodes(nodes, 0)]) > 1 - radius)
    assert_matches_direct(kernel, nodes, basis)


@pytest.mark.parametrize("pts", [ONE_POINT, TWO_POINTS], ids=["one-pole", "two-pole"])
def test_moment_gram_of_emptied_patch_blocks(pts):
    # {psi < -2000} lies below the smallest float about every pole (radius
    # about e^-1000): the patch fans find its crossing at 0, so no fan and no
    # ray keeps a node in it, and the Gram is zero
    kernel, nodes, basis = region_and_basis(pts, [2000.0, math.inf], 8)
    assert nodes.zeta.size == 0 and nodes.origin.size == len(pts) + 1
    assert not np.any(gram_on_nodes(nodes, kernel, GAIN, basis))


def test_ray_runs_skip_wholly_masked_pieces():
    # the patch fan of the origin (reach 0.1) takes over the disc of radius
    # 0.05, which holds all of the inner level {|z| < e^-4}: the global runs
    # of that level keep no node and are left out of the run table, which
    # then starts strictly increasing runs only
    kernel = WeightKernel(UNIT_DISC, WeightPair.standard(
        (MarkedPoint(0.0, green_weight=1.0, jet_order=0, jet_coeff=1.0),)))
    specs = _patch_specs(kernel, GAIN)
    nodes = build_region(kernel.psi, specs, SMALL, np.array([0.5, 8.0, math.inf]))
    assert nodes.origin.size == 2
    glob, starts = fan_nodes(nodes, 0), fan_runs(nodes, 0)[0]
    assert np.all(nodes.band[glob] == 0)
    assert np.all(np.diff(starts) > 0) and starts[-1] < glob.stop
    assert set(nodes.band[fan_nodes(nodes, 1)]) == {0, 1}
    a_part, Z = constraint_basis(jet_constraints(kernel.w, 8))
    assert_matches_direct(kernel, nodes, [a_part] + list(Z.T))


@pytest.mark.parametrize("cuts", [[0.0, 6.5, math.inf], [5.5, 6.5, 7.2]],
                         ids=["sublevel", "band"])
@pytest.mark.parametrize("halved", [False, True], ids=["fine", "coarse"])
def test_patch_fans_are_cut_at_every_level(cuts, halved):
    # each patch fan has patch_angular rays (and tangency sub-rays) from its
    # center out to its reach, cut at every threshold: each node lies in the
    # band psi gives it, read from its offset, and the pole panel lies in
    # the deepest level.  A band region above a psi pole keeps no node at
    # the pole
    config = SMALL.halved() if halved else SMALL
    kernel, nodes, basis = region_and_basis(TWO_POINTS, cuts, 16, config)
    assert nodes.origin.size == 3
    for f in (1, 2):
        sl, center = fan_nodes(nodes, f), nodes.origin[f]
        x, band = nodes.x[sl], nodes.band[sl]
        assert np.unique(fan_runs(nodes, f)[1]).size >= config.patch_angular
        assert np.array_equal(nodes.zeta[sl], center + x)
        assert np.abs(x).max() < 0.1
        assert np.array_equal(band, _band_of(np.array(cuts), kernel.psi(x, center)))
        inner = np.abs(x) < 1e-3
        assert inner.any() != math.isfinite(cuts[-1])
        assert np.all(band[inner] == len(cuts) - 2)
    assert_matches_direct(kernel, nodes, basis)


@pytest.mark.parametrize("margin", [0.2, 1.0, 2.0, 60.0])
@pytest.mark.parametrize("halved", [False, True], ids=["fine", "coarse"])
def test_patch_rings_break_at_the_half_radius(margin, halved):
    # the blending mask is only C^4 at half the reach R, so every patch fan
    # ray has a panel edge at R / 2 and no panel straddles it, at the fine
    # and the coarse budget; the two differ.  The panel at the pole
    # integrates r^sigma r^k, sigma = margin - 2, exactly for k < 20
    reach, sigma = 0.1, margin - 2.0
    psi = WeightKernel(UNIT_DISC, WeightPair.standard((MarkedPoint(0.0),))).psi
    circles = [(0j, reach)]
    counts = []
    for config in (QuadratureConfig().halved(), QuadratureConfig()):
        # the patch fan of a center at 0 alone, without the global fan
        rays = _ray_table([PatchSpec(center=0j, exponent=sigma)], config, 0.5)
        rays = rays.take(rays.fan == 1)
        assert np.all(rays.reach == reach)
        assert np.all(rays.budget == -(-config.patch_radial // 8))
        rays, mid, half, ray, _band = table_panels(psi, np.array([0.0, math.inf]), rays, [0j],
                                                   circles)
        lo, hi = mid - half, mid + half
        for r in np.unique(ray):
            on = ray == r
            assert np.sum(np.abs(hi[on] - reach / 2) <= 1e-16) == 1
            assert np.min(lo[on]) == 0 and np.max(hi[on]) == reach
        assert not np.any((lo < reach / 2 - 1e-16) & (hi > reach / 2 + 1e-16))
        counts.append(mid.size / np.unique(ray).size)
        if config == (QuadratureConfig().halved() if halved else QuadratureConfig()):
            x, w, _kept, _lost = _panel_nodes(mid, half, ray, rays, circles)
            pole = np.abs(x) <= 2 * half[mid == half].max()
            r, w = np.abs(x[pole]), w[pole]
            top = 2 * half[mid == half][0]
            for k in range(20):
                want = 2 * math.pi * top ** (sigma + k + 2) / (sigma + k + 2)
                assert np.sum(w * r ** (sigma + k)) == pytest.approx(want, rel=1e-13)
    assert counts[0] < counts[1]


def test_ray_runs_end_at_band_changes_on_one_ray():
    # psi is deep only on the three rays nearest the angle 0 and below
    # |z| = 0.3; those rays start band 1's pieces, and the base ray at
    # angle -d_theta / 2 holds both band 0's last piece and band 1's first,
    # which must be separate runs
    config = QuadratureConfig(angular=16, radial=40, patch_angular=8, patch_radial=8)
    d_theta = 2 * math.pi / config.angular

    def psi(z, origin=0j):
        z = np.asarray(z)
        deep = (np.abs(z) < 0.3) & (np.abs(np.angle(z) + 0.5 * d_theta) < 1.5 * d_theta)
        return np.where(deep, -2.0, -0.5)

    nodes = build_region(psi, [], config, np.array([0.0, 1.0, math.inf]))
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
    # small odd chunks cut the runs of the global and the patch fans at every
    # few nodes; a run's pieces in successive chunks add up to the whole run
    monkeypatch.setattr(quadrature, "_GRAM_CHUNK", 7)
    monkeypatch.setattr(quadrature, "_CHUNK", 11)
    config = QuadratureConfig(angular=16, radial=40, patch_angular=8, patch_radial=8)
    kernel, nodes, basis = region_and_basis(pts, [*CUTS_SPLIT[:3], math.inf], 12, config)
    assert any(np.any(np.diff(fan_runs(nodes, f)[0]) > 7) for f in range(nodes.origin.size))
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
    # every 11th node of the patch fans, against the basis evaluated at zeta
    p = random_concavity_problem(seed)
    kernel = WeightKernel(p.domain, p.weights)
    specs = _patch_specs(kernel, p.gain)
    nodes = build_region(kernel.psi, specs, QuadratureConfig(), np.array([0.0, math.inf]))
    a_part, Z = constraint_basis(jet_constraints(p.weights, N, p.domain))
    P = np.column_stack([a_part, Z])
    for f in range(1, nodes.origin.size):
        c, sl = nodes.origin[f], fan_nodes(nodes, f)
        assert abs(c) <= 0.6
        z = nodes.zeta[sl][::11]
        want = direct_values(z, P)
        got = np.polynomial.polynomial.polyval(nodes.x[sl][::11], _taylor_shift(P, c))
        err = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
        assert err.max() <= 1e-13


def test_half_resolution_mesh_is_checked_too():
    # a non-finite value on the coarse mesh alone would read as a NaN error
    # estimate, which every gate passes; the driver refuses it instead
    kernel = WeightKernel(UNIT_DISC, WeightPair.standard(TWO_POINTS))
    specs = _patch_specs(kernel, GAIN)
    config = QuadratureConfig()
    meshes = []

    def area(nodes):
        # the fine mesh is built first, the coarse one second
        meshes.append(nodes)
        val = integral_on_nodes(nodes, lambda z: np.ones((1, z.size)))
        return val if len(meshes) % 2 else val * np.nan

    with pytest.raises(NumericalError, match="non-finite quadrature values"):
        _two_level(kernel.psi, area, specs, config, (0.5,), None)
    val, err = _two_level(kernel.psi, area, specs, replace(config, levels=1), (0.5,), None)
    assert np.isfinite(val).all() and err[0] == 0


@pytest.mark.parametrize("config", [QuadratureConfig(), QuadratureConfig(angular=40,
                                                                            patch_angular=20)],
                         ids=["every-other-ray", "union"])
@pytest.mark.parametrize("ts,knots", [(CUTS_SPLIT, ()), (CUTS_SPLIT[:3], (2.0, 5.5))],
                         ids=["sub-rays", "gain-knots"])
def test_half_resolution_fans_reuse_the_fine_cut_search(ts, knots, config, monkeypatch):
    # the half-resolution fans cast rays at (k + 1/4) 2 pi / m: at m = n / 2
    # every other fine ray, bit for bit, and otherwise (40 -> 32, 20 -> 16)
    # the union of both meshes' angles is searched.  Either way one search,
    # with one secant cut search, cuts the base rays of every fan of both
    # meshes, and the coarse pieces are bitwise those of a fresh search at
    # its own angles, while each mesh cuts its own tangency sub-rays, in one
    # search over the sub-rays of all its fans
    kernel = split_level_kernel()
    specs = _patch_specs(kernel, GAIN)
    search, region_panels = quadrature._ray_pieces, quadrature._region_panels
    bisect = quadrature._bisect_cuts
    base_searches, sub_searches, bisections, meshes = [], [], [], []

    def counted(*args, bands=None, **kwargs):
        (base_searches if bands is None else sub_searches).append(len(meshes))
        return search(*args, bands=bands, **kwargs)

    def bisected(*args):
        bisections.append(len(meshes))
        return bisect(*args)

    def recorded(*args):
        meshes.append(args)
        return region_panels(*args)

    monkeypatch.setattr(quadrature, "_ray_pieces", counted)
    monkeypatch.setattr(quadrature, "_bisect_cuts", bisected)
    monkeypatch.setattr(quadrature, "_region_panels", recorded)
    area = lambda nodes: integral_on_nodes(nodes, lambda z: np.ones((1, z.size)))
    _, err = _two_level(kernel.psi, area, specs, config, ts, None, knots)
    assert base_searches == [0] and bisections.count(0) == 1 and len(meshes) == 2
    assert sub_searches == [1, 2]  # sub-rays on both meshes
    assert np.all(err > 0)
    fine = meshes[0][2]
    psi_fn, cuts, rays, pieces, centers, _circles = meshes[1]
    for f in range(1 + len(specs)):
        thetas, fine_thetas = rays.theta[rays.fan == f], fine.theta[fine.fan == f]
        halved = 2 * thetas.size == fine_thetas.size
        assert np.isin(thetas, fine_thetas).all() == halved
        if halved:
            assert np.array_equal(thetas, fine_thetas[::2])
    fresh = search(psi_fn, rays, cuts, centers)
    for got, want in zip(pieces, fresh):
        assert np.array_equal(got, want)


def test_gram_takes_one_kernel_call_per_node_chunk(monkeypatch):
    # the weights of the nodes of every fan come from one kernel call per
    # chunk of nodes, which may straddle fans: fewer calls than a call per
    # fan and chunk
    monkeypatch.setattr(quadrature, "_GRAM_CHUNK", 512)
    w = WeightPair.standard(TWO_POINTS)
    kernel = WeightKernel(UNIT_DISC, w)
    specs = _patch_specs(kernel, GAIN)
    a_part, Z = constraint_basis(jet_constraints(w, 6))
    calls, regions = [], []
    evaluate, gram = kernel.psi_and_phi_plus_psi, quadrature.gram_on_nodes

    def counted(x, origin=0j):
        calls.append(x.size)
        return evaluate(x, origin)

    def recorded(nodes, *args, **kwargs):
        regions.append(np.diff(nodes.fan_start))
        return gram(nodes, *args, **kwargs)

    monkeypatch.setattr(kernel, "psi_and_phi_plus_psi", counted)
    monkeypatch.setattr(quadrature, "gram_on_nodes", recorded)
    quadrature.assembled_gram(kernel, GAIN, [a_part] + list(Z.T), specs, SMALL, ts=(0.3, 1.0))
    assert len(regions) == 2
    assert len(calls) == sum(-(-sizes.sum() // 512) for sizes in regions)
    assert len(calls) < sum(np.sum(-(-sizes // 512)) for sizes in regions)
    assert sum(calls) == sum(sizes.sum() for sizes in regions)


@pytest.mark.parametrize("field", ["angular", "radial", "patch_angular", "patch_radial",
                                   "levels"])
@pytest.mark.parametrize("value", [256.5, 64.0, True, "64", None])
def test_mesh_counts_must_be_integers(field, value):
    # 256.5 rays would be spaced 2 pi / 256.5 and overlap the circle
    with pytest.raises(BadInputError, match=f"quadrature {field} must be an integer"):
        QuadratureConfig(**{field: value})


@pytest.mark.parametrize("value", [np.int64(2), np.int32(2), np.uint8(2)])
def test_mesh_counts_take_numpy_integers_as_ints(value):
    config = QuadratureConfig(angular=value * 64, radial=value * 32, levels=value)
    assert config == QuadratureConfig(angular=128, radial=64, levels=2)
    assert all(type(getattr(config, f)) is int for f in ("angular", "radial", "levels"))


def test_both_meshes_share_each_centers_taylor_shift(monkeypatch):
    calls = []

    def counted(P, center):
        calls.append(center)
        return _taylor_shift(P, center)

    monkeypatch.setattr(quadrature, "_taylor_shift", counted)
    w = WeightPair.standard(TWO_POINTS)
    kernel = WeightKernel(UNIT_DISC, w)
    specs = _patch_specs(kernel, GAIN)
    a_part, Z = constraint_basis(jet_constraints(w, 6))
    basis = [a_part] + list(Z.T)
    _H, err = quadrature.assembled_gram(kernel, GAIN, basis, specs, SMALL, ts=(0.3, 1.0))
    assert np.all(err > 0)  # both meshes ran
    assert len(calls) == len(specs) and set(calls) == {s.center for s in specs}


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
