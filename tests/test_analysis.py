"""Scan, criterion, candidate, bound-comparison, and identity tests."""
import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from jetmin.analysis import (
    criterion_check,
    extremal_candidate,
    lemma_integrals,
    linear_restriction_identity,
    scan_G,
    strictness_experiment,
    suita_compare,
    verify_mass,
    verify_orthogonality,
)
from jetmin.errors import BadInputError
from jetmin.forms import gram_analytic_disc, jet_constraints, norm_of_form
from jetmin.gain import GainFunction
from jetmin.geometry import UNIT_DISC, DomainSpec, MarkedPoint
from jetmin.problems import (
    Numerics,
    Problem,
    eps_bump_problem,
    problem_from_dict,
    random_concavity_problem,
    ring_problem,
    single_point_problem,
    two_point_problem,
)
from jetmin.solver import minimal_integral
from jetmin.weights import WeightKernel, WeightPair, disc_chart
from oracles import quadrature_minima, quadrature_minimum


def with_r_count(p, r_count):
    """The problem p with its scan grid size set to r_count."""
    return replace(p, numerics=replace(p.numerics, r_count=r_count))


def offcenter_problem():
    w = WeightPair.standard((MarkedPoint(0.5, jet_order=0, jet_coeff=1.0),))
    return Problem(
        domain=UNIT_DISC,
        weights=w,
        gain=GainFunction.constant(1.0),
        numerics=Numerics(N=12),
    )


# -- criterion ---------------------------------------------------------------

def test_criterion_witnesses_two_point():
    rep = criterion_check(two_point_problem(1.0))
    assert rep.flags == (True, True, True, False)
    assert not rep.all_hold
    assert abs(rep.witnesses[0] - (-1.0)) < 1e-12
    assert abs(rep.witnesses[1] - 3.0) < 1e-12

    rep = criterion_check(two_point_problem(-1.0 / 3.0))
    assert rep.all_hold
    assert rep.spread <= 1e-12
    assert abs(rep.c0 - (-1.0)) < 1e-12


def test_criterion_alt_normalization_agrees():
    for a in (-1.0 / 3.0, 0.4, 1.0, -1.0):
        rep = criterion_check(two_point_problem(a))
        assert (rep.spread <= 1e-12) == (rep.spread_alt <= 1e-12)
        assert not any("disagree" in n for n in rep.notes)
    rep = criterion_check(two_point_problem(1.0))
    assert abs(rep.witnesses_alt[0] - (-1.0)) < 1e-12
    assert abs(rep.witnesses_alt[1] - 1.0 / 3.0) < 1e-12


def test_criterion_unimodular_scaling_invariant():
    lam = cmath.exp(0.3j)
    pts = (
        MarkedPoint(0.0, green_weight=2.0, jet_order=1, jet_coeff=lam),
        MarkedPoint(0.5, green_weight=1.0, jet_order=0, jet_coeff=-lam / 3.0),
    )
    p = Problem(
        domain=UNIT_DISC,
        weights=WeightPair.standard(pts),
        gain=GainFunction.constant(1.0),
    )
    rep = criterion_check(p)
    assert rep.all_hold
    assert rep.spread <= 1e-12
    assert abs(rep.c0 - (-lam)) < 1e-12


def test_criterion_bump_breaks_structure():
    rep = criterion_check(eps_bump_problem(0.1))
    assert rep.psi_pure
    assert not rep.harmonic_structure
    assert not rep.all_hold
    assert any("bump" in n for n in rep.notes)


def test_criterion_extra_green_mass_breaks_purity():
    p = problem_from_dict(
        {"marked": [{"location": [0.0, 0.0]}], "psi_extra": [[[0.3, 0.0], 1.0]]}
    )
    rep = criterion_check(p)
    assert not rep.psi_pure
    assert not rep.all_hold


@pytest.mark.parametrize("zeros,holds", [
    (((0.0, 2),), True),
    (((0.0, 1), (0.0, 1)), True),  # one point's order, listed in two parts
    (((0.0, 1),), False),
    (((0.0, 2), (0.3, 1)), False),  # a zero off the marked point
])
def test_criterion_divisor_orders_decide_structure(zeros, holds):
    pt = MarkedPoint(0.0, jet_order=1, jet_coeff=1.0)
    w = WeightPair.standard((pt,), zeros=zeros)
    rep = criterion_check(Problem(UNIT_DISC, w, GainFunction.constant(1.0)))
    assert rep.harmonic_structure is holds


def test_criterion_zero_jet_degrades():
    pts = (
        MarkedPoint(0.0, jet_order=0, jet_coeff=0.0),
        MarkedPoint(0.5, jet_order=0, jet_coeff=1.0),
    )
    p = Problem(UNIT_DISC, WeightPair.standard(pts), GainFunction.constant(1.0))
    rep = criterion_check(p)
    assert not rep.ratios_constant
    assert math.isinf(rep.spread)


# -- concavity / linearity scans ---------------------------------------------

def test_scan_single_point_linear_slope():
    rep = scan_G(single_point_problem())
    assert rep.is_linear
    assert abs(rep.slope - 2 * math.pi) < 1e-8
    assert abs(rep.intercept) < 1e-8
    assert rep.max_violation <= 1e-10
    # G increases with r and vanishes toward the r -> 0 end
    assert all(b > a for a, b in zip(rep.g_values, rep.g_values[1:]))
    assert rep.g_values[0] < rep.g_values[-1] / 10


def test_scan_appendix_equality_linear():
    rep = scan_G(with_r_count(two_point_problem(-1.0 / 3.0), 9))
    assert rep.is_linear
    assert abs(rep.slope / (6 * math.pi) - 1) < 1e-6
    assert rep.residual <= 1e-8
    assert rep.max_violation <= 10 * rep.max_quad_error


def test_scan_appendix_generic_concave_not_linear():
    rep = scan_G(with_r_count(two_point_problem(1.0), 9))
    assert not rep.is_linear
    assert rep.residual > 1e-3
    assert rep.max_violation <= 10 * rep.max_quad_error


def test_scan_bump_matches_radial_closed_form():
    rep = scan_G(eps_bump_problem(0.1))
    assert not rep.is_linear
    assert rep.residual > 1e-3
    for r, g in zip(rep.r_grid, rep.g_values):
        exact = 20 * math.pi * (1 - math.exp(-0.1 * r))
        assert abs(g - exact) <= 1e-6 * exact


def test_scan_random_problems_concave():
    from jetmin.problems import random_concavity_problem

    for seed in (0, 1):
        rep = scan_G(with_r_count(random_concavity_problem(seed), 9))
        assert rep.max_violation <= max(1e-9, 10 * rep.max_quad_error)
        assert all(v >= 0 for v in rep.g_values)


@pytest.mark.parametrize("make", [
    lambda: random_concavity_problem(0),
    lambda: random_concavity_problem(1),
    lambda: random_concavity_problem(2),
    lambda: eps_bump_problem(0.1),
], ids=["random0", "random1", "random2", "bump"])
def test_scan_matches_single_t_calls(make):
    # one region per mesh level for the whole grid gives the same G as a
    # region per t, within the quadrature error either reports
    p = make()
    rep = scan_G(p)
    for k in (0, 8, 16):
        res = minimal_integral(p.domain, p.weights, p.gain, rep.t_grid[k],
                               N=p.numerics.N, mesh=p.numerics.mesh)
        tol = max(rep.max_quad_error, res.diagnostics["quadrature_error"])
        assert abs(rep.g_values[k] - res.value) <= tol


@pytest.mark.parametrize("zeta0", [0.4, 0.3 + 0.3j])
@pytest.mark.parametrize("gain", [GainFunction.exponential(0.5), GainFunction.constant(1.0)],
                         ids=["exponential", "constant"])
def test_scan_offcenter_single_point_closed_form(zeta0, gain):
    # off-center points are solved in the chart that puts them at 0, where
    # the Gram is closed-form; the quadrature Gram there, with patch radii
    # set by the deepest level of the grid and rays cast from the point (no
    # ray tangent to a level), meets G(h^-1(r)) = 2 pi (1 - |zeta0|^2)^2 r too
    w = WeightPair.standard((MarkedPoint(zeta0, green_weight=1.0, jet_order=0, jet_coeff=1.0),))
    p = Problem(domain=UNIT_DISC, weights=w, gain=gain, numerics=Numerics(N=24, r_count=9))
    rep = scan_G(p)
    oracle = quadrature_minima(disc_chart(UNIT_DISC, w), w, gain, rep.t_grid, 24)
    scale = 2 * math.pi * (1 - abs(zeta0) ** 2) ** 2
    for values in (rep.g_values, [res.value for res in oracle]):
        rel_err = max(abs(g - scale * r) / (scale * r) for r, g in zip(rep.r_grid, values))
        assert rel_err <= 1e-6


def test_scan_transported_point_under_a_tabulated_gain():
    # one point of a Moebius image under a gain with a different log slope on
    # each knot interval: c(-psi) has a kink on every knot level, and the
    # rays from the point are cut there, so the quadrature Gram in the
    # point's chart keeps the closed form 2 pi (1 - |zeta0|^2)^2 r that the
    # library takes, to far below the panel error a kink would leave
    dom = DomainSpec.moebius(2.0, 0.3, 0.1, 1.2)
    zeta0 = 0.45 * cmath.exp(1.1j)
    pt = MarkedPoint(complex(dom.forward(zeta0)), green_weight=1.0, jet_order=0,
                     jet_coeff=cmath.exp(0.7j), coord_scale=1.0 / dom.derivative(zeta0))
    gain = GainFunction.tabulated([0.0, 0.5, 1.0, 2.0, 4.0], np.exp([0.1, 0.55, 0.6, 1.4, 1.6]))
    p = Problem(domain=dom, weights=WeightPair.standard((pt,)), gain=gain,
                numerics=Numerics(N=24, r_count=9))
    rep = scan_G(p)
    oracle = quadrature_minima(disc_chart(dom, p.weights), p.weights, gain, rep.t_grid, 24)
    scale = 2 * math.pi * (1 - abs(zeta0) ** 2) ** 2
    for r, g, ref in zip(rep.r_grid, rep.g_values, oracle):
        assert g == pytest.approx(scale * r, rel=1e-10)
        assert ref.value == pytest.approx(scale * r, rel=1e-10)


def test_scan_transported_center_takes_the_closed_form(monkeypatch):
    # a point of a Moebius image that the map pulls back to zeta = 0: every
    # level {psi < -t} is the centered disc |zeta| < e^{-t/2}, whose Gram is
    # closed-form, so no quadrature Gram is built at any t
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature Gram built")

    monkeypatch.setattr("jetmin.solver.gram_reduced", no_quadrature)
    dom = DomainSpec.moebius(2.0, 0.3, 0.1, 1.2)
    pt = MarkedPoint(complex(dom.forward(0.0)), green_weight=1.0, jet_order=0,
                     jet_coeff=cmath.exp(0.4j), coord_scale=1.0 / dom.derivative(0.0))
    p = Problem(domain=dom, weights=WeightPair.standard((pt,)), gain=GainFunction.constant(1.0),
                numerics=Numerics(N=12, r_count=9))
    rep = scan_G(p)
    assert rep.max_quad_error == 0.0
    for r, g in zip(rep.r_grid, rep.g_values):
        assert g == pytest.approx(2 * math.pi * r, rel=1e-12)


@pytest.mark.parametrize("zeta0", [0.6, -0.75 + 0.2j, 0.9999])
@pytest.mark.parametrize("moebius", [False, True], ids=["disc", "moebius"])
def test_scan_one_point_anywhere_takes_the_closed_form(monkeypatch, zeta0, moebius):
    # one point under the trivial weight and a constant gain is solved in
    # the chart that puts it at zeta = 0, where every level is a centered
    # disc: no quadrature Gram at any t, and G = 2 pi (1 - |zeta0|^2)^2 r
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature Gram built")

    monkeypatch.setattr("jetmin.solver.gram_reduced", no_quadrature)
    dom = DomainSpec.moebius(1.3j, 0.4 - 0.5j, 0.3 - 0.2j, 1.0) if moebius else UNIT_DISC
    pt = MarkedPoint(complex(dom.forward(zeta0)), green_weight=1.0, jet_order=0,
                     jet_coeff=1.0, coord_scale=1.0 / dom.derivative(zeta0))
    p = Problem(domain=dom, weights=WeightPair.standard((pt,)), gain=GainFunction.constant(1.0),
                numerics=Numerics(N=12, r_count=9))
    rep = scan_G(p)
    assert rep.max_quad_error == 0.0 and rep.is_linear
    scale = 2 * math.pi * (1 - abs(zeta0) ** 2) ** 2
    for r, g in zip(rep.r_grid, rep.g_values):
        assert g == pytest.approx(scale * r, rel=1e-12)


def steep_exponential_point(zeta0, rate):
    """One point at zeta0 under the gain c(t) = e^{rate t}, N = 12."""
    return problem_from_dict({"marked": [{"location": [zeta0, 0]}],
                              "gain": {"kind": "exponential", "rate": rate},
                              "numerics": {"N": 12}})


@pytest.mark.parametrize("rate,zeta0,tol", [(0.7, 0.0, 1e-10), (0.7, 0.3, 1e-10),
                                             (0.8, 0.0, 1e-8), (0.8, 0.3, 1e-8),
                                             (0.85, 0.0, 1e-8), (0.85, 0.3, 1e-8),
                                             (0.9, 0.0, 1e-8)])
def test_scan_deep_levels_of_a_steep_gain(rate, zeta0, tol):
    # the grid reaches t = 9.6 (rate 0.7) to 28.9 (rate 0.9): levels of
    # radius about e^{-t/2} around the pole, inside the first uniform ray
    # sample, and a near-critical exponent 2 (1 - rate) that puts much of
    # the patch integral inside its last ring.  The library's Gram is
    # closed-form there; the quadrature Gram in the point's chart is held to
    # the same tolerance
    p = steep_exponential_point(zeta0, rate)
    rep = scan_G(p)
    oracle = quadrature_minima(disc_chart(p.domain, p.weights), p.weights, p.gain,
                               rep.t_grid, p.numerics.N)
    scale = 2 * math.pi * (1 - zeta0**2) ** 2
    for values in (rep.g_values, [res.value for res in oracle]):
        assert max(abs(g - scale * r) / (scale * r)
                   for r, g in zip(rep.r_grid, values)) <= tol
    assert rep.is_linear


@pytest.mark.parametrize("rate", [0.8, 0.9, 0.95])
@pytest.mark.parametrize("zeta0", [0.0, 0.3])
def test_suita_equality_under_a_steep_gain(rate, zeta0):
    # one point meets the optimal-jets bound; the near-critical exponent
    # 2 (1 - rate) puts much of the patch integral inside its last ring of
    # the quadrature Gram, which the point's chart checks beside the
    # library's closed form
    p = steep_exponential_point(zeta0, rate)
    rep = suita_compare(p)
    assert rep.equality == rep.criterion.all_hold
    assert rep.equality
    assert abs(rep.gap) <= rep.equality_tolerance
    assert abs(rep.gap) <= 1e-7 * rep.bound
    ref = quadrature_minimum(disc_chart(p.domain, p.weights), p.weights, p.gain, 0.0,
                             p.numerics.N)
    assert abs(ref.value - rep.bound) <= 1e-7 * rep.bound


def test_scan_r_count_control():
    rep = scan_G(with_r_count(single_point_problem(), 5))
    assert len(rep.r_grid) == 5 and len(rep.second_differences) == 3
    with pytest.raises(BadInputError):
        with_r_count(single_point_problem(), 4)


# -- extremal candidate ------------------------------------------------------

def test_candidate_single_point_is_constant_form():
    rep = extremal_candidate(single_point_problem())
    assert rep.optimal
    assert abs(rep.c0 - 1.0) < 1e-14
    arr = rep.form.coeff_array()
    assert abs(arr[0] - 1.0) < 1e-14
    assert np.max(np.abs(arr[1:])) < 1e-14
    assert rep.tail_estimate == 0.0


def test_candidate_appendix_equality_norm_and_jets():
    p = two_point_problem(-1.0 / 3.0, numerics=Numerics(N=64))
    rep = extremal_candidate(p)
    assert rep.optimal
    # the standard pair at t = 0 carries the trivial weight, so the plain
    # disc Gram measures the candidate
    H = gram_analytic_disc(p.numerics.N)
    assert abs(norm_of_form(rep.form, H) - 6 * math.pi) <= 1e-8 * 6 * math.pi
    C = jet_constraints(p.weights, p.numerics.N, p.domain)
    resid = np.linalg.norm(C.matrix @ rep.form.coeff_array() - C.rhs)
    assert resid <= 1e-10
    assert 0 < rep.tail_estimate < 1e-10


def test_candidate_generic_flagged_non_optimal():
    rep = extremal_candidate(two_point_problem(1.0))
    assert not rep.optimal
    assert abs(rep.c0 - 1.0) < 1e-12


def test_candidate_degenerate_rejected():
    pts = (MarkedPoint(0.0, jet_order=0, jet_coeff=0.0),)
    p = Problem(UNIT_DISC, WeightPair.standard(pts), GainFunction.constant(1.0))
    with pytest.raises(BadInputError):
        extremal_candidate(p)


# -- bound comparison --------------------------------------------------------

def test_suita_two_point_equality_case():
    rep = suita_compare(two_point_problem(-1.0 / 3.0))
    assert abs(rep.bound - 6 * math.pi) <= 1e-12 * 6 * math.pi
    assert rep.equality
    assert abs(rep.gap) <= rep.equality_tolerance
    assert rep.criterion.all_hold


def test_suita_two_point_gap_value():
    rep = suita_compare(two_point_problem(1.0))
    assert abs(rep.bound - 22 * math.pi) <= 1e-12 * 22 * math.pi
    assert not rep.equality
    assert not rep.criterion.all_hold
    exact_gap = 6 * math.pi / 5 * abs(3 * 1.0 + 1) ** 2
    assert abs(rep.gap - exact_gap) <= 1e-6 * exact_gap


def test_suita_equality_matches_criterion_on_sweep():
    for a in (-1.0, -1.0 / 3.0, 0.25, 1.0):
        rep = suita_compare(two_point_problem(a))
        assert rep.equality == rep.criterion.all_hold


def test_suita_single_point_cases():
    rep = suita_compare(single_point_problem())
    assert abs(rep.bound - 2 * math.pi) <= 1e-12
    assert rep.equality
    rep = suita_compare(offcenter_problem())
    assert abs(rep.bound - 2 * math.pi * 9 / 16) <= 1e-12
    assert rep.equality


# -- mass and orthogonality identities ---------------------------------------

def lemma_kernel(*points):
    """Unit-disc kernel with a marked point of Green weight p per (location, p)."""
    marked = tuple(MarkedPoint(loc, green_weight=p) for loc, p in points)
    return WeightKernel(UNIT_DISC, WeightPair.standard(marked))


def test_mass_identity_three_configs():
    configs = [
        lemma_kernel((0.2 + 0j, 3.0)),
        lemma_kernel((0.2 + 0j, 3.0), (-0.3 + 0.1j, 3.0)),
        lemma_kernel((0.1 - 0.2j, 2.5), (0.35 + 0j, 4.5)),
    ]
    for kernel in configs:
        total_p = sum(pt.green_weight for pt in kernel.w.marked)
        got = verify_mass(kernel)
        assert abs(got - 2 * math.pi * total_p) <= 1e-3 * 2 * math.pi * total_p


def test_mass_identity_needs_p_above_two():
    with pytest.raises(BadInputError):
        verify_mass(lemma_kernel((0.2 + 0j, 2.0)))
    with pytest.raises(BadInputError):
        verify_mass(lemma_kernel((0.2 + 0j, 1.5)))


def test_orthogonality_identity():
    kernel = lemma_kernel((0.25 + 0j, 3.0))
    for deg in range(4):
        assert verify_orthogonality(kernel, deg) <= 1e-6
    two = lemma_kernel((0.2 + 0j, 3.0), (-0.3 + 0.1j, 3.0))
    assert verify_orthogonality(two, 1) <= 1e-6
    with pytest.raises(BadInputError):
        verify_orthogonality(kernel, -1)


def test_orthogonality_rejects_short_shared_integrals():
    kernel = lemma_kernel((0.25 + 0j, 3.0))
    integrals = lemma_integrals(kernel, 1)
    assert verify_orthogonality(kernel, 1, integrals=integrals) <= 1e-6
    with pytest.raises(BadInputError, match="beta degree 1"):
        verify_orthogonality(kernel, 2, integrals=integrals)


# -- band restriction identity -----------------------------------------------

def test_restriction_identity_single_point():
    p = single_point_problem()
    one = GainFunction.constant(1.0)
    lhs, rhs = linear_restriction_identity(p, 2.0, 1.0, one)
    exact = 2 * math.pi * (math.exp(-1) - math.exp(-2))
    assert abs(lhs - exact) <= 1e-9 * exact
    assert abs(rhs - exact) <= 1e-12 * exact


def test_restriction_identity_weighted_density():
    p = single_point_problem()
    grow = GainFunction.exponential(0.5)
    lhs, rhs = linear_restriction_identity(p, 2.0, 1.0, grow)
    exact = 4 * math.pi * (math.exp(-0.5) - math.exp(-1.0))
    assert abs(lhs - exact) <= 1e-9 * exact
    assert abs(rhs - exact) <= 1e-12 * exact


def test_restriction_identity_appendix_band():
    p = two_point_problem(-1.0 / 3.0)
    one = GainFunction.constant(1.0)
    for band in ((1.0, 0.2), (0.5, 0.0)):
        lhs, rhs = linear_restriction_identity(p, band[0], band[1], one)
        assert abs(lhs - rhs) <= 1e-5 * abs(rhs)


def test_restriction_identity_edge_cases():
    p = single_point_problem()
    one = GainFunction.constant(1.0)
    assert linear_restriction_identity(p, 1.5, 1.5, one) == (0.0, 0.0)
    with pytest.raises(BadInputError):
        linear_restriction_identity(p, 1.0, 2.0, one)
    with pytest.raises(BadInputError):
        linear_restriction_identity(p, 1.0, -0.5, one)


# -- strictness of the multi-point bound -------------------------------------

def test_strictness_ring_family():
    rep = strictness_experiment(3)
    assert rep.point_counts == (1, 2, 3)
    assert abs(rep.gaps[0]) <= 1e-6
    assert all(g > 1e-6 for g in rep.gaps[1:])
    assert rep.separated
    assert rep.min_gap == min(rep.gaps[1:])
    with pytest.raises(BadInputError):
        strictness_experiment(0)


def test_strictness_custom_family():
    rep = strictness_experiment(2, family=lambda m: ring_problem(m, radius=0.35))
    assert rep.separated
