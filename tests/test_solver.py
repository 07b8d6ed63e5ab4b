"""Constrained minimization: closed forms, invariance, oracle cross-checks."""
import cmath
import math

import numpy as np
import pytest

from jetmin.errors import BadInputError, NumericalError
from jetmin.forms import (
    GramMatrix,
    JetConstraintSystem,
    analytic_reduction,
    gram_analytic_disc,
    jet_constraints,
)
from jetmin.gain import GainFunction, eval_h
from jetmin.geometry import UNIT_DISC, DomainSpec, MarkedPoint
from jetmin.problems import Numerics, single_point_problem
from jetmin.quadrature import QuadratureConfig
from jetmin.solver import extension_bound, kkt_minimize, minimal_integral, minimal_integrals
from jetmin.weights import WeightPair, disc_chart
from oracles import oracle_minimize, quadrature_minima, quadrature_minimum

CONST = GainFunction.constant(1.0)


def two_point_pair(a, scale=1.0):
    pts = (
        MarkedPoint(0.0, green_weight=2.0, jet_order=1, jet_coeff=scale),
        MarkedPoint(0.5, green_weight=1.0, jet_order=0, jet_coeff=scale * a),
    )
    return WeightPair.standard(pts)


def two_point_exact(a):
    return 36 * math.pi / 5 * abs(a - 0.5) ** 2 + math.pi


def single_point_pair(z0=0.0, a=1.0):
    return WeightPair.standard(
        (MarkedPoint(z0, green_weight=1.0, jet_order=0, jet_coeff=a),)
    )


TABULATED = GainFunction.tabulated([0.0, 0.5, 1.0, 2.0, 4.0], np.exp([0.0, 0.4, 0.8, 1.6, 3.2]))
MOEBIUS = DomainSpec.moebius(2.0, 0.3, 0.1, 1.2)


def one_point(zeta0, p=1.0, k=0, dom=UNIT_DISC, **phi):
    """One marked point at disc coordinate zeta0 of dom, with a unit jet in
    the disc coordinate (coord_scale = 1/T'(zeta0)) and divisor order k + 1."""
    loc = complex(dom.forward(zeta0))
    pt = MarkedPoint(loc, green_weight=p, jet_order=k, jet_coeff=1.0,
                     coord_scale=1.0 / complex(dom.derivative(zeta0)))
    return WeightPair.standard((pt,), **phi)


def test_two_point_closed_form():
    for a in (-1 / 3, 0.0, 0.2 + 0.4j, 0.5, 0.7, 1.0):
        res = minimal_integral(UNIT_DISC, two_point_pair(a), CONST, 0.0, N=64)
        exact = two_point_exact(a)
        assert res.diagnostics["gram_path"] == "analytic"
        assert res.value == pytest.approx(exact, rel=1e-8)


def test_two_point_equality_parameter():
    res = minimal_integral(UNIT_DISC, two_point_pair(-1 / 3), CONST, 0.0, N=64)
    assert res.value == pytest.approx(6 * math.pi, rel=1e-10)


def test_two_point_unit_parameter():
    res = minimal_integral(UNIT_DISC, two_point_pair(1.0), CONST, 0.0, N=64)
    assert res.value == pytest.approx(9 * math.pi / 5 + math.pi, rel=1e-10)


def test_two_point_quadrature_path_agrees():
    res = quadrature_minimum(UNIT_DISC, two_point_pair(0.7), CONST, 0.0, 24)
    assert res.value == pytest.approx(two_point_exact(0.7), rel=1e-6)


def transported_two_point_pair(a, dom):
    """The two-point family moved by the domain map: each disc point zeta
    goes to T(zeta) with local coordinate scale 1/T'(zeta), so G and the
    bound are those of the disc problem."""
    pts = tuple(
        MarkedPoint(complex(dom.forward(zeta)), green_weight=p, jet_order=k, jet_coeff=coeff,
                    coord_scale=1.0 / dom.derivative(zeta))
        for zeta, p, k, coeff in ((0j, 2.0, 1, 1.0), (0.5 + 0j, 1.0, 0, a)))
    return WeightPair.standard(pts)


@pytest.mark.parametrize("T", [(2.0, 0.3, 0.1, 1.2), (1.3j, 0.4 - 0.5j, 0.3 - 0.2j, 1.0)],
                         ids=["real", "complex"])
@pytest.mark.parametrize("a", [-1 / 3, 0.0, 0.2 + 0.4j, 1.0])
def test_transported_two_point_takes_the_closed_form(a, T):
    # forms and the Gram live in the disc coordinate, where the weight of a
    # transported problem is that of the disc problem: e^{-phi} = 1
    dom = DomainSpec.moebius(*T)
    w = transported_two_point_pair(a, dom)
    res = minimal_integral(dom, w, CONST, 0.0, N=24)
    assert res.diagnostics["gram_path"] == "analytic"
    assert res.diagnostics["quadrature_error"] == 0.0
    assert res.value == pytest.approx(two_point_exact(a), rel=1e-10)
    quad = quadrature_minimum(dom, w, CONST, 0.0, 24)
    assert abs(res.value - quad.value) <= 10 * quad.diagnostics["quadrature_error"]


def test_single_constraint_full_disc():
    res = minimal_integral(UNIT_DISC, single_point_pair(), CONST, 0.0, N=8)
    assert res.value == pytest.approx(2 * math.pi, rel=1e-12)
    # minimizer is the constant form
    coeffs = np.asarray(res.extremal.coeffs)
    assert coeffs[0] == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(coeffs[1:])) <= 1e-10


def test_zero_jet_data_gives_zero():
    pts = (
        MarkedPoint(0.0, green_weight=2.0, jet_order=1, jet_coeff=0.0),
        MarkedPoint(0.5, green_weight=1.0, jet_order=0, jet_coeff=0.0),
    )
    res = minimal_integral(UNIT_DISC, WeightPair.standard(pts), CONST, 0.0, N=16)
    assert res.value == 0.0
    # at the smallest N the constrained family is {0} (zero particular
    # solution, no null column): its minimum is 0, not an underflow failure
    w = single_point_pair(0.3, a=0.0)
    for g in (CONST, GainFunction.exponential(0.5)):
        for N in (0, 1):
            assert minimal_integral(UNIT_DISC, w, g, 0.0, N=N).value == 0.0


def test_single_point_decay_analytic():
    for t in (0.0, 0.7, 1.0, 2.5, 5.0):
        res = minimal_integral(UNIT_DISC, single_point_pair(), CONST, t, N=8)
        assert res.diagnostics["gram_path"] == "analytic"
        assert res.value == pytest.approx(2 * math.pi * math.exp(-t), rel=1e-12)


def test_stacked_mass_takes_the_closed_form():
    # extra psi mass on the marked point adds to its p: p = 1 + 2/2 = 2 meets
    # the divisor order 2, so e^{-phi} = 1 and {psi < -t} is |z| < e^{-t/4}
    w = WeightPair.standard((MarkedPoint(0.0),), zeros=((0.0, 2),), extra_psi=((0.0, 2.0),))
    for t in (0.0, 0.7):
        res = minimal_integral(UNIT_DISC, w, CONST, t, N=8)
        assert res.diagnostics["gram_path"] == "analytic"
        assert res.value == pytest.approx(2 * math.pi * math.exp(-t / 2), rel=1e-14)
        quad = quadrature_minimum(UNIT_DISC, w, CONST, t, 8)
        assert abs(quad.value - res.value) <= 1e-12 * res.value


def test_single_point_decay_quadrature():
    res = quadrature_minimum(UNIT_DISC, single_point_pair(), CONST, 1.0, 12)
    assert res.value == pytest.approx(2 * math.pi * math.exp(-1), rel=1e-6)


def test_offcenter_point_quadrature():
    # marked point 1/2: the Blaschke change of variable gives 9/8 pi e^{-t}
    w = single_point_pair(z0=0.5)
    for t in (0.0, 1.0):
        res = quadrature_minimum(UNIT_DISC, w, CONST, t, 48)
        exact = 2 * math.pi * math.exp(-t) * 9 / 16
        assert res.value == pytest.approx(exact, rel=1e-6)
        bound = extension_bound(w, CONST, t)
        assert bound == pytest.approx(exact, rel=1e-12)


def test_exponential_gain_quadrature():
    # the library takes the closed form for one point under any gain; the
    # quadrature Gram in the point's chart still meets the same value
    g = GainFunction.exponential(0.5)
    w = single_point_pair()
    for t in (0.0, 1.0):
        exact = 4 * math.pi * math.exp(-t / 2)
        res = minimal_integral(UNIT_DISC, w, g, t, N=12)
        assert res.diagnostics["gram_path"] == "analytic"
        assert res.value == pytest.approx(exact, rel=1e-14)
        ref = quadrature_minimum(disc_chart(UNIT_DISC, w), w, g, t, 12)
        assert ref.value == pytest.approx(exact, rel=1e-6)


def test_scaling_covariance():
    lam = 0.5 - 2.0j
    base = minimal_integral(UNIT_DISC, two_point_pair(0.7), CONST, 0.0, N=32)
    scaled = minimal_integral(
        UNIT_DISC, two_point_pair(0.7, scale=lam), CONST, 0.0, N=32
    )
    assert scaled.value == pytest.approx(abs(lam) ** 2 * base.value, rel=1e-10)


def test_oracle_agrees_with_direct_solve():
    H = gram_analytic_disc(24)
    C = jet_constraints(two_point_pair(0.7), 24)
    v = kkt_minimize(H, C).value
    v_oracle = oracle_minimize(H, C, restarts=4, seed=3)
    assert abs(v - v_oracle) <= 1e-6 * (1 + abs(v))


def test_oracle_agrees_on_random_instances():
    rng = np.random.default_rng(17)
    n, m = 8, 2
    for _ in range(10):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        H = GramMatrix(entries=A.conj().T @ A + 0.5 * np.eye(n))
        rows = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        C = JetConstraintSystem(
            matrix=rows,
            rhs=rng.normal(size=m) + 1j * rng.normal(size=m),
            labels=tuple((0, i) for i in range(m)),
        )
        v = kkt_minimize(H, C).value
        v_oracle = oracle_minimize(H, C, restarts=3, seed=11)
        assert abs(v - v_oracle) <= 1e-6 * (1 + abs(v))


def test_uniqueness_certificate():
    analytic = minimal_integral(UNIT_DISC, two_point_pair(0.3), CONST, 0.0, N=32)
    assert analytic.diagnostics["gram_path"] == "analytic"
    for res in (analytic, quadrature_minimum(UNIT_DISC, two_point_pair(0.3), CONST, 0.0, 32)):
        assert res.diagnostics["unique"]
        assert res.diagnostics["reduced_min_eig"] > 0
        assert math.isfinite(res.diagnostics["gram_condition"])
        assert res.diagnostics["constraint_residual"] <= 1e-10


def test_no_free_coefficient_solve():
    # N = 0 leaves only the jet-fixed coefficient, so the reduced problem has
    # no free direction: G(0) = 2 pi |a|^2 for a unit mass at the origin
    p = single_point_problem(Numerics(N=0))
    analytic = minimal_integral(p.domain, p.weights, p.gain, 0.0, N=0)
    assert analytic.diagnostics["gram_path"] == "analytic"
    for res in (analytic, quadrature_minimum(p.domain, p.weights, p.gain, 0.0, 0)):
        assert abs(res.value - 2 * math.pi) <= 1e-12 * 2 * math.pi
        assert res.diagnostics["unique"] is True
        assert res.diagnostics["reduced_min_eig"] == math.inf
        assert res.extremal.coeffs == (1 + 0j,)


def test_reduced_gradient_certifies_stationarity():
    H = gram_analytic_disc(16)
    C = jet_constraints(two_point_pair(0.7), 16)
    res = kkt_minimize(H, C)
    a = np.asarray(res.extremal.coeffs)
    # stationary on the affine constraint set: H a is orthogonal to null(C)
    Z = np.linalg.svd(C.matrix)[2][C.n_rows:].conj().T
    grad = Z.conj().T @ (H.entries @ a)
    assert np.linalg.norm(grad) <= 1e-8 * (1 + np.linalg.norm(H.entries @ a))
    assert np.linalg.norm(C.matrix @ a - C.rhs) <= 1e-10


def test_bound_values():
    for a in (0.7, -1 / 3, 1.0):
        b = extension_bound(two_point_pair(a), CONST, 0.0)
        assert b == pytest.approx(4 * math.pi + 18 * abs(a) ** 2 * math.pi, rel=1e-12)
    for t in (0.0, 1.3):
        assert extension_bound(single_point_pair(), CONST, t) == pytest.approx(
            2 * math.pi * math.exp(-t), rel=1e-12
        )
    g = GainFunction.exponential(0.5)
    assert extension_bound(single_point_pair(), g, 0.0) == pytest.approx(
        4 * math.pi, rel=1e-12
    )


def test_bound_requires_matching_divisor_order():
    pts = (MarkedPoint(0.0, green_weight=1.0, jet_order=0, jet_coeff=1.0),)
    w = WeightPair.standard(pts, zeros=((0.0, 2),))
    with pytest.raises(BadInputError):
        extension_bound(w, CONST, 0.0)


def test_minimum_below_bound():
    for a in (-1.0, -1 / 3, 0.0, 0.4, 1.0, 2.0):
        res = minimal_integral(UNIT_DISC, two_point_pair(a), CONST, 0.0, N=48)
        bound = extension_bound(two_point_pair(a), CONST, 0.0)
        assert res.value <= bound * (1 + 1e-10)
    # equality case within quadrature tolerance
    w = single_point_pair(z0=0.5)
    res = quadrature_minimum(UNIT_DISC, w, CONST, 0.0, 48)
    assert res.value <= extension_bound(w, CONST, 0.0) * (1 + 1e-6)


def test_nonincreasing_in_t():
    w = two_point_pair(0.7)
    vals = [quadrature_minimum(UNIT_DISC, w, CONST, t, 16).value for t in (0.0, 0.5, 1.0)]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi * (1 + 1e-6)


def test_level_without_nodes_is_refused():
    # {psi < -200} about a point at 0.3 is a disc of radius ~1e-44: its
    # patch fan reads the offsets from the point, so with a u term (which
    # keeps one point on quadrature) G is 2 pi (1 - 0.09)^2 h(200) e^{-2u(0.3)},
    # h(t) = 2 e^{-t/2}, as the closed form gives it without u; so at
    # t = 690 (radius about 1e-150).  At t = 700 some area weights of the
    # patch fan underflow, and at t = 2000 the radius e^{-1000} does: no node
    # falls in that level.  The driver refuses both instead of returning a
    # wrong G or G = 0
    g = GainFunction.exponential(0.5)
    w = one_point(0.3, u_coeffs=(0.0, 0.1))
    for ts in ([200.0], [0.5, 200.0], [690.0]):
        exact = 2 * math.pi * 0.91**2 * 2 * math.exp(-ts[-1] / 2)
        res = minimal_integrals(UNIT_DISC, w, g, ts, N=4)[-1]
        assert res.diagnostics["gram_path"] == "quadrature"
        assert res.value == pytest.approx(exact * math.exp(-0.06), rel=1e-12)
        res = minimal_integrals(UNIT_DISC, single_point_pair(0.3), g, ts, N=4)[-1]
        assert res.diagnostics["gram_path"] == "analytic"
        assert res.value == pytest.approx(exact, rel=1e-13)
    with pytest.raises(NumericalError, match=r"weights underflow in \{psi < -t\} at t = 700:"):
        minimal_integrals(UNIT_DISC, w, g, [700.0], N=4)
    refusal = r"no quadrature node in \{psi < -t\} at t = 2000:"
    for ts in ([2000.0], [0.5, 2000.0]):
        with pytest.raises(NumericalError, match=refusal):
            minimal_integrals(UNIT_DISC, w, g, ts, N=4)


@pytest.mark.parametrize("lam", [2.0, 0.5j])
def test_divisor_leading_constant_scales_G(lam):
    # e^{-phi} carries 1/|lam|^2, so G and the bound scale by it: the closed
    # form scales its diagonal, and the quadrature Gram in the point's chart
    # agrees within its estimate
    marked = (MarkedPoint(0.3, green_weight=1.0, jet_order=0, jet_coeff=1.0),)
    w1 = WeightPair.standard(marked)
    w = WeightPair.standard(marked, leading=lam)
    res = minimal_integral(UNIT_DISC, w, CONST, 0.0, N=12)
    scale = abs(lam) ** 2
    assert res.diagnostics["gram_path"] == "analytic"
    assert res.value == pytest.approx(2 * math.pi * 0.91**2 / scale, rel=1e-15)
    quad = quadrature_minima(disc_chart(UNIT_DISC, w), w, CONST, [0.0], 12)[0]
    assert abs(quad.value - res.value) <= 10 * quad.diagnostics["quadrature_error"]
    assert scale * extension_bound(w, CONST, 0.0) == pytest.approx(
        extension_bound(w1, CONST, 0.0), rel=1e-14)


def test_quadrature_in_the_user_chart_agrees_with_the_point_chart():
    # the library takes the closed form in the chart that puts the point at
    # 0; the quadrature oracle runs in that chart and in the user's chart,
    # where it casts rays from 0 past the point: two geometries, one G
    # (h(t) = 2 e^{-t/2}), each within its own estimate of the exact value
    w, g = single_point_pair(0.5), GainFunction.exponential(0.5)
    chart = disc_chart(UNIT_DISC, w)
    for t in (0.0, 0.7, 2.5):
        exact = 2 * math.pi * 0.75**2 * 2 * math.exp(-0.5 * t)
        res = minimal_integral(UNIT_DISC, w, g, t, N=16)
        assert res.diagnostics["gram_path"] == "analytic"
        assert res.value == pytest.approx(exact, rel=1e-13)
        point = quadrature_minimum(chart, w, g, t, 16)
        user = quadrature_minimum(UNIT_DISC, w, g, t, 16)
        assert user.value != point.value
        err = max(point.diagnostics["quadrature_error"], user.diagnostics["quadrature_error"])
        assert abs(point.value - user.value) <= 10 * err
        assert abs(point.value - exact) <= 10 * point.diagnostics["quadrature_error"]
        assert abs(user.value - exact) <= 10 * user.diagnostics["quadrature_error"]


def test_input_validation():
    for t in (-1.0, math.nan):
        with pytest.raises(BadInputError):
            minimal_integral(UNIT_DISC, single_point_pair(), CONST, t)
    H = gram_analytic_disc(4)
    C = jet_constraints(single_point_pair(), 8)
    with pytest.raises(BadInputError):
        kkt_minimize(H, C)


def six_point_ring():
    """Six unit-mass points at radius 0.44, order-0 jets with value 1."""
    return WeightPair.standard(tuple(
        MarkedPoint(0.44 * complex(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)),
                    green_weight=1.0, jet_order=0, jet_coeff=1.0) for k in range(6)))


def test_default_patch_angles_resolve_a_six_point_ring():
    # six unit-mass points at radius 0.44 under an exponential gain, N = 40:
    # the default 32 angles per patch ring give G of 128 angles to rounding,
    # and the same error estimate as 64 angles
    w, g = six_point_ring(), GainFunction.exponential(0.5)

    def solve(mesh):
        res = minimal_integral(UNIT_DISC, w, g, 0.0, N=40, mesh=mesh)
        return res.value, res.diagnostics["quadrature_error"]

    value, err = solve(QuadratureConfig())
    assert value == pytest.approx(solve(QuadratureConfig(patch_angular=128))[0], rel=1e-14)
    assert err == pytest.approx(solve(QuadratureConfig(patch_angular=64))[1], rel=0.01)


def test_blending_pieces_get_two_radial_panels():
    # six unit-mass points at radius 0.44 under an exponential gain, N = 24:
    # a radial piece in a patch's blending annulus takes at least 2 panels,
    # so the half-resolution mesh resolves the C^4 mask there as well and the
    # error estimate at radial 128 is that of radial 256 (2.0377e-6 at
    # both; the default radial 64 reads 2.0376e-6, with one panel on such a
    # piece 2.9e-4); G at the default mesh is that of radial 512
    w, g = six_point_ring(), GainFunction.exponential(0.5)

    def solve(mesh):
        res = minimal_integral(UNIT_DISC, w, g, 0.0, N=24, mesh=mesh)
        return res.value, res.diagnostics["quadrature_error"]

    value = solve(QuadratureConfig())[0]
    assert value == pytest.approx(solve(QuadratureConfig(radial=512, levels=1))[0], rel=1e-10)
    assert solve(QuadratureConfig(radial=128))[1] == pytest.approx(
        solve(QuadratureConfig(radial=256))[1], rel=0.01)


def test_patch_rings_converge_once_the_half_radius_is_an_edge():
    # the blending mask is only C^4 at R / 2, so a ring interval across it
    # converges algebraically (2e-5 apart at 16 and 256 intervals);
    # with R / 2 an interval edge 16 intervals give G of 256 to rounding
    w, g = six_point_ring(), GainFunction.exponential(0.5)
    values = [minimal_integral(UNIT_DISC, w, g, 0.0, N=24,
                               mesh=QuadratureConfig(patch_radial=n, levels=1)).value
              for n in (16, 256)]
    assert values[0] == pytest.approx(values[1], rel=1e-13)


KNOT_GAIN = GainFunction.tabulated([0.0, 6.0, 9.0], np.exp([0.0, 4.8, 5.4]))


@pytest.mark.parametrize("case", ["pm0.3-rate0.9", "three-points-knots"])
def test_default_patch_mesh_stays_within_its_estimate(case):
    # patch rings of the default mesh against 256 intervals: +-0.3 under rate
    # 0.9 (local exponent -1.8, rings packed at the pole), and masses 0.6,
    # 1.3, 2.7 under a gain whose knots at 6 and 9 cut the patch rings of
    # the first two points (kinks in c(-psi) inside ring intervals)
    spec, g = {
        "pm0.3-rate0.9": ([(0.3, 1.0), (-0.3, 1.0)], GainFunction.exponential(0.9)),
        "three-points-knots": ([(0.4, 0.6), (-0.3 + 0.35j, 1.3), (-0.25 - 0.4j, 2.7)],
                               KNOT_GAIN),
    }[case]
    w = WeightPair.standard(tuple(MarkedPoint(z, green_weight=p, jet_order=0, jet_coeff=1.0)
                                  for z, p in spec))
    res = minimal_integral(UNIT_DISC, w, g, 0.0, N=24)
    ref = minimal_integral(UNIT_DISC, w, g, 0.0, N=24,
                           mesh=QuadratureConfig(patch_radial=256, levels=1))
    assert res.diagnostics["gram_path"] == "quadrature"
    assert abs(res.value - ref.value) <= 10 * res.diagnostics["quadrature_error"]


def test_G_does_not_depend_on_the_half_resolution_mesh():
    # the coarse mesh takes every other fine ray and reuses the fine cut
    # search there, but G comes from the fine mesh alone: levels 1 and 2
    # give the same bits over a two-point scan grid.  Three points under
    # a gain whose knots at 6 and 9 cut the fans: against a levels-1 mesh of
    # 2048 rays, radial 256 and patch fans of 128 / 128, G at each level
    # lies within its estimate (about 8x to 13x inside it)
    w = two_point_pair(0.4)
    g = GainFunction.exponential(0.5)
    ts = [0.25 * k for k in range(1, 10)]
    one, two = (minimal_integrals(UNIT_DISC, w, g, ts, N=8, mesh=QuadratureConfig(levels=n))
                for n in (1, 2))
    assert all(r.diagnostics["gram_path"] == "quadrature" for r in two)
    assert [r.value for r in one] == [r.value for r in two]
    assert all(r.diagnostics["quadrature_error"] > 0 for r in two)
    w = WeightPair.standard(tuple(MarkedPoint(z, green_weight=p, jet_order=0, jet_coeff=1.0)
                                  for z, p in [(0.4, 0.6), (-0.3 + 0.35j, 1.3),
                                               (-0.25 - 0.4j, 2.7)]))
    ts = [0.5, 3.0, 7.0]
    res = minimal_integrals(UNIT_DISC, w, KNOT_GAIN, ts, N=4)
    ref = minimal_integrals(UNIT_DISC, w, KNOT_GAIN, ts, N=4, mesh=QuadratureConfig(
        angular=2048, radial=256, patch_angular=128, patch_radial=128, levels=1))
    for r, f in zip(res, ref):
        assert abs(r.value - f.value) <= r.diagnostics["quadrature_error"]


@pytest.mark.parametrize("angle", [0.0, 0.3])
def test_error_estimate_covers_patch_angles_at_a_point_near_the_circle(angle):
    # a point at |zeta| = 0.97 under a gain with a knot at 4: in the user's
    # chart -psi runs from 3.9 to 4.4 around the rings of a patch of radius
    # 0.015 there, a kink in c(-psi) along them.  In the point's chart -psi
    # is constant on every ring: the library takes the closed form there, and
    # the quadrature Gram at the default mesh is that of 256 angles, within
    # its own error estimate
    w = single_point_pair(0.97 * complex(math.cos(angle), math.sin(angle)))
    res = minimal_integral(UNIT_DISC, w, TABULATED, 0.0, N=24)
    ref = minimal_integral(UNIT_DISC, w, TABULATED, 0.0, N=24,
                           mesh=QuadratureConfig(patch_angular=256))
    assert abs(res.value - ref.value) <= res.diagnostics["quadrature_error"]
    chart = disc_chart(UNIT_DISC, w)
    quad = quadrature_minimum(chart, w, TABULATED, 0.0, 24)
    fine = quadrature_minimum(chart, w, TABULATED, 0.0, 24, QuadratureConfig(patch_angular=256))
    assert abs(quad.value - fine.value) <= quad.diagnostics["quadrature_error"]
    assert abs(quad.value - res.value) <= 10 * quad.diagnostics["quadrature_error"]


# (disc coordinate, p, jet order k, domain, gain): with divisor order
# m = k + 1, every kappa_k = (k + 1 + p - m)/p = 1 lies above the gain's tail
# slope, so every Gram entry from degree k on converges; the entries below
# degree k never meet an admissible form, whose a_l vanish for l < k
ONE_POINT_CASES = {
    "origin-rate-0.5": (0.0, 1.0, 0, UNIT_DISC, GainFunction.exponential(-0.5)),
    "off-0-rate0.3": (0.4, 1.0, 0, UNIT_DISC, GainFunction.exponential(0.3)),
    "moebius-rate0.9": (0.45 * cmath.exp(1.1j), 1.0, 0, MOEBIUS, GainFunction.exponential(0.9)),
    "moebius-tabulated": (0.3 - 0.2j, 1.0, 0, MOEBIUS, TABULATED),
    "p1.5-jet1-rate0.3": (0.3 + 0.2j, 1.5, 1, UNIT_DISC, GainFunction.exponential(0.3)),
    "p1.5-jet0-rate0.9": (-0.5j, 1.5, 0, UNIT_DISC, GainFunction.exponential(0.9)),
    "p2.5-jet2-rate-0.5": (-0.35, 2.5, 2, UNIT_DISC, GainFunction.exponential(-0.5)),
    "p2.5-jet1-tabulated": (0.2 + 0.1j, 2.5, 1, MOEBIUS, TABULATED),
    # a divisor leading constant and a constant u scale e^{-phi}
    "leading-2-rate0.5": (0.3, 1.0, 0, UNIT_DISC, GainFunction.exponential(0.5),
                          {"leading": 2.0}),
    "constant-u-p2-jet1": (0.3 + 0.2j, 2.0, 1, MOEBIUS, GainFunction.exponential(0.3),
                           {"u_coeffs": (0.4 - 0.3j, 0.0, 0.0), "leading": 0.5j}),
    # p = 1 and divisor order 2: kappa_0 = 0 <= rate 0.5, so entry [0][0]
    # diverges, but a_0 = 0 on the admissible family and kappa_1 = 1 > 0.5
    "kappa0-at-slope": (0.3, 1.0, 1, UNIT_DISC, GainFunction.exponential(0.5)),
}


@pytest.mark.parametrize("case", sorted(ONE_POINT_CASES))
def test_one_point_takes_the_closed_form_under_any_gain(case):
    # in the chart that puts the point at 0 the integrand is radial, so the
    # Gram is diagonal with entries (2 pi / p) int_t^inf c(s) e^{-kappa_l s} ds;
    # the quadrature Gram in that chart is the oracle
    zeta0, p, k, dom, g, *phi = ONE_POINT_CASES[case]
    phi = phi[0] if phi else {}
    w = one_point(zeta0, p, k, dom, **phi)
    ts = [0.0, 0.7, 2.5]
    results = minimal_integrals(dom, w, g, ts, N=16)
    oracle = quadrature_minima(disc_chart(dom, w), w, g, ts, 16)
    scale = math.exp(-2 * phi.get("u_coeffs", (0,))[0].real) / abs(phi.get("leading", 1)) ** 2
    for t, res, ref in zip(ts, results, oracle):
        assert res.diagnostics["gram_path"] == "analytic"
        assert res.diagnostics["quadrature_error"] == 0
        assert abs(res.value - ref.value) <= 10 * ref.diagnostics["quadrature_error"], t
        if p == k + 1:  # p = m: the optimal-jets bound, attained
            exact = 2 * math.pi / p * (1 - abs(zeta0) ** 2) ** (2 * p) * eval_h(g, t) * scale
            assert res.value == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("case", ["u", "bump", "two-points"])
def test_one_point_stays_on_quadrature_without_a_radial_integrand(case):
    g = GainFunction.exponential(0.5)
    w = {"u": lambda: one_point(0.3, u_coeffs=(0.0, 0.1)),
         "bump": lambda: one_point(0.3, bump=0.2),
         "two-points": lambda: WeightPair.standard(
             (MarkedPoint(0.3), MarkedPoint(-0.3)))}[case]()
    chart = disc_chart(UNIT_DISC, w)
    assert analytic_reduction(chart, w, g, 0.5, 8) is None
    res = minimal_integral(UNIT_DISC, w, g, 0.5, N=8)
    assert res.diagnostics["gram_path"] == "quadrature"
