"""Constrained minimization: closed forms, invariance, oracle cross-checks."""
import math

import numpy as np
import pytest

from jetmin.errors import BadInputError, NumericalError
from jetmin.forms import GramMatrix, JetConstraintSystem, gram_analytic_disc, jet_constraints
from jetmin.gain import GainFunction
from jetmin.geometry import UNIT_DISC, DomainSpec, MarkedPoint
from jetmin.problems import Numerics, single_point_problem
from jetmin.quadrature import QuadratureConfig
from jetmin.solver import extension_bound, kkt_minimize, minimal_integral, minimal_integrals
from jetmin.weights import WeightPair
from oracles import oracle_minimize, quadrature_minimum

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
    g = GainFunction.exponential(0.5)
    for t in (0.0, 1.0):
        res = minimal_integral(UNIT_DISC, single_point_pair(), g, t, N=12)
        assert res.diagnostics["gram_path"] == "quadrature"
        exact = 4 * math.pi * math.exp(-t / 2)
        assert res.value == pytest.approx(exact, rel=1e-6)


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
    # {psi < -200} about a point at 0.3 is a disc of radius ~1e-44: no node
    # falls in it, so the driver refuses it instead of returning G = 0
    w = single_point_pair(0.3)
    for ts in ([200.0], [0.5, 200.0]):
        with pytest.raises(NumericalError, match=r"no quadrature node in \{psi < -t\} at t = 200:"):
            minimal_integrals(UNIT_DISC, w, CONST, ts, N=4)


@pytest.mark.parametrize("lam", [2.0, 0.5j])
def test_divisor_leading_constant_scales_G(lam):
    # e^{-phi} carries 1/|lam|^2, so G and the bound scale by it; |lam| != 1
    # has no closed form, so this compares quadrature with the lam = 1 one
    marked = (MarkedPoint(0.3, green_weight=1.0, jet_order=0, jet_coeff=1.0),)
    w1 = WeightPair.standard(marked)
    w = WeightPair.standard(marked, leading=lam)
    ref = minimal_integral(UNIT_DISC, w1, CONST, 0.0, N=12)
    res = minimal_integral(UNIT_DISC, w, CONST, 0.0, N=12)
    assert ref.diagnostics["gram_path"] == "analytic"
    assert ref.value == pytest.approx(5.2031057528771, rel=1e-13)
    assert res.diagnostics["gram_path"] == "quadrature"
    scale = abs(lam) ** 2
    assert abs(scale * res.value - ref.value) <= 10 * scale * res.diagnostics["quadrature_error"]
    assert scale * extension_bound(w, CONST, 0.0) == pytest.approx(
        extension_bound(w1, CONST, 0.0), rel=1e-14)


def test_input_validation():
    for t in (-1.0, math.nan):
        with pytest.raises(BadInputError):
            minimal_integral(UNIT_DISC, single_point_pair(), CONST, t)
    H = gram_analytic_disc(4)
    C = jet_constraints(single_point_pair(), 8)
    with pytest.raises(BadInputError):
        kkt_minimize(H, C)


def test_default_patch_angles_resolve_a_six_point_ring():
    # six unit-mass points at radius 0.44 under an exponential gain, N = 40:
    # the default 32 angles per patch ring give G of 128 angles to rounding,
    # and the same error estimate as 64 angles
    pts = tuple(MarkedPoint(0.44 * complex(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)),
                            green_weight=1.0, jet_order=0, jet_coeff=1.0) for k in range(6))
    w, g = WeightPair.standard(pts), GainFunction.exponential(0.5)

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
    # error estimate is that of the finer radial budget 256 (with one panel
    # on such a piece it reads 1.7e-5, not 3.9e-5); G is that of radial 512
    pts = tuple(MarkedPoint(0.44 * complex(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)),
                            green_weight=1.0, jet_order=0, jet_coeff=1.0) for k in range(6))
    w, g = WeightPair.standard(pts), GainFunction.exponential(0.5)

    def solve(mesh):
        res = minimal_integral(UNIT_DISC, w, g, 0.0, N=24, mesh=mesh)
        return res.value, res.diagnostics["quadrature_error"]

    value, err = solve(QuadratureConfig())
    assert value == pytest.approx(solve(QuadratureConfig(radial=512, levels=1))[0], rel=1e-10)
    assert err == pytest.approx(solve(QuadratureConfig(radial=256))[1], rel=0.01)


@pytest.mark.parametrize("angle", [
    0.0,
    # here the fine-coarse difference cancels: quad_error 8.3e-8 against a
    # patch-angle error of 1.2e-7 (and a total error of 1.0e-7)
    pytest.param(0.3, marks=pytest.mark.xfail(
        strict=True, reason="the two-level estimate under-reports this case 1.4x")),
])
def test_error_estimate_covers_patch_angles_at_a_point_near_the_circle(angle):
    # a point at |zeta| = 0.97 has a patch of radius 0.015, half its distance
    # to the circle, and -psi runs from 3.9 to 4.4 around its rings of radius
    # 0.0075, so the gain's knot at 4 puts a kink in c(-psi) along them: the
    # slowest angular convergence the patch radii allow.  G at the default
    # mesh is within its own error estimate of G at 256 angles
    tab = GainFunction.tabulated([0.0, 0.5, 1.0, 2.0, 4.0],
                                 np.exp([0.0, 0.4, 0.8, 1.6, 3.2]))
    w = single_point_pair(0.97 * complex(math.cos(angle), math.sin(angle)))
    res = minimal_integral(UNIT_DISC, w, tab, 0.0, N=24)
    ref = minimal_integral(UNIT_DISC, w, tab, 0.0, N=24, mesh=QuadratureConfig(patch_angular=256))
    assert abs(res.value - ref.value) <= res.diagnostics["quadrature_error"]
