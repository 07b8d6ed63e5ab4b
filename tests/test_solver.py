"""Constrained minimization: closed forms, invariance, oracle cross-checks."""
import math

import numpy as np
import pytest

from jetmin.errors import BadInputError
from jetmin.forms import GramMatrix, JetConstraintSystem, gram_analytic_disc, jet_constraints
from jetmin.gain import GainFunction
from jetmin.geometry import UNIT_DISC, MarkedPoint
from jetmin.solver import extension_bound, kkt_minimize, minimal_integral, minimal_integrals
from jetmin.weights import WeightPair
from oracles import oracle_minimize

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
    res = minimal_integral(
        UNIT_DISC, two_point_pair(0.7), CONST, 0.0, N=24, gram="quadrature"
    )
    assert res.diagnostics["gram_path"] == "quadrature"
    assert res.value == pytest.approx(two_point_exact(0.7), rel=1e-6)


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


def test_single_point_decay_analytic():
    for t in (0.0, 0.7, 1.0, 2.5, 5.0):
        res = minimal_integral(UNIT_DISC, single_point_pair(), CONST, t, N=8)
        assert res.diagnostics["gram_path"] == "analytic"
        assert res.value == pytest.approx(2 * math.pi * math.exp(-t), rel=1e-12)


def test_single_point_decay_quadrature():
    res = minimal_integral(
        UNIT_DISC, single_point_pair(), CONST, 1.0, N=12, gram="quadrature"
    )
    assert res.value == pytest.approx(2 * math.pi * math.exp(-1), rel=1e-6)


def test_offcenter_point_quadrature():
    # marked point 1/2: the Blaschke change of variable gives 9/8 pi e^{-t}
    w = single_point_pair(z0=0.5)
    for t in (0.0, 1.0):
        res = minimal_integral(UNIT_DISC, w, CONST, t, N=48, gram="quadrature")
        exact = 2 * math.pi * math.exp(-t) * 9 / 16
        assert res.value == pytest.approx(exact, rel=1e-6)
        bound = extension_bound(w, CONST, t)
        assert bound == pytest.approx(exact, rel=1e-12)


def test_exponential_gain_quadrature():
    g = GainFunction.exponential(0.5)
    for t in (0.0, 1.0):
        res = minimal_integral(
            UNIT_DISC, single_point_pair(), g, t, N=12, gram="quadrature"
        )
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
    for gram in ("analytic", "quadrature"):
        res = minimal_integral(UNIT_DISC, two_point_pair(0.3), CONST, 0.0, N=32, gram=gram)
        assert res.diagnostics["gram_path"] == gram
        assert res.diagnostics["unique"]
        assert res.diagnostics["reduced_min_eig"] > 0
        assert math.isfinite(res.diagnostics["gram_condition"])
        assert res.diagnostics["constraint_residual"] <= 1e-10


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
    res = minimal_integral(UNIT_DISC, w, CONST, 0.0, N=48, gram="quadrature")
    assert res.value <= extension_bound(w, CONST, 0.0) * (1 + 1e-6)


def test_nonincreasing_in_t():
    w = two_point_pair(0.7)
    vals = [
        minimal_integral(UNIT_DISC, w, CONST, t, N=16, gram="quadrature").value
        for t in (0.0, 0.5, 1.0)
    ]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi * (1 + 1e-6)


def test_degenerate_region_flag():
    res = minimal_integral(
        UNIT_DISC, single_point_pair(), CONST, 200.0, N=4, gram="quadrature"
    )
    assert res.value == 0.0
    assert res.diagnostics["degenerate"]
    # an empty deep level leaves the other levels of the same region intact
    inner, empty = minimal_integrals(
        UNIT_DISC, single_point_pair(), CONST, [0.5, 200.0], N=4, gram="quadrature"
    )
    assert empty.value == 0.0 and empty.diagnostics["degenerate"]
    assert empty.diagnostics["quadrature_error"] == 0.0
    alone = minimal_integral(UNIT_DISC, single_point_pair(), CONST, 0.5, N=4, gram="quadrature")
    assert not inner.diagnostics["degenerate"]
    assert inner.value == pytest.approx(alone.value, rel=1e-12)


def test_truncation_tail_diagnostic():
    centered = minimal_integral(UNIT_DISC, single_point_pair(), CONST, 0.0, N=8)
    assert centered.diagnostics["truncation_tail"] == 0.0
    res = minimal_integral(UNIT_DISC, two_point_pair(0.7), CONST, 0.0, N=64)
    assert 0 < res.diagnostics["truncation_tail"] < 1e-20


def test_input_validation():
    for t in (-1.0, math.nan):
        with pytest.raises(BadInputError):
            minimal_integral(UNIT_DISC, single_point_pair(), CONST, t)
    with pytest.raises(BadInputError):
        minimal_integral(UNIT_DISC, single_point_pair(), CONST, 0.0, gram="bogus")
    with pytest.raises(BadInputError):
        minimal_integral(
            UNIT_DISC,
            single_point_pair(),
            GainFunction.exponential(0.5),
            0.0,
            gram="analytic",
        )
    H = gram_analytic_disc(4)
    C = jet_constraints(single_point_pair(), 8)
    with pytest.raises(BadInputError):
        kkt_minimize(H, C)
