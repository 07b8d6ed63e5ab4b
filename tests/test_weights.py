"""Structural weight pairs: psi, phi, Lelong numbers, alpha constants."""
import math

import numpy as np
import pytest

import jetmin.weights
from jetmin.errors import BadInputError
from jetmin.geometry import UNIT_DISC, DomainSpec, MarkedPoint, green_disc, green_disc_raw
from jetmin.weights import (
    PhiSpec,
    PsiSpec,
    WeightKernel,
    WeightPair,
    alpha_j,
    lelong_psi,
)
from oracles import eval_phi, eval_psi


def two_point_pair(a=0.7):
    """Double point at 0 (weight 2, first-order jet) plus simple point at 1/2."""
    marked = (
        MarkedPoint(0.0, green_weight=2.0, jet_order=1, jet_coeff=1.0),
        MarkedPoint(0.5, green_weight=1.0, jet_order=0, jet_coeff=a),
    )
    return WeightPair.standard(marked)


def psi_at(w, z):
    return float(WeightKernel(UNIT_DISC, w).psi(z))


def phi_at(w, z):
    k = WeightKernel(UNIT_DISC, w)
    return float(k.phi_plus_psi(z) - k.psi(z))


def test_psi_two_point_value():
    w = two_point_pair()
    assert psi_at(w, 0.9) == pytest.approx(-1.0583495248683743, abs=1e-13)
    assert psi_at(w, 0.9) == pytest.approx(
        4 * math.log(0.9) + 2 * math.log(0.4 / 0.55), abs=1e-13
    )


def test_psi_single_point_radial():
    w = WeightPair.standard([MarkedPoint(0.0)])
    assert psi_at(w, math.exp(-1.0)) == pytest.approx(-2.0, abs=1e-14)


def test_psi_negative_everywhere():
    w = two_point_pair()
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = rng.uniform(-0.7, 0.7) + 1j * rng.uniform(-0.7, 0.7)
        if abs(z) < 0.05 or abs(z - 0.5) < 0.05:
            continue
        assert psi_at(w, z) < 0


def test_psi_extra_terms_lower_it():
    pt = MarkedPoint(0.0)
    base = WeightPair.standard([pt])
    extra = WeightPair.standard([pt], extra_psi=((0.3, 1.0),))
    rng = np.random.default_rng(13)
    for _ in range(200):
        z = rng.uniform(-0.8, 0.8) + 1j * rng.uniform(-0.8, 0.8)
        if abs(z) < 1e-3 or abs(z - 0.3) < 1e-3 or abs(z) >= 1:
            continue
        assert psi_at(extra, z) < psi_at(base, z)


def test_phi_vanishes_for_matching_divisor():
    w = two_point_pair()
    rng = np.random.default_rng(4)
    for _ in range(40):
        z = rng.uniform(-0.7, 0.7) + 1j * rng.uniform(-0.7, 0.7)
        if abs(z) < 0.05 or abs(z - 0.5) < 0.05:
            continue
        assert phi_at(w, z) == pytest.approx(0.0, abs=1e-12)


def test_phi_with_harmonic_part():
    # trivial divisor, u = Re z, psi = 2 log|z|
    w = WeightPair.standard([MarkedPoint(0.0)], zeros=(), u_coeffs=(0.0, 1.0))
    assert phi_at(w, 0.5) == pytest.approx(2.386294361119891, abs=1e-13)


def test_phi_bump_only():
    w = WeightPair.standard([MarkedPoint(0.0)], bump=0.1)
    for z in (0.3, -0.2 + 0.4j, 0.6j):
        assert phi_at(w, z) == pytest.approx(0.1 * abs(z) ** 2, abs=1e-12)


def test_lelong_numbers():
    w = two_point_pair()
    assert lelong_psi(w, 0) == pytest.approx(2.0)
    assert lelong_psi(w, 1) == pytest.approx(1.0)


def test_lelong_with_extra_charge():
    w = WeightPair.standard([MarkedPoint(0.0)], extra_psi=((0.0, 2.0),))
    assert lelong_psi(w, 0) == pytest.approx(2.0)  # p=1 plus 2/2


def test_alpha_two_point_values():
    w = two_point_pair()
    assert alpha_j(w, 0) == pytest.approx(-math.log(4.0), abs=1e-13)
    assert alpha_j(w, 1) == pytest.approx(-4 * math.log(2.0), abs=1e-13)


def test_alpha_single_point_zero():
    w = WeightPair.standard([MarkedPoint(0.0)])
    assert alpha_j(w, 0) == pytest.approx(0.0, abs=1e-15)


def test_alpha_sees_leading_and_u():
    w = WeightPair.standard(
        [MarkedPoint(0.0)], leading=2.0, u_coeffs=(0.25,), bump=0.0
    )
    assert alpha_j(w, 0) == pytest.approx(2 * math.log(2.0) + 0.5, abs=1e-13)


def test_alpha_infinite_when_order_mismatch():
    marked = (MarkedPoint(0.0, green_weight=2.0, jet_order=1),)
    w = WeightPair.standard(marked, zeros=((0.0, 1),))
    with pytest.raises(BadInputError):
        alpha_j(w, 0)
    w2 = WeightPair.standard(marked, zeros=((0.0, 3),))
    with pytest.raises(BadInputError):
        alpha_j(w2, 0)


def test_weight_pair_validation():
    with pytest.raises(BadInputError):
        PsiSpec(extra_terms=((0.0, -1.0),))
    with pytest.raises(BadInputError):
        WeightPair.standard([MarkedPoint(0.0), MarkedPoint(1e-13)])  # one point within tolerance
    with pytest.raises(BadInputError):
        PhiSpec(leading=0.0)
    with pytest.raises(BadInputError):
        PhiSpec(bump=-0.5)


def test_stencil_laplacian_of_phi_plus_psi():
    # away from the divisor, phi + psi is harmonic plus the bump term
    w = WeightPair.standard([MarkedPoint(0.0)], bump=0.1, u_coeffs=(0.0, 0.0, 0.3))
    k = WeightKernel(UNIT_DISC, w)
    h = 1e-3

    def f(z):
        return float(k.phi_plus_psi(z))

    for z in (0.3 + 0.2j, -0.4j, 0.15 - 0.5j):
        lap = (f(z + h) + f(z - h) + f(z + 1j * h) + f(z - 1j * h) - 4 * f(z)) / h**2
        assert lap == pytest.approx(0.4, abs=1e-3)


def test_kernel_matches_scalar_evaluators_identity_domain():
    w = two_point_pair()
    k = WeightKernel(UNIT_DISC, w)
    rng = np.random.default_rng(17)
    zs = rng.uniform(-0.6, 0.6, 30) + 1j * rng.uniform(-0.6, 0.6, 30)
    zs = zs[(np.abs(zs) > 0.05) & (np.abs(zs - 0.5) > 0.05)]
    psi_vec = k.psi(zs)
    tot_vec = k.phi_plus_psi(zs)
    for z, pv, tv in zip(zs, psi_vec, tot_vec):
        assert pv == pytest.approx(eval_psi(w, z), abs=1e-12)
        assert tv == pytest.approx(eval_phi(w, z) + eval_psi(w, z), abs=1e-12)


def test_kernel_matches_scalar_evaluators_moebius_domain():
    dom = DomainSpec.moebius(1.5, 0.2, 0.1, 1.3)
    z0 = complex(dom.forward(0.0))
    w = WeightPair.standard([MarkedPoint(z0)], u_coeffs=(0.1, 0.2))
    k = WeightKernel(dom, w)
    rng = np.random.default_rng(19)
    for _ in range(20):
        zeta = rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)
        if abs(zeta) < 0.05:
            continue
        z = complex(dom.forward(zeta))
        assert float(k.psi(zeta)) == pytest.approx(eval_psi(w, z, dom), abs=1e-12)
        assert float(k.phi_plus_psi(zeta)) == pytest.approx(
            eval_phi(w, z, dom) + eval_psi(w, z, dom), abs=1e-12
        )


def test_kernel_singular_centers():
    w = two_point_pair()
    k = WeightKernel(UNIT_DISC, w)
    centers = {z: (p, m, nu) for z, p, m, nu in k.singular_centers()}
    assert centers[0.0 + 0.0j] == (2.0, 2, 1)
    assert centers[0.5 + 0.0j] == (1.0, 1, 0)


def test_kernel_singular_centers_zero_jet():
    marked = (MarkedPoint(0.0, jet_order=1, jet_coeff=0.0),)
    w = WeightPair.standard(marked)
    k = WeightKernel(UNIT_DISC, w)
    (zeta, p, m, nu), = k.singular_centers()
    assert nu == 2  # zero target coefficient forces one extra order


@pytest.mark.parametrize("dom", [UNIT_DISC, DomainSpec.moebius(2.0, 0.3, 0.1, 1.2)],
                         ids=["disc", "moebius"])
def test_shared_kernel_evaluation_is_bitwise(dom, monkeypatch):
    # psi and phi + psi share the Green terms of their common centers: the
    # shared evaluator gives the bits of each alone and evaluates every
    # distinct center once, with extra psi mass on a marked point and off
    # them, and a divisor zero off the marked points
    z1, z2, z3, z4 = (complex(dom.forward(v)) for v in (0.2, -0.3 + 0.1j, 0.1 - 0.5j, 0.6j))
    marked = (MarkedPoint(z1, green_weight=1.0, jet_order=1, jet_coeff=1.0),
              MarkedPoint(z2, green_weight=1.5, jet_order=0, jet_coeff=0.5))
    w = WeightPair.standard(marked, zeros=((z1, 2), (z2, 1), (z3, 1)), leading=0.7,
                            u_coeffs=(0.1, 0.2j), bump=0.3, extra_psi=((z2, 0.4), (z4, 0.5)))
    kernel = WeightKernel(dom, w)
    r, a = np.meshgrid(np.linspace(0.0, 0.95, 23), np.linspace(0.0, 2 * math.pi, 31))
    zeta = (r * np.exp(1j * a)).ravel()
    calls = []

    def counted(z, z0, x=None):
        calls.append(z0)
        return green_disc_raw(z, z0, x)

    monkeypatch.setattr(jetmin.weights, "green_disc_raw", counted)
    psi, phi_plus_psi = kernel.psi_and_phi_plus_psi(zeta)
    assert len(calls) == 4
    assert np.array_equal(psi, kernel.psi(zeta))
    assert np.array_equal(phi_plus_psi, kernel.phi_plus_psi(zeta))


def test_offsets_read_a_point_term_from_x():
    # with an origin at a point c, the evaluators take offsets x and read c's
    # own Green term from x: where c + x keeps the digits of x they match the
    # plain evaluation at c + x, and at |x| = 1e-80 (where c + x == c) psi -
    # 2p log|x| still tends to its smooth limit at c
    c, p = 0.3 - 0.2j, 1.5
    w = WeightPair.standard((MarkedPoint(c, green_weight=p, jet_order=1),
                             MarkedPoint(-0.4j, green_weight=0.8)), u_coeffs=(0.1, 0.2j))
    kernel = WeightKernel(UNIT_DISC, w)
    x = 1e-3 * np.exp(1j * np.linspace(0.0, 6.0, 7))
    for got, want in zip(kernel.psi_and_phi_plus_psi(x, c), kernel.psi_and_phi_plus_psi(c + x)):
        np.testing.assert_allclose(got, want, rtol=1e-12)
    limit = 2 * p * -math.log(1 - abs(c) ** 2) + 2 * 0.8 * green_disc(c, -0.4j)
    tiny = 1e-80 * np.exp(1j * np.linspace(0.0, 6.0, 7))
    # psi is about -554 there, whose ulp is 1.1e-13
    np.testing.assert_allclose(kernel.psi(tiny, c) - 2 * p * math.log(1e-80), limit, atol=1e-12)
    assert np.all(np.isinf(kernel.psi(tiny + c)))
