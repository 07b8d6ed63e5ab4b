"""Gram matrices, jet constraint rows, and weighted norms of truncated forms."""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from jetmin.errors import BadInputError, NonIntegrableWeightError, NumericalError
from jetmin.forms import (
    GramMatrix,
    JetConstraintSystem,
    TruncatedForm,
    analytic_reduction,
    constraint_basis,
    form_norm_quadrature,
    gram_analytic_disc,
    gram_reduced,
    jet_constraints,
    norm_of_form,
)
from jetmin.gain import GainFunction
from jetmin.geometry import UNIT_DISC, DomainSpec, MarkedPoint
from jetmin.problems import two_point_problem
from jetmin.quadrature import QuadratureConfig
from jetmin.solver import minimal_integral
from jetmin.weights import PhiSpec, WeightPair
from oracles import gram_quadrature

CONST = GainFunction.constant(1.0)

# weighted Gram entry over {psi < -1} for the two-point weight below,
# frozen from a Monte Carlo evaluation (2e7 samples, seeds 715 and 99)
TWO_POINT_H00_T1_MC = 4.4236
TWO_POINT_H00_T1_MC_TOL = 5e-3


def two_point_pair(a=1.0):
    pts = (
        MarkedPoint(0.0, green_weight=2.0, jet_order=1, jet_coeff=1.0),
        MarkedPoint(0.5, green_weight=1.0, jet_order=0, jet_coeff=a),
    )
    return WeightPair.standard(pts)


def single_point_pair(z0=0.0, k=0, a=1.0, p=1.0):
    return WeightPair.standard((MarkedPoint(z0, green_weight=p, jet_order=k, jet_coeff=a),))


def test_analytic_diag_degree_zero():
    H = gram_analytic_disc(0)
    assert H.size == 1
    assert H.entries[0, 0] == pytest.approx(2 * math.pi, rel=1e-15)


def test_analytic_diag_degree_two():
    H = gram_analytic_disc(2)
    want = np.diag([2 * math.pi, math.pi, 2 * math.pi / 3])
    assert np.allclose(H.entries, want, rtol=1e-14, atol=0)


def test_analytic_diag_radius_and_scale():
    rho, s = 0.6, 3.0
    H = gram_analytic_disc(3, radius=rho, scale=s)
    for l in range(4):
        want = s * 2 * math.pi * rho ** (2 * l + 2) / (l + 1)
        assert H.entries[l, l].real == pytest.approx(want, rel=1e-14)


def test_quadrature_matches_analytic_trivial_weight():
    # two-point divisor realizes psi exactly, so e^{-phi} = 1 on the disc
    w = two_point_pair()
    H = gram_quadrature(UNIT_DISC, w, CONST, 0.0, 4)
    want = gram_analytic_disc(4).entries
    assert np.max(np.abs(H.entries - want)) <= 1e-6
    assert H.quad_error <= 1e-4


def test_quadrature_restricted_region_entry():
    # {psi < -2} for a unit point mass is the disc of radius e^{-1}
    w = single_point_pair()
    H = gram_quadrature(UNIT_DISC, w, CONST, 2.0, 0)
    assert H.entries[0, 0].real == pytest.approx(2 * math.pi * math.exp(-2), rel=1e-9)


def test_quadrature_monte_carlo_frozen_entry():
    w = two_point_pair()
    H = gram_quadrature(UNIT_DISC, w, CONST, 1.0, 1)
    assert H.entries[0, 0].real == pytest.approx(
        TWO_POINT_H00_T1_MC, abs=TWO_POINT_H00_T1_MC_TOL
    )


def test_quadrature_hermitian_and_psd():
    H = gram_quadrature(UNIT_DISC, two_point_pair(), CONST, 1.0, 3)
    assert np.allclose(H.entries, H.entries.conj().T)
    eigs = np.linalg.eigvalsh(H.entries)
    assert eigs[0] >= -1e-10 * eigs[-1]


def test_quadrature_monotone_in_t():
    # shrinking the region can only lower the quadratic form
    w = single_point_pair()
    H1 = gram_quadrature(UNIT_DISC, w, CONST, 0.5, 3).entries
    H2 = gram_quadrature(UNIT_DISC, w, CONST, 1.0, 3).entries
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        q1 = float(np.real(np.vdot(x, H1 @ x)))
        q2 = float(np.real(np.vdot(x, H2 @ x)))
        assert q1 - q2 >= -1e-8 * abs(q1)


def test_jet_rows_two_point_system():
    C = jet_constraints(two_point_pair(0.7), 7)
    assert C.labels == ((0, 0), (0, 1), (1, 0))
    e0 = np.zeros(8)
    e0[0] = 1
    e1 = np.zeros(8)
    e1[1] = 1
    assert np.allclose(C.matrix[0], e0)
    assert np.allclose(C.matrix[1], e1)
    assert np.allclose(C.matrix[2], [0.5 ** l for l in range(8)])
    assert np.allclose(C.rhs, [0, 1, 0.7])


def test_jet_rows_first_order_offcenter():
    # d/dz of z^l at 1/2 gives l 2^{1-l}
    w = single_point_pair(z0=0.5, k=1)
    C = jet_constraints(w, 7)
    assert np.allclose(C.matrix[0], [0.5 ** l for l in range(8)])
    assert np.allclose(
        C.matrix[1], [0.0, 1.0, 1.0, 0.75, 0.5, 0.3125, 0.1875, 0.109375]
    )
    assert np.allclose(C.rhs, [0, 1])


def test_jet_rows_coord_scale_rhs():
    w = single_point_pair(z0=0.0, k=1)
    pt = w.marked[0]
    scaled = WeightPair.standard(
        (MarkedPoint(0.0, green_weight=pt.green_weight, jet_order=1,
                     jet_coeff=1.0, coord_scale=3.0),)
    )
    C = jet_constraints(scaled, 4)
    # top-order target in plain z - z0 coordinates picks up s^{k+1}
    assert C.rhs[1] == pytest.approx(9.0)


def test_jet_rows_moebius_cauchy_oracle():
    dom = DomainSpec.moebius(2.0, 0.3, 0.1, 1.2)
    zeta0 = 0.3 - 0.2j
    z0 = dom.forward(zeta0)
    w = WeightPair.standard(
        (MarkedPoint(z0, green_weight=1.0, jet_order=1, jet_coeff=1.0),)
    )
    C = jet_constraints(w, 6, dom)
    # contour oracle: order-nu coefficient of zeta(z)^l zeta'(z) at z0
    M = 4096
    r = 0.04
    ang = np.exp(2j * np.pi * np.arange(M) / M)
    z = z0 + r * ang
    zeta = dom.inverse(z)
    h = 1e-6
    dzeta = (dom.inverse(z + h) - dom.inverse(z - h)) / (2 * h)
    for l in range(7):
        u = zeta ** l * dzeta
        coeffs = np.fft.fft(u) / M
        for nu in range(2):
            want = coeffs[nu] / r ** nu
            assert C.matrix[nu, l] == pytest.approx(want, abs=5e-7)


def test_jet_constraints_need_enough_coefficients():
    with pytest.raises(BadInputError):
        jet_constraints(two_point_pair(), 1)


def test_constraint_system_rejects_rank_deficiency():
    A = np.array([[1.0, 0.5, 0.25], [1.0, 0.5, 0.25]])
    with pytest.raises(BadInputError):
        JetConstraintSystem(matrix=A, rhs=np.array([1.0, 1.0]), labels=((0, 0), (1, 0)))


def test_constraint_basis_shapes():
    C = jet_constraints(two_point_pair(), 6)
    a_part, Z = constraint_basis(C)
    assert a_part.shape == (7,)
    assert Z.shape == (7, 4)
    assert np.allclose(C.matrix @ Z, 0, atol=1e-12)
    assert np.allclose(Z.conj().T @ Z, np.eye(4), atol=1e-12)


def test_analytic_reduction_eligibility():
    # the closed form is a Gram diagonal: 2 pi v/(l + 1) on the whole disc at
    # t = 0, bit for bit gram_analytic_disc's, and for one point at zeta = 0
    # under any gain (2 pi / p) int_t^inf c(s) e^{-kappa_l s} ds, with the
    # entries below the enforced vanishing order (here 1, the jet order) 0
    whole = np.diag(gram_analytic_disc(6, scale=1.0).entries).real
    assert np.array_equal(analytic_reduction(UNIT_DISC, two_point_pair(), CONST, 0.0, 6), whole)
    diag = analytic_reduction(UNIT_DISC, single_point_pair(k=1, p=2.0), CONST, 1.5, 6)
    ref = np.diag(gram_analytic_disc(6, radius=math.exp(-1.5 / 4)).entries).real
    assert diag[0] == 0
    np.testing.assert_allclose(diag[1:], ref[1:], rtol=1e-15)
    assert analytic_reduction(UNIT_DISC, two_point_pair(), CONST, 1.0, 6) is None
    assert analytic_reduction(UNIT_DISC, two_point_pair(), GainFunction.exponential(0.5),
                              0.0, 6) is None
    # a Moebius image is judged in disc coordinates: the point at 0 sits at
    # zeta = 0, so every level is a centered disc
    dom = DomainSpec.moebius(2.0, 0.0, 0.0, 1.0)
    w = WeightPair.standard((MarkedPoint(0.0, jet_order=0),))
    assert np.array_equal(analytic_reduction(dom, w, CONST, 0.0, 6), whole)
    diag = analytic_reduction(dom, w, CONST, 1.5, 6)
    ref = gram_analytic_disc(6, radius=math.exp(-1.5 / 2)).entries
    np.testing.assert_allclose(diag, np.diag(ref).real, rtol=1e-15)
    off = WeightPair.standard((MarkedPoint(0.4, jet_order=0),))
    assert analytic_reduction(dom, off, CONST, 1.5, 6) is None
    # c(s) = e^{s/2}: entry [l][l] is 2 pi int_0^inf e^{-(l + 1/2) s} ds
    diag = analytic_reduction(dom, w, GainFunction.exponential(0.5), 0.0, 6)
    np.testing.assert_allclose(diag, 2 * math.pi / (np.arange(7) + 0.5), rtol=1e-15)
    # a leading constant and a constant u scale e^{-phi} by |leading|^-2
    # e^{-2 Re u_0}, and so the diagonal; a scale that overflows or
    # underflows to 0, or a u that is not constant, is left to quadrature
    for dom_, w_, t in ((UNIT_DISC, two_point_pair(), 0.0), (dom, w, 1.5)):
        base = analytic_reduction(dom_, w_, CONST, t, 6)
        for phi, scale in (({"leading": 2.0}, 0.25), ({"u_coeffs": (0.5 + 3j, 0.0)}, math.exp(-1)),
                           ({"leading": 1e-300}, None), ({"u_coeffs": (400.0,)}, None),
                           ({"u_coeffs": (0.0, 0.1)}, None)):
            scaled = WeightPair(marked=w_.marked, psi=w_.psi, phi=replace(w_.phi, **phi))
            diag = analytic_reduction(dom_, scaled, CONST, t, 6)
            if scale is None:
                assert diag is None
            else:
                np.testing.assert_allclose(diag, scale * base, rtol=1e-15)


def test_gram_reduced_first_entry_is_particular_norm():
    w = single_point_pair()
    a_part, Z = constraint_basis(jet_constraints(w, 3))
    (R,) = gram_reduced(UNIT_DISC, w, CONST, [1.0], a_part, Z)
    assert R.size == Z.shape[1] + 1
    # particular solution for f(0)=1 at N=3 is the constant 1
    assert np.allclose(a_part, [1, 0, 0, 0])
    assert R.entries[0, 0].real == pytest.approx(2 * math.pi * math.exp(-1), rel=1e-8)


def test_nonintegrable_divisor_zero_off_marked_point():
    # an extra divisor zero at -0.4, away from the marked point, with no psi
    # mass: e^{-phi} blows up like |z + 0.4|^{-2} there, which no constraint
    # cancels; {psi < -t} is |z| < e^{-t/2}, which holds it for t < 2 log 2.5
    pts = (MarkedPoint(0.0, green_weight=1.0, jet_order=0, jet_coeff=1.0),)
    w = WeightPair(
        marked=pts,
        psi=WeightPair.standard(pts).psi,
        phi=PhiSpec(zeros=((0.0, 1), (-0.4, 1)), leading=1.0, u_coeffs=(0.0,), bump=0.0),
    )
    a_part, Z = constraint_basis(jet_constraints(w, 2))
    with pytest.raises(NonIntegrableWeightError):
        gram_reduced(UNIT_DISC, w, CONST, [0.0], a_part, Z)
    with pytest.raises(NonIntegrableWeightError):
        minimal_integral(UNIT_DISC, w, CONST, 1.0, N=12)
    # a band over the zero diverges too (its value grows with the mesh)
    F = TruncatedForm((1.0,))
    with pytest.raises(NonIntegrableWeightError):
        form_norm_quadrature(UNIT_DISC, w, CONST, F, band=(2.5, 1.0))
    # only a region that reaches the zero is refused: a band outside it is an
    # ordinary integral, and so is the level |z| < e^{-1.5}, where G converges
    val, _ = form_norm_quadrature(UNIT_DISC, w, CONST, F, band=(1.0, 0.2))
    assert val == pytest.approx(5.566554174622158, rel=1e-14)
    res = minimal_integral(UNIT_DISC, w, CONST, 3.0, N=12)
    assert res.diagnostics["gram_path"] == "quadrature"
    fine = minimal_integral(UNIT_DISC, w, CONST, 3.0, N=12,
                            mesh=QuadratureConfig(angular=1024, radial=512, levels=1))
    assert res.value == pytest.approx(fine.value, rel=1e-12)
    assert res.value == pytest.approx(1.955133602854525, rel=1e-12)


def test_norm_of_form_values():
    H = gram_analytic_disc(1)
    assert norm_of_form(TruncatedForm((1.0,)), GramMatrix(entries=H.entries[:1, :1])) == (
        pytest.approx(2 * math.pi)
    )
    assert norm_of_form(TruncatedForm((0.0, 1.0)), H) == pytest.approx(math.pi)
    assert norm_of_form(TruncatedForm((1.0, 1.0)), H) == pytest.approx(3 * math.pi)


def test_norm_of_form_dimension_mismatch():
    with pytest.raises(BadInputError):
        norm_of_form(TruncatedForm((1.0, 2.0, 3.0)), gram_analytic_disc(1))


def test_form_norm_quadrature_full_disc():
    w = single_point_pair()
    val, err = form_norm_quadrature(UNIT_DISC, w, CONST, TruncatedForm((1.0,)))
    assert val == pytest.approx(2 * math.pi, rel=1e-9)
    assert err <= 1e-6


def test_form_norm_quadrature_band():
    # band {-2 <= psi < -1} for a unit point mass is an annulus
    w = single_point_pair()
    val, err = form_norm_quadrature(
        UNIT_DISC, w, CONST, TruncatedForm((1.0,)), band=(2.0, 1.0)
    )
    want = 2 * math.pi * (math.exp(-1) - math.exp(-2))
    assert val == pytest.approx(want, rel=1e-8)


def test_form_norm_quadrature_refuses_an_unresolved_region():
    # the band (300, 250) about a point at 0.3 is the annulus
    # e^{-150} <= |zeta| < e^{-125} in the point's chart, which its patch fan
    # resolves: 2 pi (e^{-250} - e^{-300}).  The band (2100, 2000) lies below
    # the smallest float and holds no node, and a weight e^{-phi} that
    # overflows gives non-finite values: both are refused, with no
    # RuntimeWarning on the way
    marked = (MarkedPoint(0.3, green_weight=1.0, jet_order=0, jet_coeff=1.0),)
    F = TruncatedForm((1.0,))
    val, _err = form_norm_quadrature(UNIT_DISC, WeightPair.standard(marked), CONST, F,
                                     band=(300, 250))
    assert val == pytest.approx(2 * math.pi * (math.exp(-250) - math.exp(-300)), rel=1e-12)
    with pytest.raises(NumericalError, match=r"no quadrature node in the band \(2100, 2000\)"):
        form_norm_quadrature(UNIT_DISC, WeightPair.standard(marked), CONST, F, band=(2100, 2000))
    for phi in ({"u_coeffs": (-800.0,)}, {"leading": 1e-300}):
        w = WeightPair.standard(marked, **phi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="the weight overflows on the region"):
                form_norm_quadrature(UNIT_DISC, w, CONST, F)


def moebius_two_point():
    dom = DomainSpec.moebius(2.0, 0.3, 0.1, 1.2)
    pts = (
        MarkedPoint(complex(dom.forward(0.2)), green_weight=1.0, jet_order=0, jet_coeff=1.0),
        MarkedPoint(complex(dom.forward(-0.3 + 0.1j)), green_weight=1.0, jet_order=0,
                    jet_coeff=0.5),
    )
    return dom, WeightPair.standard(pts)


@pytest.mark.parametrize("case", ["disc", "moebius", "disc-tabulated", "moebius-tabulated"])
def test_band_norm_is_difference_of_sublevel_norms(case):
    # {-1.2 <= psi < -0.4} = {psi < -0.4} minus {psi < -1.2}: the band skips
    # the patches its deep region contains, while each sublevel norm
    # integrates them on their local grids.  A tabulated gain puts kinks in
    # c(-psi) at its knots, two of them inside the band; the band and both
    # sublevel sets cut their rays there
    geometry, _, gain = case.partition("-")
    if geometry == "disc":
        p = two_point_problem(0.3)
        dom, w = p.domain, p.weights
    else:
        dom, w = moebius_two_point()
    g = GainFunction.exponential(0.5)
    if gain == "tabulated":
        g = GainFunction.tabulated([0.0, 0.5, 1.0, 2.0, 4.0],
                                   np.exp([0.0, 0.45, 0.5, 1.3, 1.5]))
    F = minimal_integral(dom, w, g, 0.4, N=12).extremal
    band, _ = form_norm_quadrature(dom, w, g, F, band=(1.2, 0.4))
    outer, _ = form_norm_quadrature(dom, w, g, F, t=0.4)
    inner, _ = form_norm_quadrature(dom, w, g, F, t=1.2)
    assert band > 0
    assert band == pytest.approx(outer - inner, rel=1e-10)


def test_truncated_form_validation():
    with pytest.raises(BadInputError):
        TruncatedForm(())
    with pytest.raises(BadInputError):
        TruncatedForm((1.0, math.inf))
    F = TruncatedForm((1.0, 2.0, 0.0))
    assert F.degree == 2


def test_gram_matrix_requires_square():
    with pytest.raises(BadInputError):
        GramMatrix(entries=np.zeros((2, 3)))
