"""Concavity scans of G(h^{-1}(r)), the linearity/equality criterion with its
per-point witnesses, the closed-form extremal candidate, and quadrature checks
of the mass and orthogonality identities behind the concavity proof."""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BadInputError, NumericalError
from .forms import TruncatedForm
from .gain import GainFunction, eval_h, invert_h
from .geometry import blaschke_deriv, blaschke_factor
from .problems import Problem
from .quadrature import PatchSpec, QuadratureConfig, assembled_integral
from .series import (
    blaschke_deriv_taylor,
    blaschke_taylor,
    moebius_taylor,
    pcompose,
    pexp,
    pmul,
    ppow,
)
from .solver import extension_bound, minimal_integral, minimal_integrals
from .weights import WeightKernel, disc_chart


@dataclass(frozen=True)
class ConcavityReport:
    """Samples of G(h^{-1}(r)) with second differences and a line fit.

    A concavity violation counts only when ``max_violation`` exceeds
    ``violation_threshold``: ten times the quadrature error, or the problem's
    tolerance relative to the largest G value, whichever is larger.
    """

    r_grid: tuple[float, ...]
    t_grid: tuple[float, ...]
    g_values: tuple[float, ...]
    second_differences: tuple[float, ...]
    max_violation: float
    violation_threshold: float
    is_linear: bool
    slope: float
    intercept: float
    residual: float
    max_quad_error: float


@dataclass(frozen=True)
class CriterionReport:
    """The four linearity statements with per-point ratio witnesses.

    ``witnesses`` are the constants c_j from the jet data against the
    candidate denominator; ``witnesses_alt`` the reciprocal normalization
    through dg/f.  Both must give the same constancy verdict.
    """

    psi_pure: bool
    harmonic_structure: bool
    characters_trivial: bool
    ratios_constant: bool
    witnesses: tuple[complex, ...]
    witnesses_alt: tuple[complex, ...]
    spread: float
    spread_alt: float
    c0: complex
    notes: tuple[str, ...]

    @property
    def flags(self) -> tuple[bool, bool, bool, bool]:
        return (
            self.psi_pure,
            self.harmonic_structure,
            self.characters_trivial,
            self.ratios_constant,
        )

    @property
    def all_hold(self) -> bool:
        return all(self.flags)


@dataclass(frozen=True)
class SuitaReport:
    """Minimal integral against the optimal-jets upper bound at t = 0."""

    bound: float
    c_omega_f: float
    gap: float
    equality: bool
    criterion: CriterionReport
    quad_error: float
    equality_tolerance: float


@dataclass(frozen=True)
class CandidateReport:
    """Closed-form extremal candidate, truncated, with a tail estimate."""

    form: TruncatedForm
    tail_estimate: float
    optimal: bool
    c0: complex


@dataclass(frozen=True)
class StrictnessReport:
    """Bound-minus-minimum gaps for a family of point configurations."""

    point_counts: tuple[int, ...]
    gaps: tuple[float, ...]
    min_gap: float
    separated: bool


def scan_G(problem: Problem) -> ConcavityReport:
    """Sample G on a uniform r-grid in (0, h(0)) and test concavity/linearity.

    All G values come from one minimal_integrals call, so the quadrature
    builds one region per mesh level for the whole t grid, with the patch
    radii set by the deepest level.  Second differences of a concave
    function are <= 0; positive values beyond the quadrature tolerance
    indicate a bug, not new mathematics.  psi has a pole at every marked
    point, so a deep level can hold no quadrature node; the quadrature
    driver refuses it (NumericalError).
    """
    n = problem.numerics.r_count
    g = problem.gain
    h0 = eval_h(g, 0.0)
    r_grid = [h0 * (i + 1) / (n + 1) for i in range(n)]
    t_grid = [invert_h(g, r) for r in r_grid]
    results = minimal_integrals(
        problem.domain,
        problem.weights,
        g,
        t_grid,
        N=problem.numerics.N,
        mesh=problem.numerics.mesh,
    )
    vals = np.array([res.value for res in results])
    max_err = max(res.diagnostics["quadrature_error"] for res in results)
    d2 = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    A = np.stack([np.asarray(r_grid), np.ones(n)], axis=1)
    coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
    fit = A @ coef
    scale = float(np.max(np.abs(vals)))
    residual = float(np.max(np.abs(vals - fit)) / scale) if scale > 0 else 0.0
    lin_tol = max(1e-6, 10.0 * max_err / scale) if scale > 0 else 1e-6
    return ConcavityReport(
        r_grid=tuple(r_grid),
        t_grid=tuple(t_grid),
        g_values=tuple(float(v) for v in vals),
        second_differences=tuple(float(v) for v in d2),
        max_violation=float(max(0.0, np.max(d2))) if d2.size else 0.0,
        violation_threshold=max(10.0 * max_err, problem.numerics.tolerance * scale),
        is_linear=residual <= lin_tol,
        slope=float(coef[0]),
        intercept=float(coef[1]),
        residual=residual,
        max_quad_error=max_err,
    )


def _holo_u_at(problem: Problem, z: complex) -> complex:
    """q(z) with u = Re q, evaluated in the domain coordinate."""
    return sum(c * z ** k for k, c in enumerate(problem.weights.phi.u_coeffs))


def criterion_check(problem: Problem) -> CriterionReport:
    """Evaluate the four linearity statements for the structural weight class.

    (1) and (2) are structural; (3) is trivial on simply connected domains;
    (4) compares the per-point ratios of the jet data against the candidate
    denominator, computed exactly from series data at the points.
    """
    w = problem.weights
    dom = problem.domain
    tol = problem.numerics.tolerance
    notes = []

    psi_pure = not w.psi.extra_terms
    if not psi_pure:
        notes.append("psi carries Green mass beyond the marked points")

    # divisor order k_j + 1 at each marked point and no zero anywhere else
    orders = [m for _loc, _p, m in w.points]
    orders_match = orders == ([pt.jet_order + 1 for pt in w.marked]
                              + [0] * (len(orders) - len(w.marked)))
    harmonic_structure = w.phi.bump == 0.0 and orders_match
    if w.phi.bump != 0.0:
        notes.append("phi + psi has a strictly subharmonic bump term")
    if not orders_match:
        notes.append("divisor does not realize order k_j + 1 at the marked points")

    characters_trivial = True
    notes.append("characters trivially satisfied (simply connected)")

    zetas = [complex(dom.inverse(pt.location)) for pt in w.marked]
    witnesses = []
    witnesses_alt = []
    degraded = False
    for j, pt in enumerate(w.marked):
        zj = zetas[j]
        kj = pt.jet_order
        a_tilde = pt.jet_coeff * (pt.coord_scale * dom.derivative(zj)) ** (kj + 1)
        q = _holo_u_at(problem, pt.location) + cmath.log(w.phi.leading)
        denom = pt.green_weight * cmath.exp(q)
        denom *= complex(blaschke_deriv(zj, zj)) ** (kj + 1)
        for l, other in enumerate(w.marked):
            if l != j:
                denom *= complex(blaschke_factor(zetas[l], zj)) ** (other.jet_order + 1)
        cj = a_tilde / denom
        witnesses.append(cj)
        if cj == 0:
            degraded = True
            witnesses_alt.append(complex(math.inf))
        else:
            witnesses_alt.append(1.0 / cj)
    c0 = complex(np.mean(witnesses))
    if c0 == 0 or degraded:
        spread = math.inf
        ratios_constant = False
        notes.append("a candidate ratio vanishes; no common nonzero constant")
    else:
        spread = float(max(abs(cj - c0) for cj in witnesses) / abs(c0))
        ratios_constant = spread <= tol
    if degraded:
        spread_alt = math.inf
        alt_verdict = False
    else:
        m_alt = complex(np.mean(witnesses_alt))
        if m_alt == 0:
            spread_alt = math.inf
            alt_verdict = False
        else:
            spread_alt = float(max(abs(v - m_alt) for v in witnesses_alt) / abs(m_alt))
            alt_verdict = spread_alt <= tol
    if alt_verdict != ratios_constant:
        notes.append(
            f"ratio normalizations disagree (spread {spread:.3g} vs {spread_alt:.3g})"
        )
    return CriterionReport(
        psi_pure=psi_pure,
        harmonic_structure=harmonic_structure,
        characters_trivial=characters_trivial,
        ratios_constant=ratios_constant,
        witnesses=tuple(witnesses),
        witnesses_alt=tuple(witnesses_alt),
        spread=spread,
        spread_alt=spread_alt,
        c0=c0,
        notes=tuple(notes),
    )


def extremal_candidate(problem: Problem, N: int | None = None) -> CandidateReport:
    """Closed-form candidate c0 g f_u (prod b_j^{k_j+1}) sum p_j b_j'/b_j.

    Expanded as a Taylor series in the disc coordinate to degree N.  When the
    criterion fails the candidate is still produced, flagged non-optimal.
    """
    N = problem.numerics.N if N is None else int(N)
    L = N + 1  # series length convention: degree N means N + 1 coefficients
    crit = criterion_check(problem)
    if not np.isfinite(crit.c0.real) or crit.c0 == 0:
        raise BadInputError("candidate constant undefined: all ratio witnesses vanish")
    w = problem.weights
    dom = problem.domain
    zetas = [complex(dom.inverse(pt.location)) for pt in w.marked]
    orders = [pt.jet_order + 1 for pt in w.marked]
    b_series = [blaschke_taylor(z, 0.0, L) for z in zetas]
    bp_series = [blaschke_deriv_taylor(z, 0.0, L) for z in zetas]
    # sum of p_j b_j' b_j^{m_j - 1} prod_{l != j} b_l^{m_l}: no series division
    total = np.zeros(L, dtype=complex)
    for j, pt in enumerate(w.marked):
        term = pt.green_weight * bp_series[j]
        term = pmul(term, ppow(b_series[j], orders[j] - 1, L), L)
        for l in range(len(zetas)):
            if l != j:
                term = pmul(term, ppow(b_series[l], orders[l], L), L)
        total += term
    a, b, c, d = dom.map_coeffs
    T_series = moebius_taylor(b, a, d, c, L)
    # exp of the holomorphic completion of u, composed with the domain map
    E = pexp(pcompose(w.phi.u_coeffs, T_series, L), L)
    coeffs = crit.c0 * w.phi.leading * pmul(E, total, L)
    rho = max((abs(z) for z in zetas), default=0.0)
    if rho == 0.0 and any(u != 0 for u in w.phi.u_coeffs[1:]):
        rho = 0.5
    tail = 0.0
    if rho > 0:
        lead = 0.0
        for n in range(max(0, N - 2), N + 1):
            if abs(coeffs[n]) > 0:
                lead = max(lead, abs(coeffs[n]) / rho ** n)
        tail = 2 * math.pi * lead ** 2 * rho ** (2 * N + 2) / ((N + 2) * (1 - rho * rho))
    return CandidateReport(
        form=TruncatedForm(coeffs=tuple(coeffs)),
        tail_estimate=tail,
        optimal=crit.all_hold,
        c0=crit.c0,
    )


def suita_compare(problem: Problem) -> SuitaReport:
    """Minimal integral at t = 0 against the weighted-jets upper bound."""
    res = minimal_integral(
        problem.domain,
        problem.weights,
        problem.gain,
        0.0,
        N=problem.numerics.N,
        mesh=problem.numerics.mesh,
    )
    bound = extension_bound(problem.weights, problem.gain, 0.0, problem.domain)
    gap = bound - res.value
    qerr = res.diagnostics["quadrature_error"]
    eq_tol = max(1e-8 * bound, 10.0 * qerr)
    return SuitaReport(
        bound=bound,
        c_omega_f=res.value,
        gap=gap,
        equality=abs(gap) <= eq_tol,
        criterion=criterion_check(problem),
        quad_error=qerr,
        equality_tolerance=eq_tol,
    )


def lemma_integrals(kernel: WeightKernel, beta_max: int, mesh: QuadratureConfig | None = None):
    """(mass of dd^c e^psi, squared norm of d e^psi, pairings of d e^psi with
    conj(zeta)^d for d = 0, ..., beta_max), from one region and one integrand
    pass per node chunk.  The mass and the norm do not depend on the disc
    chart, so the kernel is rebuilt in weights.disc_chart, where a lone point
    sits at zeta = 0; zeta is that chart's coordinate.

    psi is ``kernel.psi``; the density e^psi |sum p_j b_j'/b_j|^2, with the
    Green terms merged per center, is continuous when every center's p_j > 2.
    The identities have exact targets, so no half-resolution mesh is built.
    """
    kernel = WeightKernel(disc_chart(kernel.dom, kernel.w), kernel.w)
    # divisor zeros off psi's centers carry p = 0; the density has no phi
    centers = [(zeta, p) for zeta, p, _m in kernel.points if p > 0]
    for _, p in centers:
        if p <= 2.0:
            raise BadInputError(
                f"the mass/orthogonality identities need every p > 2, got {p}"
            )

    def integrand(z):
        psi = kernel.psi(z)
        s = sum(p * blaschke_deriv(loc, z) / blaschke_factor(loc, z) for loc, p in centers)
        e_psi = 2.0 * np.exp(psi)
        rows = [e_psi * np.abs(s) ** 2, 2.0 * np.exp(2.0 * psi) * np.abs(s) ** 2]
        rows += [e_psi * s * np.conj(z) ** d for d in range(beta_max + 1)]
        return np.array(rows)

    patches = [PatchSpec(center=zeta, order=0, exponent=2 * p - 2) for zeta, p in centers]
    one_level = replace(mesh or QuadratureConfig(), levels=1)
    val, _err = assembled_integral(kernel.psi, integrand, patches, one_level)
    return float(val[0, 0].real), float(val[0, 1].real), tuple(val[0, 2:])


def verify_mass(kernel: WeightKernel, mesh: QuadratureConfig | None = None,
                integrals=None) -> float:
    """Total mass of dd^c e^psi over the disc; equals 2 pi sum p_j exactly.
    ``integrals`` from lemma_integrals lets several checks share a region."""
    return (integrals or lemma_integrals(kernel, -1, mesh))[0]


def verify_orthogonality(
    kernel: WeightKernel, beta_degree: int, mesh: QuadratureConfig | None = None, integrals=None
) -> float:
    """|integral of d e^psi wedge conj(beta)| over the disc, relative to the
    product of norms; the identity says the integral vanishes exactly.
    ``integrals`` from lemma_integrals up to a degree >= beta_degree lets
    several checks share a region."""
    if beta_degree < 0:
        raise BadInputError("beta degree must be >= 0")
    _mass, nsq, pairings = integrals or lemma_integrals(kernel, beta_degree, mesh)
    if beta_degree >= len(pairings):
        raise BadInputError(
            f"the shared integrals reach beta degree {len(pairings) - 1}, not {beta_degree}"
        )
    beta_norm = math.sqrt(2 * math.pi / (beta_degree + 1))
    scale = math.sqrt(max(nsq, 0.0)) * beta_norm
    if scale == 0:
        raise NumericalError("degenerate scale in orthogonality check")
    return float(abs(pairings[beta_degree]) / scale)


def linear_restriction_identity(
    problem: Problem, t1: float, t2: float, a_fn: GainFunction
) -> tuple[float, float]:
    """Both sides of the band restriction identity for the extremal at t1.

    LHS: weighted norm of the extremal over {-t1 <= psi < -t2} with density
    a(-psi).  RHS: G(t1)/h(t1) times the integral of a(t) e^{-t} over
    (t2, t1).  They agree exactly in the linear case; the caller pairs this
    with a linearity scan.
    """
    from .forms import form_norm_quadrature

    if t1 < t2 or t2 < 0:
        raise BadInputError("bands need t1 >= t2 >= 0")
    if t1 == t2:
        return 0.0, 0.0
    res = minimal_integral(
        problem.domain,
        problem.weights,
        problem.gain,
        t1,
        N=problem.numerics.N,
        mesh=problem.numerics.mesh,
    )
    lhs, _err = form_norm_quadrature(
        problem.domain,
        problem.weights,
        a_fn,
        res.extremal,
        band=(t1, t2),
        # the error estimate is not used, so the half-resolution mesh is not built
        mesh=replace(problem.numerics.mesh, levels=1),
    )
    rhs = res.value / eval_h(problem.gain, t1) * (eval_h(a_fn, t2) - eval_h(a_fn, t1))
    return float(lhs), float(rhs)


def strictness_experiment(point_count: int, family=None) -> StrictnessReport:
    """Suita gaps for m-point configurations, m = 1..point_count.

    The default family puts equally spaced unit-mass points on the circle of
    radius 1/2 with equal data; its ratio witnesses cannot align for m >= 2,
    so the gaps must stay positive.
    """
    from .problems import ring_problem

    if point_count < 1:
        raise BadInputError("need at least one point count")
    family = family or ring_problem
    ms = []
    gaps = []
    for m in range(1, point_count + 1):
        rep = suita_compare(family(m))
        ms.append(m)
        gaps.append(float(rep.gap))
    multi = [gap for m, gap in zip(ms, gaps) if m >= 2]
    min_gap = min(multi) if multi else 0.0
    return StrictnessReport(
        point_counts=tuple(ms),
        gaps=tuple(gaps),
        min_gap=min_gap,
        separated=bool(multi) and min_gap > 1e-6,
    )
