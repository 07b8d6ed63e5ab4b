"""Minimal weighted L2 integrals of jet-constrained truncated forms.

The minimum of a* H a over {C a = b} is computed by the null-space method:
a = a_part + Z y with Z orthonormal in the null space of C, reducing to an
unconstrained quadratic in y.  For singular weights the reduced Gram comes
straight from quadrature on the substituted basis (see forms.gram_reduced),
so no divergent monomial entry is ever formed.  Where the weight and the
level admit a closed-form Gram (forms.analytic_reduction: the whole disc at
t = 0 under a constant gain, and one point at every t under any gain), its
diagonal is reduced through the same basis, so one solve serves both Gram
paths; the input alone picks the path, and ``diagnostics["gram_path"]``
reports it.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import BadInputError, NumericalError
from .forms import (
    GramMatrix,
    JetConstraintSystem,
    TruncatedForm,
    analytic_reduction,
    constraint_basis,
    gram_reduced,
    jet_constraints,
)
from .gain import GainFunction, eval_h
from .geometry import UNIT_DISC, DomainSpec, check_marked_points, log_capacity
from .mesh import QuadratureConfig
from .weights import WeightPair, alpha_j, disc_chart, lelong_psi


@dataclass(frozen=True)
class MinimalIntegralResult:
    """Minimal value, attaining form, solver diagnostics.

    ``extremal`` is read in the disc chart the solve ran in: that of the
    domain, or for a one-point weight the chart that puts the point at
    zeta = 0 (weights.disc_chart).
    """

    value: float
    extremal: TruncatedForm
    diagnostics: dict = field(default_factory=dict)


def _solve_reduced(h00, gvec, M):
    """Minimize h00 + 2 Re(y* g) + y* M y, M Hermitian; returns (value, y, diagnostics).

    One eigendecomposition of M gives the conditioning diagnostics and the
    minimum-norm stationary point; on a positive semidefinite M the
    eigenvalues below roundoff are dropped.
    """
    r = gvec.size
    diag = {}
    if r == 0:
        diag["reduced_min_eig"] = math.inf
        diag["gram_condition"] = 1.0
        diag["unique"] = True
        return float(h00), np.zeros(0, dtype=complex), diag
    eigs, V = np.linalg.eigh(M)
    diag["reduced_min_eig"] = float(eigs[0])
    diag["gram_condition"] = float(eigs[-1] / eigs[0]) if eigs[0] > 0 else math.inf
    diag["unique"] = bool(eigs[0] > 1e-13 * max(eigs[-1], 1.0))
    keep = np.abs(eigs) > np.finfo(float).eps * r * max(abs(eigs[0]), abs(eigs[-1]))
    y = -(V[:, keep] @ ((V[:, keep].conj().T @ gvec) / eigs[keep]))
    value = float(h00 + 2.0 * np.real(np.vdot(y, gvec)) + np.real(np.vdot(y, M @ y)))
    return max(value, 0.0), y, diag


def _reduce(H: GramMatrix, a_part: np.ndarray, Z: np.ndarray) -> GramMatrix:
    """Gram on [particular | null columns] from a full-basis Gram."""
    B = np.column_stack([a_part, Z])
    return GramMatrix(entries=B.conj().T @ H.entries @ B, quad_error=H.quad_error)


def kkt_minimize(H: GramMatrix, C: JetConstraintSystem) -> MinimalIntegralResult:
    """Constrained minimum of the full-basis quadratic form a* H a on Ca = b."""
    if C.n_coeffs != H.size:
        raise BadInputError(
            f"Gram is {H.size}x{H.size} but constraints expect {C.n_coeffs} coefficients"
        )
    a_part, Z = constraint_basis(C)
    return kkt_minimize_reduced(_reduce(H, a_part, Z), a_part, Z, C)


def kkt_minimize_reduced(
    R: GramMatrix, a_part: np.ndarray, Z: np.ndarray, C: JetConstraintSystem
) -> MinimalIntegralResult:
    """Minimum from a reduced Gram on the basis [particular | null columns].

    (a_part, Z) come from constraint_basis(C); a non-finite Gram entry, or
    no entry above the smallest normal float where the family is not {0}, is
    a NumericalError, and the attaining coefficients are checked against C.
    """
    if R.size != Z.shape[1] + 1:
        raise BadInputError("reduced Gram size does not match the null basis")
    E = R.entries
    if not np.all(np.isfinite(E)):
        raise NumericalError("reduced Gram has non-finite entries")
    if (np.any(a_part) or Z.size) and not np.max(np.abs(E)) >= np.finfo(float).tiny:
        raise NumericalError("reduced Gram has no normal entry: the weight e^-phi "
                             "or the level {psi < -t} is too small")
    value, y, diag = _solve_reduced(float(np.real(E[0, 0])), E[1:, 0], E[1:, 1:])
    a = a_part + (Z @ y if y.size else 0.0)
    resid = float(np.linalg.norm(C.matrix @ a - C.rhs))
    if resid > 1e-10 * (1 + float(np.linalg.norm(C.rhs))):
        raise NumericalError(f"constraint residual {resid:g} out of tolerance")
    diag["constraint_residual"] = resid
    diag["quadrature_error"] = R.quad_error
    return MinimalIntegralResult(
        value=value, extremal=TruncatedForm(coeffs=tuple(a)), diagnostics=diag
    )


def minimal_integrals(
    dom: DomainSpec,
    w: WeightPair,
    g: GainFunction,
    ts: Sequence[float],
    N: int = 64,
    mesh: QuadratureConfig | None = None,
) -> list[MinimalIntegralResult]:
    """G(t) for every t in ``ts``: minimal weighted L2 integrals over forms
    matching the jet data.

    The input picks the Gram path per t: the closed form wherever
    analytic_reduction gives one, quadrature elsewhere (``diagnostics
    ["gram_path"]`` says which).  The constraint basis does not depend on t,
    so all quadrature Grams come from one region per mesh level; each t gets
    its own reduced solve and constraint-residual check.  G does not depend
    on the disc chart, so the solve runs in weights.disc_chart(dom, w), where
    a lone point sits at zeta = 0 and analytic_reduction gives its Gram at
    every t, however deep the level.  The extremals are read in that chart.
    """
    ts = [float(t) for t in ts]
    if not all(t >= 0 for t in ts):
        raise BadInputError("sublevel parameter t must be >= 0")
    check_marked_points(dom, w.marked)
    dom = disc_chart(dom, w)
    C = jet_constraints(w, N, dom)
    a_part, Z = constraint_basis(C)
    diagonals = [analytic_reduction(dom, w, g, t, N) for t in ts]
    quad_ts = [t for t, diag in zip(ts, diagonals) if diag is None]
    quad_grams = iter(gram_reduced(dom, w, g, quad_ts, [a_part, *Z.T], mesh=mesh)
                      if quad_ts else ())
    results = []
    for t, diag in zip(ts, diagonals):
        if diag is not None:
            R = _reduce(GramMatrix(np.diag(diag)), a_part, Z)
            path = "analytic"
        else:
            R = next(quad_grams)
            path = "quadrature"
        try:
            res = kkt_minimize_reduced(R, a_part, Z, C)
        except NumericalError as exc:
            raise NumericalError(f"solver failed at t = {t:.6g}: {exc}") from exc
        res.diagnostics["gram_path"] = path
        results.append(res)
    return results


def minimal_integral(
    dom: DomainSpec,
    w: WeightPair,
    g: GainFunction,
    t: float,
    N: int = 64,
    mesh: QuadratureConfig | None = None,
) -> MinimalIntegralResult:
    """G(t): minimal_integrals at the single sublevel parameter t."""
    return minimal_integrals(dom, w, g, [t], N=N, mesh=mesh)[0]


def extension_bound(
    w: WeightPair,
    g: GainFunction,
    t: float,
    dom: DomainSpec = UNIT_DISC,
) -> float:
    """Optimal-jets upper bound h(t) sum 2 pi |a_j|^2 e^{-alpha_j} / (p_j cap^{2(k_j+1)}).

    Requires every alpha_j finite (divisor order k_j + 1 at each marked
    point); raises BadInputError otherwise.
    """
    if not (t >= 0):
        raise BadInputError("sublevel parameter t must be >= 0")
    h = eval_h(g, t)
    total = 0.0
    for j, pt in enumerate(w.marked):
        alpha = alpha_j(w, j, dom)
        cap = log_capacity(dom, pt)
        p = lelong_psi(w, j)
        total += (
            2.0 * math.pi * abs(pt.jet_coeff) ** 2 * math.exp(-alpha)
            / (p * cap ** (2 * (pt.jet_order + 1)))
        )
    return h * total
