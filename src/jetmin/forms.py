"""Truncated (1,0)-forms, weighted Gram matrices, jet constraint systems.

Forms are F = (sum_l a_l zeta^l) d zeta in disc coordinates; inner products
are int |F|^2 e^{-phi} c(-psi) over {psi < -t}.  Gram entries use the
conjugate-linear-first convention H[l][m] = <zeta^l d zeta, zeta^m d zeta>,
matching numpy.vdot.  Weighted Grams on the raw monomial basis can diverge
at divisor zeros; the reduced path substitutes the jet-constraint null-space
parametrization first and integrates only functions with the enforced
vanishing; a center where that does not suffice is refused only when the
region reaches it (quadrature._panel_nodes).  A closed-form Gram
(analytic_reduction) serves t = 0 on any Moebius image when the weight's
point table has 2p = 2m at every point under a constant gain, and every t of
one point at zeta = 0 under any gain, where the integrand is radial; a
divisor leading constant and a constant u only scale it.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import BadInputError, NumericalError
from .gain import GainFunction, _tail_integral
from .geometry import UNIT_DISC, DomainSpec, check_marked_points
from .quadrature import PatchSpec, QuadratureConfig, assembled_gram
from .series import moebius_taylor, pderiv, pmul
from .weights import _LOC_TOL, WeightKernel, WeightPair, disc_chart


@dataclass(frozen=True)
class TruncatedForm:
    """F = (sum coeffs[l] zeta^l) d zeta; coeffs in increasing degree."""

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        c = tuple(complex(x) for x in self.coeffs)
        if not c:
            raise BadInputError("a truncated form needs at least one coefficient")
        if not all(math.isfinite(x.real) and math.isfinite(x.imag) for x in c):
            raise BadInputError("form coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian weighted Gram with its quadrature error estimate."""

    entries: np.ndarray
    quad_error: float = 0.0

    def __post_init__(self) -> None:
        H = np.asarray(self.entries, dtype=complex)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise BadInputError("Gram entries must form a square matrix")
        H = 0.5 * (H + H.conj().T)
        object.__setattr__(self, "entries", H)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class JetConstraintSystem:
    """Rows: order-nu local Taylor coefficient functionals; labels (j, nu)."""

    matrix: np.ndarray
    rhs: np.ndarray
    labels: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        A = np.asarray(self.matrix, dtype=complex)
        b = np.asarray(self.rhs, dtype=complex)
        if A.ndim != 2 or b.shape != (A.shape[0],) or len(self.labels) != A.shape[0]:
            raise BadInputError("constraint system shapes disagree")
        s = np.linalg.svd(A, compute_uv=False)
        if A.shape[0] and (s.size < A.shape[0] or s[-1] <= 1e-10 * max(s[0], 1.0)):
            raise BadInputError("constraint rows are rank deficient (coincident points?)")
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "rhs", b)

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_coeffs(self) -> int:
        return self.matrix.shape[1]


def jet_constraints(
    w: WeightPair, N: int, dom: DomainSpec = UNIT_DISC
) -> JetConstraintSystem:
    """Linear functionals picking local jet coefficients of truncated forms.

    For each marked point the order-nu coefficient of F/dw_j in the local
    coordinate w_j = s_j (z - z_j) must be 0 for nu < k_j and a_j at nu = k_j.
    Rows are normalized to the plain x = z - z_j expansion of F/dz, so the
    right-hand side at top order is a_j s_j^{k_j+1}.
    """
    if N < 0:
        raise BadInputError("truncation degree must be >= 0")
    check_marked_points(dom, w.marked)
    total = sum(pt.jet_order + 1 for pt in w.marked)
    if N + 1 < total:
        raise BadInputError(
            f"need N+1 >= {total} coefficients for {total} jet conditions, got N = {N}"
        )
    a, b, c, d = dom.map_coeffs
    rows, rhs, labels = [], [], []
    for j, pt in enumerate(w.marked):
        k = pt.jet_order
        zj = complex(pt.location)
        # series in x = z - z_j of zeta(z_j + x) = T^{-1}(z_j + x) and its x-derivative
        zeta_series = moebius_taylor(d * zj - b, d, a - c * zj, -c, k + 2)
        dzeta = pderiv(zeta_series)
        if dzeta.size < k + 1:
            dzeta = np.concatenate([dzeta, np.zeros(k + 1 - dzeta.size, complex)])
        M = np.zeros((k + 1, N + 1), dtype=complex)
        cur = dzeta[: k + 1].copy()  # zeta^l * dzeta/dz, truncated to order k
        for l in range(N + 1):
            M[:, l] = cur[: k + 1]
            cur = pmul(cur, zeta_series, k + 1)
        target = pt.jet_coeff * pt.coord_scale ** (k + 1)
        for nu in range(k + 1):
            rows.append(M[nu])
            rhs.append(target if nu == k else 0.0)
            labels.append((j, nu))
    return JetConstraintSystem(
        matrix=np.array(rows), rhs=np.array(rhs, dtype=complex), labels=tuple(labels)
    )


def gram_analytic_disc(N: int, *, radius: float = 1.0, scale: float = 1.0) -> GramMatrix:
    """Closed-form Gram for the trivial weight on a centered disc region.

    Monomial forms are orthogonal there: entry [l][l] is
    scale * 2 pi radius^{2l+2} / (l+1).
    """
    if N < 0:
        raise BadInputError("truncation degree must be >= 0")
    if not (0 < radius <= 1):
        raise BadInputError(f"radius must lie in (0, 1], got {radius}")
    if not (scale > 0):
        raise BadInputError(f"weight scale must be > 0, got {scale}")
    l = np.arange(N + 1)
    diag = scale * 2 * math.pi * radius ** (2 * l + 2) / (l + 1)
    return GramMatrix(entries=np.diag(diag.astype(complex)))


def analytic_reduction(
    dom: DomainSpec, w: WeightPair, g: GainFunction, t: float, N: int
) -> np.ndarray | None:
    """The closed-form Gram diagonal for degrees 0..N, or None.

    Forms and the Gram live in disc coordinates, so the domain may be any
    Moebius image.  Both cases need no bump and no u beyond a constant u_0;
    the divisor's leading constant and u_0 only scale e^{-phi}, by
    |leading|^{-2} e^{-2 Re u_0}, and so scale the diagonal below:

    - t = 0, a constant gain v and 2p = 2m at every point of the weight's
      table: e^{-phi} is 1 in zeta, the region is the whole disc and entry
      [l][l] is 2 pi v / (l + 1).
    - one point, at zeta = 0, under any gain and any p, m: the integrand is
      radial, e^{-phi} = |zeta|^{2p - 2m}, and with s = -2p log|zeta| entry
      [l][l] is (2 pi / p) int_t^inf c(s) e^{-kappa_l s} ds, kappa_l =
      (l + 1 + p - m) / p (gain._tail_integral).  In that chart the jet rows
      are lower triangular, so every admissible form has a_l = 0 for l < nu,
      the enforced vanishing order (k, or k + 1 for a jet value 0): those
      entries are never used and are set to 0.

    None where kappa_nu is at most the gain's tail slope (an entry diverges),
    an entry is not finite or the scale underflows to 0: quadrature then
    decides.
    """
    phi = w.phi
    if phi.bump != 0 or any(x != 0 for x in phi.u_coeffs[1:]):
        return None
    l = np.arange(N + 1)
    if t == 0 and g.kind == "constant" and all(
            abs(2 * p - 2 * m) <= 1e-12 for _loc, p, m in w.points):
        diag = g.value * 2 * math.pi / (l + 1)
    elif len(w.points) != 1 or abs(dom.inverse(w.points[0][0])) > _LOC_TOL:
        return None
    else:
        _loc, p, m = w.points[0]
        nu = w.marked[0].jet_order + (w.marked[0].jet_coeff == 0)
        kappa = (l[nu:] + 1 + p - m) / p
        if np.any(kappa[:1] <= g._table.slope):
            return None
        try:
            diag = np.r_[np.zeros(nu), 2 * math.pi / p * _tail_integral(g, kappa, t)]
        except NumericalError:
            return None
    u0 = phi.u_coeffs[0].real if phi.u_coeffs else 0.0
    with np.errstate(over="ignore"):
        scale = np.exp(-2.0 * (math.log(abs(phi.leading)) + u0))
        diag = diag * scale
    return diag if scale > 0 and np.all(np.isfinite(diag)) else None


def _patch_specs(kernel: WeightKernel, g: GainFunction) -> list[PatchSpec]:
    """Singular-center descriptors with local integrand exponents.

    sigma = 2 nu + 2 p (1 - delta) - 2 m at each center, where nu is the
    enforced vanishing order of the constrained family, p the psi mass, m
    the divisor order and delta the slope of log c beyond the gain's last
    knot, so that c(-psi) ~ |x|^(-2 p delta) at a pole: the integrand is
    |x|^sigma times a function smooth in |x|, which the pole panel of the
    patch fan integrates exactly.  A patch fan whose region reaches its
    center refuses sigma <= -2 (quadrature._panel_nodes).
    """
    delta = g._table.slope
    return [PatchSpec(center=zeta_c, order=nu, exponent=2 * nu + 2 * p * (1 - delta) - 2 * m)
            for zeta_c, p, m, nu in kernel.singular_centers()]


def constraint_basis(C: JetConstraintSystem) -> tuple[np.ndarray, np.ndarray]:
    """Min-norm particular solution and orthonormal null-space basis.

    The rows have full rank (JetConstraintSystem rejects the rest), so the
    null space is spanned by the trailing right singular vectors.
    """
    A, b = C.matrix, C.rhs
    a_part = np.linalg.lstsq(A, b, rcond=None)[0]
    resid = np.linalg.norm(A @ a_part - b)
    if resid > 1e-10 * (1 + np.linalg.norm(b)):
        raise BadInputError(f"infeasible jet constraints, residual {resid:g}")
    Z = np.linalg.svd(A, full_matrices=True)[2][C.n_rows:].conj().T
    return a_part, Z


def gram_reduced(
    dom: DomainSpec,
    w: WeightPair,
    g: GainFunction,
    ts: Sequence[float],
    a_part: np.ndarray,
    Z: np.ndarray,
    mesh: QuadratureConfig | None = None,
) -> list[GramMatrix]:
    """Grams on [particular | null-space] after constraint substitution, one
    per t; (a_part, Z) come from constraint_basis.

    This is the regularization that makes singular weights integrable: every
    reduced basis function carries the enforced vanishing at the marked
    points.  The basis does not depend on t, so one region per mesh level
    serves every sublevel set {psi < -t}, t in ``ts``.
    """
    mesh = mesh or QuadratureConfig()
    kernel = WeightKernel(dom, w)
    specs = _patch_specs(kernel, g)
    basis = [a_part] + [Z[:, i] for i in range(Z.shape[1])]
    H, err = assembled_gram(kernel, g, basis, specs, mesh, ts=ts)
    return [GramMatrix(entries=h, quad_error=float(e)) for h, e in zip(H, err)]


def form_norm_quadrature(
    dom: DomainSpec,
    w: WeightPair,
    g: GainFunction,
    F: TruncatedForm,
    *,
    t: float = 0.0,
    band: tuple[float, float] | None = None,
    mesh: QuadratureConfig | None = None,
) -> tuple[float, float]:
    """Weighted norm of one constrained form over a sublevel set or band.

    Returns (value, error estimate).  ``F`` is read in the chart
    weights.disc_chart(dom, w), as the extremals of solver.minimal_integrals
    are.  The form is assumed to carry the
    enforced vanishing at the marked points, which keeps the integrand
    integrable at the singular centers; a center inside the region where it
    does not (sigma <= -2) raises NonIntegrableWeightError, and a region the
    mesh cannot resolve NumericalError (quadrature._two_level).
    """
    mesh = mesh or QuadratureConfig()
    check_marked_points(dom, w.marked)
    kernel = WeightKernel(disc_chart(dom, w), w)
    specs = _patch_specs(kernel, g)
    H, err = assembled_gram(kernel, g, [F.coeff_array()], specs, mesh, ts=(t,), band=band)
    return float(H[0, 0, 0].real), float(err[0])


def norm_of_form(F: TruncatedForm, H: GramMatrix) -> float:
    """a* H a for the form's coefficients; real and nonnegative up to roundoff."""
    a = F.coeff_array()
    if a.size != H.size:
        raise BadInputError(
            f"form has {a.size} coefficients but the Gram is {H.size}x{H.size}"
        )
    return float(np.real(np.vdot(a, H.entries @ a)))
