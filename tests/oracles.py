"""Independent oracles used to freeze expected values, and test-only references.

The oracles avoid the library's own formula paths: harmonic-measure
integrals and random walks for Green values, plain Monte Carlo for areas,
sympy differentiation for jet rows, steepest descent for the constrained
minimum.  Values frozen into tests were produced by these functions (see
test modules for the frozen constants).  The references are scalar psi/phi
evaluators and the raw-monomial Gram, which the library itself never needs.
"""
from __future__ import annotations

import math

import numpy as np

from jetmin.errors import BadInputError, NumericalError
from jetmin.forms import GramMatrix, JetConstraintSystem, constraint_basis
from jetmin.gain import growth_rate_bound
from jetmin.geometry import UNIT_DISC, green_disc_raw
from jetmin.quadrature import PatchSpec, QuadratureConfig, assembled_gram
from jetmin.weights import WeightKernel, eval_u


def eval_psi(w, z: complex, dom=UNIT_DISC) -> float:
    """psi(z) = sum 2 p_j G(z, z_j) + extra terms, one point at a time."""
    zeta = complex(dom.inverse(complex(z)))
    return sum(coeff * float(green_disc_raw(zeta, complex(dom.inverse(loc))))
               for loc, coeff in w.psi.all_terms())


def eval_phi(w, z: complex, dom=UNIT_DISC) -> float:
    """phi(z) = 2 log|g(z)| + 2u(z) + eps|z|^2 - psi(z), one point at a time."""
    z = complex(z)
    zeta = complex(dom.inverse(z))
    total = 2.0 * math.log(abs(w.phi.leading))
    for loc, m in w.phi.zeros:
        total += 2.0 * m * float(green_disc_raw(zeta, complex(dom.inverse(loc))))
    total += 2.0 * float(eval_u(w, z)) + w.phi.bump * abs(z) ** 2
    return total - eval_psi(w, z, dom)


def gram_quadrature(dom, w, g, t: float, N: int,
                    mesh: QuadratureConfig | None = None) -> GramMatrix:
    """Weighted Gram of the monomials 1, ..., zeta^N over {psi < -t}.

    Valid only when the weight is integrable against the raw monomials:
    every center exponent 2 p (1 - delta) - 2 m must exceed -2.
    """
    kernel = WeightKernel(dom, w)
    delta = growth_rate_bound(g)
    specs = [PatchSpec(center=zeta, order=0, exponent=2 * p * (1 - delta) - 2 * m)
             for zeta, p, m, _nu in kernel.singular_centers()]
    monomials = list(np.eye(N + 1, dtype=complex))
    H, err, degen = assembled_gram(kernel, g, monomials, specs,
                                   mesh or QuadratureConfig(), ts=(t,))
    return GramMatrix(entries=H[0], quad_error=float(err[0]), degenerate=bool(degen[0]))


def poisson_green_disc(z: complex, z0: complex, n: int = 4096) -> float:
    """Green function of the unit disc via the harmonic-measure integral.

    G(z, z0) = log|z - z0| - int_boundary log|xi - z0| d omega_z(xi), with the
    harmonic measure realized by the Poisson kernel on a fine boundary grid.
    """
    theta = (np.arange(n) + 0.5) * (2 * math.pi / n)
    xi = np.exp(1j * theta)
    pk = (1 - abs(z) ** 2) / np.abs(xi - z) ** 2
    harm = np.mean(pk * np.log(np.abs(xi - z0)))
    return math.log(abs(z - z0)) - harm


def wos_green_disc_domain(
    center: complex,
    radius: float,
    z: complex,
    z0: complex,
    walkers: int = 400_000,
    seed: int = 20260825,
    eps: float = 1e-6,
) -> float:
    """Green function of a geometric disc by walk-on-spheres.

    G(z, z0) = log|z - z0| - E_z[ log|W_exit - z0| ] with W_exit the Brownian
    exit point, sampled by uniform steps on maximal inscribed circles.
    """
    rng = np.random.default_rng(seed)
    pos = np.full(walkers, complex(z))
    active = np.ones(walkers, dtype=bool)
    for _ in range(200):
        if not active.any():
            break
        d = radius - np.abs(pos[active] - center)
        ang = rng.uniform(0.0, 2 * math.pi, d.size)
        pos[active] = pos[active] + d * np.exp(1j * ang)
        still = radius - np.abs(pos[active] - center) > eps
        idx = np.flatnonzero(active)
        active[idx[still]] = True
        active[idx[~still]] = False
    # project the stragglers radially onto the boundary
    out = center + radius * (pos - center) / np.abs(pos - center)
    return math.log(abs(z - z0)) - float(np.mean(np.log(np.abs(out - z0))))


def capacity_limit(z0: complex, green_fn) -> float:
    """exp lim (G(z, z0) - log|z - z0|) along a shrinking sequence.

    Richardson extrapolation on radii 2^-k; green_fn(z, z0) must be an
    independent evaluator (e.g. poisson_green_disc).
    """
    vals = []
    for k in range(6, 12):
        r = 2.0 ** (-k)
        acc = 0.0
        for ang in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
            z = z0 + r * complex(math.cos(ang), math.sin(ang))
            acc += green_fn(z, z0) - math.log(r)
        vals.append(acc / 4)
    # differences shrink geometrically; take the last extrapolant
    v1, v2 = vals[-2], vals[-1]
    return math.exp(v2 + (v2 - v1))


def sympy_jet_row(z0: complex, nu: int, n_coeffs: int):
    """Row of the order-nu Taylor functional at z0 in the monomial basis.

    Exact symbolic differentiation of sum a_l z^l; returns complex floats.
    """
    import sympy as sp

    z = sp.symbols("z")
    zz0 = sp.nsimplify(z0.real) + sp.I * sp.nsimplify(z0.imag)
    row = []
    for l in range(n_coeffs):
        expr = sp.diff(z**l, z, nu) / sp.factorial(nu)
        row.append(complex(expr.subs(z, zz0)))
    return np.array(row)


def mc_disc_integral(
    fn, inside, n: int = 4_000_000, seed: int = 715, batch: int = 500_000
) -> float:
    """Plain Monte Carlo of fn over {inside} within the unit disc.

    fn and inside take a complex array; the estimate uses uniform sampling
    on the disc (area pi).
    """
    rng = np.random.default_rng(seed)
    total = 0.0
    count = 0
    while count < n:
        k = min(batch, n - count)
        r = np.sqrt(rng.uniform(0.0, 1.0, k))
        ang = rng.uniform(0.0, 2 * math.pi, k)
        z = r * np.exp(1j * ang)
        mask = inside(z)
        vals = np.zeros(k)
        if mask.any():
            vals[mask] = fn(z[mask])
        total += float(np.sum(vals))
        count += k
    return math.pi * total / count


def oracle_minimize(
    H: GramMatrix,
    C: JetConstraintSystem,
    restarts: int = 10,
    seed: int = 20260825,
    max_iters: int = 5000,
) -> float:
    """Steepest descent with exact line search in null-space coordinates.

    Independent of the direct solve: no linear system is formed.  Returns
    the best value over random restarts (plus the zero start).
    """
    if restarts < 1:
        raise BadInputError("oracle needs at least one restart")
    a_part, Z = constraint_basis(C)
    Hm = H.entries
    gvec = Z.conj().T @ (Hm @ a_part)
    M = 0.5 * (Z.conj().T @ Hm @ Z + (Z.conj().T @ Hm @ Z).conj().T)
    h00 = float(np.real(np.vdot(a_part, Hm @ a_part)))
    r = gvec.size
    if r == 0:
        return h00
    rng = np.random.default_rng(seed)
    g_scale = float(np.linalg.norm(gvec))
    best = math.inf
    starts = [np.zeros(r, dtype=complex)] + [
        rng.normal(size=r) + 1j * rng.normal(size=r) for _ in range(restarts - 1)
    ]
    for y in starts:
        y = y.astype(complex)
        converged = False
        for _ in range(max_iters):
            d = -(gvec + M @ y)
            dn = float(np.linalg.norm(d))
            if dn <= 1e-12 * (1 + g_scale):
                converged = True
                break
            curv = float(np.real(np.vdot(d, M @ d)))
            if curv <= 0:
                raise NumericalError("descent found a nonconvex direction")
            y = y + (dn * dn / curv) * d
        if not converged:
            raise NumericalError("descent oracle did not converge in budget")
        val = float(h00 + 2 * np.real(np.vdot(y, gvec)) + np.real(np.vdot(y, M @ y)))
        best = min(best, val)
    return max(best, 0.0)
