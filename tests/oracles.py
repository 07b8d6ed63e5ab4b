"""Independent oracles used to freeze expected values, and test-only references.

The oracles avoid the library's own formula paths: harmonic-measure
integrals and random walks for Green values, plain Monte Carlo for areas,
steepest descent for the constrained minimum, rays from every point in
offset coordinates for G at deep levels of several points.  Values frozen into tests were
produced by these functions (see test modules for the frozen constants).
The references are scalar psi/phi evaluators, the raw-monomial Gram, which
the library itself never needs, G(t) from the quadrature Gram where the
library would take the closed form, a direct B^H W B Gram on built nodes
with its own deflation at the patch centers, and plain bisection of cut
brackets.
"""
from __future__ import annotations

import math

import numpy as np

from jetmin.errors import BadInputError, NumericalError
from jetmin.forms import (
    GramMatrix,
    JetConstraintSystem,
    constraint_basis,
    gram_reduced,
    jet_constraints,
)
from jetmin.gain import eval_log_c
from jetmin.geometry import UNIT_DISC, green_disc_raw
from jetmin.quadrature import PatchSpec, QuadratureConfig, assembled_gram
from jetmin.solver import kkt_minimize_reduced
from jetmin.weights import WeightKernel, eval_u


def eval_psi(w, z: complex, dom=UNIT_DISC) -> float:
    """psi(z) = sum 2 p_j G(z, z_j) + extra terms, one point at a time."""
    zeta = complex(dom.inverse(complex(z)))
    terms = [(pt.location, 2.0 * pt.green_weight) for pt in w.marked] + list(w.psi.extra_terms)
    return sum(coeff * float(green_disc_raw(zeta, complex(dom.inverse(loc))))
               for loc, coeff in terms)


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
    delta = g._table.slope
    specs = [PatchSpec(center=zeta, order=0, exponent=2 * p * (1 - delta) - 2 * m)
             for zeta, p, m, _nu in kernel.singular_centers()]
    monomials = list(np.eye(N + 1, dtype=complex))
    H, err = assembled_gram(kernel, g, monomials, specs, mesh or QuadratureConfig(), ts=(t,))
    return GramMatrix(entries=H[0], quad_error=float(err[0]))


def quadrature_minima(dom, w, g, ts, N: int, mesh: QuadratureConfig | None = None):
    """G(t) for every t in ``ts`` from the quadrature Gram, even where
    minimal_integrals would take the closed form.  The region is built in
    the chart ``dom`` as given, so a lone point off zeta = 0 gets rays from 0
    past it: a second geometry beside the library's one-point chart."""
    C = jet_constraints(w, N, dom)
    a_part, Z = constraint_basis(C)
    return [kkt_minimize_reduced(R, a_part, Z, C)
            for R in gram_reduced(dom, w, g, ts, a_part, Z, mesh=mesh)]


def quadrature_minimum(dom, w, g, t: float, N: int, mesh: QuadratureConfig | None = None):
    """quadrature_minima at the single sublevel parameter t."""
    return quadrature_minima(dom, w, g, [t], N, mesh)[0]


def _deflate(coeffs, center, order):
    """Divide a polynomial by (zeta - center)^order, dropping the remainder.

    Valid only for polynomials vanishing to that order at the center up to
    roundoff; the dropped remainder then contributes O(eps * norm).
    """
    c = np.asarray(coeffs, dtype=complex).copy()
    for _ in range(order):
        if c.size <= 1:
            return np.zeros(1, dtype=complex)
        q = np.empty(c.size - 1, dtype=complex)
        acc = 0.0 + 0.0j
        for k in range(c.size - 1, 0, -1):
            acc = c[k] + center * acc
            q[k - 1] = acc
        c = q
    return c


def gram_direct(nodes, kernel, gain, basis) -> np.ndarray:
    """Per-band Grams B^H W B from the values of the basis forms at the nodes.

    The reference for the moment kernel of ``gram_on_nodes``: fan by fan,
    each form (divided by the enforced vanishing on a patch fan, whose
    weight then carries that factor) is evaluated by Horner's rule and the
    weighted products are summed band by band, with no monomial moments in
    between.
    """
    H = np.zeros((nodes.n_bands, len(basis), len(basis)), dtype=complex)
    for f, (center, nu) in enumerate(zip(nodes.origin.tolist(), nodes.nu.tolist())):
        sl = slice(*nodes.fan_start[f:f + 2])
        z, x, band = nodes.zeta[sl], nodes.x[sl], nodes.band[sl]
        psi = kernel.psi(x, center)
        log_w = math.log(2.0) + psi - kernel.phi_plus_psi(x, center) + eval_log_c(gain, -psi)
        log_w += 2.0 * nu * np.log(np.abs(x)) if nu else 0.0
        B = np.stack([np.polynomial.polynomial.polyval(z, _deflate(b, center, nu))
                      for b in basis])
        BW = B.conj() * (nodes.area_w[sl] * np.exp(log_w))
        for k in range(nodes.n_bands):
            H[k] += BW[:, band == k] @ B[:, band == k].T
    return H


def bisect_cuts(psi_fn, e_ray, lo, hi, f_lo, thresh, iters: int = 60):
    """Crossings of psi(r e) + thresh = 0 by plain bisection of the brackets
    [lo, hi], f_lo the value at lo; stops once no bracket moves.

    The reference for the secant cut search of ``quadrature._bisect_cuts``.
    """
    neg_lo = f_lo < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        go_right = (psi_fn(mid * e_ray) + thresh < 0) == neg_lo
        if not np.where(go_right, mid != lo, mid != hi).any():
            break
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)


def _offset_green(c: complex, x, z0: complex):
    """G(c + x, z0) on the unit disc; for z0 = c, log|x| - log|1 - |c|^2 - conj(c) x|."""
    if z0 == c:
        return np.log(np.abs(x)) - np.log(np.abs(1 - abs(c) ** 2 - np.conj(c) * x))
    zeta = c + x
    return np.log(np.abs(zeta - z0)) - np.log(np.abs(1 - np.conj(z0) * zeta))


def saddle_level(points) -> float:
    """max over the saddles s of psi = sum 2 p_j G(., z_j) in the disc of -psi(s).

    The saddles are the roots in the disc of the derivative
    sum p_j b_j'/b_j = sum p_j (1 - |z_j|^2) / ((z - z_j)(1 - conj(z_j) z)),
    b_j the Blaschke factors, cleared of denominators; ``points`` is a list
    of (z_j, p_j).  For t above the returned level each component of
    {psi < -t} holds one point.
    """
    P = np.polynomial.polynomial
    poly = np.zeros(1, dtype=complex)
    for j, (zj, pj) in enumerate(points):
        term = np.array([pj * (1 - abs(zj) ** 2)], dtype=complex)
        for i, (zi, _pi) in enumerate(points):
            if i != j:
                term = P.polymul(term, P.polymul([-zi, 1], [1, -np.conj(zi)]))
        poly = P.polyadd(poly, term)
    saddles = [s for s in P.polyroots(poly) if abs(s) < 1]
    return max(-sum(2 * p * float(_offset_green(s, 0.0, z)) for z, p in points)
               for s in saddles)


def fan_reference(w, g, t: float, n_rays: int = 128, n_geo: int = 36, n_gl: int = 16) -> float:
    """G(t) of order-0 jets at N = n - 1 (the unique Lagrange interpolant F)
    under the standard divisor (one zero at each point), from rays cast
    from each point in offset coordinates x = zeta - z_j.

    G = 2 int_{psi < -t} |F|^2 e^{-phi} c(-psi), with e^{-phi} =
    prod |b_j|^(2 p_j - 2).  Each ray is sampled up to the circle, must show
    psi rising up to the level (else the component is not star-shaped about
    its point and the ray is refused with BadInputError), and is bisected
    in log r to the level radius rho and to the radii of the gain's knots
    beyond t.  Between those radii the radial integral runs over geometric
    panels of ratio at most 2 with n_gl Gauss-Legendre nodes, down to
    rho_K 2^-n_geo, rho_K the deepest radius; the disc inside that takes
    r = rho' u^(1/(sigma + 2)), sigma = 2 p (1 - s) - 2 the local power (s
    the gain's tail slope), which integrates r^sigma exactly.  Valid for t
    above ``saddle_level``.
    """
    points = [(complex(pt.location), pt.green_weight) for pt in w.marked]
    if (w.psi.extra_terms or w.phi.bump or any(w.phi.u_coeffs) or w.phi.leading != 1
            or any(pt.jet_order for pt in w.marked)
            or set(w.phi.zeros) != {(z, 1) for z, _p in points}):
        raise BadInputError("fan_reference takes order-0 jets of the standard weight")
    locs = np.array([z for z, _p in points])
    values = np.array([pt.jet_coeff * pt.coord_scale for pt in w.marked])
    coeffs = np.linalg.solve(np.vander(locs, len(points), increasing=True), values)
    theta = (np.arange(n_rays) + 0.5) * (2 * math.pi / n_rays)
    e = np.exp(1j * theta)
    gx, gw = np.polynomial.legendre.leggauss(n_gl)
    u, uw = 0.5 * (gx + 1), 0.5 * gw
    levels = [t] + sorted(k for k in g._table.t if k > t)

    def logs(c, x):
        """(psi, -phi) at c + x."""
        greens = [(p, _offset_green(c, x, z)) for z, p in points]
        return (sum(2 * p * gr for p, gr in greens), sum(2 * (p - 1) * gr for p, gr in greens))

    total = 0.0
    for c, p in points:
        b = (np.conj(c) * e).real
        exit_r = -b + np.sqrt(b * b + 1 - abs(c) ** 2)  # the ray meets the circle
        frac = np.r_[np.logspace(-300, -1, 300), np.linspace(0.1, 1, 451)[1:-1]]
        rs = exit_r[:, None] * frac[None, :]
        psi = logs(c, rs * e[:, None])[0]
        first = np.argmax(psi >= -t, axis=1)
        for k in range(n_rays):
            if first[k] == 0 or not np.all(np.diff(psi[k, :first[k] + 1]) > 0):
                raise BadInputError(f"psi does not rise along the ray {theta[k]:.4g} from {c}")
        radii = []  # per level, the radius where psi = -level on every ray
        hi = np.log(rs[np.arange(n_rays), first])
        for level in levels:
            lo = np.full(n_rays, math.log(1e-300))
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                below = logs(c, np.exp(mid) * e)[0] < -level
                lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
            radii.append(np.exp(0.5 * (lo + hi)))
        r, wr = [], []
        for top, bot in zip(radii, radii[1:] + [radii[-1] * 2.0 ** -n_geo]):
            n = max(1, math.ceil(math.log2(np.max(top / bot))))
            edges = top[:, None] * (bot / top)[:, None] ** (np.arange(n + 1) / n)
            half = 0.5 * (edges[:, :-1] - edges[:, 1:])[:, :, None]
            nodes = 0.5 * (edges[:, :-1] + edges[:, 1:])[:, :, None] + half * gx
            r.append(nodes.reshape(n_rays, -1))
            wr.append((half * gw * nodes).reshape(n_rays, -1))
        sigma = 2 * p * (1 - g._table.slope) - 2
        q = 1 / (sigma + 2)
        inner = (radii[-1] * 2.0 ** -n_geo)[:, None]
        r = np.concatenate(r + [inner * u ** q], axis=1)
        wr = np.concatenate(wr + [inner ** 2 * q * uw * u ** (2 * q - 1)], axis=1)
        x = r * e[:, None]
        psi, minus_phi = logs(c, x)
        F = np.polynomial.polynomial.polyval(c + x, coeffs)
        f = 2 * np.abs(F) ** 2 * np.exp(minus_phi + eval_log_c(g, -psi))
        total += float(np.sum(f * wr)) * (2 * math.pi / n_rays)
    return total


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
