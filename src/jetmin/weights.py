"""Structural weights: psi = 2 sum p_j G(., z_j) and phi via a divisor + harmonic part.

The pair (phi, psi) is stored symbolically so that Lelong numbers, the
constants alpha_j, and the decomposition phi + psi = 2 log|g| + 2u + eps|z|^2
are exact data.  Here ``g`` is the divisor realized through domain Blaschke
factors: 2 log|g| means sum 2 m_a G(., a) + 2 log|leading|, which on the unit
disc is the modulus of an honest Blaschke product with the unimodular constant
normalized away.  ``u = Re q`` for a polynomial q in the domain coordinate.

psi's Green terms come from the marked points, plus any extra mass.  A
``WeightPair`` merges its singular data once, into one (location, p, m) per
distinct point (psi mass p, divisor order m); the kernel, the Lelong numbers
and alpha_j all read that table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadInputError, DomainError
from .geometry import (
    UNIT_DISC,
    DomainSpec,
    MarkedPoint,
    _require_finite,
    check_marked_points,
    green_disc_raw,
)
from .series import polyval_many

_LOC_TOL = 1e-12


def _same_point(a: complex, b: complex) -> bool:
    return abs(a - b) <= _LOC_TOL


@dataclass(frozen=True)
class PsiSpec:
    """Green mass of psi beyond the marked points' own 2 p_j G(., z_j).

    ``extra_terms`` holds (location, 2p) pairs: auxiliary points, or extra
    charge stacked on a marked point, where psi sits strictly below
    2 sum p_j G.  The marked points' terms come from the points themselves.
    """

    extra_terms: tuple[tuple[complex, float], ...] = ()

    def __post_init__(self) -> None:
        cleaned = []
        for loc, coeff in self.extra_terms:
            coeff = float(coeff)
            if not (coeff > 0 and math.isfinite(coeff)):
                raise BadInputError(f"psi coefficient must be > 0, got {coeff}")
            cleaned.append((complex(loc), coeff))
        object.__setattr__(self, "extra_terms", tuple(cleaned))


@dataclass(frozen=True)
class PhiSpec:
    """phi through the convention phi = 2 log|g| + 2u + eps |z|^2 - psi."""

    zeros: tuple[tuple[complex, int], ...] = ()
    leading: complex = 1.0
    u_coeffs: tuple[complex, ...] = (0.0,)
    bump: float = 0.0

    def __post_init__(self) -> None:
        cleaned = []
        for loc, mult in self.zeros:
            if not (isinstance(mult, (int, np.integer)) and mult >= 1):
                raise BadInputError(f"divisor multiplicity must be an integer >= 1, got {mult}")
            cleaned.append((complex(loc), int(mult)))
        object.__setattr__(self, "zeros", tuple(cleaned))
        object.__setattr__(self, "leading", _require_finite(self.leading, "divisor leading"))
        object.__setattr__(
            self, "u_coeffs", tuple(_require_finite(c, "u coefficient") for c in self.u_coeffs))
        if self.leading == 0:
            raise BadInputError("divisor leading constant must be nonzero")
        if not (self.bump >= 0 and math.isfinite(self.bump)):
            raise BadInputError(f"bump coefficient must be >= 0, got {self.bump}")


@dataclass(frozen=True)
class WeightPair:
    """Marked points plus the structural (psi, phi) pair.

    psi = sum 2 p_j G(., z_j) over the marked points plus ``psi.extra_terms``.
    Construction merges the singular data into ``points``: one
    (location, p, m) per distinct point, with p its psi mass and m its
    divisor order, marked points first and in their order, then the other
    psi points, then the zero-only points.  It is not a field, so
    ``asdict`` and the problem files do not carry it.
    """

    marked: tuple[MarkedPoint, ...]
    psi: PsiSpec
    phi: PhiSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "marked", tuple(self.marked))
        if not self.marked:
            raise BadInputError("a weight pair needs at least one marked point")
        points: list[list] = []

        def entry(loc: complex) -> list:
            for e in points:
                if _same_point(e[0], loc):
                    return e
            points.append([loc, 0.0, 0])
            return points[-1]

        for pt in self.marked:
            e = entry(pt.location)
            if e[1]:
                raise BadInputError(f"marked points coincide at {pt.location}")
            e[1] = pt.green_weight
        for loc, coeff in self.psi.extra_terms:
            entry(loc)[1] += coeff / 2.0
        for loc, m in self.phi.zeros:
            entry(loc)[2] += m
        object.__setattr__(self, "points", tuple(tuple(e) for e in points))

    @classmethod
    def standard(
        cls,
        marked,
        *,
        zeros=None,
        leading: complex = 1.0,
        u_coeffs=(0.0,),
        bump: float = 0.0,
        extra_psi=(),
    ) -> "WeightPair":
        """psi from the marked weights plus ``extra_psi``; the default divisor
        has a zero of order k_j + 1 at each marked point (the equality-type
        decomposition)."""
        marked = tuple(marked)
        if zeros is None:
            zeros = tuple((pt.location, pt.jet_order + 1) for pt in marked)
        return cls(
            marked=marked,
            psi=PsiSpec(extra_terms=tuple(extra_psi)),
            phi=PhiSpec(zeros=tuple(zeros), leading=leading, u_coeffs=tuple(u_coeffs), bump=bump),
        )

    def point_index(self, j: int) -> MarkedPoint:
        if not (0 <= j < len(self.marked)):
            raise BadInputError(f"marked point index {j} out of range")
        return self.marked[j]


def lelong_psi(w: WeightPair, j: int) -> float:
    """psi's mass at z_j: p_j plus any extra Green mass charging z_j."""
    w.point_index(j)
    return w.points[j][1]


def eval_u(w: WeightPair, z) -> np.ndarray:
    """u(z) = Re q(z), q the stored polynomial in the domain coordinate."""
    return np.real(polyval_many(w.phi.u_coeffs, z))


def _coords(x, origin):
    """(zeta, x, origin) of the points origin + x."""
    x = np.asarray(x, dtype=complex)
    return (x if np.ndim(origin) == 0 and origin == 0 else origin + x), x, origin


def _green(zeta, x, origin, z):
    """G(., z) at the points zeta = origin + x, read from x where the origin
    is z and from zeta elsewhere."""
    own = np.asarray(origin == z)
    out = green_disc_raw(zeta, z, x if own.all() else None)
    if own.any() and not own.all():
        own = np.broadcast_to(own, zeta.shape)
        out[own] = green_disc_raw(zeta[own], z, x[own])
    return out


class WeightKernel:
    """Vectorized disc-coordinate evaluators for one (domain, weight) pair.

    All inputs are zeta arrays in the unit disc, or offsets from a given
    origin.  The weight's points are pulled back through the domain map
    once at construction: psi sums 2p G over the points with p > 0, phi +
    psi sums 2m G over those with m > 0.
    """

    def __init__(self, dom: DomainSpec, w: WeightPair):
        check_marked_points(dom, w.marked)
        for loc, _p, _m in w.points:
            if not dom.contains(loc):
                raise DomainError(f"singular point {loc} of the weight lies outside the domain")
        self.dom = dom
        self.w = w
        self.points = [(complex(dom.inverse(loc)), p, m) for loc, p, m in w.points]
        self.log_lead = math.log(abs(w.phi.leading))
        self.has_u = any(c != 0 for c in w.phi.u_coeffs)
        self.bump = w.phi.bump

    # Each evaluator takes the points origin + x, zeta = x for the default
    # origin 0 (x itself: 0 + x would only copy it).  ``origin`` is a scalar
    # or an array that broadcasts to the shape of x, one origin per point.
    # A weight point's Green term reads x where the origin is that point
    # (geometry.green_disc_raw), so a node 1e-80 from it keeps its digits,
    # and reads zeta elsewhere.
    def psi(self, x, origin=0j) -> np.ndarray:
        return self._psi(*_coords(x, origin))

    def phi_plus_psi(self, x, origin=0j) -> np.ndarray:
        return self._phi_plus_psi(*_coords(x, origin))

    def psi_and_phi_plus_psi(self, x, origin=0j) -> tuple[np.ndarray, np.ndarray]:
        """(psi, phi + psi), bit for bit those of ``psi`` and ``phi_plus_psi``,
        with the Green function of each point evaluated once."""
        coords = _coords(x, origin)
        greens = [_green(*coords, z) for z, _p, _m in self.points]
        return self._psi(*coords, greens), self._phi_plus_psi(*coords, greens)

    # given ``greens``, the Green arrays are shared; without them each is
    # evaluated where it is added, so a lone psi holds one at a time
    def _psi(self, zeta, x, origin, greens=None) -> np.ndarray:
        out = np.zeros(zeta.shape, dtype=float)
        for i, (z, p, _m) in enumerate(self.points):
            if p > 0:
                out += 2.0 * p * (greens[i] if greens else _green(zeta, x, origin, z))
        return out

    def _phi_plus_psi(self, zeta, x, origin, greens=None) -> np.ndarray:
        out = np.full(zeta.shape, 2.0 * self.log_lead, dtype=float)
        for i, (z, _p, m) in enumerate(self.points):
            if m > 0:
                out += 2.0 * m * (greens[i] if greens else _green(zeta, x, origin, z))
        if self.has_u or self.bump:
            z = self.dom.forward(zeta)
            if self.has_u:
                out += 2.0 * np.real(polyval_many(self.w.phi.u_coeffs, z))
            if self.bump:
                out += self.bump * np.abs(z) ** 2
        return out

    def singular_centers(self):
        """(zeta, p, divisor order m, enforced vanishing order nu) per point.

        nu is the minimal order of any form in the constrained affine family:
        k_j, or k_j + 1 when a_j = 0, at the marked points and 0 elsewhere.
        """
        nus = [pt.jet_order if pt.jet_coeff != 0 else pt.jet_order + 1 for pt in self.w.marked]
        nus += [0] * (len(self.points) - len(nus))
        return [(z, p, m, nu) for (z, p, m), nu in zip(self.points, nus)]


def disc_chart(dom: DomainSpec, w: WeightPair) -> DomainSpec:
    """The disc chart of ``dom`` that puts the weight's only point at zeta = 0.

    G and the bound do not change under a disc automorphism, but the
    monomial basis and the polar mesh favor a point at 0.  With one point
    in the table, at disc coordinate c != 0, this is ``dom`` composed with
    zeta -> (zeta + c)/(1 + conj(c) zeta); otherwise ``dom`` itself.  The
    composed b is d times the location, so the chart takes it to exactly 0.
    """
    if len(w.points) != 1:
        return dom
    loc = w.points[0][0]
    c = complex(dom.inverse(loc))
    if c == 0:
        return dom
    a, b, cc, d = dom.map_coeffs
    d_new = cc * c + d
    return DomainSpec.moebius(a + b * c.conjugate(), d_new * loc, cc + d * c.conjugate(), d_new)


def alpha_j(w: WeightPair, j: int, dom: DomainSpec = UNIT_DISC) -> float:
    """alpha_j = limit at z_j of (phi + psi - 2(k_j+1) G(., z_j)).

    Finite exactly when the divisor order at z_j is k_j + 1; the Green parts
    then cancel identically and the limit is the sum of the remaining smooth
    terms at z_j.
    """
    pt = w.point_index(j)
    k = pt.jet_order
    order = w.points[j][2]
    if order != k + 1:
        raise BadInputError(
            f"alpha_{j} is not finite: divisor order {order} at {pt.location} != k+1 = {k + 1}"
        )
    total = 2.0 * math.log(abs(w.phi.leading))
    zeta_j = complex(dom.inverse(pt.location))
    for i, (loc, _p, m) in enumerate(w.points):
        if i != j and m > 0:
            zeta0 = complex(dom.inverse(loc))
            total += 2.0 * m * float(green_disc_raw(zeta_j, zeta0))
    total += 2.0 * float(eval_u(w, pt.location)) + w.phi.bump * abs(pt.location) ** 2
    return total
