"""Structural weights: psi = 2 sum p_j G(., z_j) and phi via a divisor + harmonic part.

The pair (phi, psi) is stored symbolically so that Lelong numbers, the
constants alpha_j, and the decomposition phi + psi = 2 log|g| + 2u + eps|z|^2
are exact data.  Here ``g`` is the divisor realized through domain Blaschke
factors: 2 log|g| means sum 2 m_a G(., a) + 2 log|leading|, which on the unit
disc is the modulus of an honest Blaschke product with the unimodular constant
normalized away.  ``u = Re q`` for a polynomial q in the domain coordinate.
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
    """psi = sum of Green terms; coefficients are the full 2 p_j weights.

    ``green_terms`` carries (location, 2p) pairs for the marked points;
    ``extra_terms`` holds additional Green mass (auxiliary points or extra
    charge at marked ones) used by the negative tests where psi sits strictly
    below 2 sum p_j G.
    """

    green_terms: tuple[tuple[complex, float], ...]
    extra_terms: tuple[tuple[complex, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("green_terms", "extra_terms"):
            cleaned = []
            for loc, coeff in getattr(self, name):
                coeff = float(coeff)
                if not (coeff > 0 and math.isfinite(coeff)):
                    raise BadInputError(f"psi coefficient must be > 0, got {coeff}")
                cleaned.append((complex(loc), coeff))
            object.__setattr__(self, name, tuple(cleaned))
        if not self.green_terms:
            raise BadInputError("psi needs at least one Green term")

    def all_terms(self) -> tuple[tuple[complex, float], ...]:
        return self.green_terms + self.extra_terms


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

    def order_at(self, z: complex) -> int:
        return sum(m for loc, m in self.zeros if _same_point(loc, z))


@dataclass(frozen=True)
class WeightPair:
    """Marked points plus the structural (psi, phi) pair."""

    marked: tuple[MarkedPoint, ...]
    psi: PsiSpec
    phi: PhiSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "marked", tuple(self.marked))
        if not self.marked:
            raise BadInputError("a weight pair needs at least one marked point")
        for pt in self.marked:
            coeffs = [c for loc, c in self.psi.green_terms if _same_point(loc, pt.location)]
            if len(coeffs) != 1:
                raise BadInputError(
                    f"psi must carry exactly one Green term at marked point {pt.location}"
                )
            if abs(coeffs[0] - 2 * pt.green_weight) > 1e-9 * (1 + 2 * pt.green_weight):
                raise BadInputError(
                    f"psi coefficient {coeffs[0]} at {pt.location} does not match 2p = "
                    f"{2 * pt.green_weight}"
                )
        marked_locs = [pt.location for pt in self.marked]
        for loc, _ in self.psi.green_terms:
            if not any(_same_point(loc, z) for z in marked_locs):
                raise BadInputError(
                    f"green term at {loc} has no marked point; use extra_terms for auxiliary mass"
                )

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
        """Build psi from the marked weights; default divisor has a zero of
        order k_j + 1 at each marked point (the equality-type decomposition)."""
        marked = tuple(marked)
        green = tuple((pt.location, 2.0 * pt.green_weight) for pt in marked)
        if zeros is None:
            zeros = tuple((pt.location, pt.jet_order + 1) for pt in marked)
        return cls(
            marked=marked,
            psi=PsiSpec(green_terms=green, extra_terms=tuple(extra_psi)),
            phi=PhiSpec(zeros=tuple(zeros), leading=leading, u_coeffs=tuple(u_coeffs), bump=bump),
        )

    def point_index(self, j: int) -> MarkedPoint:
        if not (0 <= j < len(self.marked)):
            raise BadInputError(f"marked point index {j} out of range")
        return self.marked[j]


def lelong_psi(w: WeightPair, j: int) -> float:
    """p_j read from structure, plus any extra Green mass charging z_j."""
    pt = w.point_index(j)
    extra = sum(c for loc, c in w.psi.extra_terms if _same_point(loc, pt.location))
    return pt.green_weight + extra / 2.0


def eval_u(w: WeightPair, z) -> np.ndarray:
    """u(z) = Re q(z), q the stored polynomial in the domain coordinate."""
    return np.real(polyval_many(w.phi.u_coeffs, z))


class WeightKernel:
    """Vectorized disc-coordinate evaluators for one (domain, weight) pair.

    All inputs are zeta arrays in the unit disc; Green terms and divisor
    zeros are pulled back through the domain map once at construction.
    """

    def __init__(self, dom: DomainSpec, w: WeightPair):
        check_marked_points(dom, w.marked)
        self.dom = dom
        self.w = w
        self.zeta_marked = [complex(dom.inverse(pt.location)) for pt in w.marked]
        self.green = [
            (complex(dom.inverse(loc)), coeff) for loc, coeff in w.psi.all_terms()
        ]
        for loc, _ in w.psi.all_terms():
            if not dom.contains(loc):
                raise DomainError(f"psi Green term at {loc} lies outside the domain")
        for loc, _ in w.phi.zeros:
            if not dom.contains(loc):
                raise DomainError(f"divisor zero at {loc} lies outside the domain")
        self.zeros = [(complex(dom.inverse(loc)), m) for loc, m in w.phi.zeros]
        self.log_lead = math.log(abs(w.phi.leading))
        self.has_u = any(c != 0 for c in w.phi.u_coeffs)
        self.bump = w.phi.bump

    def psi(self, zeta) -> np.ndarray:
        zeta = np.asarray(zeta, dtype=complex)
        return self._psi(zeta, lambda loc: green_disc_raw(zeta, loc))

    def phi_plus_psi(self, zeta) -> np.ndarray:
        zeta = np.asarray(zeta, dtype=complex)
        return self._phi_plus_psi(zeta, lambda loc: green_disc_raw(zeta, loc))

    def psi_and_phi_plus_psi(self, zeta) -> tuple[np.ndarray, np.ndarray]:
        """(psi, phi + psi), bit for bit those of ``psi`` and ``phi_plus_psi``.

        The Green function of each distinct center is evaluated once; the
        divisor zeros of ``WeightPair.standard`` sit on the marked points, so
        the two sums share their centers.
        """
        zeta = np.asarray(zeta, dtype=complex)
        cache: dict[complex, np.ndarray] = {}

        def green(loc):
            if loc not in cache:
                cache[loc] = green_disc_raw(zeta, loc)
            return cache[loc]

        return self._psi(zeta, green), self._phi_plus_psi(zeta, green)

    def _psi(self, zeta, green) -> np.ndarray:
        out = np.zeros(zeta.shape, dtype=float)
        for loc, coeff in self.green:
            out += coeff * green(loc)
        return out

    def _phi_plus_psi(self, zeta, green) -> np.ndarray:
        out = np.full(zeta.shape, 2.0 * self.log_lead, dtype=float)
        for loc, m in self.zeros:
            out += 2.0 * m * green(loc)
        if self.has_u or self.bump:
            z = self.dom.forward(zeta)
            if self.has_u:
                out += 2.0 * np.real(polyval_many(self.w.phi.u_coeffs, z))
            if self.bump:
                out += self.bump * np.abs(z) ** 2
        return out

    def singular_centers(self):
        """(zeta, p_total, divisor order, enforced vanishing order) per center.

        Centers are marked points and divisor zeros; the vanishing order is
        the minimal order of any form in the constrained affine family.
        """
        centers: dict[complex, dict] = {}

        def slot(zeta: complex) -> dict:
            for key in centers:
                if _same_point(key, zeta):
                    return centers[key]
            centers[zeta] = {"p": 0.0, "m": 0, "nu": 0}
            return centers[zeta]

        for zeta_j, pt in zip(self.zeta_marked, self.w.marked):
            s = slot(zeta_j)
            s["nu"] = pt.jet_order if pt.jet_coeff != 0 else pt.jet_order + 1
        for loc, coeff in self.green:
            slot(loc)["p"] += coeff / 2.0
        for loc, m in self.zeros:
            slot(loc)["m"] += m
        return [(z, s["p"], s["m"], s["nu"]) for z, s in centers.items()]


def alpha_j(w: WeightPair, j: int, dom: DomainSpec = UNIT_DISC) -> float:
    """alpha_j = limit at z_j of (phi + psi - 2(k_j+1) G(., z_j)).

    Finite exactly when the divisor order at z_j is k_j + 1; the Green parts
    then cancel identically and the limit is the sum of the remaining smooth
    terms at z_j.
    """
    pt = w.point_index(j)
    k = pt.jet_order
    order = w.phi.order_at(pt.location)
    if order != k + 1:
        raise BadInputError(
            f"alpha_{j} is not finite: divisor order {order} at {pt.location} != k+1 = {k + 1}"
        )
    total = 2.0 * math.log(abs(w.phi.leading))
    zeta_j = complex(dom.inverse(pt.location))
    for loc, m in w.phi.zeros:
        if _same_point(loc, pt.location):
            continue
        zeta0 = complex(dom.inverse(loc))
        total += 2.0 * m * float(green_disc_raw(zeta_j, zeta0))
    total += 2.0 * float(eval_u(w, pt.location)) + w.phi.bump * abs(pt.location) ** 2
    return total
