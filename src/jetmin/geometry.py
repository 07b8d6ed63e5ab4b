"""Disc-like planar domains, Green functions, Blaschke factors, capacity.

Domains are the open unit disc and its images under Moebius maps that are
injective on the closed disc.  Every Green-type quantity reduces to the disc
closed form

    G(z, z0) = log|z - z0| - log|1 - conj(z0) z|

pulled back through the map; conformal invariance is the formula path, not a
numerical approximation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadInputError, DomainError, GreenPoleError

_INSIDE_TOL = 1e-12


def _require_finite(z: complex, what: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise BadInputError(f"{what} must be finite, got {z!r}")
    return z


@dataclass(frozen=True)
class DomainSpec:
    """A simply connected planar domain given as a Moebius image of the disc.

    ``map_coeffs = (a, b, c, d)`` defines T(zeta) = (a zeta + b)/(c zeta + d)
    mapping the open unit disc onto the domain.  The identity map gives the
    unit disc itself.  T must be injective on the closed disc, i.e. the pole
    -d/c must lie strictly outside it.
    """

    kind: str = "unit_disc"
    map_coeffs: tuple[complex, complex, complex, complex] = (1.0, 0.0, 0.0, 1.0)

    def __post_init__(self) -> None:
        if self.kind not in ("unit_disc", "moebius_image"):
            raise BadInputError(f"unknown domain kind {self.kind!r}")
        a, b, c, d = (complex(w) for w in self.map_coeffs)
        for w in (a, b, c, d):
            _require_finite(w, "map coefficient")
        if a * d - b * c == 0:
            raise BadInputError("degenerate Moebius map: ad - bc = 0")
        if self.kind == "unit_disc" and (a, b, c, d) != (1 + 0j, 0j, 0j, 1 + 0j):
            raise BadInputError("unit_disc domain must carry the identity map")
        if c != 0 and abs(d / c) <= 1 + _INSIDE_TOL:
            raise BadInputError(
                "Moebius map has a pole on the closed unit disc; "
                "the image is not a bounded simply connected domain"
            )
        object.__setattr__(self, "map_coeffs", (a, b, c, d))

    @classmethod
    def unit_disc(cls) -> "DomainSpec":
        return cls()

    @classmethod
    def moebius(cls, a: complex, b: complex, c: complex, d: complex) -> "DomainSpec":
        return cls(kind="moebius_image", map_coeffs=(a, b, c, d))

    def forward(self, zeta):
        """T(zeta); accepts scalars or numpy arrays."""
        a, b, c, d = self.map_coeffs
        zeta = np.asarray(zeta, dtype=complex) if not np.isscalar(zeta) else zeta
        return (a * zeta + b) / (c * zeta + d)

    def inverse(self, z):
        """T^{-1}(z); accepts scalars or numpy arrays."""
        a, b, c, d = self.map_coeffs
        z = np.asarray(z, dtype=complex) if not np.isscalar(z) else z
        return (d * z - b) / (-c * z + a)

    def derivative(self, zeta):
        """T'(zeta) = (ad - bc)/(c zeta + d)^2."""
        a, b, c, d = self.map_coeffs
        return (a * d - b * c) / (c * zeta + d) ** 2

    def contains(self, z: complex) -> bool:
        return abs(self.inverse(complex(z))) < 1 - _INSIDE_TOL


UNIT_DISC = DomainSpec.unit_disc()


@dataclass(frozen=True)
class MarkedPoint:
    """An interpolation node z_j with Green weight p_j and jet data.

    Parameters
    ----------
    location : complex
        The point z_j; must lie strictly inside the domain.
    green_weight : float
        p_j > 0, half the Lelong coefficient of the Green term 2 p_j G(., z_j).
    jet_order : int
        k_j >= 0; the form must match ``jet_coeff * w^k dw`` through order k.
    jet_coeff : complex
        a_j, the prescribed leading Taylor coefficient in the local coordinate.
    coord_scale : complex
        lambda in the affine local coordinate w(z) = lambda (z - z_j);
        the default lambda = 1 matches w = z - z_j.
    """

    location: complex
    green_weight: float = 1.0
    jet_order: int = 0
    jet_coeff: complex = 1.0
    coord_scale: complex = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", _require_finite(self.location, "location"))
        object.__setattr__(self, "jet_coeff", _require_finite(self.jet_coeff, "jet_coeff"))
        object.__setattr__(self, "coord_scale", _require_finite(self.coord_scale, "coord_scale"))
        if not (self.green_weight > 0 and math.isfinite(self.green_weight)):
            raise BadInputError(f"green_weight must be > 0, got {self.green_weight}")
        if not (isinstance(self.jet_order, (int, np.integer)) and self.jet_order >= 0):
            raise BadInputError(f"jet_order must be an integer >= 0, got {self.jet_order}")
        if self.coord_scale == 0:
            raise BadInputError("degenerate local coordinate: zero derivative")


def check_marked_points(dom: DomainSpec, marked) -> None:
    """Validate locations: inside the domain and pairwise distinct."""
    pts = list(marked)
    for pt in pts:
        if not dom.contains(pt.location):
            raise DomainError(f"marked point {pt.location} lies outside the domain")
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i].location == pts[j].location:
                raise BadInputError(f"coincident marked points at {pts[i].location}")


# -- Green functions ---------------------------------------------------------

def green_disc_raw(z, z0, x=None):
    """Elementwise G(z, z0) on the unit disc, no domain checks.

    Returns -inf at z = z0; intended for vectorized interior use where the
    caller guarantees validity.  Given the offsets x = z - z0 it reads
    log|x| - log|1 - |z0|^2 - conj(z0) x|, exact however small x is.
    """
    z = np.asarray(z, dtype=complex)
    z0 = complex(z0)
    with np.errstate(divide="ignore"):
        if x is not None:
            return np.log(np.abs(x)) - np.log(np.abs((1 - (z0.real**2 + z0.imag**2))
                                                     - np.conj(z0) * x))
        return np.log(np.abs(z - z0)) - np.log(np.abs(1 - np.conj(z0) * z))


def green_disc(z: complex, z0: complex) -> float:
    """Green function of the unit disc, log|z - z0| - log|1 - conj(z0) z|.

    Strictly negative for distinct interior points; symmetric in (z, z0).
    """
    z = _require_finite(z, "z")
    z0 = _require_finite(z0, "z0")
    if abs(z) >= 1 or abs(z0) >= 1:
        raise DomainError("green_disc needs |z| < 1 and |z0| < 1")
    if z == z0:
        raise GreenPoleError(f"Green function pole at z = z0 = {z}")
    return math.log(abs(z - z0)) - math.log(abs(1 - z0.conjugate() * z))


def green_domain(dom: DomainSpec, z: complex, z0: complex) -> float:
    """G of a Moebius image domain via pullback: G_disc(T^-1 z, T^-1 z0)."""
    z = _require_finite(z, "z")
    z0 = _require_finite(z0, "z0")
    zeta = complex(dom.inverse(z))
    zeta0 = complex(dom.inverse(z0))
    if abs(zeta) >= 1 or abs(zeta0) >= 1:
        raise DomainError("point outside the domain")
    if zeta == zeta0:
        raise GreenPoleError(f"Green function pole at z = z0 = {z}")
    return green_disc(zeta, zeta0)


def blaschke_factor(z0: complex, z):
    """The disc factor (z - z0)/(1 - conj(z0) z), |.| = exp(G(., z0)).

    Accepts scalar or array ``z``.
    """
    z0 = complex(z0)
    if abs(z0) >= 1:
        raise DomainError("blaschke_factor needs |z0| < 1")
    if np.isscalar(z):
        return (complex(z) - z0) / (1 - z0.conjugate() * complex(z))
    z = np.asarray(z, dtype=complex)
    return (z - z0) / (1 - np.conj(z0) * z)


def blaschke_deriv(z0: complex, z):
    """d/dz of the Blaschke factor: (1 - |z0|^2)/(1 - conj(z0) z)^2."""
    z0 = complex(z0)
    if np.isscalar(z):
        return (1 - abs(z0) ** 2) / (1 - z0.conjugate() * complex(z)) ** 2
    z = np.asarray(z, dtype=complex)
    return (1 - abs(z0) ** 2) / (1 - np.conj(z0) * z) ** 2


def log_capacity(dom: DomainSpec, pt: MarkedPoint) -> float:
    """c_beta(z_j) = exp lim_{z->z_j} (G(z, z_j) - log|w(z)|).

    Computed from the closed form of G: with zeta coordinates and
    w(z) = s (z - z_j),

        lim (G - log|w|) = -log(1 - |zeta_j|^2) - log|s T'(zeta_j)|.
    """
    if not dom.contains(pt.location):
        raise DomainError(f"point {pt.location} outside the domain")
    zeta0 = complex(dom.inverse(pt.location))
    jac = abs(dom.derivative(zeta0))
    return 1.0 / ((1 - abs(zeta0) ** 2) * abs(pt.coord_scale) * jac)
