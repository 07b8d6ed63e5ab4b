"""Quadrature mesh settings and singular-center descriptors.

These small dataclasses are all that problem files, the solver and the
closed-form paths need of the quadrature layer, so they live apart from the
engine (``quadrature``), which is imported only when a region is built.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

from .errors import BadInputError


@dataclass(frozen=True)
class PatchSpec:
    """A singular center of the weighted integrand, in disc coordinates.

    ``order`` is the vanishing order factored out of basis products there;
    ``exponent`` is the local radial power of the full product integrand,
    which must exceed -2 for integrability.
    """

    center: complex
    order: int = 0
    exponent: float = 0.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Mesh sizes: global rays and radial budget, patch fan rays and radial
    budget, levels.

    ``levels`` is 1 (fine mesh only) or 2 (plus the half-resolution mesh that
    gives the error estimate).  ``halved`` halves every count down to the
    floors (32, 40, 16, 16), so a two-level mesh needs every count above its
    floor; at a floor the two meshes would be one and the estimate 0.  The
    half-resolution fans cast their rays at (k + 1/4) 2 pi / m, every other
    ray of a fine fan of 2m rays, and take the fine mesh's cuts on them (a
    count that is not halved exactly, 40 -> 32, is cut in one search over
    the union of both meshes' rays); their radial panels and tangency
    sub-rays are their own.  G comes from the fine mesh alone, so it does
    not depend on ``levels``.

    ``radial`` is about the number of radial nodes across one level on one
    global ray, in Gauss-Legendre panels of 10 nodes.  64 suffices because
    the rays are cut at every level and gain knot, so each panel sees a
    smooth integrand (128 moves G by at most about 2e-11 relative); panel
    counts round up, and a piece in a patch's blending annulus gets at
    least 2 panels, so the coarse level (40, the floor) still resolves the
    blending mask there.

    ``patch_angular`` is the number of rays of a patch fan.  Along each
    circle about its center the fan is a periodic trapezoid rule, whose
    error falls geometrically with the count (Trefethen & Weideman, SIAM
    Review 2014): 32 rays give G of 128 to rounding.  ``patch_radial`` / 8,
    rounded up, is the number of panels across one level on a fan ray, so
    the default 32 gives 4 and the coarse floor 16 gives 2.  Fan rays are
    cut at every level, gain knot and half reach, and the panel at the pole
    integrates its power exactly, so 16 gives G of 256 to rounding on a
    smooth gain.

    Every field is an integer (a numpy integer is taken as a plain int); a
    float or a bool is refused, since a fractional ray count would space
    the rays of a fan so that they overlap the circle.
    """

    angular: int = 256
    radial: int = 64
    patch_angular: int = 32
    patch_radial: int = 32
    levels: int = 2

    def __post_init__(self) -> None:
        for name in ("angular", "radial", "patch_angular", "patch_radial", "levels"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise BadInputError(f"quadrature {name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if min(self.angular, self.radial, self.patch_angular, self.patch_radial) < 8:
            raise BadInputError("quadrature mesh counts must be >= 8")
        if self.levels not in (1, 2):
            raise BadInputError(
                f"quadrature levels must be 1 (no error estimate) or 2, got {self.levels!r}")

    def halved(self) -> "QuadratureConfig":
        return replace(
            self,
            angular=max(32, self.angular // 2),
            radial=max(40, self.radial // 2),
            patch_angular=max(16, self.patch_angular // 2),
            patch_radial=max(16, self.patch_radial // 2),
        )
