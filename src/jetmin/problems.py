"""Problem files: domain + weights + gain + numerics, with a deterministic
JSON round trip and the stock configurations used by the test suite and CLI.

Floats are emitted with 17 significant digits and sorted keys, so identical
problems produce byte-identical files and reports.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadInputError
from .gain import GainFunction
from .geometry import DomainSpec, MarkedPoint, check_marked_points
from .quadrature import QuadratureConfig
from .weights import PhiSpec, PsiSpec, WeightPair


@dataclass(frozen=True)
class Numerics:
    """Truncation degree, scan resolution, mesh, and report tolerance."""

    N: int = 24
    r_count: int = 17
    tolerance: float = 1e-6
    mesh: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self) -> None:
        if self.N < 0:
            raise BadInputError("truncation degree N must be >= 0")
        if self.r_count < 5:
            raise BadInputError("scans need r_count >= 5")
        if not (0 < self.tolerance < 1):
            raise BadInputError("tolerance must lie in (0, 1)")


@dataclass(frozen=True)
class Problem:
    """A complete minimal-integral configuration."""

    domain: DomainSpec
    weights: WeightPair
    gain: GainFunction
    numerics: Numerics = field(default_factory=Numerics)

    def __post_init__(self) -> None:
        check_marked_points(self.domain, self.weights.marked)


# -- JSON round trip ---------------------------------------------------------

def _c_out(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _float_in(v, what: str) -> float:
    """A real number field; bools, strings and null are rejected."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise BadInputError(f"{what} must be a number, got {v!r}")
    return float(v)


def _int_in(v, what: str) -> int:
    """An integer field; an integral float such as 24.0 is accepted, 24.7 is not."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise BadInputError(f"{what} must be an integer, got {v!r}")
    return v


def _c_in(v, what: str = "complex value") -> complex:
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(_float_in(v[0], what), _float_in(v[1], what))
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise BadInputError(f"{what}: expected a number or [re, im] pair, got {v!r}")
    return complex(v)


def _list_in(v, what: str) -> list:
    if not isinstance(v, list):
        raise BadInputError(f"{what} must be a JSON list, got {v!r}")
    return v


def _pairs_in(v, what: str) -> list:
    """A JSON list of two-entry lists."""
    for item in _list_in(v, what):
        if not (isinstance(item, list) and len(item) == 2):
            raise BadInputError(f"{what} entries must be pairs, got {item!r}")
    return v


def _require_keys(d, allowed: set, what: str) -> None:
    if not isinstance(d, dict):
        raise BadInputError(f"{what} must be a JSON object, got {d!r}")
    extra = set(d) - allowed
    if extra:
        raise BadInputError(f"unknown {what} keys: {sorted(extra)}")


def problem_to_dict(p: Problem) -> dict:
    """Canonical dict form with every default written out."""
    dom: dict = {"kind": p.domain.kind}
    if p.domain.kind != "unit_disc":
        dom["map_coeffs"] = [_c_out(w) for w in p.domain.map_coeffs]
    gain: dict = {"kind": p.gain.kind}
    if p.gain.kind == "constant":
        gain["value"] = p.gain.value
    elif p.gain.kind == "exponential":
        gain["rate"] = p.gain.rate
    else:
        gain["grid_t"] = list(p.gain.grid_t)
        gain["grid_c"] = list(p.gain.grid_c)
    w = p.weights
    return {
        "domain": dom,
        "marked": [
            {
                "location": _c_out(pt.location),
                "green_weight": pt.green_weight,
                "jet_order": pt.jet_order,
                "jet_coeff": _c_out(pt.jet_coeff),
                "coord_scale": _c_out(pt.coord_scale),
            }
            for pt in w.marked
        ],
        "psi_extra": [[_c_out(loc), coeff] for loc, coeff in w.psi.extra_terms],
        "phi": {
            "zeros": [[_c_out(loc), m] for loc, m in w.phi.zeros],
            "leading": _c_out(w.phi.leading),
            "u_coeffs": [_c_out(c) for c in w.phi.u_coeffs],
            "bump": w.phi.bump,
        },
        "gain": gain,
        "numerics": {
            "N": p.numerics.N,
            "r_count": p.numerics.r_count,
            "tolerance": p.numerics.tolerance,
            "mesh": {
                "angular": p.numerics.mesh.angular,
                "radial": p.numerics.mesh.radial,
                "patch_angular": p.numerics.mesh.patch_angular,
                "patch_radial": p.numerics.mesh.patch_radial,
                "levels": p.numerics.mesh.levels,
            },
        },
    }


def problem_from_dict(d: dict) -> Problem:
    """Build and fully validate a problem; rejects unknown keys."""
    if not isinstance(d, dict):
        raise BadInputError("problem file must contain a JSON object")
    _require_keys(
        d, {"domain", "marked", "psi_extra", "phi", "gain", "numerics"}, "problem"
    )
    dom_d = d.get("domain", {"kind": "unit_disc"})
    _require_keys(dom_d, {"kind", "map_coeffs"}, "domain")
    kind = dom_d.get("kind", "unit_disc")
    mc = dom_d.get("map_coeffs", [1.0, 0.0, 0.0, 1.0] if kind == "unit_disc" else None)
    if not (isinstance(mc, list) and len(mc) == 4):
        raise BadInputError("domain map_coeffs needs 4 entries")
    dom = DomainSpec(kind=kind, map_coeffs=tuple(_c_in(v, "map_coeffs") for v in mc))
    if "marked" not in d or not d["marked"]:
        raise BadInputError("problem file needs a nonempty marked list")
    marked = []
    for m in _list_in(d["marked"], "marked"):
        _require_keys(
            m,
            {"location", "green_weight", "jet_order", "jet_coeff", "coord_scale"},
            "marked point",
        )
        if "location" not in m:
            raise BadInputError("marked point needs a location")
        marked.append(
            MarkedPoint(
                location=_c_in(m["location"], "location"),
                green_weight=_float_in(m.get("green_weight", 1.0), "green_weight"),
                jet_order=_int_in(m.get("jet_order", 0), "jet_order"),
                jet_coeff=_c_in(m.get("jet_coeff", 1.0), "jet_coeff"),
                coord_scale=_c_in(m.get("coord_scale", 1.0), "coord_scale"),
            )
        )
    marked = tuple(marked)
    extra = tuple((_c_in(loc, "psi_extra location"), _float_in(c, "psi_extra coefficient"))
                  for loc, c in _pairs_in(d.get("psi_extra", []), "psi_extra"))
    if "phi" in d:
        ph = d["phi"]
        _require_keys(ph, {"zeros", "leading", "u_coeffs", "bump"}, "phi")
        default_zeros = [[_c_out(pt.location), pt.jet_order + 1] for pt in marked]
        phi = PhiSpec(
            zeros=tuple((_c_in(loc, "phi zero location"), _int_in(m, "phi zero order"))
                        for loc, m in _pairs_in(ph.get("zeros", default_zeros), "phi zeros")),
            leading=_c_in(ph.get("leading", 1.0), "phi leading"),
            u_coeffs=tuple(_c_in(c, "phi u_coeffs")
                           for c in _list_in(ph.get("u_coeffs", [0.0]), "phi u_coeffs")),
            bump=_float_in(ph.get("bump", 0.0), "phi bump"),
        )
        weights = WeightPair(
            marked=marked,
            psi=PsiSpec(
                green_terms=tuple((pt.location, 2.0 * pt.green_weight) for pt in marked),
                extra_terms=extra,
            ),
            phi=phi,
        )
    else:
        weights = WeightPair.standard(marked, extra_psi=extra)
    gd = d.get("gain", {"kind": "constant", "value": 1.0})
    _require_keys(gd, {"kind", "value", "rate", "grid_t", "grid_c"}, "gain")
    kind = gd.get("kind", "constant")
    if kind == "constant":
        gain = GainFunction.constant(_float_in(gd.get("value", 1.0), "gain value"))
    elif kind == "exponential":
        gain = GainFunction.exponential(_float_in(gd.get("rate", 0.0), "gain rate"))
    elif kind == "tabulated":
        gain = GainFunction.tabulated(
            [_float_in(x, "gain grid_t") for x in _list_in(gd.get("grid_t", []), "gain grid_t")],
            [_float_in(x, "gain grid_c") for x in _list_in(gd.get("grid_c", []), "gain grid_c")],
        )
    else:
        raise BadInputError(f"unknown gain kind {kind!r}")
    nd = d.get("numerics", {})
    _require_keys(nd, {"N", "r_count", "tolerance", "mesh"}, "numerics")
    md = nd.get("mesh", {})
    _require_keys(
        md, {"angular", "radial", "patch_angular", "patch_radial", "levels"}, "mesh"
    )
    base_mesh = QuadratureConfig()
    mesh = QuadratureConfig(**{
        key: _int_in(md.get(key, getattr(base_mesh, key)), f"mesh {key}")
        for key in ("angular", "radial", "patch_angular", "patch_radial", "levels")
    })
    numerics = Numerics(
        N=_int_in(nd.get("N", 24), "N"),
        r_count=_int_in(nd.get("r_count", 17), "r_count"),
        tolerance=_float_in(nd.get("tolerance", 1e-6), "tolerance"),
        mesh=mesh,
    )
    return Problem(domain=dom, weights=weights, gain=gain, numerics=numerics)


def dump_json(obj) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    out: list[str] = []
    _dump(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _dump(obj, out: list[str], depth: int) -> None:
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, k in enumerate(sorted(obj)):
            if not isinstance(k, str):
                raise BadInputError("JSON object keys must be strings")
            out.append(f"{inner}{json.dumps(k)}: ")
            _dump(obj[k], out, depth + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        flat = all(isinstance(x, (bool, int, float, str)) for x in items)
        if flat:
            out.append("[")
            for i, x in enumerate(items):
                _dump(x, out, depth)
                if i + 1 < len(items):
                    out.append(", ")
            out.append("]")
        else:
            out.append("[\n")
            for i, x in enumerate(items):
                out.append(inner)
                _dump(x, out, depth + 1)
                out.append(",\n" if i + 1 < len(items) else "\n")
            out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise BadInputError(f"cannot serialize non-finite float {x}")
        out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, complex):
        _dump(_c_out(obj), out, depth)
    else:
        raise BadInputError(f"cannot serialize {type(obj).__name__} to JSON")


def load_problem(path) -> Problem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise BadInputError(f"invalid JSON in {path}: {exc}") from exc
    return problem_from_dict(data)


def save_problem(p: Problem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(problem_to_dict(p)))


# -- stock configurations ----------------------------------------------------

def single_point_problem(numerics: Numerics | None = None) -> Problem:
    """Unit point mass at the origin with a first-jet value: the classical
    equality case."""
    w = WeightPair.standard(
        (MarkedPoint(0.0, green_weight=1.0, jet_order=0, jet_coeff=1.0),)
    )
    return Problem(
        domain=DomainSpec.unit_disc(),
        weights=w,
        gain=GainFunction.constant(1.0),
        numerics=numerics or Numerics(N=12),
    )


def two_point_problem(a, numerics: Numerics | None = None) -> Problem:
    """Points 0 (p=2, first-order jet 1) and 1/2 (p=1, value a)."""
    w = WeightPair.standard(
        (
            MarkedPoint(0.0, green_weight=2.0, jet_order=1, jet_coeff=1.0),
            MarkedPoint(0.5, green_weight=1.0, jet_order=0, jet_coeff=a),
        )
    )
    return Problem(
        domain=DomainSpec.unit_disc(),
        weights=w,
        gain=GainFunction.constant(1.0),
        numerics=numerics or Numerics(),
    )


def eps_bump_problem(eps: float = 0.1, numerics: Numerics | None = None) -> Problem:
    """Single point with a strictly subharmonic eps |z|^2 term in phi + psi;
    the linearity characterization fails structurally."""
    w = WeightPair.standard(
        (MarkedPoint(0.0, green_weight=1.0, jet_order=0, jet_coeff=1.0),), bump=eps
    )
    return Problem(
        domain=DomainSpec.unit_disc(),
        weights=w,
        gain=GainFunction.constant(1.0),
        numerics=numerics or Numerics(N=12),
    )


def ring_problem(m: int, radius: float = 0.5, numerics: Numerics | None = None) -> Problem:
    """m equally spaced unit-mass points on a centered circle, equal data."""
    if m < 1:
        raise BadInputError("ring family needs m >= 1")
    if not (0 < radius < 1):
        raise BadInputError("ring radius must lie in (0, 1)")
    pts = tuple(
        MarkedPoint(
            radius * np.exp(2j * np.pi * j / m),
            green_weight=1.0,
            jet_order=0,
            jet_coeff=1.0,
        )
        for j in range(m)
    )
    return Problem(
        domain=DomainSpec.unit_disc(),
        weights=WeightPair.standard(pts),
        gain=GainFunction.constant(1.0),
        numerics=numerics or Numerics(N=max(24, 4 * m)),
    )


def random_concavity_problem(seed: int, numerics: Numerics | None = None) -> Problem:
    """Randomized configuration for the concavity property suite: 2 to 4
    separated points, weights in [0.5, 3], jets of order <= 1.

    Points reach |z| = 0.6, where degree-16 truncation bias is visible next
    to the quadrature error estimate; the default degree stays at 24."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    locs: list[complex] = []
    while len(locs) < m:
        z = complex(rng.uniform(-0.55, 0.55), rng.uniform(-0.55, 0.55))
        if abs(z) < 0.6 and all(abs(z - q) > 0.25 for q in locs):
            locs.append(z)
    pts = []
    for z in locs:
        k = int(rng.integers(0, 2))
        coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(coeff) < 0.2:
            coeff += 0.4
        pts.append(
            MarkedPoint(
                z,
                green_weight=float(rng.uniform(0.5, 3.0)),
                jet_order=k,
                jet_coeff=coeff,
            )
        )
    gain = (
        GainFunction.constant(1.0)
        if rng.integers(0, 2) == 0
        else GainFunction.exponential(0.5)
    )
    return Problem(
        domain=DomainSpec.unit_disc(),
        weights=WeightPair.standard(tuple(pts)),
        gain=gain,
        numerics=numerics or Numerics(),
    )
