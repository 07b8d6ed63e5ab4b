"""Problem files: domain + weights + gain + numerics, with a deterministic
JSON round trip and the stock configurations used by the test suite and CLI.

The dataclasses are the file format.  The reader takes the ``marked``,
``phi``, ``numerics`` and ``mesh`` blocks field by field, parsing each value
by its field's annotated type and passing only the keys the file holds, so
every default is the dataclass's own; weights always go through
``WeightPair.standard``.  A gain block takes only the keys its kind reads.
The writer emits those blocks from ``dataclasses.asdict`` with complex values
as ``[re, im]``.

Floats are emitted with 17 significant digits and sorted keys, so identical
problems produce byte-identical files and reports.  -0.0 is written as -0
and read back as -0.0, so a saved file survives a load and a second save
byte for byte.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import cache
from typing import get_args, get_origin, get_type_hints

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


def _str_in(v, what: str) -> str:
    if not isinstance(v, str):
        raise BadInputError(f"{what} must be a string, got {v!r}")
    return v


_SCALAR_IN = {int: _int_in, float: _float_in, complex: _c_in, str: _str_in}

# The GainFunction fields each gain kind reads; a gain block takes only these.
_GAIN_FIELDS = {"constant": ("value",), "exponential": ("rate",),
                "tabulated": ("grid_t", "grid_c")}


@cache
def _field_types(cls) -> dict:
    """Field name -> resolved annotated type of a dataclass."""
    return get_type_hints(cls)


def _list_in(v, what: str) -> list:
    if not isinstance(v, list):
        raise BadInputError(f"{what} must be a JSON list, got {v!r}")
    return v


def _require_keys(d, allowed: set, what: str) -> None:
    if not isinstance(d, dict):
        raise BadInputError(f"{what} must be a JSON object, got {d!r}")
    extra = set(d) - allowed
    if extra:
        raise BadInputError(f"unknown {what} keys: {sorted(extra)}")


def _json_out(v):
    """Dataclass field values as JSON values: complex as [re, im], tuples as lists."""
    if isinstance(v, complex):
        return _c_out(v)
    if isinstance(v, dict):
        return {k: _json_out(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_out(x) for x in v]
    return v


def _value_in(tp, v, what: str):
    """A JSON value parsed by the annotated type of the field it fills."""
    if is_dataclass(tp):
        return tp(**_fields_in(tp, v, what))
    if get_origin(tp) is tuple:
        args = get_args(tp)
        if args[-1] is Ellipsis:
            return tuple(_value_in(args[0], x, what) for x in _list_in(v, what))
        if not (isinstance(v, list) and len(v) == len(args)):
            raise BadInputError(f"{what}: expected a list of {len(args)} entries, got {v!r}")
        return tuple(_value_in(t, x, what) for t, x in zip(args, v))
    return _SCALAR_IN[tp](v, what)


def _fields_in(cls, d, what: str, names=None) -> dict:
    """Constructor arguments of dataclass ``cls`` from the keys the JSON object
    ``d`` holds, each parsed by its field's type; an absent key keeps the
    dataclass's default.  ``names`` narrows the accepted keys."""
    types = _field_types(cls)
    _require_keys(d, set(types if names is None else names), what)
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in d:
            raise BadInputError(f"{what} needs a {f.name}")
    return {k: _value_in(types[k], v, f"{what} {k}") for k, v in d.items()}


def problem_to_dict(p: Problem) -> dict:
    """Canonical dict form with every default written out."""
    dom: dict = {"kind": p.domain.kind}
    if p.domain.kind != "unit_disc":
        dom["map_coeffs"] = _json_out(p.domain.map_coeffs)
    gain = {"kind": p.gain.kind}
    gain.update({k: _json_out(getattr(p.gain, k)) for k in _GAIN_FIELDS[p.gain.kind]})
    w = _json_out(asdict(p.weights))
    return {
        "domain": dom,
        "marked": w["marked"],
        "psi_extra": w["psi"]["extra_terms"],
        "phi": w["phi"],
        "gain": gain,
        "numerics": _json_out(asdict(p.numerics)),
    }


def problem_from_dict(d: dict) -> Problem:
    """Build and fully validate a problem; rejects unknown keys.

    Each block is read by the fields of its dataclass, so a key the file
    leaves out takes that dataclass's default."""
    if not isinstance(d, dict):
        raise BadInputError("problem file must contain a JSON object")
    _require_keys(
        d, {"domain", "marked", "psi_extra", "phi", "gain", "numerics"}, "problem"
    )
    dom = _fields_in(DomainSpec, d.get("domain", {}), "domain")
    if dom.get("kind") == "moebius_image" and "map_coeffs" not in dom:
        raise BadInputError("a moebius_image domain needs map_coeffs")
    if "marked" not in d or not d["marked"]:
        raise BadInputError("problem file needs a nonempty marked list")
    marked = tuple(_value_in(MarkedPoint, m, "marked point")
                   for m in _list_in(d["marked"], "marked"))
    weights = _fields_in(PhiSpec, d.get("phi", {}), "phi")
    if "psi_extra" in d:
        extra = _field_types(PsiSpec)["extra_terms"]
        weights["extra_psi"] = _value_in(extra, d["psi_extra"], "psi_extra")
    gd = d.get("gain", {})
    _require_keys(gd, set(_field_types(GainFunction)), "gain")
    kind = gd.get("kind", GainFunction.kind)
    if not (isinstance(kind, str) and kind in _GAIN_FIELDS):
        raise BadInputError(f"unknown gain kind {kind!r}")
    gain = _fields_in(GainFunction, gd, f"{kind} gain", {"kind", *_GAIN_FIELDS[kind]})
    return Problem(
        domain=DomainSpec(**dom),
        weights=WeightPair.standard(marked, **weights),
        gain=GainFunction(**gain),
        numerics=_value_in(Numerics, d.get("numerics", {}), "numerics"),
    )


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


def _json_int(text: str):
    """A JSON integer; -0, which the writer prints for -0.0, stays -0.0."""
    return -0.0 if text == "-0" else int(text)


def load_problem(path) -> Problem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_int=_json_int)
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
