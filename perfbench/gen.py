"""Seeded problem files for the benchmark workloads.

The files are written by this module's own code (stdlib only), never by the
library's problem builders, so a change under ``src/`` cannot change the
inputs.  Only keys the problem loader accepts are emitted.  Every Moebius
problem is the exact transport of a disc problem: marked points are mapped
forward by T and carry ``coord_scale = 1/T'(zeta)``, so G, the bound and the
criterion witnesses equal those of the disc problem and the closed forms hold.

Each workload has a fixed composition (categories in a fixed order).  The
cost of an op follows the region's topology: how many points and how far
apart.  So every multi-point category puts its points near a ring of narrow
radius, with fixed jet orders, and the seed draws the rest: rotation, small
jitter, jet coefficients, Green weights, gain parameters and the Moebius map,
which costs nothing because the problem is pulled back to the disc.  An op's
cost then moves little from seed to seed, so a run's median op latency
measures the program, not the draw.  The closed-form references (transported
single points, the two-point family) keep their full parameter ranges.
"""
from __future__ import annotations

import cmath
import json
import math
import os
import random

APPENDIX_A = (-1.0 / 3.0, 0.25, 1.0, -1.0)  # the pinned cases `jetmin appendix` runs


def two_point_closed_form(a: complex) -> float:
    """G(0) of the two-point family under constant gain: 36 pi/5 |a - 1/2|^2 + pi."""
    return 36.0 * math.pi / 5.0 * abs(a - 0.5) ** 2 + math.pi


def single_point_closed_form(zeta0: complex, r: float) -> float:
    """G at level r for one unit-mass point with a unimodular first jet."""
    return 2.0 * math.pi * (1.0 - abs(zeta0) ** 2) ** 2 * r


def _c(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


class _Moebius:
    """T(zeta) = (a zeta + b)/(c zeta + d), injective on the closed disc."""

    def __init__(self, rng: random.Random):
        self.a = cmath.rect(rng.uniform(0.6, 1.8), rng.uniform(0, 2 * math.pi))
        self.b = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        self.c = cmath.rect(rng.uniform(0.05, 0.45), rng.uniform(0, 2 * math.pi))
        self.d = 1.0 + 0j  # pole at -1/c, |1/c| > 2; |ad - bc| >= 0.6 - 0.51

    def forward(self, zeta: complex) -> complex:
        return (self.a * zeta + self.b) / (self.c * zeta + self.d)

    def deriv(self, zeta: complex) -> complex:
        return (self.a * self.d - self.b * self.c) / (self.c * zeta + self.d) ** 2

    def as_dict(self) -> dict:
        return {"kind": "moebius_image",
                "map_coeffs": [_c(self.a), _c(self.b), _c(self.c), _c(self.d)]}


def _problem(points, gain: dict, moebius: _Moebius | None, N: int = 24) -> dict:
    """points: (zeta, green_weight, jet_order, jet_coeff) in disc coordinates."""
    marked = []
    for zeta, p, k, coeff in points:
        loc, scale = zeta, 1.0
        if moebius is not None:
            loc, scale = moebius.forward(zeta), 1.0 / moebius.deriv(zeta)
        marked.append({"location": _c(loc), "green_weight": p, "jet_order": k,
                       "jet_coeff": _c(coeff), "coord_scale": _c(scale)})
    return {
        "domain": moebius.as_dict() if moebius else {"kind": "unit_disc"},
        "marked": marked,
        "gain": gain,
        "numerics": {"N": N, "r_count": 17},
    }


def _ring(rng: random.Random, m: int, rmin: float, rmax: float,
          jitter: float = 0.04) -> list[complex]:
    """m points near a ring of radius in [rmin, rmax], at a random rotation."""
    radius = rng.uniform(rmin, rmax)
    phase = rng.uniform(0, 2 * math.pi)
    return [cmath.rect(radius * (1 + rng.uniform(-jitter, jitter)),
                       phase + 2 * math.pi * k / m + rng.uniform(-jitter, jitter))
            for k in range(m)]


def _jet_points(rng: random.Random, m: int, rmin: float, rmax: float):
    """Points on a ring with jet orders 1, 0, 1, ... and random coefficients."""
    out = []
    for k, z in enumerate(_ring(rng, m, rmin, rmax)):
        coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(coeff) < 0.2:
            coeff += 0.4
        out.append((z, rng.uniform(1.0, 1.4), 1 - k % 2, coeff))
    return out


def _gain(rng: random.Random, kind: str) -> dict:
    if kind == "constant":
        return {"kind": "constant", "value": rng.uniform(0.5, 2.0)}
    if kind == "exponential":
        return {"kind": "exponential", "rate": 0.5}
    # 5 knots, log-linear slopes in [0, 0.9] keep c(t) e^{-t} non-increasing
    grid_t = [0.0, 0.5, 1.0, 2.0, 4.0]
    logc = [rng.uniform(-0.3, 0.3)]
    for t0, t1 in zip(grid_t, grid_t[1:]):
        logc.append(logc[-1] + rng.uniform(0.0, 0.9) * (t1 - t0))
    return {"kind": "tabulated", "grid_t": grid_t, "grid_c": [math.exp(v) for v in logc]}


def _single(rng: random.Random, gain_kind: str) -> tuple[dict, complex]:
    zeta0 = cmath.rect(rng.uniform(0.0, 0.6), rng.uniform(0, 2 * math.pi))
    jet = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    prob = _problem([(zeta0, 1.0, 0, jet)], _gain(rng, gain_kind), _Moebius(rng))
    return prob, zeta0


def _two_point(rng: random.Random, a: complex, moebius: _Moebius | None) -> dict:
    pts = [(0j, 2.0, 1, 1.0), (0.5 + 0j, 1.0, 0, a)]
    return _problem(pts, {"kind": "constant", "value": 1.0}, moebius)


def _random_a(rng: random.Random) -> complex:
    # |3a + 1| >= 0.3 keeps the true gap far above any equality tolerance, so
    # the equality verdict is decided by the mathematics, not by the mesh
    while True:
        a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
        if abs(3 * a + 1) >= 0.3:
            return a


def scan_inputs(rng: random.Random) -> list[dict]:
    """Scan problems: (name, problem dict, closed-form reference or None).

    Two one-point ops (about 2.1 s and 2.6 s on a 2-vCPU Xeon), two two-point
    ops (about 3.6 s and 3.8 s) and a three-point op (about 5.2 s): the
    median op of a run falls among the two-point ops, whose costs are close,
    not in a gap between unlike ops.  The cycle puts the two-point ops apart
    in time, so a slow spell of the machine does not hit both.
    """
    singles, multi = [], []
    for gain_kind in ("exponential", "tabulated"):
        prob, zeta0 = _single(rng, gain_kind)
        singles.append({"name": f"transported-single-{gain_kind}", "problem": prob,
                        "reference": {"kind": "single_point", "zeta0": _c(zeta0)}})
    for name, m, rmin, rmax, gain_kind, moebius in (
        ("disc-2pt-constant", 2, 0.30, 0.34, "constant", False),
        ("moebius-2pt-exponential", 2, 0.30, 0.34, "exponential", True),
        ("disc-3pt-tabulated", 3, 0.36, 0.40, "tabulated", False),
    ):
        mob = _Moebius(rng) if moebius else None
        multi.append({"name": name,
                      "problem": _problem(_jet_points(rng, m, rmin, rmax),
                                          _gain(rng, gain_kind), mob),
                      "reference": None})
    return [multi[0], singles[0], multi[2], multi[1], singles[1]]


def suita_inputs(rng: random.Random) -> list[dict]:
    """Suita problems: transported two-point family, rings m = 2..6, random N."""
    items = []
    for a in [-1.0 / 3.0] + [_random_a(rng) for _ in range(3)]:
        items.append({"name": "transported-two-point",
                      "problem": _two_point(rng, a, _Moebius(rng)),
                      "reference": {"kind": "two_point", "a": _c(a)}})
    for m in range(2, 7):
        radius = rng.uniform(0.42, 0.46)
        phase = rng.uniform(0, 2 * math.pi)
        pts = [(cmath.rect(radius, phase + 2 * math.pi * j / m), 1.0, 0, 1.0)
               for j in range(m)]
        # exponential gain keeps the ring off the closed-form Gram path
        items.append({"name": f"ring-{m}",
                      "problem": _problem(pts, _gain(rng, "exponential"), None),
                      "reference": None})
    for N, m, gain_kind, moebius in ((16, 3, "tabulated", True), (24, 2, "constant", False),
                                     (40, 4, "exponential", True)):
        mob = _Moebius(rng) if moebius else None
        pts = _jet_points(rng, m, 0.40, 0.44)
        items.append({"name": f"random-N{N}",
                      "problem": _problem(pts, _gain(rng, gain_kind), mob, N=N),
                      "reference": None})
    return items


def write_problem(prob: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(prob, fh, sort_keys=True, indent=1)
    return path


def cli_inputs(rng: random.Random, out_dir: str) -> list[dict]:
    """The four commands, with their problem files written to out_dir."""
    a = _random_a(rng)
    tp = write_problem(_two_point(rng, a, None), os.path.join(out_dir, "cli_two_point.json"))
    # the mass and orthogonality identities need p > 2 at every point
    lemma_pts = [(z, rng.uniform(2.2, 4.0), 0, 1.0) for z in _ring(rng, 2, 0.30, 0.34)]
    lm = write_problem(_problem(lemma_pts, {"kind": "constant", "value": 1.0}, None),
                       os.path.join(out_dir, "cli_lemmas.json"))
    z0 = cmath.rect(rng.uniform(0.0, 0.8), rng.uniform(0, 2 * math.pi))
    return [
        {"name": "appendix", "argv": ["appendix"], "paths": [], "g_count": len(APPENDIX_A)},
        {"name": "suita", "argv": ["suita", tp], "paths": [tp], "g_count": 1, "a": _c(a)},
        {"name": "verify-lemmas", "argv": ["verify-lemmas", lm], "paths": [lm], "g_count": 0},
        # --z0=VALUE: a value starting with '-' would otherwise parse as an option
        {"name": "capacity", "argv": ["capacity", f"--z0={repr(z0).strip('()')}"],
         "paths": [], "g_count": 0, "z0": _c(z0)},
    ]


def generate(workload: str, seed: int, out_dir: str) -> list[dict]:
    """Write the workload's problem files; return its op list (one cycle)."""
    rng = random.Random(f"jetmin-bench/{workload}/{seed}")
    os.makedirs(out_dir, exist_ok=True)
    if workload == "cli":
        return cli_inputs(rng, out_dir)
    if workload not in ("scan", "suita"):
        raise ValueError(f"unknown workload {workload!r}")
    items = scan_inputs(rng) if workload == "scan" else suita_inputs(rng)
    for i, it in enumerate(items):
        path = os.path.join(out_dir, f"{workload}_{i:02d}.json")
        it["paths"] = [write_problem(it["problem"], path)]
    return items
