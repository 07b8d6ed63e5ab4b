"""Property test: every problem survives the file round trip unchanged.

Generated problems cover disc and Moebius domains, all three gain kinds,
explicit phi blocks, extra psi mass and signed zeros.  Loading a saved file
must give an equal problem, and saving that copy must give the same bytes.
"""
import math
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from jetmin.gain import GainFunction  # noqa: E402
from jetmin.geometry import DomainSpec, MarkedPoint  # noqa: E402
from jetmin.problems import Numerics, Problem, load_problem, save_problem  # noqa: E402
from jetmin.quadrature import QuadratureConfig  # noqa: E402
from jetmin.weights import WeightPair  # noqa: E402

SIGNED_ZERO = st.sampled_from([0.0, -0.0])


def reals(lo, hi):
    return st.one_of(SIGNED_ZERO, st.floats(lo, hi))


def complexes(lo=-1.0, hi=1.0):
    return st.builds(complex, reals(lo, hi), reals(lo, hi))


def nonzero_complexes():
    return complexes(-2.0, 2.0).filter(lambda z: abs(z) > 1e-3)


@st.composite
def domains(draw):
    if draw(st.booleans()):
        return DomainSpec.unit_disc()
    # |c| < 1/2 and d = 1 keep the pole -d/c outside the closed disc
    a = draw(nonzero_complexes().filter(lambda z: abs(z) > 0.5))
    b = draw(complexes(-0.5, 0.5))
    c = draw(complexes(-0.35, 0.35))
    return DomainSpec.moebius(a, b, c, complex(1.0, draw(SIGNED_ZERO)))


def place(dom, zeta):
    """A domain point from a disc point; the disc keeps zeta's signed zeros."""
    return zeta if dom.kind == "unit_disc" else complex(dom.forward(zeta))


@st.composite
def gains(draw):
    kind = draw(st.sampled_from(["constant", "exponential", "tabulated"]))
    if kind == "constant":
        return GainFunction.constant(draw(st.floats(0.1, 5.0)))
    if kind == "exponential":
        return GainFunction.exponential(draw(reals(-2.0, 0.9)))
    # log-slopes in [0, 0.9] keep c(t) e^{-t} non-increasing
    steps = draw(st.lists(st.floats(0.1, 2.0), min_size=1, max_size=4))
    grid_t = [0.0]
    for s in steps:
        grid_t.append(grid_t[-1] + s)
    log_c = [draw(reals(-1.0, 1.0))]
    for t0, t1 in zip(grid_t, grid_t[1:]):
        log_c.append(log_c[-1] + draw(st.floats(0.0, 0.9)) * (t1 - t0))
    return GainFunction.tabulated(grid_t, [math.exp(v) for v in log_c])


@st.composite
def problems(draw):
    dom = draw(domains())
    zetas = draw(st.lists(complexes(-0.6, 0.6), min_size=1, max_size=3))
    assume(all(abs(z - w) > 1e-3 for i, z in enumerate(zetas) for w in zetas[i + 1:]))
    marked = tuple(
        MarkedPoint(
            place(dom, z),
            green_weight=draw(st.floats(0.5, 3.0)),
            jet_order=draw(st.integers(0, 2)),
            jet_coeff=draw(complexes()),
            coord_scale=draw(nonzero_complexes()),
        )
        for z in zetas
    )
    phi = {}
    if draw(st.booleans()):
        phi = {
            "zeros": [(pt.location, draw(st.integers(1, 3))) for pt in marked],
            "leading": draw(nonzero_complexes()),
            "u_coeffs": draw(st.lists(complexes(), min_size=1, max_size=3)),
            "bump": draw(reals(0.0, 0.5)),
        }
    extra = [(place(dom, z), draw(st.floats(0.1, 2.0)))
             for z in draw(st.lists(complexes(-0.6, 0.6), max_size=2))]
    mesh = QuadratureConfig(
        angular=draw(st.integers(8, 512)),
        radial=draw(st.integers(8, 512)),
        patch_angular=draw(st.integers(8, 128)),
        patch_radial=draw(st.integers(8, 128)),
        levels=draw(st.sampled_from([1, 2])),
    )
    numerics = Numerics(
        N=draw(st.integers(0, 64)),
        r_count=draw(st.integers(5, 40)),
        tolerance=draw(st.floats(1e-12, 0.5)),
        mesh=mesh,
    )
    return Problem(
        domain=dom,
        weights=WeightPair.standard(marked, extra_psi=extra, **phi),
        gain=draw(gains()),
        numerics=numerics,
    )


@settings(max_examples=150, deadline=None)
@given(problems())
def test_problem_file_round_trip(p):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.json"), Path(tmp, "b.json")
        save_problem(p, first)
        q = load_problem(first)
        assert q == p
        save_problem(q, second)
        assert second.read_bytes() == first.read_bytes()
