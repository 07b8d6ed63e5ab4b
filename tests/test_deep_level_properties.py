"""Property test: G at deep levels of several points against a chart-local oracle.

oracles.fan_reference integrates each component of {psi < -t} from rays
cast from its point in offset coordinates, bisected in log r to the level,
so it resolves a level 1e-80 wide as well as one 1e-2 wide.  With order-0
jets at N = n - 1 the extremal is the unique Lagrange interpolant, so G is
that integral.  The levels drawn lie above the highest saddle value of psi
(oracles.saddle_level), where each component holds one point, and inside
the half reach of every patch fan, where the patch fans carry them whole:
from there down to t = 200 the library's G must lie within
max(10 quad_error, 1e-9 G) of the oracle.  (Shallower levels reach the
global rays, whose two-level estimate can under-report a near-tangency
error; that is left to the error budget, ROADMAP item 3.)
"""
import cmath
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from jetmin.errors import BadInputError  # noqa: E402
from jetmin.gain import GainFunction  # noqa: E402
from jetmin.geometry import UNIT_DISC, MarkedPoint  # noqa: E402
from jetmin.quadrature import PatchSpec, _fan_reaches  # noqa: E402
from jetmin.solver import minimal_integrals  # noqa: E402
from jetmin.weights import WeightKernel, WeightPair  # noqa: E402
from oracles import fan_reference, saddle_level  # noqa: E402

TABULATED = GainFunction.tabulated([0.0, 6.0, 9.0], [math.exp(x) for x in (0.0, 4.8, 5.4)])
T_MAX = 200.0


def gains():
    return st.one_of(st.floats(0.25, 4.0).map(GainFunction.constant),
                     st.floats(-0.5, 0.9).map(GainFunction.exponential),
                     st.just(TABULATED))


@st.composite
def marked_points(draw):
    """2 to 4 points with |z| <= 0.9, at least 0.1 apart, p in [0.5, 3] and
    order-0 jet values of modulus 0.5 to 2."""
    pts = []
    for _ in range(draw(st.integers(2, 4))):
        z = draw(st.floats(0.0, 0.9)) * cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
        assume(all(abs(z - q.location) >= 0.1 for q in pts))
        value = draw(st.floats(0.5, 2.0)) * cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
        pts.append(MarkedPoint(z, green_weight=draw(st.floats(0.5, 3.0)), jet_coeff=value))
    return tuple(pts)


def fan_level(w):
    """The least t whose level lies inside the half reach of every patch
    fan: the largest -psi on the circles |zeta - z_j| = R_j / 2."""
    locs = [pt.location for pt in w.marked]
    psi = WeightKernel(UNIT_DISC, w).psi
    circle = np.exp(2j * math.pi / 512 * np.arange(512))
    return max(float(np.max(-psi(0.5 * r * circle, c)))
               for c, r in zip(locs, _fan_reaches([PatchSpec(center=c) for c in locs])))


@settings(max_examples=25, deadline=None)
@given(pts=marked_points(), g=gains(),
       lifts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2))
def test_deep_levels_match_the_chart_local_oracle(pts, g, lifts):
    w = WeightPair.standard(pts)
    t_low = max(saddle_level([(pt.location, pt.green_weight) for pt in pts]),
                fan_level(w))
    assume(t_low < T_MAX)
    ts = [t_low * (T_MAX / t_low) ** u for u in lifts]  # log-uniform from t_low to T_MAX
    try:
        refs = [fan_reference(w, g, t) for t in ts]
    except BadInputError:
        assume(False)  # a component that is not star-shaped about its point
    for t, res, ref in zip(ts, minimal_integrals(UNIT_DISC, w, g, ts, N=len(pts) - 1), refs):
        assert res.diagnostics["gram_path"] == "quadrature"
        tol = max(10 * res.diagnostics["quadrature_error"], 1e-9 * ref)
        assert abs(res.value - ref) <= tol, (t, res.value, ref)
