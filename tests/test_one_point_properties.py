"""Property test: one point anywhere in the disc meets its closed form.

One marked point under the trivial weight has G(t) = 2 pi (1 - |zeta0|^2)^2
h(t) for every gain (the optimal-jets bound, attained).  The solver works in
the chart that puts the point at zeta = 0, where the Gram is closed-form, so
this holds to rounding however close to the circle the point lies.  The
quadrature Gram in that chart (oracles.quadrature_minima) must meet it too,
to its own error estimate.
"""
import cmath
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from jetmin.gain import GainFunction, eval_h  # noqa: E402
from jetmin.geometry import UNIT_DISC, MarkedPoint  # noqa: E402
from jetmin.solver import minimal_integrals  # noqa: E402
from jetmin.weights import WeightPair, disc_chart  # noqa: E402
from oracles import quadrature_minima  # noqa: E402

TABULATED = GainFunction.tabulated([0.0, 0.5, 1.0, 2.0, 4.0],
                                   [math.exp(x) for x in (0.0, 0.4, 0.8, 1.6, 3.2)])


def gains():
    return st.one_of(st.floats(0.25, 4.0).map(GainFunction.constant),
                     st.floats(0.0, 0.8).map(GainFunction.exponential),
                     st.just(TABULATED))


@settings(max_examples=40, deadline=None)
@given(modulus=st.floats(0.0, 0.9999), angle=st.floats(-math.pi, math.pi), g=gains(),
       ts=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=3))
def test_one_point_meets_its_closed_form(modulus, angle, g, ts):
    zeta0 = modulus * cmath.exp(1j * angle)
    w = WeightPair.standard((MarkedPoint(zeta0),))
    oracle = quadrature_minima(disc_chart(UNIT_DISC, w), w, g, ts, 8)
    for t, res, ref in zip(ts, minimal_integrals(UNIT_DISC, w, g, ts, N=8), oracle):
        exact = 2 * math.pi * (1 - abs(zeta0) ** 2) ** 2 * eval_h(g, t)
        for r in (res, ref):
            tol = max(1e-10, 10 * r.diagnostics["quadrature_error"] / exact)
            assert abs(r.value - exact) <= tol * exact
