"""Gain profiles: evaluation, leftover mass, inversion, tail ratio probe."""
import math
import sys

import numpy as np
import pytest

from jetmin.errors import BadInputError, NumericalError
from jetmin.gain import (
    TAG_INF,
    TAG_ONE,
    TAG_ZERO,
    GainFunction,
    _tail_integral,
    class_p_margin,
    eval_c,
    eval_h,
    eval_log_c,
    invert_h,
    ratio_probe,
)
from jetmin.geometry import MarkedPoint
from jetmin.solver import extension_bound
from jetmin.weights import WeightPair


def test_constant_eval():
    g = GainFunction.constant(1.0)
    assert eval_c(g, 5.0) == 1.0
    assert eval_h(g, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert eval_h(g, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-14)


def test_constant_scaled():
    g = GainFunction.constant(3.5)
    assert eval_c(g, 1.0) == 3.5
    assert eval_h(g, 1.5) == pytest.approx(3.5 * math.exp(-1.5), rel=1e-14)


def test_exponential_eval():
    g = GainFunction.exponential(0.5)
    assert eval_c(g, 2.0) == pytest.approx(math.e, rel=1e-14)
    assert eval_h(g, 1.0) == pytest.approx(math.exp(-0.5) / 0.5, rel=1e-13)


def test_exponential_rate_validation():
    with pytest.raises(BadInputError):
        GainFunction.exponential(1.0)
    with pytest.raises(BadInputError):
        GainFunction.exponential(1.5)


def test_eval_c_requires_positive_argument():
    g = GainFunction.constant(1.0)
    with pytest.raises(BadInputError):
        eval_c(g, 0.0)
    with pytest.raises(BadInputError):
        eval_c(g, -1.0)


def test_nan_is_not_a_valid_t():
    g = GainFunction.constant(1.0)
    w = WeightPair.standard((MarkedPoint(0.0),))
    for call in (lambda: eval_c(g, math.nan), lambda: eval_h(g, math.nan),
                 lambda: extension_bound(w, g, math.nan)):
        with pytest.raises(BadInputError):
            call()


def test_tabulated_interpolates_log_linearly():
    ts = np.array([0.5, 1.0, 2.0, 4.0])
    g = GainFunction.tabulated(ts, np.exp(0.3 * ts))
    # log-linear interpolation reproduces an exponential exactly between knots
    assert eval_c(g, 1.5) == pytest.approx(math.exp(0.45), rel=1e-13)
    # constant extension outside the grid
    assert eval_c(g, 0.1) == pytest.approx(math.exp(0.15), rel=1e-13)
    assert eval_c(g, 9.0) == pytest.approx(math.exp(1.2), rel=1e-13)


def test_tabulated_flat_h_matches_closed_form():
    ts = np.linspace(0.01, 30.0, 400)
    g = GainFunction.tabulated(ts, np.ones_like(ts))
    assert eval_h(g, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-8)
    # c = e^{0.3 t} on [0.5, 4], held at e^{0.15} below and e^{1.2} above
    ts = np.array([0.5, 1.0, 2.0, 4.0])
    g = GainFunction.tabulated(ts, np.exp(0.3 * ts))

    def h_exact(t):
        if t >= 4.0:
            return math.exp(1.2 - t)
        body = (math.exp(-0.7 * max(t, 0.5)) - math.exp(-2.8)) / 0.7 + math.exp(-2.8)
        if t >= 0.5:
            return body
        return math.exp(0.15) * (math.exp(-t) - math.exp(-0.5)) + body

    for t in (0.0, 0.2, 1.0, 1.5, 4.0, 5.0):
        assert eval_h(g, t) == pytest.approx(h_exact(t), rel=1e-13)
    # c = e^t on [0, 1]: the integrand c e^{-t} is flat there
    g = GainFunction.tabulated([0.0, 1.0], [1.0, math.e])
    assert eval_h(g, 0.25) == pytest.approx(1.75, rel=1e-13)


def test_class_p_rejects_growing_profile():
    ts = np.linspace(0.1, 5.0, 40)
    with pytest.raises(BadInputError):
        GainFunction.tabulated(ts, np.exp(1.5 * ts))


def test_class_p_margin_values():
    assert class_p_margin(GainFunction.constant(2.0)) == 0.0
    assert class_p_margin(GainFunction.exponential(0.25)) == 0.0
    ts = np.linspace(0.1, 8.0, 60)
    assert class_p_margin(GainFunction.tabulated(ts, 1.0 / (1.0 + ts))) >= 0.0


def test_class_p_checks_every_knot_interval():
    # c e^{-t} rises from 6.7380e-3 to 6.7650e-3 on [5, 5.001] only
    with pytest.raises(BadInputError):
        GainFunction.tabulated((0.0, 5.0, 5.001, 10.0),
                               (1.0, 1.0, math.exp(0.005), math.exp(0.005)))
    # slope of log c exactly 1: c e^{-t} is constant on [0, 1], still admissible
    g = GainFunction.tabulated((0.0, 1.0), (1.0, math.e))
    assert class_p_margin(g) >= -1e-12


def test_tabulated_validation():
    with pytest.raises(BadInputError):
        GainFunction.tabulated([1.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    with pytest.raises(BadInputError):
        GainFunction.tabulated([1.0, 2.0], [1.0, -1.0])
    with pytest.raises(BadInputError):
        GainFunction.tabulated([1.0], [1.0])


def test_invert_constant():
    g = GainFunction.constant(1.0)
    assert invert_h(g, 0.5) == pytest.approx(math.log(2.0), abs=1e-10)


def test_invert_exponential():
    g = GainFunction.exponential(0.5)
    assert invert_h(g, 1.0) == pytest.approx(2.0 * math.log(2.0), abs=1e-10)


def test_invert_round_trip():
    ts = np.array([0.5, 1.0, 2.0, 4.0])
    profiles = [
        GainFunction.constant(1.0),
        GainFunction.constant(0.3),
        GainFunction.exponential(0.5),
        GainFunction.exponential(0.9),
        GainFunction.tabulated(ts, np.exp(0.3 * ts)),
        GainFunction.tabulated([0.2, 1.0, 2.0], [2.0, 1.0, 0.5]),
    ]
    for g in profiles:
        for t in (0.1, 1.0, 5.0):
            r = eval_h(g, t)
            assert invert_h(g, r) == pytest.approx(t, abs=1e-10)


@pytest.mark.parametrize("g", [
    GainFunction.constant(1.0),
    GainFunction.constant(0.3),
    GainFunction.exponential(-1.0),
    GainFunction.exponential(0.5),
    GainFunction.exponential(0.99),
    GainFunction.exponential(0.9999999),
    GainFunction.tabulated([0.0, 0.5, 1.0, 2.0, 4.0], [1.0, 1.2, 1.3, 2.0, 2.5]),
    # grid starting above 0: c is held at c(t_0) below it
    GainFunction.tabulated([0.2, 1.0, 2.0], [2.0, 1.0, 0.5]),
    # slope of log c exactly 1 on [0, 1]: h is affine there
    GainFunction.tabulated([0.0, 1.0, 3.0], [1.0, math.e, math.e]),
    GainFunction.tabulated([0.5, 1.5, 2.0], [1.0, math.e, math.e ** 1.2]),
    # knots past t = 708, where c(t) e^{-t} is subnormal or 0
    GainFunction.tabulated([0.0, 740.0], [1.0, 1.0]),
    GainFunction.tabulated([0.0, 1000.0], [1.0, 1.0]),
], ids=lambda g: g.kind)
def test_invert_h_round_trip_is_exact(g):
    h0 = eval_h(g, 0.0)
    rs = [h0 * (i + 1) / 18 for i in range(17)] + [h0 * 1e-9, h0 * (1 - 1e-12)]
    # the knots themselves, where h is a normal float
    rs += [eval_h(g, t) for t in g.grid_t if 0 < t and eval_h(g, t) > sys.float_info.min]
    for r in rs:
        t = invert_h(g, r)
        assert t >= 0
        assert abs(eval_h(g, t) - r) <= 1e-14 * r


@pytest.mark.parametrize("scale", [1e-300, 3e-302, 1e-305])
def test_round_trip_where_the_tail_factor_underflows(scale):
    # c_K = e^50 past t_K = 60, so h(t) = e^{50 - t} there: at r ~ 1e-300 h(0)
    # the round trip lands near t = 739, where e^{-t} alone is subnormal
    g = GainFunction.tabulated([0.0, 50.0, 60.0], [1.0, math.exp(40.0), math.exp(50.0)])
    r = scale * eval_h(g, 0.0)
    t = invert_h(g, r)
    assert 730 < t < 755
    assert abs(eval_h(g, t) - r) <= 1e-12 * r


@pytest.mark.parametrize("t", [0.0, 1e-9, 0.3, 1.0, 7.5, 40.0, 600.0])
def test_constant_and_exponential_values_are_exact(t):
    for v in (1.0, 0.3, 3.5):
        assert eval_h(GainFunction.constant(v), t) == v * math.exp(-t)
        if t > 0:
            assert eval_log_c(GainFunction.constant(v), t) == math.log(v)
    for delta in (-1.0, 0.0, 0.25, 0.5, 0.99):
        g = GainFunction.exponential(delta)
        assert eval_h(g, t) == math.exp(-(1 - delta) * t) / (1 - delta)
        if t > 0:
            assert eval_log_c(g, t) == delta * t


def test_invert_rejects_out_of_range():
    g = GainFunction.constant(1.0)
    with pytest.raises(BadInputError):
        invert_h(g, 2.0)  # larger than h(0)=1
    with pytest.raises(BadInputError):
        invert_h(g, 0.0)


def test_leftover_mass_decays():
    g = GainFunction.exponential(0.5)
    assert eval_h(g, 40.0) < 1e-8 * eval_h(g, 0.0)


def test_ratio_probe_flat_profile():
    g = GainFunction.constant(1.0)
    assert ratio_probe(g, 2.0).tag == TAG_ZERO
    assert ratio_probe(g, 1.0).tag == TAG_ONE
    assert ratio_probe(g, 0.5).tag == TAG_INF


def test_ratio_probe_exponential_profile():
    g = GainFunction.exponential(0.25)
    assert ratio_probe(g, 2.0).tag == TAG_ZERO
    assert ratio_probe(g, 1.0).tag == TAG_ONE
    assert ratio_probe(g, 0.5).tag == TAG_INF


def test_ratio_probe_flat_exact_ratio():
    # for the flat profile the ratio is e^{(1-a)t}/a
    g = GainFunction.constant(1.0)
    res = ratio_probe(g, 2.0, t_grid=np.array([1.0, 2.0, 3.0]))
    expect = np.exp(-np.array([1.0, 2.0, 3.0])) / 2.0
    assert np.allclose(res.ratios, expect, rtol=1e-8)


def test_ratio_probe_rejects_negative_grid_points():
    # c is defined on t >= 0 only
    for g in (GainFunction.constant(1.0), GainFunction.exponential(0.5)):
        with pytest.raises(BadInputError):
            ratio_probe(g, 2.0, t_grid=np.array([-1.0, 0.0, 1.0]))
    assert ratio_probe(GainFunction.exponential(0.5), 2.0,
                       t_grid=np.array([0.0, 1.0, 2.0])).tag == TAG_ZERO


def test_ratio_probe_divergent_tail():
    g = GainFunction.exponential(0.5)
    with pytest.raises(BadInputError):
        ratio_probe(g, 0.5 - 0.1)  # comparison tail diverges when a <= rate


@pytest.mark.parametrize("g", [
    GainFunction.constant(0.7), GainFunction.exponential(-0.5), GainFunction.exponential(0.9),
    GainFunction.tabulated([0.0, 0.5, 1.0, 2.0, 4.0], np.exp([0.0, 0.4, 0.8, 1.6, 3.2])),
    GainFunction.tabulated([0.6, 1.5, 900.0], [1.3, 2.0, 2.0]),
], ids=["constant", "rate-0.5", "rate0.9", "tabulated", "tabulated-late-knots"])
def test_tail_integral_on_an_array_of_rates_is_its_scalar_calls(g):
    rates = (np.arange(25) + 1.5 - 1.0) / 1.5
    rates = rates[rates > g._table.slope]
    for t in (0.0, 0.3, 1.7, 4.0, 750.0):
        got = _tail_integral(g, rates, t)
        assert got.shape == rates.shape
        assert [x.hex() for x in got] == [_tail_integral(g, float(a), t).hex() for a in rates]
    with pytest.raises(BadInputError, match="divergent"):
        _tail_integral(g, np.array([2.0, g._table.slope]), 0.0)


def test_tail_integral_refuses_an_overflowing_interval():
    # log c rises by 921 over one knot interval: at rate 0.01 the interval's
    # term overflows, which is refused without a RuntimeWarning
    g = GainFunction.tabulated([0.0, 1000.0], [1e-300, 1e100])
    with pytest.raises(NumericalError, match="not finite"):
        _tail_integral(g, np.array([1.0, 0.01]), 0.0)
