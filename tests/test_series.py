"""Truncated power series helpers used by the jet and candidate machinery."""
import math

import numpy as np
import pytest

from jetmin.series import (
    blaschke_deriv_taylor,
    blaschke_taylor,
    geometric,
    inv_square_taylor,
    moebius_taylor,
    pcompose,
    pderiv,
    pexp,
    pmul,
    polyval_many,
    ppow,
)
from jetmin.geometry import blaschke_deriv, blaschke_factor


def horner(coeffs, z):
    out = 0.0 + 0.0j
    for c in reversed(list(coeffs)):
        out = out * z + c
    return out


def test_pmul_matches_numpy_convolution():
    rng = np.random.default_rng(3)
    a = rng.normal(size=5) + 1j * rng.normal(size=5)
    b = rng.normal(size=4) + 1j * rng.normal(size=4)
    full = np.convolve(a, b)
    assert np.allclose(pmul(a, b, 8), full)
    assert np.allclose(pmul(a, b, 3), full[:3])


def test_ppow_matches_repeated_multiplication():
    a = np.array([1.0, -0.5, 0.25])
    direct = np.array([1.0])
    for _ in range(5):
        direct = np.convolve(direct, a)
    assert np.allclose(ppow(a, 5, 11), direct)


def test_pderiv():
    assert np.allclose(pderiv([3.0, 2.0, 1.0]), [2.0, 2.0])


def test_pexp_matches_pointwise_exponential():
    q = np.array([0.3 - 0.1j, 0.2j, -0.05])
    e = pexp(q, 12)
    for z in (0.1, 0.3 + 0.2j, -0.25j):
        assert horner(e, z) == pytest.approx(np.exp(horner(q, z)), abs=1e-10)


def test_pcompose_polynomials():
    outer = np.array([1.0, 2.0, 1.0])  # (1+w)^2
    inner = np.array([0.0, 1.0, 1.0])  # z + z^2
    comp = pcompose(outer, inner, 5)
    for z in (0.2, -0.3, 0.1 + 0.1j):
        w = horner(inner, z)
        assert horner(comp, z) == pytest.approx(horner(outer, w), abs=1e-12)


def test_geometric_series():
    g = geometric(0.5, 6)
    assert np.allclose(g, [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125])


def test_moebius_taylor_evaluates_correctly():
    # constant-first convention: series of (A + B x)/(C + D x)
    A, B, C, D = 0.3, 2.0, 1.2, 0.1
    coeffs = moebius_taylor(A, B, C, D, 20)
    for z in (0.1, -0.4, 0.2 + 0.3j):
        assert horner(coeffs, z) == pytest.approx(
            (A + B * z) / (C + D * z), abs=1e-12
        )


def test_inv_square_taylor():
    C, D = 1.1, 0.3
    coeffs = inv_square_taylor(C, D, 25)
    for z in (0.2, -0.3j):
        assert horner(coeffs, z) == pytest.approx(1.0 / (C + D * z) ** 2, abs=1e-12)


def test_blaschke_taylor_at_center():
    z0 = 0.4 + 0.1j
    center = -0.2 + 0.05j
    coeffs = blaschke_taylor(z0, center, 30)
    for dz in (0.05, 0.1j, -0.07 + 0.02j):
        assert horner(coeffs, dz) == pytest.approx(
            blaschke_factor(z0, center + dz), abs=1e-12
        )


def test_blaschke_deriv_taylor():
    z0 = 0.3 - 0.2j
    center = 0.1
    coeffs = blaschke_deriv_taylor(z0, center, 30)
    for dz in (0.04, -0.06j):
        assert horner(coeffs, dz) == pytest.approx(
            blaschke_deriv(z0, center + dz), abs=1e-12
        )


def test_polyval_many():
    p = np.array([1.0, 0.0, -2.0])
    zs = np.array([0.0, 1.0, 2.0j])
    assert np.allclose(polyval_many(p, zs), [1.0, -1.0, 9.0])
