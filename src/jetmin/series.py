"""Truncated power-series arithmetic for exact jet and limit computations.

Coefficient arrays are complex, in increasing order of degree; an array of
length n represents a series through degree n-1.  Everything here is exact
up to floating point: no numerical limiting along sequences.
"""
from __future__ import annotations

import numpy as np

from .errors import BadInputError


def as_series(c, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=complex)
    c = np.asarray(c, dtype=complex).ravel()
    out[: min(n, c.size)] = c[: min(n, c.size)]
    return out


def pmul(a, b, n: int) -> np.ndarray:
    """Truncated product of two series through degree n-1."""
    a = as_series(a, n)
    b = as_series(b, n)
    return np.convolve(a, b)[:n]


def ppow(a, k: int, n: int) -> np.ndarray:
    """Integer power of a series, truncated."""
    if k < 0:
        raise BadInputError("ppow needs k >= 0")
    out = as_series([1.0], n)
    base = as_series(a, n)
    while k:
        if k & 1:
            out = pmul(out, base, n)
        base = pmul(base, base, n)
        k >>= 1
    return out


def pderiv(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.size <= 1:
        return np.zeros(1, dtype=complex)
    return a[1:] * np.arange(1, a.size)


def pexp(q, n: int) -> np.ndarray:
    """exp of a series; E' = q' E recurrence, E_0 = exp(q_0)."""
    q = as_series(q, n)
    out = np.zeros(n, dtype=complex)
    out[0] = np.exp(q[0])
    for m in range(1, n):
        # (m) E_m = sum_{i=1}^{m} i q_i E_{m-i}
        acc = 0.0 + 0j
        for i in range(1, m + 1):
            acc += i * q[i] * out[m - i]
        out[m] = acc / m
    return out


def pcompose(q, s, n: int) -> np.ndarray:
    """q(s(x)) for polynomial q and series s, truncated; Horner scheme."""
    q = np.asarray(q, dtype=complex).ravel()
    out = as_series([q[-1]], n) if q.size else as_series([0.0], n)
    for c in q[-2::-1]:
        out = pmul(out, s, n)
        out[0] += c
    return out


def geometric(w: complex, n: int) -> np.ndarray:
    """Series of 1/(1 - w x): [1, w, w^2, ...]."""
    return complex(w) ** np.arange(n)


def moebius_taylor(A: complex, B: complex, C: complex, D: complex, n: int) -> np.ndarray:
    """Series at x=0 of (A + B x)/(C + D x); needs C != 0."""
    if C == 0:
        raise BadInputError("moebius_taylor needs a finite value at x = 0")
    g = geometric(-D / C, n)
    num = np.zeros(n, dtype=complex)
    num[0] = A
    if n > 1:
        num[1] = B
    return pmul(num, g, n) / C


def inv_square_taylor(C: complex, D: complex, n: int) -> np.ndarray:
    """Series of 1/(C + D x)^2 = (1/C^2) sum (k+1) (-D/C)^k x^k."""
    if C == 0:
        raise BadInputError("inv_square_taylor needs C != 0")
    k = np.arange(n)
    return (k + 1) * (-D / C) ** k / C**2


def blaschke_taylor(z0: complex, center: complex, n: int) -> np.ndarray:
    """Series in x of b_{z0}(center + x), b the disc Blaschke factor."""
    c0 = np.conj(complex(z0))
    return moebius_taylor(complex(center) - complex(z0), 1.0, 1 - c0 * complex(center), -c0, n)


def blaschke_deriv_taylor(z0: complex, center: complex, n: int) -> np.ndarray:
    """Series in x of b'_{z0}(center + x) = (1-|z0|^2)/(1 - conj(z0) z)^2."""
    c0 = np.conj(complex(z0))
    return (1 - abs(complex(z0)) ** 2) * inv_square_taylor(1 - c0 * complex(center), -c0, n)


def polyval_many(c, z) -> np.ndarray:
    """Evaluate a coefficient array (increasing degree) on an array of points."""
    return np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex), np.asarray(c, dtype=complex))
