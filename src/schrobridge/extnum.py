"""Arithmetic on the extended nonnegative reals [0, inf].

The solver's dual quantities may genuinely take the value infinity (a
structural zero in a potential forces an infinite dual entry) or zero.
This module fixes one set of conventions for that arithmetic and uses it
at every API boundary:

  * ``inv_ext(0) == INF`` and ``inv_ext(INF) == 0``;
  * products ``f * g`` with ``f`` finite obey ``0 * INF == 0`` (the finite
    factor wins);
  * sums are INF as soon as one term is INF.

INF is a deliberate, tagged state -- never the by-product of a float
overflow.  Any *finite* computation whose magnitude would exceed
``OVERFLOW_LIMIT`` raises :class:`ExtOverflowError` instead of silently
saturating to IEEE infinity, so a reported INF always means "structurally
infinite".  NaN is never representable; inputs carrying NaN are rejected.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

INF = math.inf

#: Finite magnitudes above this raise ExtOverflowError instead of rounding
#: to IEEE infinity.
OVERFLOW_LIMIT = 1e300


class ExtOverflowError(ArithmeticError):
    """A finite extended-real computation exceeded OVERFLOW_LIMIT."""


def ensure_ext(s: float) -> float:
    """Validate a scalar as an extended nonnegative real and return it.

    Accepts any float in [0, inf].  Raises ValueError on NaN or negative
    input -- neither is representable in this arithmetic.
    """
    s = float(s)
    if math.isnan(s):
        raise ValueError("NaN is not an extended nonnegative real")
    if s < 0.0:
        raise ValueError(f"negative value {s!r} is not an extended nonnegative real")
    return s


def inv_ext(s: float) -> float:
    """Extended inversion: 1/s with 0 -> INF and INF -> 0."""
    s = ensure_ext(s)
    if s == 0.0:
        return INF
    if math.isinf(s):
        return 0.0
    r = 1.0 / s
    if r > OVERFLOW_LIMIT:
        raise ExtOverflowError(f"1/{s!r} exceeds {OVERFLOW_LIMIT:g}")
    return r


def mul_ext(f: float, g: float) -> float:
    """Product of a finite nonnegative ``f`` with an extended ``g``.

    Applies the asymmetric convention ``f == 0  =>  f*g == 0`` even when
    ``g`` is INF.  The first factor must be finite; the symmetric product
    of two possibly-infinite numbers is deliberately not provided.
    """
    f = ensure_ext(f)
    g = ensure_ext(g)
    if math.isinf(f):
        raise ValueError("first factor of mul_ext must be finite")
    if f == 0.0:
        return 0.0
    if math.isinf(g):
        return INF
    r = f * g
    if r > OVERFLOW_LIMIT:
        raise ExtOverflowError(f"{f!r} * {g!r} exceeds {OVERFLOW_LIMIT:g}")
    return r


def sum_ext(terms: Iterable[float]) -> float:
    """Sum of extended nonnegative reals; INF absorbs.

    The finite branch uses exactly rounded compensated summation
    (``math.fsum``), so the result does not depend on term order.
    """
    finite: list[float] = []
    for t in terms:
        t = ensure_ext(t)
        if math.isinf(t):
            return INF
        finite.append(t)
    r = math.fsum(finite)
    if r > OVERFLOW_LIMIT:
        raise ExtOverflowError(f"sum {r!r} exceeds {OVERFLOW_LIMIT:g}")
    return r


# ---------------------------------------------------------------------------
# Vectorized counterparts.  These realize the same conventions on numpy
# arrays.  The ``finite_*`` variants skip the checks on input the caller
# knows to be finite and positive, and keep the overflow guards.
# ---------------------------------------------------------------------------


def as_ext_array(x, allow_inf: bool = True) -> np.ndarray:
    """Coerce to a float64 array of extended nonnegative reals.

    Rejects NaN and negative entries; rejects INF entries when
    ``allow_inf`` is false.
    """
    a = np.asarray(x, dtype=float)
    if np.isnan(a).any():
        raise ValueError("NaN entries are not extended nonnegative reals")
    if (a < 0).any():
        raise ValueError("negative entries are not extended nonnegative reals")
    if not allow_inf and np.isinf(a).any():
        raise ValueError("INF entries not allowed here")
    return a


def scaled_inverse(f: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Elementwise ``f * inv_ext(s)`` for finite nonnegative ``f``.

    This is the weight vector feeding the dual sums: zero where f is zero
    (even against an infinite inverse), INF where f > 0 and s == 0.
    """
    f = as_ext_array(f, allow_inf=False)
    s = as_ext_array(s)
    out = np.zeros_like(f)
    pos = f > 0.0
    szero = s == 0.0
    sinf = np.isinf(s)
    out[pos & szero] = INF
    rest = pos & ~szero & ~sinf
    if rest.any():
        out[rest] = finite_scaled_inverse(f[rest], s[rest])
    return out


def finite_scaled_inverse(f: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``f / s`` for finite nonnegative ``f`` and finite positive ``s``.

    :func:`scaled_inverse` less its checks on the input, which the caller
    vouches for; the result keeps the overflow guard.
    """
    out = f / s
    if np.max(out, initial=0.0) > OVERFLOW_LIMIT:
        raise ExtOverflowError("scaled inversion exceeded the overflow guard")
    return out


def ext_matvec(matrix: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Extended-real ``matrix @ w`` for a finite nonnegative matrix.

    Entries of ``w`` may be INF; the conventions give
    ``out[i] = INF`` exactly when some ``matrix[i, j] > 0`` hits an
    infinite ``w[j]``, and zero matrix entries annihilate infinities.
    """
    w = as_ext_array(w)
    infm = np.isinf(w)
    with np.errstate(over="ignore"):
        if infm.any():
            w_fin = np.where(infm, 0.0, w)
            out = matrix @ w_fin
            hit = (matrix[:, infm] > 0.0).any(axis=1)
            if np.max(out, initial=0.0) > OVERFLOW_LIMIT:
                raise ExtOverflowError("finite part of extended matvec overflowed")
            out[hit] = INF
            return out
        return finite_matvec(matrix, w)


def finite_matvec(matrix: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``matrix @ w`` for a finite nonnegative matrix and a finite ``w``.

    :func:`ext_matvec` less its checks on ``w``, which the caller vouches
    for; the result keeps the overflow guard.  Run it under
    ``np.errstate(over="ignore")``, as :func:`ext_matvec` does, to have an
    overflow reported only by :class:`ExtOverflowError`.
    """
    out = matrix @ w
    if np.max(out, initial=0.0) > OVERFLOW_LIMIT:
        raise ExtOverflowError("extended matvec overflowed")
    return out
