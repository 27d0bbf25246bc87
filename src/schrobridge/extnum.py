"""Arithmetic on the extended nonnegative reals [0, inf].

The solver's dual quantities may genuinely take the value infinity (a
structural zero in a potential forces an infinite dual entry) or zero.
This module fixes one set of conventions for that arithmetic, realized
on arrays by :func:`scaled_inverse` and :func:`ext_matvec`, the maps used
at every API boundary:

  * the inverse of 0 is INF and the inverse of INF is 0;
  * products ``f * g`` with ``f`` finite obey ``0 * INF == 0`` (the finite
    factor wins);
  * sums are INF as soon as one term is INF.

The ``finite_*`` variants skip the checks on input the caller knows to
be finite and positive, and keep the overflow guards.

INF is a deliberate, tagged state -- never the by-product of a float
overflow.  Any *finite* computation whose magnitude would exceed
``OVERFLOW_LIMIT`` raises :class:`ExtOverflowError` instead of silently
saturating to IEEE infinity, so a reported INF always means "structurally
infinite".  NaN is never representable; inputs carrying NaN are rejected.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf

#: Finite magnitudes above this raise ExtOverflowError instead of rounding
#: to IEEE infinity.
OVERFLOW_LIMIT = 1e300


class ExtOverflowError(ArithmeticError):
    """A finite extended-real computation exceeded OVERFLOW_LIMIT."""


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
    """Elementwise ``f / s`` for finite nonnegative ``f`` and extended ``s``.

    This is the weight vector feeding the dual sums: zero where f is zero
    (even against an infinite inverse), INF where f > 0 and s == 0, and
    zero where s is INF.
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
        with np.errstate(over="ignore"):
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
