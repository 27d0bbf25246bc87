"""Arithmetic on the extended nonnegative reals [0, inf].

The solver's dual quantities may genuinely take the value infinity (a
structural zero in a potential forces an infinite dual entry) or zero.
This module fixes one set of conventions for that arithmetic, realized
on arrays by :func:`scaled_inverse` and :func:`ext_matvec`, the maps behind
the public ``psi`` and ``phi``:

  * the inverse of 0 is INF and the inverse of INF is 0;
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

import numpy as np

INF = math.inf

#: Finite magnitudes above this raise ExtOverflowError instead of rounding
#: to IEEE infinity.
OVERFLOW_LIMIT = 1e300


class ExtOverflowError(ArithmeticError):
    """A finite extended-real computation exceeded OVERFLOW_LIMIT."""


# the messages of the two guards, shared with the solvers' dual step
_INVERSE_OVERFLOW = "scaled inversion exceeded the overflow guard"
_MATVEC_OVERFLOW = "extended matvec overflowed"


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
    zero where s is INF.  A quotient of finite positive operands above
    ``OVERFLOW_LIMIT`` raises :class:`ExtOverflowError`.
    """
    f = as_ext_array(f, allow_inf=False)
    s = as_ext_array(s)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.where(f > 0.0, f / s, 0.0)
    if np.max(out, where=s > 0.0, initial=0.0) > OVERFLOW_LIMIT:
        raise ExtOverflowError(_INVERSE_OVERFLOW)
    return out


def ext_matvec(matrix: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Extended-real ``matrix @ w`` for a finite nonnegative matrix.

    Entries of ``w`` may be INF; the conventions give
    ``out[i] = INF`` exactly when some ``matrix[i, j] > 0`` hits an
    infinite ``w[j]``, and zero matrix entries annihilate infinities.  A
    finite part above ``OVERFLOW_LIMIT`` raises :class:`ExtOverflowError`.
    """
    w = as_ext_array(w)
    infm = np.isinf(w)
    with np.errstate(over="ignore"):
        out = matrix @ np.where(infm, 0.0, w)
    if np.max(out, initial=0.0) > OVERFLOW_LIMIT:
        raise ExtOverflowError(_MATVEC_OVERFLOW)
    out[(matrix[:, infm] > 0.0).any(axis=1)] = INF
    return out
