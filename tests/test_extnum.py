import numpy as np
import pytest

from schrobridge.extnum import INF, ExtOverflowError, as_ext_array, ext_matvec, scaled_inverse


def test_inv_rejects_nan_and_negative():
    # the inversion's conventions live in scaled_inverse: NaN and negative
    # entries are not extended nonnegative reals, and f must be finite
    for f, s in (([1.0], [float("nan")]), ([1.0], [-1.0]), ([float("nan")], [1.0]),
                 ([-1.0], [1.0]), ([INF], [1.0])):
        with pytest.raises(ValueError):
            scaled_inverse(np.array(f), np.array(s))


def test_inv_overflow_guard():
    with pytest.raises(ExtOverflowError):
        scaled_inverse(np.array([1.0]), np.array([1e-310]))


def test_as_ext_array_validation():
    with pytest.raises(ValueError):
        as_ext_array([1.0, float("nan")])
    with pytest.raises(ValueError):
        as_ext_array([-0.5])
    with pytest.raises(ValueError):
        as_ext_array([INF], allow_inf=False)
    out = as_ext_array([0.0, 1.0, INF])
    assert out[2] == INF


def test_scaled_inverse_semantics():
    f = np.array([0.0, 2.0, 3.0, 1.0])
    s = np.array([0.0, 0.0, INF, 4.0])
    out = scaled_inverse(f, s)
    assert out[0] == 0.0  # zero weight kills the infinite inverse
    assert out[1] == INF
    assert out[2] == 0.0
    assert out[3] == 0.25


def test_ext_matvec_inf_absorption():
    M = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    w = np.array([3.0, INF])
    out = ext_matvec(M, w)
    assert out[0] == 3.0  # zero entry annihilates the INF column
    assert out[1] == INF
    assert out[2] == INF


def test_ext_matvec_overflow_guard():
    # the second input has an INF entry next to an overflowing finite part
    for M, w in (([[1e200]], [1e200]), ([[1e200, 1.0], [1.0, 0.0]], [1e200, INF])):
        with pytest.raises(ExtOverflowError, match="^extended matvec overflowed$"):
            ext_matvec(np.array(M), np.array(w))
