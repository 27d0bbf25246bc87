import numpy as np
import pytest
from hypothesis import given, strategies as st

from schrobridge.extnum import (
    INF,
    ExtOverflowError,
    as_ext_array,
    ext_matvec,
    inv_ext,
    mul_ext,
    scaled_inverse,
    sum_ext,
)


def test_inv_conventions():
    assert inv_ext(0.0) == INF
    assert inv_ext(INF) == 0.0
    assert inv_ext(2.0) == 0.5


def test_inv_rejects_nan_and_negative():
    with pytest.raises(ValueError):
        inv_ext(float("nan"))
    with pytest.raises(ValueError):
        inv_ext(-1.0)


def test_inv_overflow_guard():
    with pytest.raises(ExtOverflowError):
        inv_ext(1e-310)


def test_mul_conventions():
    assert mul_ext(0.0, INF) == 0.0
    assert mul_ext(3.0, 2.0) == 6.0
    assert mul_ext(5.0, INF) == INF


def test_mul_first_factor_must_be_finite():
    with pytest.raises(ValueError):
        mul_ext(INF, 1.0)


def test_mul_overflow_guard():
    with pytest.raises(ExtOverflowError):
        mul_ext(1e200, 1e200)


def test_sum_examples():
    assert sum_ext([1.0, 2.0, 3.0]) == 6.0
    assert sum_ext([1.0, INF]) == INF
    assert sum_ext([]) == 0.0


def test_sum_overflow_guard():
    with pytest.raises(ExtOverflowError):
        sum_ext([9e299, 9e299])


@given(st.floats(min_value=1e-280, max_value=1e280))
def test_inv_involution_finite(s):
    r = inv_ext(inv_ext(s))
    assert abs(r - s) <= 1e-15 * s


def test_inv_involution_endpoints_exact():
    assert inv_ext(inv_ext(0.0)) == 0.0
    assert inv_ext(inv_ext(INF)) == INF


@given(
    st.floats(min_value=1e-10, max_value=1e10),
    st.floats(min_value=0, max_value=1e100),
    st.floats(min_value=0, max_value=1e100),
)
def test_mul_monotone_in_g(f, g1, g2):
    lo, hi = sorted([g1, g2])
    assert mul_ext(f, lo) <= mul_ext(f, hi)


@given(
    st.lists(
        st.one_of(st.floats(min_value=0, max_value=1e200), st.just(INF)),
        max_size=30,
    ),
    st.randoms(use_true_random=False),
)
def test_sum_permutation_stable(terms, rnd):
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    a = sum_ext(terms)
    b = sum_ext(shuffled)
    # fsum is exactly rounded, so finite sums match exactly and the INF
    # classification is order-free
    assert a == b


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
    M = np.array([[1e200]])
    with pytest.raises(ExtOverflowError):
        ext_matvec(M, np.array([1e200]))
