import math
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schrobridge import (
    DegeneratePotential,
    DiscreteProblem,
    DiscreteSpace,
    GaussianKernel,
    GaussianProblem,
    INF,
    Marginal,
    MaxIterExceeded,
    NonFiniteIntermediate,
    SchemeState,
    STATUS_CONVERGED,
    STATUS_DEGENERATE,
    STATUS_DIVERGENT,
    STATUS_MAX_ITER,
    discretize_gaussian,
    extract_solution,
    iterate_truncated,
    kernel_matrix,
    make_radial_kernel,
    normalization_check,
    phi,
    psi,
    restricted_normalization,
    sinkhorn_baseline,
    solve_fortet,
    twist,
    untwist_solution,
    validate_reduction,
)
from schrobridge import fortet
from schrobridge.extnum import (
    OVERFLOW_LIMIT,
    ExtOverflowError,
    ext_matvec,
    scaled_inverse,
)
from schrobridge.fortet import MIN_TOL, MonotonicityViolated, _dual_step, potential_from_solution
from conftest import build_dense_problem, random_positive_problem, wide_kernel_problems


def loop_psi(problem, u):
    """Independent oracle: explicit double-loop dual sum."""
    P = kernel_matrix(problem)
    out = []
    for j in range(problem.n_y):
        total = 0.0
        for i in range(problem.n_x):
            w = P[i, j] * problem.mu.weights[i]
            if w > 0:
                total += w / u[i] if u[i] > 0 else math.inf
        out.append(total)
    return np.array(out)


def loop_phi(problem, u):
    ps = loop_psi(problem, u)
    P = kernel_matrix(problem)
    out = []
    for i in range(problem.n_x):
        total = 0.0
        for j in range(problem.n_y):
            w = P[i, j] * problem.nu.weights[j]
            if w > 0 and not math.isinf(ps[j]):
                total += w / ps[j]
        out.append(total)
    return np.array(out)


# ---------------------------------------------------------------------------
# psi / phi / normalization
# ---------------------------------------------------------------------------


def test_psi_constant_kernel_unit_potential(constant_kernel):
    assert np.array_equal(psi(constant_kernel, np.ones(2)), [1.0, 1.0])


def test_psi_worked_example(two_by_two):
    got = psi(two_by_two, np.array([1.0, 2.0]))
    expect = loop_psi(two_by_two, np.array([1.0, 2.0]))
    assert np.allclose(got, expect, rtol=1e-15)
    assert np.allclose(got, [1.25, 2.0], rtol=0, atol=0)


def test_psi_zero_potential_entry_gives_all_inf(two_by_two):
    got = psi(two_by_two, np.array([0.0, 1.0]))
    assert np.isinf(got).all()


def test_phi_constant_kernel_fixed_point(constant_kernel):
    assert np.array_equal(phi(constant_kernel, np.ones(2)), [1.0, 1.0])


def test_phi_worked_example(two_by_two):
    got = phi(two_by_two, np.array([1.0, 2.0]))
    expect = loop_phi(two_by_two, np.array([1.0, 2.0]))
    assert np.allclose(got, expect, rtol=1e-15)
    assert np.allclose(got, [0.9, 2.2], rtol=1e-15)


def test_phi_of_zero_is_zero(two_by_two):
    got = phi(two_by_two, np.zeros(2))
    assert np.array_equal(got, [0.0, 0.0])


def test_normalization_worked_example(two_by_two):
    val = normalization_check(two_by_two, np.array([1.0, 2.0]))
    assert abs(val - 1.0) <= 1e-15


def test_normalization_constant_kernel(constant_kernel):
    assert normalization_check(constant_kernel, np.ones(2)) == pytest.approx(1.0, abs=1e-15)


def test_normalization_random_problem():
    rng = np.random.default_rng(7)
    problem = random_positive_problem(rng, 10, 10)
    u = rng.uniform(0.1, 5.0, 10)
    assert abs(normalization_check(problem, u) - 1.0) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_normalization_with_a_subnormal_mass_stays_finite():
    # phi_2 / u_2 is about 5e322, past the float range; mu_2 / u_2 is 1e3
    problem = build_dense_problem(np.ones((2, 2)), [1.0, 1e-320], [0.5, 0.5])
    assert abs(normalization_check(problem, np.array([1.0, 1e-323])) - 1.0) <= 1e-12


def test_normalization_requires_positive_potential(two_by_two):
    with pytest.raises(ValueError):
        normalization_check(two_by_two, np.array([0.0, 1.0]))


def test_psi_raises_on_vanishing_dual():
    # a zero column against a finite potential: only reachable on an
    # unreduced problem
    problem = build_dense_problem([[1.0, 0.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(NonFiniteIntermediate):
        psi(problem, np.ones(2))


def test_restricted_normalization_positive_case(two_by_two):
    lhs, rhs = restricted_normalization(two_by_two, np.array([0.7, 0.3]))
    assert abs(lhs - 1.0) <= 1e-14
    assert rhs == 1.0


def test_restricted_normalization_with_structural_zeros():
    # block-diagonal kernel: zeroing the potential on one block removes
    # exactly that block's nu-mass from both sides
    P = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    third = 1.0 / 3.0
    problem = validate_reduction(
        build_dense_problem(P, [third, third, third], [third, third, third])
    )
    lhs, rhs = restricted_normalization(problem, np.array([0.0, 1.0, 1.0]))
    assert rhs == pytest.approx(third, abs=1e-15)
    assert lhs == pytest.approx(third, abs=1e-14)

    lhs, rhs = restricted_normalization(problem, np.array([1.0, 1.0, 0.0]))
    assert rhs == pytest.approx(2 * third, abs=1e-15)
    assert lhs == pytest.approx(2 * third, abs=1e-14)


def test_psi_refuses_a_potential_of_the_wrong_shape(two_by_two):
    with pytest.raises(ValueError, match=r"^potential has shape \(3,\), expected \(2,\)$"):
        psi(two_by_two, np.ones(3))


def test_restricted_normalization_refuses_an_infinite_phi(two_by_two):
    # psi(inf) is 0 everywhere, so phi(inf) is infinite
    with pytest.raises(NonFiniteIntermediate, match="^phi has infinite entries$"):
        restricted_normalization(two_by_two, np.array([INF, INF]))


def test_restricted_normalization_all_zero(two_by_two):
    lhs, rhs = restricted_normalization(two_by_two, np.zeros(2))
    assert lhs == 0.0
    assert rhs == 0.0


# ---------------------------------------------------------------------------
# truncated scheme steps
# ---------------------------------------------------------------------------


def test_iterate_truncated_worked_example(two_by_two):
    state = SchemeState(n=1, u=np.ones(2), ceiling=np.ones(2))
    nxt = iterate_truncated(state, two_by_two)
    # psi(1,1) = (2, 3); phi = (1*.5/2 + 2*.5/3, 3*.5/2 + 4*.5/3)
    assert np.allclose(nxt.phi_u, [7.0 / 12.0, 17.0 / 12.0], rtol=1e-15)
    assert np.allclose(nxt.u, [7.0 / 12.0, 1.0], rtol=1e-15)
    assert nxt.n == 2


def test_iterate_truncated_immediate_fixed_point(constant_kernel):
    state = SchemeState(n=1, u=np.ones(2), ceiling=np.ones(2))
    nxt = iterate_truncated(state, constant_kernel)
    assert np.array_equal(nxt.u, [1.0, 1.0])
    assert nxt.early_exit_index == 1


def test_iterate_truncated_floor_clamp(two_by_two):
    # iterate shrunk far below the floor for the next index: phi(u) is
    # of order u, so with u = 0.01 and floor U/10 = 0.1 the floor binds
    U = np.ones(2)
    state = SchemeState(n=9, u=np.full(2, 0.01), ceiling=U)
    nxt = iterate_truncated(state, two_by_two)
    assert (nxt.phi_u < U / 10).all()
    assert np.array_equal(nxt.u, U / 10)


def test_scheme_monotone_and_bounded_exactly():
    rng = np.random.default_rng(3)
    problem = random_positive_problem(rng, 12, 9)
    U = rng.uniform(0.5, 2.0, 12)
    state = SchemeState(n=1, u=U.copy(), ceiling=U)
    for _ in range(200):
        nxt = iterate_truncated(state, problem)
        assert (nxt.u <= state.u).all()
        assert (nxt.u <= U).all()
        assert (U / nxt.n <= nxt.u).all()
        state = nxt


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def test_solve_fortet_constant_kernel(constant_kernel):
    result = solve_fortet(constant_kernel)
    assert result.status == STATUS_CONVERGED
    assert result.iterations == 1
    assert np.array_equal(result.u_star, [1.0, 1.0])


def test_solve_fortet_two_by_two(two_by_two):
    result = solve_fortet(two_by_two, tol=1e-12)
    assert result.status == STATUS_CONVERGED
    assert result.residual <= 1e-12
    assert abs(normalization_check(two_by_two, result.u_star) - 1.0) <= 1e-12
    sol = extract_solution(two_by_two, result.u_star, psi_star=result.psi_star)
    assert sol.marginal_err_x <= 1e-12
    assert sol.marginal_err_y <= 1e-12


def test_solve_fortet_early_exit_implies_unclamped_fixed_point():
    # power-of-two uniform weights keep the constant-kernel sums exact,
    # so phi(u_1) == U holds and the early-exit marker fires immediately;
    # its guaranteed consequences: positive limit, fixed point, no clamp
    problem = validate_reduction(
        build_dense_problem(np.ones((4, 4)), [0.25] * 4, [0.25] * 4)
    )
    result = solve_fortet(problem, U=np.ones(problem.n_x), tol=1e-12)
    assert result.early_exit_index == 1
    assert (result.u_star > 0).all()
    ph = phi(problem, result.u_star)
    assert np.array_equal(result.u_star, np.minimum(ph, 1.0))
    assert np.array_equal(result.u_star, ph)


def test_truncated_limit_touches_ceiling(two_by_two):
    # generic positive problems converge to the largest fixed-ray element
    # under the ceiling, so the ceiling is attained and phi approaches it
    # from above: the early-exit marker legitimately stays unset
    result = solve_fortet(two_by_two, U=np.ones(two_by_two.n_x), tol=1e-12)
    assert result.u_star.max() == pytest.approx(1.0, abs=1e-12)
    assert result.early_exit_index is None


def test_solve_fortet_trace_records(two_by_two):
    result = solve_fortet(two_by_two, tol=1e-10, trace=True)
    assert len(result.trace) == result.iterations
    ns = [rec.n for rec in result.trace]
    assert ns == list(range(1, result.iterations + 1))
    for rec in result.trace:
        assert abs(rec.normalization - 1.0) <= 1e-12


def test_solve_fortet_max_iter(two_by_two):
    result = solve_fortet(two_by_two, max_iter=2, tol=1e-15)
    assert result.status == "max-iter"


def test_solvers_reject_tol_below_machine_precision(two_by_two):
    # below a few eps the stopping test can sit under rounding noise
    assert MIN_TOL == 4 * np.finfo(float).eps
    for start in ({}, {"u1": np.ones(2)}, {"U": np.ones(2)}):
        for tol in (1e-16, math.nan):
            with pytest.raises(ValueError, match="tol must be at least"):
                solve_fortet(two_by_two, tol=tol, **start)
        assert solve_fortet(two_by_two, tol=MIN_TOL, max_iter=3, **start).iterations == 3
    # the oracle follows the same rule instead of burning its budget
    for tol in (1e-17, math.nan):
        with pytest.raises(ValueError, match="tol must be at least"):
            sinkhorn_baseline(two_by_two, tol=tol)
    assert sinkhorn_baseline(two_by_two, tol=MIN_TOL).marginal_err_y <= 1e-14


@pytest.mark.parametrize("case", [2, 10, "massless"])
def test_solvers_agree_with_chained_single_steps(two_by_two, case):
    # the solvers' loop against the public single-step API, iterate for
    # iterate; the wide random ceiling makes the floor U/n bind, and the
    # massless x point of an unreduced problem gives mu/u a zero entry
    k, k_plain = 25, 5
    if case == 2:
        problem, U = two_by_two, np.ones(2)
    elif case == 10:
        rng = np.random.default_rng(29)
        problem = random_positive_problem(rng, case, case)
        U = np.exp(rng.uniform(-3.0, 3.0, case))
    else:
        problem = build_dense_problem([[1.0, 2.0], [3.0, 4.0], [5.0, 0.5]],
                                      [0.5, 0.5, 0.0], [0.3, 0.7])
        U, k, k_plain = np.ones(3), 9, 7
    result = solve_fortet(problem, U=U, tol=MIN_TOL, max_iter=k, trace=True)
    assert result.status == "max-iter"
    state = SchemeState(n=1, u=U.copy(), ceiling=U)
    for rec in result.trace:
        assert rec.n == state.n
        assert rec.min_u == np.min(state.u) and rec.max_u == np.max(state.u)
        state = iterate_truncated(state, problem)
        run = solve_fortet(problem, U=U, tol=MIN_TOL, max_iter=rec.n)
        assert np.array_equal(run.u_star, state.u)
    assert len(result.trace) == k
    assert np.array_equal(result.u_star, state.u)
    assert result.early_exit_index == state.early_exit_index

    u1 = np.linspace(0.5, 2.0, problem.n_x)
    u = u1
    for n in range(1, k_plain + 1):
        u = phi(problem, u)
        plain = solve_fortet(problem, u1=u1, tol=MIN_TOL, max_iter=n)
        assert plain.status == "max-iter"
        assert np.array_equal(plain.u_star, u)


def _chained_steps(problem, u1, U, steps):
    """``u_1 .. u_{steps+1}`` and the phi of each, from the public single
    steps: :func:`iterate_truncated` with a ceiling ``U``, ``phi`` without."""
    us, phis = [u1], []
    state = SchemeState(n=1, u=u1.copy(), ceiling=U)
    for _ in range(steps):
        if U is None:
            phis.append(phi(problem, us[-1]))
            us.append(phis[-1])
        else:
            state = iterate_truncated(state, problem)
            phis.append(state.phi_u)
            us.append(state.u)
    phis.append(phi(problem, us[-1]))
    return us, phis, state


_STOPS = {  # (P, mu, nu, clamp?, u_1 = start * ones (and U = u_1), status, iterations)
    # a start far from 1 tells the scale of the stopping test apart from 1
    "plain-converged": ([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5], [0.5, 0.5], False, 1e3,
                        STATUS_CONVERGED, 6),
    "clamp-converged": ([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5], [0.5, 0.5], True, 1e3,
                        STATUS_CONVERGED, 33),
    # no scaling exists: the plain iterate collapses at index 1
    "plain-degenerate": ([[1.0, 1.0], [0.0, 1.0]], [0.5, 0.5], [0.9, 0.1], False, 1.0,
                         STATUS_DEGENERATE, 19),
    # a kernel with a zero entry, where the clamp runs without the dichotomy check
    "clamp-zero-entry": ([[1.0, 1.0], [0.0, 1.0]], [0.6, 0.4], [0.4, 0.6], True, 1.0,
                         STATUS_CONVERGED, 55),
}


@pytest.mark.parametrize("name", list(_STOPS))
def test_loop_stops_where_the_single_steps_say(name):
    # each stopping branch of the loop against its rule evaluated on the
    # public single steps: the run stops at the first n where the rule holds
    P, mu, nu, clamp, start, status, iterations = _STOPS[name]
    problem = validate_reduction(build_dense_problem(P, mu, nu))
    tol, u1 = 1e-10, np.full(2, start)
    U = u1 if clamp else None
    result = solve_fortet(problem, tol=tol, trace=True, **({"U": U} if clamp else {"u1": u1}))
    assert (result.status, result.iterations, result.scheme) == (
        status, iterations, "truncated" if clamp else "untruncated")
    us, phis, state = _chained_steps(problem, u1, U, iterations)
    assert np.array_equal(result.u_star, us[-1])
    assert result.early_exit_index == (state.early_exit_index if clamp else None)
    targets = [ph if U is None else np.minimum(ph, U) for ph in phis]
    assert result.residual == np.max(np.abs(us[-1] - targets[-1]))

    assert len(result.trace) == iterations
    for k, rec in enumerate(result.trace):
        u, u_next = us[k], us[k + 1]
        assert (rec.n, rec.min_u, rec.max_u, rec.min_phi) == (
            k + 1, np.min(u), np.max(u), np.min(phis[k]))
        assert rec.normalization == np.dot(problem.mu.weights / u, phis[k])
        assert rec.residual == np.max(np.abs(u_next - u) / u)
        if clamp:  # the clamp's change is nonnegative, so it needs no abs
            assert rec.residual == np.max((u - u_next) / u)
        scale = np.max(U) if clamp else np.max(u_next)
        stops = rec.residual <= tol and np.max(np.abs(u_next - targets[k + 1])) <= tol * scale
        assert stops == (status == STATUS_CONVERGED and k + 1 == iterations)

    levels = [np.min(ph) if clamp else np.min(ph / phis[0]) for ph in phis]
    cutoff = fortet.DEGENERATE_CUTOFF * (np.min(U) if clamp else 1.0)
    falls = [level < cutoff and level < prev for prev, level in zip([INF] + levels, levels)]
    assert falls == [False] * iterations + [status == STATUS_DEGENERATE]


def test_solve_fortet_degenerate_cutoff_rule():
    # one row scaled far below the collapse cutoff: under the clamp from
    # U = 1, phi(U) starts under 1e-13 * min U while still decreasing,
    # which is the declared degenerate-zero trigger
    problem = validate_reduction(
        build_dense_problem([[1.0, 1.0], [1e-18, 1e-18]], [0.5, 0.5], [0.5, 0.5])
    )
    result = solve_fortet(problem, U=np.ones(problem.n_x))
    assert result.status == STATUS_DEGENERATE


def test_default_solves_the_row_scaled_far_below_the_cutoff():
    # the same problem has a scaling, a_0 / a_1 = 1e-18, which the plain
    # scheme finds where the clamp from U = 1 reports degenerate-zero
    problem = validate_reduction(
        build_dense_problem([[1.0, 1.0], [1e-18, 1e-18]], [0.5, 0.5], [0.5, 0.5])
    )
    result = solve_fortet(problem)
    assert (result.status, result.scheme, result.iterations) == (
        STATUS_CONVERGED, "untruncated", 2)
    sol = extract_solution(problem, result.u_star, psi_star=result.psi_star)
    assert sol.a[0] / sol.a[1] == pytest.approx(1e-18, rel=1e-12)
    assert max(sol.marginal_err_x, sol.marginal_err_y) <= 1e-16


def test_solve_fortet_infeasible_support_exhausts_budget():
    # the second row can only reach the second column, which cannot absorb
    # its mass: no solution exists; the positivity floor props the scheme
    # up at U/n, so collapse stays above the cutoff and the budget runs out
    problem = validate_reduction(
        build_dense_problem([[1.0, 1.0], [0.0, 1.0]], [0.5, 0.5], [0.9, 0.1])
    )
    result = solve_fortet(problem, U=np.ones(2), max_iter=500)
    assert result.status == "max-iter"


def test_solve_untruncated_degenerate_on_infeasible_support():
    # without the floor the infeasible entry collapses geometrically and
    # the per-index rule catches it
    problem = validate_reduction(
        build_dense_problem([[1.0, 1.0], [0.0, 1.0]], [0.5, 0.5], [0.9, 0.1])
    )
    result = solve_fortet(problem, max_iter=5000)
    assert result.status == STATUS_DEGENERATE


def test_solve_untruncated_vanishing_phi_is_degenerate_at_once():
    # an unreduced problem whose second row misses every y point: phi(u_1)
    # has a zero, which ends the run before it steps from a zero potential
    problem = build_dense_problem([[1.0, 1.0], [0.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
    result = solve_fortet(problem)
    assert result.status == STATUS_DEGENERATE and result.iterations == 0


def test_solve_untruncated_constant_kernel(constant_kernel):
    result = solve_fortet(constant_kernel)
    assert result.status == STATUS_CONVERGED
    assert np.array_equal(result.u_star, [1.0, 1.0])


def test_solve_untruncated_matches_truncated_up_to_scale(two_by_two):
    trunc = solve_fortet(two_by_two, U=np.ones(2), tol=1e-13)
    plain = solve_fortet(two_by_two, tol=1e-13)
    assert (trunc.scheme, plain.scheme) == ("truncated", "untruncated")
    assert plain.status == STATUS_CONVERGED
    ratio = plain.u_star / trunc.u_star
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) <= 1e-10


def test_solve_untruncated_divergent():
    problem = build_dense_problem([[1e250]], [1.0], [1.0])
    result = solve_fortet(problem, u1=np.array([1e-60]))
    assert result.status == STATUS_DIVERGENT


# ---------------------------------------------------------------------------
# extraction and entropy
# ---------------------------------------------------------------------------


def test_extract_independent_coupling_zero_entropy():
    problem = build_dense_problem(
        [[1.0, 1.0], [1.0, 1.0]], [0.5, 0.5], [0.5, 0.5],
        x_weights=[0.5, 0.5], y_weights=[0.5, 0.5],
    )
    sol = extract_solution(problem, np.ones(2))
    assert np.allclose(sol.pi, 0.25, rtol=0, atol=1e-15)
    assert sol.marginal_err_x <= 1e-15
    assert sol.marginal_err_y <= 1e-15
    assert abs(sol.rel_entropy) <= 1e-14


def test_extract_diagonal_coupling_entropy_ln2():
    problem = build_dense_problem(
        [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], [0.5, 0.5],
        x_weights=[0.5, 0.5], y_weights=[0.5, 0.5],
    )
    sol = extract_solution(problem, np.ones(2))
    assert np.allclose(sol.pi, [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)
    assert sol.rel_entropy == pytest.approx(math.log(2.0), abs=1e-14)


def test_extract_rejects_degenerate_potentials(two_by_two):
    with pytest.raises(DegeneratePotential):
        extract_solution(two_by_two, np.array([0.0, 1.0]))
    with pytest.raises(DegeneratePotential):
        extract_solution(two_by_two, np.array([INF, 1.0]))
    with pytest.raises(DegeneratePotential):
        extract_solution(two_by_two, np.ones(2), psi_star=np.array([1.0, 0.0]))


@pytest.mark.parametrize("u_star, psi_star", [
    ([2.0], [1.0, 1.0]),              # one entry short: it would broadcast over both rows
    ([1.0, 1.0, 1.0], None),
    ([1.0, 1.0], [1.0]),
    ([1.0, 1.0], [1.0, 1.0, 1.0]),
    ([math.nan, 1.0], None),
    ([1.0, 1.0], [math.nan, 1.0]),
    ([1.0, 1.0], [-1.0, 1.0]),
])
def test_extract_rejects_a_potential_of_the_wrong_shape_or_with_nan(two_by_two, u_star,
                                                                    psi_star):
    with pytest.raises(ValueError) as info:
        extract_solution(two_by_two, np.array(u_star),
                         psi_star=None if psi_star is None else np.array(psi_star))
    assert not isinstance(info.value, DegeneratePotential)


def test_extract_scale_invariance(two_by_two):
    sol1 = extract_solution(two_by_two, np.array([0.4, 1.0]))
    sol2 = extract_solution(two_by_two, np.array([0.4, 1.0]) * 37.5)
    assert np.max(np.abs(sol1.pi - sol2.pi)) <= 1e-12
    assert sol1.a.sum() == pytest.approx(1.0, abs=1e-14)
    assert sol2.a.sum() == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# sinkhorn baseline
# ---------------------------------------------------------------------------


def test_sinkhorn_constant_kernel_product_coupling():
    rng = np.random.default_rng(11)
    mu = rng.uniform(0.2, 1.0, 4)
    mu /= mu.sum()
    nu = rng.uniform(0.2, 1.0, 5)
    nu /= nu.sum()
    problem = build_dense_problem(np.ones((4, 5)), mu, nu)
    sol = sinkhorn_baseline(problem, tol=1e-13)
    assert np.max(np.abs(sol.pi - np.outer(mu, nu))) <= 1e-12


def test_sinkhorn_agrees_with_fortet(two_by_two):
    ours = solve_fortet(two_by_two, tol=1e-13)
    sol_f = extract_solution(two_by_two, ours.u_star, psi_star=ours.psi_star)
    sol_s = sinkhorn_baseline(two_by_two, tol=1e-13)
    assert np.max(np.abs(sol_f.pi - sol_s.pi)) <= 1e-10


def test_sinkhorn_gaussian_marginal_residuals(gaussian_1d_small):
    sol = sinkhorn_baseline(gaussian_1d_small, tol=1e-12)
    assert sol.marginal_err_x <= 1e-10
    assert sol.marginal_err_y <= 1e-10


def test_sinkhorn_requires_positive_kernel():
    problem = build_dense_problem([[1.0, 0.0], [1.0, 1.0]], [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError):
        sinkhorn_baseline(problem)


def test_sinkhorn_max_iter(two_by_two):
    with pytest.raises(MaxIterExceeded):
        sinkhorn_baseline(two_by_two, tol=1e-15, max_iter=1)


# ---------------------------------------------------------------------------
# coupling on demand, identity diagnostics, the oracle's log-sum-exp
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gaussian_801():
    """The unit Gaussian on the benchmark's 801-point grid, solved by the truncated scheme."""
    gp = GaussianProblem(a=[[1.0]], b=[[1.0]], c=[[1.0]])
    problem = validate_reduction(discretize_gaussian(gp, points_per_dim=801))
    return problem, solve_fortet(problem, tol=1e-10)


def _log_domain_sinkhorn(problem, tol, max_iter):
    """Reference: Sinkhorn in the log domain on ``scipy.special.logsumexp``.

    Returns the potentials ``(f, g)`` of the coupling ``exp(log P + f + g)``
    once the column error is at most ``tol`` (rows are exact after each
    ``f`` step), or None after ``max_iter`` iterations.
    """
    from scipy.special import logsumexp

    logP = np.log(kernel_matrix(problem))
    logmu, lognu = np.log(problem.mu.weights), np.log(problem.nu.weights)
    g = lognu - logsumexp(logP, axis=0)
    for _ in range(max_iter):
        f = logmu - logsumexp(logP + g, axis=1)
        col = logsumexp(logP + f[:, None], axis=0)
        if np.max(np.abs(np.exp(g + col) - problem.nu.weights)) <= tol:
            return f, g
        g = lognu - col
    return None


def _reference_gap(problem, sol, f, g):
    P = kernel_matrix(problem)
    return float(np.max(np.abs(sol.pi - np.exp(np.log(P) + f[:, None] + g))))


def test_oracle_agrees_with_the_log_domain_reference(two_by_two, gaussian_1d_small):
    for problem in (two_by_two, gaussian_1d_small):
        f, g = _log_domain_sinkhorn(problem, 1e-14, 1000)
        assert _reference_gap(problem, sinkhorn_baseline(problem, tol=1e-14), f, g) <= 1e-15


def test_oracle_converges_where_the_reference_does_on_wide_kernels():
    # kernel entries up to e^{+-700}: the oracle absorbs, the reference runs
    # in the log domain throughout.  The budget of 3000 lies 13% or more from
    # every iteration count of the first 20 draws
    outcomes = []
    for problem in wide_kernel_problems(20):
        ref = _log_domain_sinkhorn(problem, 1e-12, 3000)
        try:
            sol = sinkhorn_baseline(problem, tol=1e-12, max_iter=3000)
        except MaxIterExceeded:
            assert ref is None
            outcomes.append("max-iter")
            continue
        except DegeneratePotential:
            assert ref is not None
            outcomes.append("out of range")
            continue
        assert ref is not None
        for scaling in (sol.a, sol.b):
            assert np.isfinite(scaling).all() and (scaling > 0).all()
        with np.errstate(over="ignore"):
            ref_scalings = np.exp(np.concatenate(ref))
        if np.isfinite(ref_scalings).all() and (ref_scalings > 0).all():
            assert _reference_gap(problem, sol, *ref) <= 1e-9
            outcomes.append("agreed")
    assert set(outcomes) == {"max-iter", "out of range", "agreed"}


def test_oracle_refuses_scalings_out_of_float_range():
    # draw 4 converges in 1007 iterations, but with sum(a) = 1 the scaling a
    # has an entry below the smallest float, which would read 0.0
    problem = list(wide_kernel_problems(5))[4]
    assert _log_domain_sinkhorn(problem, 1e-12, 2000) is not None
    with pytest.raises(DegeneratePotential, match="sinkhorn scaling a"):
        sinkhorn_baseline(problem, tol=1e-12)


def test_pi_is_built_bitwise_from_a_and_b(gaussian_1d_small):
    result = solve_fortet(gaussian_1d_small, tol=1e-10)
    P = kernel_matrix(gaussian_1d_small)
    for sol in (extract_solution(gaussian_1d_small, result.u_star, psi_star=result.psi_star),
                sinkhorn_baseline(gaussian_1d_small, tol=1e-12)):
        assert np.array_equal(sol.pi, sol.a[:, None] * P * sol.b[None, :])
        assert sol.factors[1] is P


def _dense_diagnostics(problem, pi):
    """Reference: marginal errors and relative entropy from the dense coupling."""
    ref = (kernel_matrix(problem) * problem.x_space.weights[:, None]
           * problem.y_space.weights[None, :])
    mask = pi > 0
    return (float(np.max(np.abs(pi.sum(axis=1) - problem.mu.weights))),
            float(np.max(np.abs(pi.sum(axis=0) - problem.nu.weights))),
            float(np.sum(pi[mask] * np.log(pi[mask] / ref[mask]))))


def _assert_diagnostics_match_dense(problem, sol):
    # the identities sum n_x or n_y rounded terms, the dense formulas n_x n_y
    # terms pairwise (about log2(n_x n_y) roundings deep); the terms are
    # bounded in sum by the quantities below, so both sides agree to
    # (n_x + n_y) eps times those
    err_x, err_y, entropy = _dense_diagnostics(problem, sol.pi)
    eps = np.finfo(float).eps
    k = (problem.n_x + problem.n_y) * eps
    assert abs(sol.marginal_err_x - err_x) <= k * float(np.max(problem.mu.weights))
    assert abs(sol.marginal_err_y - err_y) <= k * float(np.max(problem.nu.weights))
    a, P, b = sol.factors
    rows, cols = a * (P @ b), b * (P.T @ a)
    scale = (float(np.dot(rows, np.abs(np.log(a / problem.x_space.weights))))
             + float(np.dot(cols, np.abs(np.log(b / problem.y_space.weights)))))
    assert abs(sol.rel_entropy - entropy) <= k * scale


@pytest.mark.parametrize("seed", range(6))
def test_identity_diagnostics_match_dense_formulas(seed):
    rng = np.random.default_rng(seed)
    n_x, n_y = rng.integers(2, 40, 2)
    problem = validate_reduction(random_positive_problem(rng, n_x, n_y, low=1e-3, high=5.0))
    result = solve_fortet(problem, tol=1e-12)
    _assert_diagnostics_match_dense(
        problem, extract_solution(problem, result.u_star, psi_star=result.psi_star))
    _assert_diagnostics_match_dense(problem, sinkhorn_baseline(problem, tol=1e-12))


def test_identity_diagnostics_match_dense_formulas_at_801_points(gaussian_801):
    problem, result = gaussian_801
    _assert_diagnostics_match_dense(
        problem, extract_solution(problem, result.u_star, psi_star=result.psi_star))
    _assert_diagnostics_match_dense(problem, sinkhorn_baseline(problem, tol=1e-14))


def _peak_in_kernels(run, P):
    """Peak memory ``tracemalloc`` sees during ``run()``, in units of ``P.nbytes``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / P.nbytes
    finally:
        tracemalloc.stop()


def test_extraction_and_oracle_hold_no_dense_temporaries(gaussian_801):
    # tracemalloc sees numpy's buffers; the kernels are cached first, so they
    # do not count.  Extraction needs vectors only; the oracle holds no array
    # of the kernel's size until it absorbs, and log P and K after that
    problem, result = gaussian_801
    P = kernel_matrix(problem)
    extract = _peak_in_kernels(
        lambda: extract_solution(problem, result.u_star, psi_star=result.psi_star), P)
    assert extract < 0.1
    oracle = _peak_in_kernels(lambda: sinkhorn_baseline(problem, tol=1e-14), P)
    assert oracle < 0.5
    # twisted by e^{+-150} across the grid, the first b step leaves range
    ramp = np.exp(np.linspace(-150.0, 150.0, problem.n_x))
    twisted = twist(problem, ramp, ramp)
    kernel_matrix(twisted)
    solutions = []
    absorbed = _peak_in_kernels(
        lambda: solutions.append(sinkhorn_baseline(twisted, tol=1e-14)), P)
    assert 1.5 < absorbed < 2.5
    plain = sinkhorn_baseline(problem, tol=1e-14)
    assert np.max(np.abs(solutions[0].pi - plain.pi)) <= 1e-15


# ---------------------------------------------------------------------------
# twisting
# ---------------------------------------------------------------------------


def test_twist_identity(two_by_two):
    twisted = twist(two_by_two, np.ones(2), np.ones(2))
    assert np.array_equal(kernel_matrix(twisted), kernel_matrix(two_by_two))


def test_twist_constant_alpha_coupling_invariant(two_by_two):
    base = solve_fortet(two_by_two, tol=1e-13)
    sol = extract_solution(two_by_two, base.u_star, psi_star=base.psi_star)
    twisted_problem = twist(two_by_two, np.full(2, 2.0), np.ones(2))
    tw = solve_fortet(twisted_problem, tol=1e-13)
    sol_tw = untwist_solution(
        extract_solution(twisted_problem, tw.u_star, psi_star=tw.psi_star),
        np.full(2, 2.0),
        np.ones(2),
    )
    assert np.max(np.abs(sol.pi - sol_tw.pi)) <= 1e-12


def test_twist_random_invariance_and_entropy():
    rng = np.random.default_rng(5)
    problem = random_positive_problem(rng, 10, 10)
    alpha = np.exp(rng.uniform(-1.5, 1.5, 10))
    beta = np.exp(rng.uniform(-1.5, 1.5, 10))
    base = solve_fortet(problem, tol=1e-13)
    sol = extract_solution(problem, base.u_star, psi_star=base.psi_star)
    twisted = twist(problem, alpha, beta)
    tw = solve_fortet(twisted, tol=1e-13)
    back = untwist_solution(
        extract_solution(twisted, tw.u_star, psi_star=tw.psi_star), alpha, beta
    )
    assert np.max(np.abs(sol.pi - back.pi)) <= 1e-10
    assert back.rel_entropy == pytest.approx(sol.rel_entropy, abs=1e-9)


# ---------------------------------------------------------------------------
# map properties
# ---------------------------------------------------------------------------


def test_psi_phi_monotone_elementwise():
    rng = np.random.default_rng(19)
    for _ in range(20):
        problem = random_positive_problem(rng, 8, 7)
        u = rng.uniform(0.1, 2.0, 8)
        u_hi = u * rng.uniform(1.0, 3.0, 8)
        assert (psi(problem, u) >= psi(problem, u_hi)).all()
        assert (phi(problem, u) <= phi(problem, u_hi)).all()


def test_phi_positive_homogeneous():
    rng = np.random.default_rng(23)
    problem = random_positive_problem(rng, 9, 9)
    u = rng.uniform(0.1, 2.0, 9)
    for kappa in (1e-3, 0.5, 7.0, 1e4):
        lhs = phi(problem, kappa * u)
        rhs = kappa * phi(problem, u)
        assert np.max(np.abs(lhs - rhs) / rhs) <= 1e-13


def test_dichotomy_under_structural_zeros(two_by_two):
    for u in ([0.0, 0.0], [0.0, 1.0], [1.0, 0.0]):
        ph = phi(two_by_two, np.array(u))
        assert (ph.min() == 0.0) == (ph.max() == 0.0)
    ph = phi(two_by_two, np.array([0.5, 2.0]))
    assert ph.min() > 0.0


def test_potential_from_solution_roundtrip(two_by_two):
    result = solve_fortet(two_by_two, tol=1e-13)
    sol = extract_solution(two_by_two, result.u_star, psi_star=result.psi_star)
    u = potential_from_solution(two_by_two, sol)
    assert np.max(np.abs(u / u[0] - result.u_star / result.u_star[0])) <= 1e-12


# ---------------------------------------------------------------------------
# the solvers' plain-BLAS dual step against the [0, inf]-aware maps
# ---------------------------------------------------------------------------


@given(
    seed=st.integers(0, 2**32 - 1),
    n_x=st.integers(1, 9),
    n_y=st.integers(1, 9),
    zero_share=st.sampled_from([0.0, 0.3, 0.6]),
)
@settings(max_examples=60, deadline=None)
def test_dual_step_bitwise_equals_extnum_path(seed, n_x, n_y, zero_share):
    rng = np.random.default_rng(seed)
    P = np.exp(rng.uniform(-30.0, 30.0, (n_x, n_y))) * (rng.uniform(size=(n_x, n_y)) >= zero_share)
    # one positive entry in every row and column, so the reduction holds
    P[np.arange(n_x), np.arange(n_x) % n_y] += 1.0
    P[np.arange(n_y) % n_x, np.arange(n_y)] += 1.0
    mu = rng.uniform(0.01, 1.0, n_x)
    nu = rng.uniform(0.01, 1.0, n_y)
    problem = validate_reduction(build_dense_problem(P, mu / mu.sum(), nu / nu.sum()))
    u = np.exp(rng.uniform(-20.0, 20.0, n_x))

    Pm = kernel_matrix(problem)
    ps_ext = ext_matvec(Pm.T, scaled_inverse(problem.mu.weights, u))
    ph_ext = ext_matvec(Pm, scaled_inverse(problem.nu.weights, ps_ext))
    ps, ph = _dual_step(problem)(u)
    assert np.array_equal(ps, ps_ext)
    assert np.array_equal(ph, ph_ext)
    assert np.array_equal(psi(problem, u), ps_ext)
    assert np.array_equal(phi(problem, u), ph_ext)


def _count_ext_matvec(monkeypatch):
    calls = []

    def counted(matrix, w):
        calls.append(1)
        return ext_matvec(matrix, w)

    monkeypatch.setattr(fortet, "ext_matvec", counted)
    return calls


def test_solve_untruncated_finite_start_skips_extnum_path(two_by_two, monkeypatch):
    calls = _count_ext_matvec(monkeypatch)
    assert solve_fortet(two_by_two, u1=np.array([0.5, 2.0])).status == STATUS_CONVERGED
    assert calls == []


@pytest.mark.parametrize(
    "u1",
    [[0.0, 1.0], [INF, 1.0], [INF, INF], [float("nan"), 1.0], [-1.0, 1.0]],
    ids=["zero", "some-inf", "all-inf", "nan", "negative"],
)
def test_solve_untruncated_rejects_start_off_the_positive_reals(two_by_two, u1):
    # 0 and INF belong to the boundary maps, never to an iterate
    with pytest.raises(ValueError):
        solve_fortet(two_by_two, u1=np.array(u1))


def test_solve_fortet_takes_a_ceiling_or_a_start_not_both(two_by_two):
    with pytest.raises(ValueError, match="not both"):
        solve_fortet(two_by_two, U=np.ones(2), u1=np.ones(2))


@pytest.mark.parametrize(
    "P, u1",
    [
        ([[1.0]], 1e-301),  # mu / u passes OVERFLOW_LIMIT
        ([[1e250]], 1e-60),  # the matvec P^T (mu / u) passes OVERFLOW_LIMIT
    ],
)
def test_divergent_plain_iteration_reports_through_overflow_guard(P, u1):
    problem = build_dense_problem(P, [1.0], [1.0])
    with pytest.raises(ExtOverflowError):
        _dual_step(problem)(np.array([u1]))
    for result in (
        solve_fortet(problem, u1=np.array([u1])),
        solve_fortet(problem, U=np.array([u1])),
    ):
        assert result.status == STATUS_DIVERGENT
        assert result.residual == INF
        assert result.psi_star is None


def test_iterate_above_the_overflow_guard_is_divergent(two_by_two):
    # every step stays inside the guards, but the iterate itself sits above
    # OVERFLOW_LIMIT: the run is divergent with a finite residual, so it
    # went through the iterate rule, not the ExtOverflowError branch
    result = solve_fortet(two_by_two, U=np.array([1e305, 1.0]), max_iter=10)
    assert result.status == STATUS_DIVERGENT
    assert result.iterations == 10
    assert math.isfinite(result.residual)
    assert result.psi_star is not None


def test_solve_fortet_raises_on_vanishing_dual():
    # a zero column on an unreduced problem: the dual step's psi vanishes
    problem = build_dense_problem([[1.0, 0.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(NonFiniteIntermediate, match="vanished"):
        solve_fortet(problem)


def test_solve_fortet_raises_on_dichotomy_violation():
    # a strictly positive kernel whose first row underflows phi to exactly 0
    problem = validate_reduction(
        build_dense_problem([[5e-324, 5e-324], [1e10, 1e10]], [0.5, 0.5], [0.5, 0.5])
    )
    with pytest.raises(NonFiniteIntermediate, match="dichotomy"):
        solve_fortet(problem, U=np.ones(2))


def test_solve_fortet_raises_on_monotonicity_violation(two_by_two, monkeypatch):
    monkeypatch.setattr(fortet, "_clamp_step", lambda phi_u, ceiling, n_next: 2.0 * ceiling)
    with pytest.raises(MonotonicityViolated) as info:
        solve_fortet(two_by_two, U=np.ones(two_by_two.n_x))
    assert isinstance(info.value, RuntimeError)


# ---------------------------------------------------------------------------
# the dual step's guards against the public maps' vector checks
# ---------------------------------------------------------------------------


def _guarded_chain(problem, u):
    """The dual step with every guard run as a vector check."""
    P = kernel_matrix(problem)
    ps = ext_matvec(P.T, scaled_inverse(problem.mu.weights, u))
    if not (ps > 0).all():
        raise NonFiniteIntermediate(
            "dual of a finite potential vanished somewhere: mu/u underflowed, "
            "or the problem is not reduced"
        )
    return ps, ext_matvec(P, scaled_inverse(problem.nu.weights, ps))


def _outcome(step, u):
    # no errstate: a step that warns fails, whatever the -W options
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return step(u)
        except (ExtOverflowError, NonFiniteIntermediate) as exc:
            return type(exc), str(exc)


def _straddling(problem, u, guard, ratio):
    """``(problem, u)`` rescaled so the guarded quantity sits at ``ratio`` times its limit.

    ``mu/u`` and ``psi`` scale as ``1/s`` and ``nu/psi`` and ``phi`` as
    ``s`` when ``u`` is scaled by ``s``, so one scale of ``u`` puts any of
    them at ``ratio * OVERFLOW_LIMIT``.  The smallest positive ``psi`` is
    put at ``ratio`` times the smallest subnormal by scaling the kernel
    instead, which also underflows its small entries.  Scales are found in
    extended precision; a rescaled ``u`` that is not finite and positive
    is not used.
    """
    P = kernel_matrix(problem)
    mu, nu = problem.mu.weights, problem.nu.weights
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = mu / u.astype(np.longdouble)
        ps = P.T @ x
        y = nu / ps
        ph = P @ y
        limit = np.longdouble(OVERFLOW_LIMIT) * ratio
        if guard == "psi>0":
            scale = np.longdouble(5e-324) * ratio / np.min(ps[ps > 0], initial=np.inf)
            return build_dense_problem((P * scale).astype(float), mu, nu), u
        scale = {
            "mu/u": np.max(x) / limit,
            "psi": np.max(ps) / limit,
            "nu/psi": limit / np.max(y),
            "phi": limit / np.max(ph),
        }[guard]
        scaled = (u * scale).astype(float)
    return problem, scaled if np.isfinite(scaled).all() and (scaled > 0).all() else u


@given(
    seed=st.integers(0, 2**32 - 1),
    n_x=st.integers(1, 7),
    n_y=st.integers(1, 7),
    zero_share=st.sampled_from([0.0, 0.3, 0.6]),
    reduced=st.booleans(),
    guard=st.sampled_from([None, "mu/u", "psi", "psi>0", "nu/psi", "phi"]),
    ratio=st.sampled_from([0.25, 0.5, 0.99, 1.0, 1.01, 2.0, 4.0, 1e8, 1e16]),
)
@settings(max_examples=400, deadline=None)
def test_dual_step_guards_decide_as_the_vector_checks(seed, n_x, n_y, zero_share, reduced,
                                                       guard, ratio):
    rng = np.random.default_rng(seed)
    P = np.exp(rng.uniform(-300.0, 300.0, (n_x, n_y))) * (rng.uniform(size=(n_x, n_y)) >= zero_share)
    mu = np.exp(rng.uniform(-300.0, 0.0, n_x))
    nu = np.exp(rng.uniform(-300.0, 0.0, n_y))
    if reduced:
        P[np.arange(n_x), np.arange(n_x) % n_y] += 1.0
        P[np.arange(n_y) % n_x, np.arange(n_y)] += 1.0
    else:
        # massless points stay in an unreduced problem
        mu[rng.uniform(size=n_x) < zero_share / 2] = 0.0
        nu[rng.uniform(size=n_y) < zero_share / 2] = 0.0
        mu[rng.integers(n_x)] += 1.0
        nu[rng.integers(n_y)] += 1.0
    problem = build_dense_problem(P, mu / mu.sum(), nu / nu.sum())
    if reduced:
        problem = validate_reduction(problem)
    if guard is None:
        u = np.exp(rng.uniform(-300.0, 300.0, problem.n_x))
    else:
        # a narrower spread leaves room to rescale it within the floats
        problem, u = _straddling(problem, np.exp(rng.uniform(-30.0, 30.0, problem.n_x)),
                                 guard, ratio)

    fast = _outcome(_dual_step(problem), u)
    reference = _outcome(lambda v: _guarded_chain(problem, v), u)
    if isinstance(reference[0], type):
        assert fast == reference
    else:
        assert not isinstance(fast[0], type), fast
        assert np.array_equal(fast[0], reference[0]) and np.array_equal(fast[1], reference[1])


@pytest.fixture(scope="module")
def hard_gaussian_2d():
    """The demo's hard 2-D Gaussian on a 31^2 grid, with its ``phi(1)`` ceiling."""
    gp = GaussianProblem(a=np.diag([0.1, 10.0]), b=np.diag([10.0, 0.1]), c=np.eye(2))
    problem = validate_reduction(discretize_gaussian(gp, points_per_dim=31))
    return problem, phi(problem, np.ones(problem.n_x))


def test_solvers_never_call_the_public_maps(gaussian_801, hard_gaussian_2d, monkeypatch):
    # the loop steps through _dual_step alone: a call to psi or phi fails the solve
    def refuse(*args, **kwargs):
        raise AssertionError("a step called psi/phi")

    rng = np.random.default_rng(2026)
    randoms = [random_positive_problem(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
               for _ in range(20)]
    monkeypatch.setattr(fortet, "psi", refuse)
    monkeypatch.setattr(fortet, "phi", refuse)

    gauss, _ = gaussian_801
    hard, ceiling = hard_gaussian_2d
    assert solve_fortet(gauss).status == STATUS_CONVERGED
    assert solve_fortet(gauss, u1=np.ones(gauss.n_x)).status == STATUS_CONVERGED
    # 300 of the 9159 clamp steps criterion 08 runs to convergence on this problem
    clamp = solve_fortet(hard, U=ceiling, tol=1e-5, max_iter=300)
    assert (clamp.status, clamp.iterations) == (STATUS_MAX_ITER, 300)
    for problem in randoms:
        assert solve_fortet(problem).status == STATUS_CONVERGED


# ---------------------------------------------------------------------------
# The default solve: the plain scheme alone
# ---------------------------------------------------------------------------


def _unit_gaussian(c, points):
    gp = GaussianProblem(a=[[1.0]], b=[[1.0]], c=[[float(c)]])
    return validate_reduction(discretize_gaussian(gp, points_per_dim=points))


@pytest.mark.parametrize("c, most", [(1.0, 25), (10.0, 200), (50.0, 900)])
def test_default_solve_reaches_the_coupling_of_the_clamp_run(c, most):
    # the clamp from U = 1 takes 971, 7397 and 9753 iterations here
    problem = _unit_gaussian(c, 201)
    default = solve_fortet(problem, tol=1e-10)
    clamp = solve_fortet(problem, U=np.ones(problem.n_x), tol=1e-10)
    assert default.status == clamp.status == STATUS_CONVERGED
    assert (default.scheme, clamp.scheme) == ("untruncated", "truncated")
    assert default.iterations <= most < clamp.iterations
    gap = np.max(np.abs(extract_solution(problem, default.u_star).pi
                        - extract_solution(problem, clamp.u_star).pi))
    assert gap <= 1e-8


def _assert_default_is_the_plain_run(problem, **options):
    """The default run is the plain scheme's bit for bit, trace included,
    however it ends; returns it."""
    default = solve_fortet(problem, trace=True, **options)
    plain = solve_fortet(problem, u1=np.ones(problem.n_x), trace=True, **options)
    assert default.scheme == "untruncated"
    assert (default.status, default.iterations) == (plain.status, plain.iterations)
    assert np.array_equal(default.u_star, plain.u_star)
    assert [astuple(r) for r in default.trace] == [astuple(r) for r in plain.trace]
    assert len(default.trace) == default.iterations
    return default


def _assert_default_is_the_plain_start(problem):
    """The default run is the plain scheme's, bit for bit, converges, and
    reaches the coupling of the clamp run from U = 1."""
    default = _assert_default_is_the_plain_run(problem, tol=1e-10)
    clamp = solve_fortet(problem, U=np.ones(problem.n_x), tol=1e-10)
    assert default.status == clamp.status == STATUS_CONVERGED
    gap = np.max(np.abs(extract_solution(problem, default.u_star, default.psi_star).pi
                        - extract_solution(problem, clamp.u_star, clamp.psi_star).pi))
    assert gap <= 1e-9


def _small_radial_problem():
    x = np.linspace(-1.0, 1.0, 5)
    uniform = Marginal(np.full(5, 0.2))
    return validate_reduction(DiscreteProblem(
        DiscreteSpace(x, np.ones(5)), DiscreteSpace(x, np.ones(5)), uniform, uniform,
        make_radial_kernel("exponential", rate=1.0)))


_EVERY_KERNEL = {
    "two-by-two": lambda: validate_reduction(
        build_dense_problem([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5], [0.5, 0.5])),
    "dense-15x12": lambda: random_positive_problem(np.random.default_rng(16), 15, 12),
    "gaussian-21": lambda: _unit_gaussian(1.0, 21),
    "radial-5": _small_radial_problem,
}


@pytest.mark.parametrize("name", list(_EVERY_KERNEL))
def test_default_is_the_plain_start_for_every_kernel(name):
    _assert_default_is_the_plain_start(_EVERY_KERNEL[name]())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nx=st.integers(1, 8), ny=st.integers(1, 8))
def test_default_reaches_the_clamp_coupling_on_small_dense_problems(seed, nx, ny):
    _assert_default_is_the_plain_start(random_positive_problem(np.random.default_rng(seed),
                                                               nx, ny))


def _rolled_problem():
    """A solvable c = 100 Gaussian problem whose y grid is its x grid rolled
    by 4 points, so that its kernel vanishes far off that band."""
    n = 104
    x = np.arange(n, dtype=float)
    uniform = Marginal(np.full(n, 1.0 / n))
    return validate_reduction(DiscreteProblem(
        DiscreteSpace(x, np.ones(n)), DiscreteSpace(np.roll(x, -4), np.ones(n)),
        uniform, uniform, GaussianKernel([[100.0]])))


_FAILED_DEFAULT_RUNS = {
    # the plain run needs 14 iterations
    "max-iter": (lambda: _unit_gaussian(1.0, 801), 5, STATUS_MAX_ITER, 5),
    # no scaling exists: the plain run collapses
    "infeasible": (lambda: validate_reduction(build_dense_problem(
        [[1.0, 1.0], [0.0, 1.0]], [0.5, 0.5], [0.9, 0.1])), 20_000, STATUS_DEGENERATE, 19),
    # phi underflows to 0 on the first row: the per-index rule stops at once
    "underflow": (lambda: validate_reduction(build_dense_problem(
        [[5e-324, 5e-324], [1e10, 1e10]], [0.5, 0.5], [0.5, 0.5])), 100_000,
        STATUS_DEGENERATE, 0),
}


@pytest.mark.parametrize("name", list(_FAILED_DEFAULT_RUNS))
def test_failed_default_run_is_the_plain_run(name):
    # no clamp run follows: status, iterations, u_star and trace are the plain run's
    import warnings

    make, max_iter, status, iterations = _FAILED_DEFAULT_RUNS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        default = _assert_default_is_the_plain_run(make(), max_iter=max_iter)
    assert (default.status, default.iterations) == (status, iterations)


def test_default_solves_the_rolled_gaussian_in_one_iteration():
    rolled = solve_fortet(_rolled_problem())
    assert (rolled.scheme, rolled.status, rolled.iterations) == (
        "untruncated", STATUS_CONVERGED, 1)
