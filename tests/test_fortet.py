import math
import tracemalloc

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
    discretize_gaussian,
    extract_solution,
    iterate_truncated,
    kernel_matrix,
    normalization_check,
    phi,
    psi,
    restricted_normalization,
    sinkhorn_baseline,
    solve_fortet,
    solve_untruncated,
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
from conftest import build_dense_problem, random_positive_problem


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
    result = solve_fortet(problem, tol=1e-12)
    assert result.early_exit_index == 1
    assert (result.u_star > 0).all()
    ph = phi(problem, result.u_star)
    assert np.array_equal(result.u_star, np.minimum(ph, 1.0))
    assert np.array_equal(result.u_star, ph)


def test_truncated_limit_touches_ceiling(two_by_two):
    # generic positive problems converge to the largest fixed-ray element
    # under the ceiling, so the ceiling is attained and phi approaches it
    # from above: the early-exit marker legitimately stays unset
    result = solve_fortet(two_by_two, tol=1e-12)
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
    for solve in (solve_fortet, solve_untruncated):
        for tol in (1e-16, math.nan):
            with pytest.raises(ValueError, match="tol must be at least"):
                solve(two_by_two, tol=tol)
        assert solve(two_by_two, tol=MIN_TOL, max_iter=3).iterations == 3
    # the oracle follows the same rule instead of burning its budget
    for tol in (1e-17, math.nan):
        with pytest.raises(ValueError, match="tol must be at least"):
            sinkhorn_baseline(two_by_two, tol=tol)
    assert sinkhorn_baseline(two_by_two, tol=MIN_TOL).marginal_err_y <= 1e-14


@pytest.mark.parametrize("size", [2, 10])
def test_solvers_agree_with_chained_single_steps(two_by_two, size):
    # the solvers' loop against the public single-step API, step for step;
    # the wide random ceiling makes the floor U/n bind
    if size == 2:
        problem, U = two_by_two, np.ones(2)
    else:
        rng = np.random.default_rng(29)
        problem = random_positive_problem(rng, size, size)
        U = np.exp(rng.uniform(-3.0, 3.0, size))
    k = 25
    result = solve_fortet(problem, U=U, tol=MIN_TOL, max_iter=k, trace=True)
    assert result.status == "max-iter"
    state = SchemeState(n=1, u=U.copy(), ceiling=U)
    for rec in result.trace:
        assert rec.n == state.n
        assert rec.min_u == np.min(state.u) and rec.max_u == np.max(state.u)
        state = iterate_truncated(state, problem)
    assert len(result.trace) == k
    assert np.array_equal(result.u_star, state.u)
    assert result.early_exit_index == state.early_exit_index

    k = 5
    u = np.linspace(0.5, 2.0, problem.n_x)
    plain = solve_untruncated(problem, u1=u, tol=MIN_TOL, max_iter=k)
    assert plain.status == "max-iter"
    for _ in range(k):
        u = phi(problem, u)
    assert np.array_equal(plain.u_star, u)


def test_solve_fortet_degenerate_cutoff_rule():
    # one row scaled far below the collapse cutoff: phi(U) starts under
    # 1e-13 * min U while still decreasing, which is the declared
    # degenerate-zero trigger
    problem = validate_reduction(
        build_dense_problem([[1.0, 1.0], [1e-18, 1e-18]], [0.5, 0.5], [0.5, 0.5])
    )
    result = solve_fortet(problem)
    assert result.status == STATUS_DEGENERATE


def test_solve_fortet_infeasible_support_exhausts_budget():
    # the second row can only reach the second column, which cannot absorb
    # its mass: no solution exists; the positivity floor props the scheme
    # up at U/n, so collapse stays above the cutoff and the budget runs out
    problem = validate_reduction(
        build_dense_problem([[1.0, 1.0], [0.0, 1.0]], [0.5, 0.5], [0.9, 0.1])
    )
    result = solve_fortet(problem, max_iter=500)
    assert result.status == "max-iter"


def test_solve_untruncated_degenerate_on_infeasible_support():
    # without the floor the infeasible entry collapses geometrically and
    # the per-index rule catches it
    problem = validate_reduction(
        build_dense_problem([[1.0, 1.0], [0.0, 1.0]], [0.5, 0.5], [0.9, 0.1])
    )
    result = solve_untruncated(problem, max_iter=5000)
    assert result.status == STATUS_DEGENERATE


def test_solve_untruncated_vanishing_phi_is_degenerate_at_once():
    # an unreduced problem whose second row misses every y point: phi(u_1)
    # has a zero, which ends the run before it steps from a zero potential
    problem = build_dense_problem([[1.0, 1.0], [0.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
    result = solve_untruncated(problem)
    assert result.status == STATUS_DEGENERATE and result.iterations == 0


def test_solve_untruncated_constant_kernel(constant_kernel):
    result = solve_untruncated(constant_kernel)
    assert result.status == STATUS_CONVERGED
    assert np.array_equal(result.u_star, [1.0, 1.0])


def test_solve_untruncated_matches_truncated_up_to_scale(two_by_two):
    trunc = solve_fortet(two_by_two, tol=1e-13)
    plain = solve_untruncated(two_by_two, tol=1e-13)
    assert plain.status == STATUS_CONVERGED
    ratio = plain.u_star / trunc.u_star
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) <= 1e-10


def test_solve_untruncated_divergent():
    problem = build_dense_problem([[1e250]], [1.0], [1.0])
    result = solve_untruncated(problem, u1=np.array([1e-60]))
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


def _log_kernels():
    """Log-kernels to shift: a 51-point Gaussian, a random one, and integer ones with ties."""
    rng = np.random.default_rng(8)
    gp = GaussianProblem(a=[[1.0]], b=[[1.0]], c=[[1.0]])
    yield np.log(kernel_matrix(discretize_gaussian(gp, points_per_dim=51)))
    yield np.log(rng.uniform(0.05, 3.0, (12, 17)))
    # every row and column holds several equal maxima
    yield rng.integers(0, 3, (9, 14)).astype(float)
    yield np.zeros((4, 6))


def test_logsumexp_bitwise_equals_scipy():
    # the oracle's a and b stay those of scipy.special.logsumexp (checked
    # against scipy 1.17), bit for bit, on both axes and with tied maxima
    from scipy.special import logsumexp

    rng = np.random.default_rng(17)
    for logP in _log_kernels():
        for axis in (0, 1):
            n = logP.shape[axis]
            # integer shifts keep the ties of the integer kernels
            for shift in (np.zeros(n), rng.integers(-2, 3, n).astype(float),
                          rng.normal(0.0, 1.0, n), rng.normal(0.0, 30.0, n)):
                t = logP + (shift[None, :] if axis == 1 else shift[:, None])
                got = fortet._logsumexp(t.copy(), axis)
                assert np.array_equal(got, logsumexp(t, axis=axis)), (logP.shape, axis, shift)


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
    # tracemalloc sees numpy's buffers; the kernel is cached and scipy.special
    # imported first, so neither counts.  Extraction needs vectors only; the
    # oracle holds log P and one work array of its shape
    import scipy.special  # noqa: F401

    problem, result = gaussian_801
    P = kernel_matrix(problem)
    extract = _peak_in_kernels(
        lambda: extract_solution(problem, result.u_star, psi_star=result.psi_star), P)
    assert extract < 0.1
    oracle = _peak_in_kernels(lambda: sinkhorn_baseline(problem, tol=1e-14), P)
    assert oracle < 2.5


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
    assert solve_untruncated(two_by_two, u1=np.array([0.5, 2.0])).status == STATUS_CONVERGED
    assert calls == []


@pytest.mark.parametrize(
    "u1",
    [[0.0, 1.0], [INF, 1.0], [INF, INF], [float("nan"), 1.0], [-1.0, 1.0]],
    ids=["zero", "some-inf", "all-inf", "nan", "negative"],
)
def test_solve_untruncated_rejects_start_off_the_positive_reals(two_by_two, u1):
    # 0 and INF belong to the boundary maps, never to an iterate
    with pytest.raises(ValueError):
        solve_untruncated(two_by_two, u1=np.array(u1))


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
        solve_untruncated(problem, u1=np.array([u1])),
        solve_fortet(problem, U=np.array([u1])),
    ):
        assert result.status == STATUS_DIVERGENT
        assert result.residual == INF
        assert result.psi_star is None


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
        solve_fortet(problem)


def test_solve_fortet_raises_on_monotonicity_violation(two_by_two, monkeypatch):
    monkeypatch.setattr(fortet, "_clamp_step", lambda phi_u, ceiling, n_next: 2.0 * ceiling)
    with pytest.raises(MonotonicityViolated) as info:
        solve_fortet(two_by_two)
    assert isinstance(info.value, RuntimeError)


# ---------------------------------------------------------------------------
# the dual step's scalar guard bounds against the vector checks
# ---------------------------------------------------------------------------


def _guarded_chain(problem, u):
    """The dual step with every guard run as a vector check."""
    P = kernel_matrix(problem)
    ps = ext_matvec(P.T, scaled_inverse(problem.mu.weights, u))
    if not (ps > 0).all():
        raise NonFiniteIntermediate(
            "dual of a finite potential vanished somewhere; is the problem reduced?"
        )
    return ps, ext_matvec(P, scaled_inverse(problem.nu.weights, ps))


def _outcome(step, u):
    # no errstate: a step that warns fails under error::RuntimeWarning
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


def test_solvers_take_the_scalar_guards(gaussian_801, hard_gaussian_2d, monkeypatch):
    # a fallback step fails the solve, so the bounds must rule out every trip
    def refuse(*args, **kwargs):
        raise AssertionError("a step fell back to psi/phi")

    rng = np.random.default_rng(2026)
    randoms = [random_positive_problem(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
               for _ in range(20)]
    monkeypatch.setattr(fortet, "psi", refuse)
    monkeypatch.setattr(fortet, "phi", refuse)

    gauss, _ = gaussian_801
    hard, ceiling = hard_gaussian_2d
    assert solve_fortet(gauss).status == STATUS_CONVERGED
    assert solve_untruncated(gauss).status == STATUS_CONVERGED
    assert solve_fortet(hard, U=ceiling, tol=1e-5, max_iter=30_000).status == STATUS_CONVERGED
    for problem in randoms:
        assert solve_fortet(problem).status == STATUS_CONVERGED


# ---------------------------------------------------------------------------
# The plain start for kernels given on points
# ---------------------------------------------------------------------------


def _unit_gaussian(c, points):
    gp = GaussianProblem(a=[[1.0]], b=[[1.0]], c=[[float(c)]])
    return validate_reduction(discretize_gaussian(gp, points_per_dim=points))


def _assert_rescaled_steps_stay_in_bounds(problem, U, steps):
    """Chain ``steps`` rescaled steps from ``u_1 = U``, checking each one elementwise;
    returns the last iterate."""
    u = U.copy()
    for n in range(1, steps + 1):
        u_next = fortet._rescaled_step(phi(problem, u), u, U, n + 1)
        assert (u_next <= u).all()
        assert (u_next <= U).all()
        assert (u_next >= U / (n + 1)).all()
        u = u_next
    return u


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nx=st.integers(1, 8), ny=st.integers(1, 8),
       spread=st.floats(0.0, 30.0))
def test_rescaled_step_is_monotone_and_bounded(seed, nx, ny, spread):
    rng = np.random.default_rng(seed)
    problem = random_positive_problem(rng, nx, ny)
    U = np.exp(rng.uniform(-spread, spread, nx))
    _assert_rescaled_steps_stay_in_bounds(problem, U, 40)


@pytest.mark.parametrize("c, k", [(1.0, 10), (10.0, 100)])
def test_rescaled_step_from_the_coarse_ceiling_is_the_solver_loop(c, k):
    # the loop of solve_fortet, step for step, against the chained steps;
    # the plain start shares the budget k (it takes 9 and 72 iterations),
    # and the fine run needs more (13 and 109 at MIN_TOL)
    problem = _unit_gaussian(c, 201)
    U, _ = fortet._plain_ceiling(problem, k)
    u = _assert_rescaled_steps_stay_in_bounds(problem, U, k)
    result = solve_fortet(problem, tol=MIN_TOL, max_iter=k)
    assert result.status == "max-iter" and result.plain_iterations is not None
    assert np.array_equal(result.u_star, u)


@pytest.mark.parametrize("c, most", [(1.0, 25), (10.0, 200), (50.0, 900)])
def test_coarse_start_reaches_the_coupling_of_the_clamp_run(c, most):
    # the clamp from U = 1 takes 971, 7397 and 9753 iterations here
    problem = _unit_gaussian(c, 201)
    plain = solve_fortet(problem, tol=1e-10)
    clamp = solve_fortet(problem, U=np.ones(problem.n_x), tol=1e-10)
    assert plain.status == clamp.status == STATUS_CONVERGED
    assert plain.plain_iterations > 0 and clamp.plain_iterations is None
    assert plain.iterations + plain.plain_iterations <= most < clamp.iterations
    gap = np.max(np.abs(extract_solution(problem, plain.u_star).pi
                        - extract_solution(problem, clamp.u_star).pi))
    assert gap <= 1e-8


def test_point_kernel_below_the_coarse_minimum_keeps_the_clamp(gaussian_1d_small):
    default = solve_fortet(gaussian_1d_small, tol=1e-10)
    ones = solve_fortet(gaussian_1d_small, U=np.ones(gaussian_1d_small.n_x), tol=1e-10)
    assert default.plain_iterations is None
    assert default.iterations == ones.iterations
    assert np.array_equal(default.u_star, ones.u_star)


def _rolled_problem():
    """A solvable c = 100 Gaussian problem whose y grid is its x grid rolled
    by 4 points, so that its kernel vanishes far off that band."""
    n = 104
    x = np.arange(n, dtype=float)
    uniform = Marginal(np.full(n, 1.0 / n))
    return validate_reduction(DiscreteProblem(
        DiscreteSpace(x, np.ones(n)), DiscreteSpace(np.roll(x, -4), np.ones(n)),
        uniform, uniform, GaussianKernel([[100.0]])))


def _failed_plain_starts(monkeypatch):
    """(name, problem, max_iter) whose plain start fails, each in its own way."""
    gauss = _unit_gaussian(1.0, 801)
    # the plain start needs 9 iterations
    yield "max-iter", gauss, 5
    real = fortet.solve_untruncated

    def vanishing(problem, **kwargs):
        raise NonFiniteIntermediate("dual vanished")

    monkeypatch.setattr(fortet, "solve_untruncated", vanishing)
    yield "non-finite-intermediate", gauss, 100_000

    # a potential of infinities gives U = inf / inf
    def infinite(problem, **kwargs):
        result = real(problem, **kwargs)
        result.u_star = np.full(problem.n_x, INF)
        return result

    monkeypatch.setattr(fortet, "solve_untruncated", infinite)
    yield "non-finite", gauss, 100_000


def test_failed_coarse_level_falls_back_to_the_clamp(monkeypatch):
    import warnings

    for name, problem, max_iter in _failed_plain_starts(monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            default = solve_fortet(problem, max_iter=max_iter)
        ones = solve_fortet(problem, U=np.ones(problem.n_x), max_iter=max_iter)
        assert default.plain_iterations is None, name
        assert (default.status, default.iterations) == (ones.status, ones.iterations), name
        assert np.array_equal(default.u_star, ones.u_star), name
    monkeypatch.undo()
    rolled = solve_fortet(_rolled_problem())
    assert (rolled.status, rolled.iterations, rolled.plain_iterations) == (
        STATUS_CONVERGED, 1, 1)
