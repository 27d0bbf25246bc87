
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from schrobridge import (
    DiscreteProblem,
    DiscreteSpace,
    GaussianProblem,
    INF,
    Marginal,
    STATUS_CONVERGED,
    check_integral_criterion,
    check_compact_domination,
    check_moment_condition,
    check_radial,
    discretize_gaussian,
    full_report,
    kernel_matrix,
    make_radial_kernel,
    psi,
    scaling_certificate,
    solve_fortet,
    suggest_domination_witness,
    sufficient_for_existence,
    validate_reduction,
)
from schrobridge import RadialKernel
from schrobridge import problem as problem_module
from schrobridge.criteria import _column_sums
from conftest import build_dense_problem, peak_bytes, random_positive_problem


# ---------------------------------------------------------------------------
# integral criterion
# ---------------------------------------------------------------------------


def test_integral_constant_kernel():
    rng = np.random.default_rng(0)
    mu = rng.uniform(0.2, 1.0, 5)
    mu /= mu.sum()
    nu = rng.uniform(0.2, 1.0, 4)
    nu /= nu.sum()
    problem = build_dense_problem(np.ones((5, 4)), mu, nu)
    res = check_integral_criterion(problem)
    assert res.xy.finite and res.yx.finite
    assert res.xy.value == pytest.approx(1.0, abs=1e-14)
    assert res.yx.value == pytest.approx(1.0, abs=1e-14)


def test_integral_zero_column_is_inf():
    problem = build_dense_problem([[1.0, 0.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
    res = check_integral_criterion(problem)
    assert res.xy.value == INF
    assert not res.xy.finite


def test_integral_transpose_swaps_directions_exactly():
    rng = np.random.default_rng(1)
    problem = random_positive_problem(rng, 7, 9)
    res = check_integral_criterion(problem)
    res_t = check_integral_criterion(problem.transposed())
    assert res_t.xy.value == res.yx.value
    assert res_t.yx.value == res.xy.value


def test_integral_guard_flags_enormous_values():
    # one y point nearly unreachable: the inverse inner sum explodes
    problem = build_dense_problem(
        [[1.0, 1e-40], [1.0, 1e-40]], [0.5, 0.5], [0.5, 0.5]
    )
    res = check_integral_criterion(problem)
    assert res.xy.value > 1e15
    assert not res.xy.finite
    loose = check_integral_criterion(problem, finite_guard=1e45)
    assert loose.xy.finite


def test_integral_finite_terms_past_the_float_range_sum_to_inf():
    # each term 0.5 / 3.5e-309 is finite, and their sum is past the float range
    problem = build_dense_problem(np.full((2, 2), 3.5e-309), [0.5, 0.5], [0.5, 0.5])
    res = check_integral_criterion(problem)
    for direction in (res.xy, res.yx):
        assert direction.value == INF
        assert not direction.finite


# 1 + 2^-53 is a tie between doubles; 1 + 2^-53 + 2^-110 is not
_TIE_TERMS = [1.0, 2.0**-53, 2.0**-54, 3.0 * 2.0**-53, 2.0**-110]


@st.composite
def column_sets(draw):
    """A nonnegative matrix and row weights: ties, subnormals, zeros, 1e-300 to 1e300."""
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    entry = st.one_of(
        st.just(0.0),
        st.sampled_from(_TIE_TERMS),
        st.integers(1, 2**20).map(lambda k: k * 2.0**-1074),
        st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
        st.floats(0.0, 1e300),
    )
    W = np.array(draw(st.lists(entry, min_size=n * m, max_size=n * m))).reshape(n, m)
    zero_columns = draw(st.lists(st.integers(0, m - 1), max_size=2))
    W[:, zero_columns] = 0.0
    if draw(st.booleans()):
        w = np.ones(n)
    else:
        w = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                                   min_size=n, max_size=n)))
    return (np.asfortranarray(W) if draw(st.booleans()) else W), w


@given(column_sets())
@settings(max_examples=400, deadline=None)
def test_column_sums_keep_their_bits_across_layouts_and_their_error_bound(case):
    P, w = case
    sums = _column_sums(np.ascontiguousarray(P), w)
    assert np.array_equal(_column_sums(np.asfortranarray(P), w), sums)
    # recursive summation of n nonnegative terms: within gamma_{n-1} of the
    # exact sum of the same rounded products, so exactly 0 for a zero column
    n = P.shape[0]
    u = Fraction(1, 2**53)
    gamma = (n - 1) * u / (1 - (n - 1) * u)
    for got, terms in zip(sums, (P * w[:, None]).T):
        exact = sum(map(Fraction, terms))
        assert abs(Fraction(got) - exact) <= gamma * exact


@pytest.fixture(scope="module", params=[1.0, 50.0], ids=["c1", "c50"])
def gaussian_801_kernel(request):
    gp = GaussianProblem(a=[[1.0]], b=[[1.0]], c=[[request.param]])
    problem = validate_reduction(discretize_gaussian(gp, points_per_dim=801))
    return problem, kernel_matrix(problem)


def test_integral_transpose_swaps_directions_on_the_801_point_gaussian(gaussian_801_kernel):
    # the y->x sums run over a strided view of the kernel, the transposed
    # problem's x->y sums over a C-ordered matrix; numpy's pairwise sums
    # start above 8 terms, so a layout-dependent order shows here, not at 7 x 9
    problem, P = gaussian_801_kernel
    assert not P.T.flags.c_contiguous
    res = check_integral_criterion(problem)
    res_t = check_integral_criterion(problem.transposed())
    assert res_t.xy == res.yx
    assert res_t.yx == res.xy


# ---------------------------------------------------------------------------
# compact domination
# ---------------------------------------------------------------------------


def test_domination_self_domination(two_by_two):
    res = check_compact_domination(two_by_two, K_indices=[0], x_indices=[0], coefficients=[1.0])
    assert res.holds
    assert res.violation_index is None
    assert res.continuity == "asserted-not-checked"


def test_domination_spike_violation():
    P = np.ones((3, 3))
    P[1, 2] = 50.0  # spike inside K that no combination of rows 0,2 covers
    problem = build_dense_problem(P, [1 / 3] * 3, [1 / 3] * 3)
    res = check_compact_domination(problem, K_indices=[0, 1], x_indices=[2], coefficients=[10.0])
    assert not res.holds
    assert res.violation_index == 2


def test_domination_monotone_in_coefficients():
    rng = np.random.default_rng(2)
    problem = random_positive_problem(rng, 6, 8)
    witness = suggest_domination_witness(problem, K_indices=range(6))
    assert witness is not None
    x_idx, coeffs = witness
    res = check_compact_domination(problem, range(6), x_idx, coeffs)
    assert res.holds
    bigger = [2.0 * c for c in coeffs]
    assert check_compact_domination(problem, range(6), x_idx, bigger).holds


def test_domination_gaussian_witness_from_boundary():
    gp = GaussianProblem(a=[[1.0]], b=[[1.0]], c=[[1.0]])
    problem = validate_reduction(discretize_gaussian(gp, points_per_dim=51))
    K = [i for i, p in enumerate(problem.x_space.points[:, 0]) if abs(p) <= 1.0]
    witness = suggest_domination_witness(problem, K_indices=K)
    assert witness is not None
    x_idx, coeffs = witness
    res = check_compact_domination(problem, K, x_idx, coeffs)
    assert res.holds
    assert res.continuity == "declared-by-kernel-kind"


@pytest.mark.parametrize("points, a", [(15, [1.0, 1.0]), (31, [1.0, 1.0]), (31, [0.5, 2.0])],
                         ids=["15", "31", "31-anisotropic"])
def test_domination_witness_on_a_2d_gaussian_grid(points, a):
    # in d >= 2 every point of K is a candidate base point
    gp = GaussianProblem(a=np.diag(a), b=np.eye(2), c=np.eye(2))
    problem = validate_reduction(discretize_gaussian(gp, points_per_dim=points))
    K = np.flatnonzero(np.hypot(*problem.x_space.points.T) <= 1.0).tolist()
    assert len(K) > 4
    witness = suggest_domination_witness(problem, K_indices=K)
    assert witness is not None
    x_idx, coeffs = witness
    assert set(x_idx) <= set(K)
    assert check_compact_domination(problem, K, x_idx, coeffs).holds


def test_witness_search_without_a_witness_returns_none():
    # on the identity kernel, column 1 is seen from row 1 alone, and the 1-D
    # candidates are the extreme points 0 and 2 of K
    problem = build_dense_problem(np.eye(3), [1 / 3] * 3, [1 / 3] * 3)
    assert suggest_domination_witness(problem, K_indices=[0, 1, 2]) is None


def test_witness_search_for_a_zero_row_returns_none():
    # K's row is zero, so the LP optimum is c = 0 and no base point is kept
    problem = build_dense_problem([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5], [0.5, 0.5])
    assert suggest_domination_witness(problem, K_indices=[0]) is None


def test_domination_input_validation(two_by_two):
    with pytest.raises(ValueError):
        check_compact_domination(two_by_two, [], [0], [1.0])
    with pytest.raises(ValueError):
        check_compact_domination(two_by_two, [0], [0], [-1.0])


@pytest.mark.parametrize(
    "K, x, c",
    [([0], [2], [1.0]), ([2], [0], [1.0]), ([-1], [0], [1.0]), ([0], [-2], [1.0]),
     ([0], [0], [float("nan")]), ([0], [0], [float("inf")]),
     ([0.7], [1], [2.0]), (["1"], [1], [2.0]), ([True], [1], [2.0]), ([0], [1], ["2.0"])],
    ids=["x-past-end", "K-past-end", "K-negative", "x-negative", "c-nan", "c-inf",
         "K-fraction", "K-string", "K-bool", "c-string"],
)
def test_domination_rejects_indices_off_the_grid_and_bad_coefficients(two_by_two, K, x, c):
    # a negative index would wrap to the last rows, and a NaN or infinite
    # coefficient would certify any kernel
    with pytest.raises(ValueError):
        check_compact_domination(two_by_two, K, x, c)


@pytest.mark.parametrize("dim, points", [(1, 21), (2, 7)], ids=["1d", "2d"])
@pytest.mark.parametrize(
    "K, message",
    [([], "K nonempty"), ([10**6], r"indices must lie in \[0, "),
     ([-1], r"indices must lie in \[0, ")],
    ids=["empty", "past-end", "negative"],
)
def test_witness_search_refuses_a_bad_K_before_the_lp(monkeypatch, dim, points, K, message):
    import scipy.optimize

    def no_lp(*args, **kwargs):
        raise AssertionError("the LP ran")

    monkeypatch.setattr(scipy.optimize, "linprog", no_lp)
    gp = GaussianProblem(a=np.eye(dim), b=np.eye(dim), c=np.eye(dim))
    problem = validate_reduction(discretize_gaussian(gp, points_per_dim=points))
    with pytest.raises(ValueError, match=message):
        suggest_domination_witness(problem, K_indices=K)


def test_domination_accepts_integral_floats_and_numpy_integers(two_by_two):
    res = check_compact_domination(two_by_two, [np.int64(0)], [1.0], [np.float64(2.0)])
    assert res.K_indices == (0,) and res.x_indices == (1,) and res.coefficients == (2.0,)
    assert all(type(i) is int for i in res.K_indices + res.x_indices)


# ---------------------------------------------------------------------------
# exponential-moment condition
# ---------------------------------------------------------------------------


def test_moment_constant_kernel():
    problem = build_dense_problem(np.ones((3, 3)), [1 / 3] * 3, [1 / 3] * 3)
    res = check_moment_condition(problem, np.ones(3), r=2.0)
    assert res.holds
    assert res.c == pytest.approx(1.0, abs=1e-14)


def loop_moment_constant(problem, U, r, x_o):
    """Independent summation oracle for the moment constant."""
    P = kernel_matrix(problem)
    psi_U = psi(problem, U)
    best = 0.0
    for i in range(problem.n_x):
        total = 0.0
        for j in range(problem.n_y):
            total += (
                (P[i, j] / P[x_o, j]) ** r
                * P[x_o, j]
                * problem.nu.weights[j]
                / psi_U[j]
            )
        best = max(best, total / U[i] ** r)
    return best


def test_moment_two_by_two_matches_oracle(two_by_two):
    res = check_moment_condition(two_by_two, np.ones(2), r=2.0)
    assert res.holds
    assert res.c == pytest.approx(loop_moment_constant(two_by_two, np.ones(2), 2.0, 0), rel=1e-14)


def test_moment_infinite_ceiling_fails_precondition(two_by_two):
    with pytest.raises(ValueError, match="ceiling U"):
        check_moment_condition(two_by_two, np.array([INF, 1.0]))


def test_moment_scale_invariance():
    rng = np.random.default_rng(3)
    problem = random_positive_problem(rng, 5, 6)
    U = rng.uniform(0.5, 2.0, 5)
    r = 2.5
    base = check_moment_condition(problem, U, r=r)
    for kappa in (0.01, 3.0, 250.0):
        scaled = check_moment_condition(problem, kappa * U, r=r)
        assert scaled.holds == base.holds
        assert scaled.c == pytest.approx(base.c * kappa ** (1.0 - r), rel=1e-10)


def test_moment_requires_r_above_one(two_by_two):
    with pytest.raises(ValueError):
        check_moment_condition(two_by_two, np.ones(2), r=1.0)


# ---------------------------------------------------------------------------
# radial profile
# ---------------------------------------------------------------------------


def test_radial_gaussian_profile():
    t = np.linspace(0.0, 10.0, 400)
    res = check_radial(t, np.exp(-(t**2) / 2.0), L_candidates=[0.0, 1.0, 2.0])
    assert res.holds
    assert res.L_found == 0.0


def test_radial_shifted_bump():
    t = np.linspace(0.0, 6.0, 600)
    res = check_radial(t, np.exp(-((t - 1.0) ** 2)), L_candidates=[0.0, 0.5, 1.0, 1.5])
    assert res.holds
    assert res.L_found == 1.0


def test_radial_oscillation_never_settles():
    t = np.linspace(0.0, 20.0, 2000)
    res = check_radial(t, 2.0 + np.sin(t), L_candidates=np.linspace(0.0, 13.0, 27))
    assert not res.holds
    assert res.L_found is None


def test_radial_rejects_misaligned_samples():
    with pytest.raises(ValueError, match="^t_samples and theta_values must be aligned vectors$"):
        check_radial([0.0, 1.0], [1.0], L_candidates=[0.0])


def test_radial_rejects_nonpositive_profile():
    t = np.linspace(0.0, 5.0, 50)
    with pytest.raises(ValueError):
        check_radial(t, np.sin(t), L_candidates=[0.0])


# ---------------------------------------------------------------------------
# assembled report
# ---------------------------------------------------------------------------


def test_full_report_positive_problem(two_by_two):
    report = full_report(two_by_two)
    assert report.positivity and report.boundedness
    assert report.sup_kernel == 4.0
    assert sufficient_for_existence(report)


def test_full_report_radial_kernel(gaussian_1d_small):
    radial_problem = DiscreteProblem(
        x_space=gaussian_1d_small.x_space,
        y_space=gaussian_1d_small.y_space,
        mu=gaussian_1d_small.mu,
        nu=gaussian_1d_small.nu,
        kernel=make_radial_kernel("gaussian", sigma=1.0),
    )
    report = full_report(radial_problem)
    assert report.radial is not None
    assert report.radial.holds
    assert report.radial.L_found == 0.0


def _uniform_problem(x, y, kernel):
    return DiscreteProblem(
        x_space=DiscreteSpace(x, np.ones(len(x))), y_space=DiscreteSpace(y, np.ones(len(y))),
        mu=Marginal(np.full(len(x), 1.0 / len(x))), nu=Marginal(np.full(len(y), 1.0 / len(y))),
        kernel=kernel)


def test_radial_verdict_takes_the_largest_distance_over_every_row_block(monkeypatch):
    # the farthest pair's x point is the last row, so in one-row blocks it
    # lies in another block than the first; the bump's cutoff L_found is a
    # multiple of a hundredth of the largest distance, and the first row's
    # largest distance gives another one
    g = np.linspace(1.0, -1.0, 7)
    x = np.array([(a, b) for a in g for b in g])
    h = np.linspace(0.0, 2.5, 6)
    y = np.array([(a, b) for a in h for b in h])
    dist = np.sqrt(((x[:, None] - y[None]) ** 2).sum(2))
    assert np.unravel_index(dist.argmax(), dist.shape)[0] == len(x) - 1
    bump = lambda r: np.exp(-((r - 1.0) ** 2))  # noqa: E731

    def verdict(top):
        t = np.linspace(0.0, top, 512)
        return check_radial(t, bump(t), np.linspace(0.0, top, 101))

    expected = verdict(dist.max())
    assert expected.holds and expected != verdict(dist[0].max())
    for entries in (problem_module.ROW_BLOCK_ENTRIES, 1):
        monkeypatch.setattr(problem_module, "ROW_BLOCK_ENTRIES", entries)
        report = full_report(_uniform_problem(x, y, RadialKernel(profile=bump)))
        assert report.radial == expected


def test_full_report_of_a_radial_kernel_holds_one_row_block():
    # 801 points in 1-D: the largest distance is read over blocks of 81 rows,
    # not from the whole (n_x, n_y, d) differences (about 15 MiB)
    grid = np.linspace(-4.0, 4.0, 801)[:, None]
    problem = _uniform_problem(grid, grid, make_radial_kernel("gaussian"))
    kernel_matrix(problem)
    assert peak_bytes(lambda: full_report(problem)) <= 2 * 2**20


def test_full_report_with_witnesses(two_by_two):
    report = replace(
        full_report(two_by_two),
        domination=check_compact_domination(two_by_two, [0, 1], [1], [2.0]),
        moment=check_moment_condition(two_by_two, np.ones(2)),
    )
    assert report.domination is not None and report.domination.holds
    assert report.moment is not None and report.moment.holds


def test_one_finite_direction_still_suffices():
    # only the y side has a nearly-unreachable point: xy blows up but the
    # mirrored direction stays moderate, and one direction is enough
    problem = build_dense_problem(
        [[1.0, 1e-40], [1.0, 1e-40]], [0.5, 0.5], [0.5, 0.5]
    )
    report = full_report(problem)
    assert not report.integral.xy.finite
    assert report.integral.yx.finite
    assert sufficient_for_existence(report)


def test_insufficient_when_both_directions_blow_up():
    # a nearly-unreachable point on each side trips the guard both ways
    problem = build_dense_problem(
        [[1.0, 1e-40], [1e-40, 1e-40]], [0.5, 0.5], [0.5, 0.5]
    )
    report = full_report(problem)
    assert not report.integral.xy.finite and not report.integral.yx.finite
    assert not sufficient_for_existence(report)


def test_finite_integral_criterion_implies_convergent_solve():
    # cross-module property: a strictly positive bounded kernel with a
    # finite integral criterion puts the truncated scheme in its
    # guaranteed-convergence regime
    rng = np.random.default_rng(17)
    for _ in range(5):
        problem = random_positive_problem(rng, int(rng.integers(3, 20)),
                                          int(rng.integers(3, 20)))
        report = check_integral_criterion(problem)
        assert report.xy.finite  # moderate random kernels stay finite
        result = solve_fortet(problem)
        assert result.status == STATUS_CONVERGED


# ---------------------------------------------------------------------------
# scaling certificate
# ---------------------------------------------------------------------------


def brute_force_no_scaling(support, mu, nu):
    """Every set S of x points against the pattern theorem, in Fraction arithmetic."""
    mu = [Fraction(v) for v in mu]
    nu = [Fraction(v) for v in nu]
    n_x = len(mu)
    for size in range(1, n_x + 1):
        for S in combinations(range(n_x), size):
            reach = support[list(S)].any(axis=0)
            mass_S = sum(mu[i] for i in S)
            mass_N = sum(v for v, r in zip(nu, reach) if r)
            outside = np.delete(support, list(S), axis=0)[:, reach]
            if mass_S > mass_N or (mass_S == mass_N and outside.any()):
                return True
    return False


def _dyadic_composition(draw, n):
    """``n`` positive multiples of 1/16 that sum to 1."""
    cuts = sorted(draw(st.lists(st.integers(1, 15), min_size=n - 1, max_size=n - 1,
                                unique=True)))
    return np.diff([0, *cuts, 16]) / 16.0


@st.composite
def patterned_problems(draw):
    n_x, n_y = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.booleans(), min_size=n_x * n_y, max_size=n_x * n_y))
    support = np.array(cells).reshape(n_x, n_y)
    assume(support.any(axis=1).all() and support.any(axis=0).all())
    if draw(st.booleans()):
        # the marginals of 16 units of mass placed on support entries: Hall's
        # condition holds, and equality holds whenever units miss an entry
        edges = np.argwhere(support)
        units = np.zeros((n_x, n_y))
        for k in draw(st.lists(st.integers(0, len(edges) - 1), min_size=16, max_size=16)):
            units[tuple(edges[k])] += 1.0
        mu, nu = units.sum(axis=1) / 16.0, units.sum(axis=0) / 16.0
        assume((mu > 0).all() and (nu > 0).all())
    else:
        mu, nu = _dyadic_composition(draw, n_x), _dyadic_composition(draw, n_y)
    values = draw(st.lists(st.sampled_from([0.25, 1.0, 3.0]), min_size=n_x * n_y,
                           max_size=n_x * n_y))
    P = np.where(support, np.reshape(values, (n_x, n_y)), 0.0)
    return support, mu, nu, validate_reduction(build_dense_problem(P, mu, nu))


@given(patterned_problems())
@settings(max_examples=400, deadline=None)
def test_certificate_exactly_when_brute_force_finds_no_scaling(case):
    support, mu, nu, problem = case
    cert = scaling_certificate(problem)
    assert (cert is not None) == brute_force_no_scaling(support, mu, nu)
    if cert is not None:
        S = list(cert.indices)
        reach = support[S].any(axis=0)
        assert cert.side == "x" and cert.reach == tuple(np.flatnonzero(reach))
        assert cert.mass == mu[S].sum() and cert.reach_mass == nu[reach].sum()
        if cert.kind == "hall":
            assert cert.mass > cert.reach_mass
        else:
            assert cert.kind == "tight" and cert.mass == cert.reach_mass
            assert np.delete(support, S, axis=0)[:, reach].any()
        # with no scaling, some index of the truncated scheme follows its
        # floor U/n toward 0; while it is held there, each step changes it by
        # 1/(n+1) relative, far above tol
        assert solve_fortet(problem, max_iter=500).status != STATUS_CONVERGED


@pytest.mark.parametrize(
    "P, mu, nu, expected",
    [
        # the two infeasible problems of the benchmark's small batch
        ([[1.0, 1.0], [0.0, 1.0]], [0.5, 0.5], [0.5, 0.5], ("tight", (1,), (1,))),
        ([[1.0, 0.0], [0.0, 1.0]], [0.7, 0.3], [0.5, 0.5], ("hall", (0,), (0,))),
        ([[1.0, 1.0], [0.0, 1.0]], [0.6, 0.4], [0.4, 0.6], None),
        # feasible, with 1e-13 on entry (0, 1): below the flow's tolerance, so
        # S = {1} is a candidate; the totals are 3e-13 apart, and only
        # before normalizing is mu(S) > nu(N(S))
        ([[1.0, 1.0], [0.0, 1.0]], [0.5, 0.5],
         [(0.5 - 1e-13) * (1 - 3e-13), (0.5 + 1e-13) * (1 - 3e-13)], None),
        # an x point with mass and no positive entry, before validation
        ([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5], [0.5, 0.5], ("hall", (0,), ())),
        # points without mass drop out, as validation drops them
        ([[0.0, 0.0], [1.0, 1.0]], [0.0, 1.0], [0.5, 0.5], None),
        ([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], [0.5, 0.5], [0.5, 0.5, 0.0], None),
    ],
    ids=["tight", "hall", "feasible-with-zero", "totals-apart", "unreachable-row",
         "massless-row", "massless-column"],
)
def test_certificate_cases(P, mu, nu, expected):
    cert = scaling_certificate(build_dense_problem(P, mu, nu))
    assert (cert if cert is None else (cert.kind, cert.indices, cert.reach)) == expected


def test_certificate_passes_an_underflowed_gaussian_kernel():
    # c = 50 at 201 points: 12,210 kernel entries underflow to 0, yet a
    # scaling exists (the truncated scheme converges on it)
    gp = GaussianProblem(a=[[1.0]], b=[[1.0]], c=[[50.0]])
    problem = validate_reduction(discretize_gaussian(gp, points_per_dim=201))
    assert (kernel_matrix(problem) == 0).sum() == 12210
    assert scaling_certificate(problem) is None
    assert full_report(problem).scaling is None


@pytest.mark.parametrize("criterion", ["domination", "moment", "radial"])
def test_each_supplied_criterion_suffices_alone(two_by_two, criterion):
    # a guard below both integral values (about 0.42 and 0.48 on the 2x2,
    # 1.9 on the radial grid) leaves the integral criterion out
    problem, sections = two_by_two, {}
    if criterion == "domination":
        sections["domination"] = check_compact_domination(problem, [0], [1], [1.0])
    elif criterion == "moment":
        sections["moment"] = check_moment_condition(problem, np.ones(2))
    else:
        pts = np.linspace(-1.0, 1.0, 5)
        problem = DiscreteProblem(DiscreteSpace(pts, np.ones(5)), DiscreteSpace(pts, np.ones(5)),
                                  Marginal(np.full(5, 0.2)), Marginal(np.full(5, 0.2)),
                                  make_radial_kernel("exponential", rate=1.0))
    report = replace(full_report(problem, finite_guard=0.1), **sections)
    assert not report.integral.xy.finite and not report.integral.yx.finite
    assert getattr(report, criterion).holds
    assert sufficient_for_existence(report)
    assert not sufficient_for_existence(replace(report, **{criterion: None}))
