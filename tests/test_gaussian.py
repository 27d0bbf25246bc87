import math

import numpy as np
import pytest

from schrobridge import (
    DegenerateBC,
    DimensionMismatch,
    GaussianProblem,
    GridTooLarge,
    NotSPD,
    discretize_gaussian,
    gauss_convolve_precision,
    gauss_density,
    kernel_matrix,
    matrix_criterion,
    ceiling_quadratic_boundary,
    ceiling_quadratic,
)
from schrobridge.gaussian import d_upper_bound


def test_density_scalar_at_origin():
    assert gauss_density([[1.0]], [0.0]) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)


def test_density_identity_2d_at_origin():
    assert gauss_density(np.eye(2), [0.0, 0.0]) == pytest.approx(1.0 / (2 * math.pi), abs=1e-12)


def test_density_scalar_at_one():
    expect = math.exp(-0.5) / math.sqrt(2 * math.pi)
    assert gauss_density([[1.0]], [1.0]) == pytest.approx(expect, abs=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_density_with_a_determinant_past_the_float_range_stays_finite():
    # det(1e200 I) = 1e400 overflows; the density at 0 is 1e200 / (2 pi)
    got = gauss_density(1e200 * np.eye(2), [0.0, 0.0])
    assert got == pytest.approx(1e200 / (2 * math.pi), rel=1e-12)


def test_density_rejects_non_spd():
    with pytest.raises(NotSPD):
        gauss_density([[0.0]], [0.0])
    with pytest.raises(NotSPD):
        gauss_density([[1.0, 0.5], [0.2, 1.0]], [0.0, 0.0])


def test_convolve_scalars():
    out = gauss_convolve_precision([[1.0]], [[1.0]])
    assert out[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_convolve_commuting_matrices():
    out = gauss_convolve_precision(np.eye(2), 2 * np.eye(2))
    assert np.allclose(out, (2.0 / 3.0) * np.eye(2), atol=1e-14)


def test_convolve_against_quadrature():
    # quadrature oracle: convolve the two densities on a fine grid and
    # compare with the closed-form density at probe points
    rng = np.random.default_rng(1)
    A = rng.normal(size=(2, 2))
    alpha = A @ A.T + 1.5 * np.eye(2)
    B = rng.normal(size=(2, 2))
    c = B @ B.T + 1.5 * np.eye(2)
    out = gauss_convolve_precision(c, alpha)

    axis = np.linspace(-7, 7, 241)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    cell = (axis[1] - axis[0]) ** 2
    dens_alpha = np.array([gauss_density(alpha, p) for p in pts])
    for probe in ([0.0, 0.0], [0.4, -0.3], [1.0, 0.5]):
        probe = np.asarray(probe)
        dens_c = np.array([gauss_density(c, probe - p) for p in pts])
        quad = float(np.sum(dens_c * dens_alpha) * cell)
        assert quad == pytest.approx(gauss_density(out, probe), rel=1e-6)


def test_convolve_spectrum_below_both_factors():
    rng = np.random.default_rng(2)
    for _ in range(10):
        A = rng.normal(size=(3, 3))
        alpha = A @ A.T + 0.5 * np.eye(3)
        B = rng.normal(size=(3, 3))
        c = B @ B.T + 0.5 * np.eye(3)
        out = gauss_convolve_precision(c, alpha)
        eigs = np.linalg.eigvalsh(out)
        assert eigs.min() > 0
        assert eigs.max() < min(np.linalg.eigvalsh(c).max(), np.linalg.eigvalsh(alpha).max())


def test_matrix_criterion_unit_scalars():
    res = matrix_criterion(GaussianProblem(a=[[1.0]], b=[[1.0]], c=[[1.0]]))
    assert res.xy_holds and res.yx_holds
    assert res.xy_min_eig == pytest.approx(0.5, abs=1e-14)


def test_matrix_criterion_scalar_always_one_direction():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b, c = rng.uniform(0.1, 10.0, 3)
        res = matrix_criterion(GaussianProblem(a=[[a]], b=[[b]], c=[[c]]))
        assert res.xy_holds or res.yx_holds


def test_matrix_criterion_diag_counterexample():
    gp = GaussianProblem(a=np.diag([0.1, 10.0]), b=np.diag([10.0, 0.1]), c=np.eye(2))
    res = matrix_criterion(gp)
    assert not res.xy_holds and not res.yx_holds
    # hand oracle per diagonal component: ab + cb - ac and ab + ac - cb
    for adiag, bdiag in (((0.1, 10.0), (10.0, 0.1)),):
        xy = [a * b + b - a for a, b in zip(adiag, bdiag)]
        yx = [a * b + a - b for a, b in zip(adiag, bdiag)]
        assert min(xy) < 0 and min(yx) < 0


def test_matrix_criterion_swap_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = rng.uniform(0.1, 5.0, 2)
        e = rng.uniform(0.1, 5.0, 2)
        gp = GaussianProblem(a=np.diag(d), b=np.diag(e), c=np.eye(2))
        swapped = GaussianProblem(a=np.diag(e), b=np.diag(d), c=np.eye(2))
        r1 = matrix_criterion(gp)
        r2 = matrix_criterion(swapped)
        assert r1.xy_holds == r2.yx_holds
        assert r1.yx_holds == r2.xy_holds


def test_ceiling_quadratic_unit_point():
    gp = GaussianProblem(a=[[1.0]], b=[[1.0]], c=[[1.0]])
    assert ceiling_quadratic(gp, d=0.0, r=1.0) == pytest.approx(1.0, abs=1e-15)


def test_ceiling_quadratic_boundary_worked_example():
    gp = GaussianProblem(a=[[2.0]], b=[[1.0]], c=[[3.0]])
    assert d_upper_bound(gp) == pytest.approx(-0.5, abs=1e-15)
    ident = ceiling_quadratic_boundary(gp)
    assert ident.lhs == pytest.approx(-6.75, abs=1e-12)
    assert ident.rhs == pytest.approx(-6.75, abs=1e-12)


def test_pr_r_reduction_identity():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b, c = rng.uniform(0.1, 10.0, 3)
        d = rng.uniform(-10.0, 10.0)
        r = rng.uniform(1.0, 4.0)
        gp = GaussianProblem(a=[[a]], b=[[b]], c=[[c]])
        lhs = ceiling_quadratic(gp, d, r) - ceiling_quadratic(gp, d, 1.0)
        rhs = -(r - 1.0) * c * c * (a + c + d) / b
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_ceiling_quadratic_boundary_degenerate():
    gp = GaussianProblem(a=[[1.0]], b=[[2.0]], c=[[2.0]])
    with pytest.raises(DegenerateBC):
        ceiling_quadratic_boundary(gp)


def test_pr_requires_scalar():
    gp = GaussianProblem(a=np.eye(2), b=np.eye(2), c=np.eye(2))
    with pytest.raises(DimensionMismatch):
        ceiling_quadratic(gp, 0.0, 1.0)


def test_discretize_scalar_grid():
    gp = GaussianProblem(a=[[1.0]], b=[[1.0]], c=[[1.0]])
    problem = discretize_gaussian(gp, points_per_dim=201)
    assert problem.n_x == 201
    assert problem.mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
    # symmetric grid, symmetric weights
    assert np.allclose(problem.mu.weights, problem.mu.weights[::-1], rtol=0, atol=1e-14)
    assert problem.x_space.points[100, 0] == pytest.approx(0.0, abs=1e-12)
    assert problem.x_space.points[-1, 0] == pytest.approx(6.0, abs=1e-12)


def test_discretize_2d_grid_size():
    gp = GaussianProblem(a=np.diag([1.0, 2.0]), b=np.diag([1.0, 0.5]), c=np.eye(2))
    problem = discretize_gaussian(gp, points_per_dim=31)
    assert problem.n_x == 961
    assert problem.n_y == 961
    assert problem.x_space.dim == 2


def test_discretize_respects_marginal_scales():
    gp = GaussianProblem(a=[[4.0]], b=[[0.25]], c=[[1.0]])
    problem = discretize_gaussian(gp, points_per_dim=11, half_width_sigmas=2.0)
    # sigma_mu = 1/2, sigma_nu = 2
    assert problem.x_space.points[-1, 0] == pytest.approx(1.0, abs=1e-12)
    assert problem.y_space.points[-1, 0] == pytest.approx(4.0, abs=1e-12)


def test_discretize_guards():
    gp = GaussianProblem(a=[[1.0]], b=[[1.0]], c=[[1.0]])
    with pytest.raises(ValueError):
        discretize_gaussian(gp, points_per_dim=10)
    with pytest.raises(ValueError):
        discretize_gaussian(gp, points_per_dim=1)
    with pytest.raises(GridTooLarge):
        discretize_gaussian(gp, points_per_dim=1_000_001)


def test_discretized_kernel_matches_density():
    gp = GaussianProblem(a=[[1.0]], b=[[1.0]], c=[[2.0]])
    problem = discretize_gaussian(gp, points_per_dim=5, half_width_sigmas=1.0)
    P = kernel_matrix(problem)
    x0 = problem.x_space.points[1]
    y0 = problem.y_space.points[3]
    assert P[1, 3] == pytest.approx(gauss_density([[2.0]], y0 - x0), rel=1e-12)


def test_spd_check_of_entries_near_the_float_range():
    # no overflow near the float range, and a symmetric matrix comes back bit for bit
    gp = GaussianProblem(a=[[1e308]], b=[[1.0]], c=[[1.0]])
    assert gp.a[0, 0] == 1e308
    with pytest.raises(NotSPD, match="a is not positive definite"):
        GaussianProblem(a=[[1.0, 1e308], [1e308, 1.0]], b=np.eye(2), c=np.eye(2))
    with pytest.raises(NotSPD, match="a is not symmetric"):
        GaussianProblem(a=[[1.0, 1e308], [-1e308, 1.0]], b=np.eye(2), c=np.eye(2))


def test_gaussian_problem_validation():
    with pytest.raises(NotSPD):
        GaussianProblem(a=[[-1.0]], b=[[1.0]], c=[[1.0]])
    with pytest.raises(DimensionMismatch):
        GaussianProblem(a=np.eye(2), b=[[1.0]], c=[[1.0]])
