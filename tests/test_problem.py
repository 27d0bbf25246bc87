import json
import math
import warnings

import numpy as np
import pytest

from schrobridge import (
    DenseKernel,
    DiscreteProblem,
    DiscreteSpace,
    EvaluationError,
    GaussianKernel,
    IrreducibleProblem,
    Marginal,
    NotSPD,
    ParseError,
    RadialKernel,
    SchemaError,
    ValidationError,
    check_compact_domination,
    kernel_matrix,
    load_problem,
    make_radial_kernel,
    save_problem,
    validate_reduction,
)
from schrobridge.problem import PLAIN_START_MIN_POINTS, takes_plain_start
from conftest import build_dense_problem


def _functional_problem(kernel, x_points, y_points):
    """``kernel`` on 1-D grids with unit reference weights and uniform marginals."""
    nx, ny = len(x_points), len(y_points)
    return DiscreteProblem(
        x_space=DiscreteSpace(np.asarray(x_points, float), np.ones(nx)),
        y_space=DiscreteSpace(np.asarray(y_points, float), np.ones(ny)),
        mu=Marginal(np.full(nx, 1.0 / nx)),
        nu=Marginal(np.full(ny, 1.0 / ny)),
        kernel=kernel,
    )


def test_space_validation():
    with pytest.raises(ValidationError):
        DiscreteSpace(np.array([[0.0], [1.0]]), np.array([1.0]))
    with pytest.raises(ValidationError):
        DiscreteSpace(np.array([[0.0]]), np.array([0.0]))
    s = DiscreteSpace(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0]))
    assert s.dim == 1 and s.size == 3


def test_marginal_validation():
    with pytest.raises(ValidationError):
        Marginal(np.array([0.5, 0.6]))
    with pytest.raises(ValidationError):
        Marginal(np.array([-0.5, 1.5]))
    m = Marginal(np.array([0.25, 0.75]))
    assert m.size == 2


def test_reduction_drops_zero_mass_points():
    problem = build_dense_problem(
        [[1.0], [2.0], [3.0]], [0.5, 0.5, 0.0], [1.0]
    )
    reduced = validate_reduction(problem)
    assert reduced.n_x == 2 and reduced.n_y == 1
    assert np.allclose(reduced.mu.weights, [0.5, 0.5])
    assert abs(reduced.mu.weights.sum() - 1.0) <= 1e-15


def test_reduction_detects_unreachable_row():
    problem = build_dense_problem(
        [[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5], [0.5, 0.5]
    )
    with pytest.raises(IrreducibleProblem) as exc:
        validate_reduction(problem)
    assert exc.value.side == "x"
    assert exc.value.indices == [0]


def test_reduction_detects_unreachable_column():
    problem = build_dense_problem(
        [[1.0, 0.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5]
    )
    with pytest.raises(IrreducibleProblem) as exc:
        validate_reduction(problem)
    assert exc.value.side == "y"
    assert exc.value.indices == [1]


def test_reduction_identity_on_positive_problem(two_by_two):
    assert validate_reduction(two_by_two) is two_by_two


def test_kernel_matrix_gaussian_value():
    problem = DiscreteProblem(
        x_space=DiscreteSpace(np.array([[0.0]]), np.array([1.0])),
        y_space=DiscreteSpace(np.array([[0.0]]), np.array([1.0])),
        mu=Marginal(np.array([1.0])),
        nu=Marginal(np.array([1.0])),
        kernel=GaussianKernel(np.array([[1.0]])),
    )
    val = kernel_matrix(problem)[0, 0]
    assert abs(val - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-12


def test_kernel_matrix_radial_value():
    problem = DiscreteProblem(
        x_space=DiscreteSpace(np.array([[0.0]]), np.array([1.0])),
        y_space=DiscreteSpace(np.array([[1.0]]), np.array([1.0])),
        mu=Marginal(np.array([1.0])),
        nu=Marginal(np.array([1.0])),
        kernel=RadialKernel(profile=lambda t: np.exp(-t)),
    )
    assert abs(kernel_matrix(problem)[0, 0] - math.exp(-1.0)) < 1e-12


def test_kernel_matrix_dense_verbatim(two_by_two):
    assert np.array_equal(kernel_matrix(two_by_two), [[1.0, 2.0], [3.0, 4.0]])


def test_gaussian_kernel_symmetric_on_shared_grid():
    pts = np.linspace(-2, 2, 9)
    problem = DiscreteProblem(
        x_space=DiscreteSpace(pts, np.ones(9)),
        y_space=DiscreteSpace(pts, np.ones(9)),
        mu=Marginal(np.full(9, 1.0 / 9)),
        nu=Marginal(np.full(9, 1.0 / 9)),
        kernel=GaussianKernel(np.array([[0.7]])),
    )
    P = kernel_matrix(problem)
    assert np.array_equal(P, P.T)


def test_radial_profile_negative_raises():
    problem = DiscreteProblem(
        x_space=DiscreteSpace(np.array([[0.0]]), np.array([1.0])),
        y_space=DiscreteSpace(np.array([[1.0]]), np.array([1.0])),
        mu=Marginal(np.array([1.0])),
        nu=Marginal(np.array([1.0])),
        kernel=RadialKernel(profile=lambda t: t - 2.0),
    )
    with pytest.raises(EvaluationError):
        kernel_matrix(problem)


def test_json_roundtrip_bit_exact(tmp_path, two_by_two):
    path = tmp_path / "p.json"
    save_problem(two_by_two, str(path))
    back = load_problem(str(path))
    assert np.array_equal(back.x_space.points, two_by_two.x_space.points)
    assert np.array_equal(back.x_space.weights, two_by_two.x_space.weights)
    assert np.array_equal(back.mu.weights, two_by_two.mu.weights)
    assert np.array_equal(back.nu.weights, two_by_two.nu.weights)
    assert np.array_equal(kernel_matrix(back), kernel_matrix(two_by_two))


def test_json_roundtrip_gaussian_and_radial_kernels(tmp_path, gaussian_1d_small):
    path = tmp_path / "g.json"
    save_problem(gaussian_1d_small, str(path))
    back = load_problem(str(path))
    assert isinstance(back.kernel, GaussianKernel)
    assert np.array_equal(kernel_matrix(back), kernel_matrix(gaussian_1d_small))

    radial = DiscreteProblem(
        x_space=gaussian_1d_small.x_space,
        y_space=gaussian_1d_small.y_space,
        mu=gaussian_1d_small.mu,
        nu=gaussian_1d_small.nu,
        kernel=make_radial_kernel("exponential", rate=2.0),
    )
    rpath = tmp_path / "r.json"
    save_problem(radial, str(rpath))
    back = load_problem(str(rpath))
    assert isinstance(back.kernel, RadialKernel)
    assert np.allclose(kernel_matrix(back), kernel_matrix(radial), rtol=0, atol=0)


def test_unregistered_radial_profile_cannot_serialize(tmp_path):
    problem = DiscreteProblem(
        x_space=DiscreteSpace(np.array([[0.0]]), np.array([1.0])),
        y_space=DiscreteSpace(np.array([[0.0]]), np.array([1.0])),
        mu=Marginal(np.array([1.0])),
        nu=Marginal(np.array([1.0])),
        kernel=RadialKernel(profile=lambda t: np.exp(-t)),
    )
    with pytest.raises(SchemaError):
        save_problem(problem, str(tmp_path / "bad.json"))


def test_csv_bundle_roundtrip(tmp_path, two_by_two):
    bundle = tmp_path / "bundle"
    save_problem(two_by_two, str(bundle), format="csv-bundle")
    back = load_problem(str(bundle), format="csv-bundle")
    assert np.allclose(back.mu.weights, two_by_two.mu.weights, rtol=1e-15, atol=0)
    assert np.allclose(kernel_matrix(back), kernel_matrix(two_by_two), rtol=1e-15, atol=0)
    assert np.allclose(back.x_space.points, two_by_two.x_space.points, rtol=1e-15, atol=0)


def test_csv_bundle_rejects_functional_kernels(tmp_path, gaussian_1d_small):
    with pytest.raises(SchemaError):
        save_problem(gaussian_1d_small, str(tmp_path / "b"), format="csv-bundle")


def test_negative_weight_is_schema_error(tmp_path):
    doc = {
        "x_space": {"points": [[0.0]], "weights": [1.0]},
        "y_space": {"points": [[0.0]], "weights": [1.0]},
        "mu": [-1.0],
        "nu": [1.0],
        "kernel": {"kind": "dense-matrix", "entries": [[1.0]]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_problem(str(path))


def test_missing_field_is_schema_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"x_space": {"points": [[0.0]], "weights": [1.0]}}))
    with pytest.raises(SchemaError) as exc:
        load_problem(str(path))
    assert "y_space" in str(exc.value)


def test_inf_in_input_rejected(tmp_path):
    doc = {
        "x_space": {"points": [[0.0]], "weights": [1.0]},
        "y_space": {"points": [[0.0]], "weights": [1.0]},
        "mu": [1.0],
        "nu": [1.0],
        "kernel": {"kind": "dense-matrix", "entries": [[1e999]]},
    }
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_problem(str(path))


def test_malformed_json_is_parse_error_with_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"x_space": [,]}')
    with pytest.raises(ParseError) as exc:
        load_problem(str(path))
    assert "line 1" in str(exc.value)


def test_transposed_swaps_everything(two_by_two):
    x, y = np.linspace(-2.0, 1.0, 5), np.linspace(-0.5, 3.0, 7)
    for problem in (two_by_two,
                    _functional_problem(GaussianKernel([[0.7]]), x, y),
                    _functional_problem(make_radial_kernel("exponential", rate=2.0), x, y)):
        t = problem.transposed()
        assert np.array_equal(kernel_matrix(t), kernel_matrix(problem).T)
        assert np.array_equal(t.mu.weights, problem.nu.weights)
        assert t.transposed().n_x == problem.n_x


def test_dense_kernel_shape_mismatch():
    with pytest.raises(ValidationError):
        build_dense_problem([[1.0, 2.0]], [0.5, 0.5], [1.0])


def test_gaussian_kernel_dimension_is_checked_against_the_grids():
    with pytest.raises(ValidationError, match="gaussian kernel dimension 2"):
        _functional_problem(GaussianKernel(np.eye(2)), [0.0, 1.0], [0.0])


def test_gaussian_kernel_precision_takes_the_spd_check():
    # within the default rtol of np.allclose, but not symmetric to 1e-12
    with pytest.raises(NotSPD, match="not symmetric"):
        GaussianKernel([[2.0, 0.5 + 1e-6], [0.5, 1.0]])
    with pytest.raises(ValidationError, match="not positive definite"):
        GaussianKernel([[1.0, 2.0], [2.0, 1.0]])


def _each_kernel_kind():
    x = np.linspace(-1.0, 1.0, 3)
    return {
        "dense": build_dense_problem([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5], [0.5, 0.5]),
        "gaussian": _functional_problem(GaussianKernel([[1.0]]), x, x),
        "radial": _functional_problem(make_radial_kernel("exponential"), x, x),
    }


@pytest.mark.parametrize("kind", ["dense", "gaussian", "radial"])
def test_kernel_cache_refuses_writes(kind):
    problem = _each_kernel_kind()[kind]
    with pytest.raises(ValueError, match="read-only"):
        kernel_matrix(problem)[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        kernel_matrix(problem)[:] *= 2.0
    assert kernel_matrix(problem)[0, 0] > 0


def test_dense_kernel_cache_shares_memory_with_its_entries():
    entries = np.array([[1.0, 2.0], [3.0, 4.0]])
    problem = build_dense_problem(entries, [0.5, 0.5], [0.5, 0.5])
    P = kernel_matrix(problem)
    assert np.shares_memory(P, problem.kernel.entries)
    assert entries.flags.writeable and not P.flags.writeable
    # a transposed or Fortran-order kernel is copied to C order once
    assert kernel_matrix(problem.transposed()).flags.c_contiguous


def test_reduction_keeps_a_gaussian_kernel_and_its_entries():
    x = np.linspace(-3.0, 3.0, 7)
    mu = np.exp(-x * x / 2)
    mu[0] = 0.0
    parent = _functional_problem(GaussianKernel([[1.0]]), x, x)
    parent = DiscreteProblem(parent.x_space, parent.y_space, Marginal(mu / mu.sum()), parent.nu,
                             parent.kernel)
    reduced = validate_reduction(parent)
    assert isinstance(reduced.kernel, GaussianKernel) and reduced.n_x == 6
    assert np.array_equal(kernel_matrix(reduced), kernel_matrix(parent)[1:, :])
    assert not kernel_matrix(reduced).flags.writeable
    res = check_compact_domination(reduced, [0], [0], [1.0])
    assert res.continuity == "declared-by-kernel-kind"


def test_reduction_slices_a_dense_kernel():
    reduced = validate_reduction(
        build_dense_problem([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [0.5, 0.0, 0.5], [0.5, 0.5]))
    assert isinstance(reduced.kernel, DenseKernel)
    assert np.array_equal(reduced.kernel.entries, [[1.0, 2.0], [5.0, 6.0]])
    assert np.shares_memory(kernel_matrix(reduced), reduced.kernel.entries)
    res = check_compact_domination(reduced, [0], [0], [1.0])
    assert res.continuity == "asserted-not-checked"


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_gaussian_normalizer_comes_from_the_log_determinant(scale):
    # det(c) leaves the float range (1e400, 1e-400) while the constant
    # c / (2 pi) does not; no warning, and every entry is the density, to
    # the few hundred ulps that exp of a logarithm near 460 carries
    grid = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    problem = _functional_problem(GaussianKernel(np.diag([scale, scale])), grid, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        P = kernel_matrix(problem)
    sq = ((grid[:, None, :] - grid[None, :, :]) ** 2).sum(axis=2)
    expected = np.where(sq == 0, scale / (2.0 * math.pi),
                        scale / (2.0 * math.pi) * np.exp(-0.5 * scale * sq))
    np.testing.assert_allclose(P, expected, rtol=1e-12, atol=0)
    assert (P > 0).any() and np.isfinite(P).all()


def _gaussian_grid_problem(n, c=1.0):
    x = np.linspace(-6.0, 6.0, n)
    w = np.exp(-x * x / 2)
    return DiscreteProblem(DiscreteSpace(x, np.full(n, x[1] - x[0])),
                           DiscreteSpace(x, np.full(n, x[1] - x[0])),
                           Marginal(w / w.sum()), Marginal(w / w.sum()), GaussianKernel([[c]]))


def test_plain_start_needs_geometry_and_the_minimum():
    assert takes_plain_start(_gaussian_grid_problem(PLAIN_START_MIN_POINTS))
    assert not takes_plain_start(_gaussian_grid_problem(PLAIN_START_MIN_POINTS - 1))
    rng = np.random.default_rng(3)
    n = PLAIN_START_MIN_POINTS + 1
    dense = build_dense_problem(rng.uniform(0.1, 1.0, (n, n)), np.full(n, 1 / n), np.full(n, 1 / n))
    assert not takes_plain_start(dense)
