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
from schrobridge import problem as problem_module
from schrobridge.problem import _gaussian_log_norm
from conftest import build_dense_problem, peak_bytes


def _functional_problem(kernel, x_points, y_points):
    """``kernel`` on the grids with unit reference weights and uniform marginals."""
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


def test_gaussian_kernel_whose_constant_overflows_raises():
    # log of the constant of a 3-D precision 1e300 I is about 1033
    grid = np.zeros((1, 3))
    problem = _functional_problem(GaussianKernel(1e300 * np.eye(3)), grid, grid)
    with pytest.raises(EvaluationError, match="non-finite entries"):
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
    doc = json.loads(rpath.read_text())
    assert doc["kernel"] == {"kind": "radial",
                             "profile": {"name": "exponential", "params": {"rate": 2.0}}}
    back = load_problem(str(rpath))
    assert isinstance(back.kernel, RadialKernel)
    assert np.allclose(kernel_matrix(back), kernel_matrix(radial), rtol=0, atol=0)
    # a file written before the radial cutoff was dropped still loads
    doc["kernel"]["cutoff"] = 1.5
    rpath.write_text(json.dumps(doc))
    assert np.array_equal(kernel_matrix(load_problem(str(rpath))), kernel_matrix(radial))


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


def test_unknown_kernel_type_cannot_serialize(tmp_path):
    class Other:
        def evaluate(self, x_points, y_points):
            return np.ones((len(x_points), len(y_points)))

    problem = _functional_problem(Other(), [[0.0]], [[0.0]])
    with pytest.raises(SchemaError, match="^unknown kernel type Other$"):
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


_BUNDLED = {
    "zero-entries": build_dense_problem([[0.3, 0.0, 1.7], [0.0, 2.5, 1e-300]],
                                        [1 / 3, 2 / 3], [0.1, 0.2, 0.7]),
    "massless-atom": build_dense_problem([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
                                         [0.5, 0.0, 0.5], [1 / 3, 2 / 3],
                                         x_weights=[0.5, 1.0, 2.0]),
    "2d-points": build_dense_problem([[1.0, 0.5], [0.25, 2.0]], [0.4, 0.6], [0.5, 0.5],
                                     x_points=[[0.0, 1.0], [-0.1, 2.0 / 3.0]],
                                     y_points=[[1e-7, 3.0], [5.0, -2.5]]),
}


@pytest.mark.parametrize("name", list(_BUNDLED))
def test_csv_bundle_holds_the_json_document(tmp_path, name):
    # a bundle is the document in CSV: loaded back, it saves the bytes of a direct JSON save
    problem = _BUNDLED[name]
    save_problem(problem, str(tmp_path / "bundle"), format="csv-bundle")
    save_problem(load_problem(str(tmp_path / "bundle"), format="csv-bundle"),
                 str(tmp_path / "via-bundle.json"))
    save_problem(problem, str(tmp_path / "direct.json"))
    assert (tmp_path / "via-bundle.json").read_bytes() == (tmp_path / "direct.json").read_bytes()


@pytest.mark.parametrize("save", [True, False], ids=["save", "load"])
def test_unknown_format_is_refused(tmp_path, two_by_two, save):
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        if save:
            save_problem(two_by_two, str(tmp_path / "p.xml"), format="xml")
        else:
            load_problem(str(tmp_path / "p.xml"), format="xml")


def test_space_refuses_infinite_points():
    with pytest.raises(ValidationError, match="^points must be finite$"):
        DiscreteSpace([[math.inf]], [1.0])


def test_radial_profile_that_is_not_elementwise_raises():
    problem = _functional_problem(RadialKernel(profile=lambda t: 1.0), [[0.0], [1.0]], [[0.0]])
    with pytest.raises(EvaluationError, match="^radial profile must evaluate elementwise$"):
        kernel_matrix(problem)


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


_KERNEL_GRIDS = pytest.mark.parametrize(
    "c, n", [([[1.0]], 801), ([[2.0, 0.3], [0.3, 0.5]], 60),
             ([[1.5, 0.2, -0.1], [0.2, 0.8, 0.3], [-0.1, 0.3, 2.0]], 45), ([[1.0]], 1)],
    ids=["1-D", "2-D", "3-D", "1-point"])


def _random_grids(n, d):
    rng = np.random.default_rng(5)
    return rng.normal(0.0, 3.0, (n, d)), rng.normal(0.0, 3.0, (n + 7, d))


@_KERNEL_GRIDS
def test_gaussian_kernel_keeps_the_bits_of_the_density_formula(c, n, monkeypatch):
    # the kernel is evaluated in place, in row blocks; each entry keeps the
    # bits of norm * exp(-0.5 * quad), computed out of place, and of the
    # one-shot einsum over the whole (n_x, n_y, d) array of differences.
    # A block holds about ROW_BLOCK_ENTRIES differences: the default (in
    # 1-D, 801 rows of 808 are 9 blocks of 81 and one of 72), one row, and
    # 3 rows of n + 7 points in d dimensions
    x, y = _random_grids(n, len(c))
    c = np.array(c)
    diff = y[None, :, :] - x[:, None, :]
    quad = np.einsum("ijk,kl,ijl->ij", diff, c, diff)
    expected = np.exp(_gaussian_log_norm(c)) * np.exp(-0.5 * quad)
    one_shot = np.exp(np.einsum("ijk,kl,ijl->ij", diff, -0.5 * c, diff)) * np.exp(
        _gaussian_log_norm(c))
    assert np.array_equal(one_shot, expected)
    for entries in (problem_module.ROW_BLOCK_ENTRIES, 1, 3 * (n + 7) * len(c)):
        monkeypatch.setattr(problem_module, "ROW_BLOCK_ENTRIES", entries)
        assert np.array_equal(GaussianKernel(c).evaluate(x, y), expected)


@_KERNEL_GRIDS
@pytest.mark.parametrize("name, params", [("gaussian", {"sigma": 1.3}),
                                          ("exponential", {"rate": 0.7})],
                         ids=["gaussian", "exponential"])
def test_radial_kernel_keeps_the_bits_of_the_one_shot_profile(c, n, name, params, monkeypatch):
    # the radial kernel is built over the same row blocks as the Gaussian
    # one; each entry keeps the bits of the profile of the one-shot
    # distances over the whole (n_x, n_y, d) array
    x, y = _random_grids(n, len(c))
    kernel = make_radial_kernel(name, **params)
    expected = kernel.profile(np.sqrt(((x[:, None] - y[None]) ** 2).sum(2)))
    for entries in (problem_module.ROW_BLOCK_ENTRIES, 1, 3 * (n + 7) * len(c)):
        monkeypatch.setattr(problem_module, "ROW_BLOCK_ENTRIES", entries)
        assert np.array_equal(kernel.evaluate(x, y), expected)
        assert np.array_equal(kernel_matrix(_functional_problem(kernel, x, y)), expected)


def test_radial_kernel_matrix_holds_one_matrix_and_one_row_block():
    # 801 points in 1-D: the 4.9 MiB matrix and blocks of 81 rows (the whole
    # (n_x, n_y, d) differences and their square would peak near 20 MiB)
    grid = np.linspace(-4.0, 4.0, 801)
    line = _functional_problem(make_radial_kernel("gaussian"), grid, grid)
    assert peak_bytes(lambda: kernel_matrix(line)) <= 8 * 2**20
    # 40 points in d = 2000: a 12.8 kB matrix and one-row blocks of 640 kB
    # (the whole differences are 25.6 MB)
    points = np.random.default_rng(3).normal(0.0, 0.01, (40, 2000))
    wide = _functional_problem(make_radial_kernel("gaussian"), points, points)
    assert peak_bytes(lambda: kernel_matrix(wide)) <= 2_000_000


class _TableKernel:
    """A functional kernel whose evaluation is a fixed table, unchecked."""

    def __init__(self, table):
        self.table = np.array(table, dtype=float)

    def evaluate(self, x_points, y_points):
        return self.table.copy()


@pytest.mark.parametrize("bad, message", [(math.nan, "non-finite"), (-math.inf, "non-finite"),
                                          (math.inf, "non-finite"), (-1.0, "negative")])
def test_kernel_matrix_names_a_non_finite_or_negative_entry(bad, message):
    # a radial profile is refused by its own check; kernel_matrix refuses
    # any other evaluation with its two messages, non-finite first
    x = [0.0, 1.0]
    radial = _functional_problem(RadialKernel(profile=lambda t: np.where(t > 0, bad, 1.0)), x, x)
    with pytest.raises(EvaluationError, match="radial profile returned a negative or non-finite"):
        kernel_matrix(radial)
    table = _functional_problem(_TableKernel([[1.0, bad], [0.5, 1.0]]), x, x)
    with pytest.raises(EvaluationError, match=f"kernel evaluation produced {message} entries"):
        kernel_matrix(table)
    both = _functional_problem(_TableKernel([[-1.0, bad], [0.5, 1.0]]), x, x)
    with pytest.raises(EvaluationError, match=f"kernel evaluation produced {message} entries"):
        kernel_matrix(both)


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
