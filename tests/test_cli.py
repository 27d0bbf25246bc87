import json

import numpy as np
import pytest

from schrobridge import save_problem, validate_reduction
from schrobridge.cli import main
from schrobridge.gaussian import GaussianProblem, discretize_gaussian
from conftest import build_dense_problem


@pytest.fixture
def two_by_two_file(tmp_path):
    problem = build_dense_problem([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5], [0.5, 0.5])
    path = tmp_path / "p.json"
    save_problem(problem, str(path))
    return str(path)


@pytest.fixture
def gaussian_file(tmp_path):
    gp = GaussianProblem(a=[[1.0]], b=[[1.0]], c=[[1.0]])
    problem = discretize_gaussian(gp, points_per_dim=51)
    path = tmp_path / "g.json"
    save_problem(problem, str(path))
    return str(path)


def read(path):
    with open(path) as fh:
        return json.load(fh)


def test_solve_two_by_two(tmp_path, two_by_two_file):
    out = tmp_path / "sol.json"
    code = main(["solve", "--input", two_by_two_file, "--output", str(out),
                 "--tol", "1e-12"])
    assert code == 0
    report = read(out)
    assert report["status"] == "converged-positive"
    assert report["marginal_err_x"] <= 1e-12
    assert report["marginal_err_y"] <= 1e-12
    assert len(report["pi"]) == 2


def test_solve_reports_are_byte_identical(tmp_path, two_by_two_file):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["solve", "--input", two_by_two_file, "--output", str(out1)]) == 0
    assert main(["solve", "--input", two_by_two_file, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_max_iter_exit(tmp_path, gaussian_file):
    out = tmp_path / "sol.json"
    code = main(["solve", "--input", gaussian_file, "--output", str(out),
                 "--max-iter", "1"])
    assert code == 3
    assert read(out)["status"] == "max-iter"


def test_solve_invalid_problem_exit(tmp_path):
    problem = build_dense_problem([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5], [0.5, 0.5])
    path = tmp_path / "bad.json"
    save_problem(problem, str(path))
    code = main(["solve", "--input", str(path), "--output", str(tmp_path / "o.json")])
    assert code == 1


def test_solve_missing_file_exit(tmp_path):
    code = main(["solve", "--input", str(tmp_path / "nope.json")])
    assert code == 1


def test_solve_untruncated_and_sinkhorn(tmp_path, two_by_two_file):
    for scheme in ("untruncated", "sinkhorn"):
        out = tmp_path / f"{scheme}.json"
        code = main(["solve", "--input", two_by_two_file, "--scheme", scheme,
                     "--output", str(out)])
        assert code == 0
        assert read(out)["marginal_err_x"] <= 1e-9


def test_solve_trace_csv(tmp_path, two_by_two_file):
    out = tmp_path / "sol.json"
    code = main(["solve", "--input", two_by_two_file, "--output", str(out), "--trace"])
    assert code == 0
    trace_path = str(out) + ".trace.csv"
    with open(trace_path) as fh:
        header = fh.readline().strip()
    assert header == "n,min_u,max_u,residual,min_phi,normalization"
    assert "trace" in read(out)


def test_solve_csv_bundle_input(tmp_path):
    problem = build_dense_problem([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5], [0.5, 0.5])
    bundle = tmp_path / "bundle"
    save_problem(problem, str(bundle), format="csv-bundle")
    code = main(["solve", "--input", str(bundle), "--format", "csv-bundle",
                 "--output", str(tmp_path / "sol.json")])
    assert code == 0


def test_solve_with_ceiling_file(tmp_path, two_by_two_file):
    upath = tmp_path / "U.json"
    upath.write_text("[2.0, 2.0]")
    out = tmp_path / "sol.json"
    code = main(["solve", "--input", two_by_two_file, "--U", str(upath),
                 "--output", str(out)])
    assert code == 0


def test_check_gaussian_unit_exit_zero(tmp_path):
    path = tmp_path / "gp.json"
    path.write_text(json.dumps({"a": 1.0, "b": 1.0, "c": 1.0}))
    out = tmp_path / "report.json"
    code = main(["check", "--input", str(path), "--output", str(out)])
    assert code == 0
    report = read(out)
    assert report["matrix_criterion"]["xy_holds"] is True
    assert report["integral"]["xy"]["finite"] is True


def test_check_gaussian_counterexample_exit_four(tmp_path):
    path = tmp_path / "gp.json"
    path.write_text(json.dumps({
        "a": [[0.1, 0.0], [0.0, 10.0]],
        "b": [[10.0, 0.0], [0.0, 0.1]],
        "c": [[1.0, 0.0], [0.0, 1.0]],
    }))
    out = tmp_path / "report.json"
    code = main(["check", "--input", str(path), "--output", str(out)])
    assert code == 4
    report = read(out)
    assert report["matrix_criterion"]["xy_holds"] is False
    assert report["matrix_criterion"]["yx_holds"] is False
    assert report["integral"]["xy"]["finite"] is False
    assert report["integral"]["yx"]["finite"] is False


def test_check_discrete_constant_kernel(tmp_path):
    problem = build_dense_problem(np.ones((3, 3)), [1 / 3] * 3, [1 / 3] * 3)
    path = tmp_path / "p.json"
    save_problem(problem, str(path))
    code = main(["check", "--input", str(path), "--output", str(tmp_path / "r.json")])
    assert code == 0


def test_compare_two_by_two(tmp_path, two_by_two_file):
    out = tmp_path / "cmp.json"
    code = main(["compare", "--input", two_by_two_file, "--output", str(out)])
    assert code == 0
    report = read(out)
    assert report["potential_gap"] <= 1e-8


def test_compare_gaussian_fixture(tmp_path, gaussian_file):
    out = tmp_path / "cmp.json"
    code = main(["compare", "--input", gaussian_file, "--output", str(out)])
    assert code == 0
    assert read(out)["potential_gap"] <= 1e-8


def test_compare_degenerate_exit_two(tmp_path):
    problem = build_dense_problem(
        [[1.0, 1.0], [1e-18, 1e-18]], [0.5, 0.5], [0.5, 0.5]
    )
    path = tmp_path / "deg.json"
    save_problem(problem, str(path))
    code = main(["compare", "--input", str(path), "--output", str(tmp_path / "c.json")])
    assert code == 2


def test_gaussian_gen_roundtrip(tmp_path):
    gp_path = tmp_path / "gp.json"
    gp_path.write_text(json.dumps({"a": 1.0, "b": 1.0, "c": 1.0}))
    out = tmp_path / "problem.json"
    code = main(["gaussian-gen", "--input", str(gp_path), "--points-per-dim", "51",
                 "--output", str(out)])
    assert code == 0
    from schrobridge import load_problem

    problem = validate_reduction(load_problem(str(out)))
    assert problem.n_x == 51
    code = main(["solve", "--input", str(out), "--output", str(tmp_path / "sol.json")])
    assert code == 0


def test_report_renders_table(tmp_path, two_by_two_file, capsys):
    out = tmp_path / "sol.json"
    main(["solve", "--input", two_by_two_file, "--output", str(out)])
    code = main(["report", "--input", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "status" in captured
    assert "converged-positive" in captured


@pytest.mark.parametrize(
    "payload",
    [
        {},
        {"a": np.array([0.1, -2.5, 1e-300, 3.0]), "b": {"c": np.arange(6.0).reshape(2, 3)}},
        {"empty": np.array([]), "empty2d": np.zeros((2, 0)), "scalar": np.float64(0.25),
         "count": np.int64(7), "zero_d": np.array(1.5), "none": None, "flag": True},
        {"inf": np.array([1.0, np.inf]), "nan": np.array([[np.nan, 2.0], [3.0, 4.0]]),
         "x": float("inf"), "y": float("nan"), "s": "text"},
        {"nested": {"deep": {"rows": [{"n": 1, "v": 0.5}, {"n": 2, "v": np.float64(-0.0)}],
                             "arr": np.array([[1.0], [2.0]], dtype=np.float32)},
                    "list": [np.array([1.0, 2.0]), (3, 4.5)], "empty": {}}},
    ],
)
def test_report_writer_matches_json_dumps(payload):
    from schrobridge.cli import _dumps, _jsonable

    assert _dumps(payload) == json.dumps(_jsonable(payload), sort_keys=True, indent=2)


def test_check_csv_bundle_input(tmp_path):
    problem = build_dense_problem(np.ones((3, 3)), [1 / 3] * 3, [1 / 3] * 3)
    bundle = tmp_path / "bundle"
    save_problem(problem, str(bundle), format="csv-bundle")
    out = tmp_path / "r.json"
    code = main(["check", "--input", str(bundle), "--format", "csv-bundle",
                 "--output", str(out)])
    assert code == 0
    assert read(out)["mode"] == "discrete"


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_solve_sinkhorn_on_structural_zero_exit_two(tmp_path, capsys):
    problem = build_dense_problem([[1.0, 1.0], [0.0, 1.0]], [0.5, 0.5], [0.5, 0.5])
    path = tmp_path / "p.json"
    save_problem(problem, str(path))
    code = main(["solve", "--input", str(path), "--scheme", "sinkhorn",
                 "--output", str(tmp_path / "s.json")])
    assert code == 2
    assert "strictly positive" in _one_error_line(capsys)


def test_solve_dichotomy_violation_exit_two(tmp_path, capsys):
    problem = build_dense_problem([[5e-324, 5e-324], [1e10, 1e10]], [0.5, 0.5], [0.5, 0.5])
    path = tmp_path / "p.json"
    save_problem(problem, str(path))
    code = main(["solve", "--input", str(path), "--output", str(tmp_path / "s.json")])
    assert code == 2
    assert "dichotomy" in _one_error_line(capsys)


def test_solve_monotonicity_violation_exit_two(tmp_path, two_by_two_file, capsys, monkeypatch):
    from schrobridge import fortet

    monkeypatch.setattr(fortet, "_clamp_step", lambda phi_u, ceiling, n_next: 2.0 * ceiling)
    code = main(["solve", "--input", two_by_two_file, "--output", str(tmp_path / "s.json")])
    assert code == 2
    assert "monotone" in _one_error_line(capsys)


def test_overflowing_ceiling_reports_divergent_exit_two(tmp_path, two_by_two_file):
    # mu / U passes the overflow guard on the first step
    upath = tmp_path / "U.json"
    upath.write_text("[1e-301, 1e-301]")
    out = tmp_path / "sol.json"
    code = main(["solve", "--input", two_by_two_file, "--U", str(upath), "--output", str(out)])
    assert code == 2
    assert read(out)["status"] == "divergent"
    code = main(["compare", "--input", two_by_two_file, "--U", str(upath), "--output", str(out)])
    assert code == 2
    assert read(out)["fortet_status"] == "divergent"


def test_solve_tol_below_machine_precision_exit_one(tmp_path, two_by_two_file, capsys):
    code = main(["solve", "--input", two_by_two_file, "--tol", "1e-16",
                 "--output", str(tmp_path / "s.json")])
    assert code == 1
    assert "tol must be at least" in _one_error_line(capsys)
