import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from schrobridge import (DiscreteProblem, kernel_matrix, load_problem, make_radial_kernel,
                         save_problem, validate_reduction)
from schrobridge.cli import main
from schrobridge.gaussian import GaussianProblem, discretize_gaussian
from conftest import build_dense_problem, wide_kernel_problems


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


def ones_file(tmp_path, n):
    """A ``--U`` file of ones: the clamp from U = 1."""
    path = tmp_path / "ones.json"
    path.write_text(json.dumps([1.0] * n))
    return str(path)


def assert_report_rebuilds_pi(report, problem_path):
    # a report carries no dense coupling; a P b from its scalings has the marginals
    assert "pi" not in report
    problem = load_problem(problem_path)
    pi = np.asarray(report["a"])[:, None] * kernel_matrix(problem) * np.asarray(report["b"])
    np.testing.assert_allclose(pi.sum(axis=1), problem.mu.weights, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pi.sum(axis=0), problem.nu.weights, rtol=0, atol=1e-12)


def test_solve_two_by_two(tmp_path, two_by_two_file):
    out = tmp_path / "sol.json"
    code = main(["solve", "--input", two_by_two_file, "--output", str(out),
                 "--tol", "1e-12"])
    assert code == 0
    report = read(out)
    assert report["status"] == "converged-positive"
    assert report["marginal_err_x"] <= 1e-12
    assert report["marginal_err_y"] <= 1e-12
    assert_report_rebuilds_pi(report, two_by_two_file)


def test_solve_sinkhorn_report_rebuilds_pi(tmp_path, two_by_two_file):
    out = tmp_path / "sol.json"
    code = main(["solve", "--input", two_by_two_file, "--output", str(out),
                 "--scheme", "sinkhorn", "--tol", "1e-12"])
    assert code == 0
    report = read(out)
    assert report["status"] == "converged-positive"
    assert_report_rebuilds_pi(report, two_by_two_file)


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
    for scheme in ("fortet", "sinkhorn"):
        out = tmp_path / f"{scheme}.json"
        code = main(["solve", "--input", two_by_two_file, "--scheme", scheme,
                     "--output", str(out)])
        assert code == 0
        assert read(out)["marginal_err_x"] <= 1e-9


def test_solve_untruncated_on_wide_range_potentials(tmp_path):
    # the hard 2-D Gaussian: phi spans 1e-77, so a cutoff relative to
    # max u1 declared collapse before the first step
    gp = GaussianProblem(a=np.diag([0.1, 10.0]), b=np.diag([10.0, 0.1]), c=np.eye(2))
    path = tmp_path / "hard.json"
    save_problem(validate_reduction(discretize_gaussian(gp, points_per_dim=31)), str(path))
    out = tmp_path / "sol.json"
    code = main(["solve", "--input", str(path), "--scheme", "fortet", "--tol", "1e-5",
                 "--output", str(out)])
    assert code == 0
    report = read(out)
    assert report["status"] == "converged-positive"
    assert report["marginal_err_x"] <= 1e-8 and report["marginal_err_y"] <= 1e-8


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


@pytest.mark.parametrize("block", [1, 120, 1 << 16])
def test_coupling_gap_over_row_blocks_equals_dense_gap(gaussian_file, monkeypatch, block):
    # one row per block, 2 rows with a ragged last block, and one block
    from schrobridge import extract_solution, sinkhorn_baseline, solve_fortet
    from schrobridge import cli
    from schrobridge import problem as problem_module

    problem = validate_reduction(load_problem(gaussian_file))
    result = solve_fortet(problem, tol=1e-12)
    sol_f = extract_solution(problem, result.u_star, psi_star=result.psi_star)
    sink = sinkhorn_baseline(problem, tol=1e-12)
    monkeypatch.setattr(problem_module, "ROW_BLOCK_ENTRIES", block)
    assert cli._coupling_gap(sol_f, sink) == float(np.max(np.abs(sol_f.pi - sink.pi)))


def test_compare_degenerate_exit_two(tmp_path):
    problem = build_dense_problem(
        [[1.0, 1.0], [1e-18, 1e-18]], [0.5, 0.5], [0.5, 0.5]
    )
    path = tmp_path / "deg.json"
    save_problem(problem, str(path))
    code = main(["compare", "--input", str(path), "--output", str(tmp_path / "c.json"),
                 "--U", ones_file(tmp_path, 2)])
    assert code == 2


def test_compare_solves_the_row_scaled_far_below_the_cutoff_by_default(tmp_path):
    # the clamp from U = 1 collapses on this problem; the plain scheme solves it
    problem = build_dense_problem(
        [[1.0, 1.0], [1e-18, 1e-18]], [0.5, 0.5], [0.5, 0.5]
    )
    path = tmp_path / "deg.json"
    save_problem(problem, str(path))
    out = tmp_path / "c.json"
    assert main(["compare", "--input", str(path), "--output", str(out)]) == 0
    assert read(out)["fortet_status"] == "converged-positive"


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


def test_report_output_file_equals_stdout(tmp_path, two_by_two_file, capsys):
    out = tmp_path / "sol.json"
    main(["solve", "--input", two_by_two_file, "--output", str(out)])
    capsys.readouterr()
    assert main(["report", "--input", str(out)]) == 0
    stdout = capsys.readouterr().out
    table = tmp_path / "table.txt"
    assert main(["report", "--input", str(out), "--output", str(table)]) == 0
    assert capsys.readouterr().out == ""
    assert table.read_text(encoding="utf-8") == stdout
    assert "converged-positive" in stdout


@pytest.mark.parametrize(
    "payload, plain",
    [
        ({}, {}),
        ({"a": np.array([0.1, -2.5, 1e-300, 3.0]), "b": {"c": np.arange(6.0).reshape(2, 3)}},
         {"a": [0.1, -2.5, 1e-300, 3.0], "b": {"c": [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]}}),
        ({"empty": np.array([]), "empty2d": np.zeros((2, 0)), "scalar": np.float64(0.25),
          "count": np.int64(7), "zero_d": np.array(1.5), "none": None, "flag": True},
         {"empty": [], "empty2d": [[], []], "scalar": 0.25, "count": 7, "zero_d": 1.5,
          "none": None, "flag": True}),
        ({"inf": np.array([1.0, np.inf]), "nan": np.array([[np.nan, 2.0], [3.0, 4.0]]),
          "x": float("inf"), "y": float("nan"), "s": "text"},
         {"inf": [1.0, "inf"], "nan": [["nan", 2.0], [3.0, 4.0]], "x": "inf", "y": "nan",
          "s": "text"}),
        ({"nested": {"deep": {"rows": [{"n": 1, "v": 0.5}, {"n": 2, "v": np.float64(-0.0)}],
                              "arr": np.array([[1.0], [2.0]], dtype=np.float32)},
                     "list": [np.array([1.0, 2.0]), (3, 4.5)], "empty": {}}},
         {"nested": {"deep": {"rows": [{"n": 1, "v": 0.5}, {"n": 2, "v": -0.0}],
                              "arr": [[1.0], [2.0]]},
                     "list": [[1.0, 2.0], [3, 4.5]], "empty": {}}}),
    ],
    ids=[f"payload{i}" for i in range(5)],
)
def test_report_writer_matches_json_dumps(payload, plain):
    from schrobridge.cli import _dumps

    assert _dumps(payload) == json.dumps(plain, sort_keys=True, indent=2)


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


def test_solve_sinkhorn_with_a_scaling_out_of_float_range_exit_two(tmp_path, capsys):
    # Sinkhorn converges, but with sum(a) = 1 an entry of a is below the smallest float
    path = tmp_path / "p.json"
    save_problem(list(wide_kernel_problems(5))[4], str(path))
    out = tmp_path / "s.json"
    code = main(["solve", "--input", str(path), "--scheme", "sinkhorn", "--tol", "1e-12",
                 "--output", str(out)])
    assert code == 2
    assert _one_error_line(capsys) == ("error: sinkhorn scaling a must be strictly positive "
                                       "and finite\n")
    assert not out.exists()


def test_solve_dichotomy_violation_exit_two(tmp_path, capsys):
    problem = build_dense_problem([[5e-324, 5e-324], [1e10, 1e10]], [0.5, 0.5], [0.5, 0.5])
    path = tmp_path / "p.json"
    save_problem(problem, str(path))
    code = main(["solve", "--input", str(path), "--output", str(tmp_path / "s.json"),
                 "--U", ones_file(tmp_path, 2)])
    assert code == 2
    assert "dichotomy" in _one_error_line(capsys)


def test_default_solve_of_the_dichotomy_input_reports_degenerate_zero(tmp_path, capsys):
    # phi underflows to 0 on the first row: the plain scheme's per-index
    # rule stops before its first step, with a report and no error line
    problem = build_dense_problem([[5e-324, 5e-324], [1e10, 1e10]], [0.5, 0.5], [0.5, 0.5])
    path = tmp_path / "p.json"
    save_problem(problem, str(path))
    out = tmp_path / "s.json"
    assert main(["solve", "--input", str(path), "--output", str(out)]) == 2
    report = read(out)
    assert (report["scheme"], report["status"], report["iterations"]) == (
        "untruncated", "degenerate-zero", 0)
    assert capsys.readouterr().err == ""


def test_solve_monotonicity_violation_exit_two(tmp_path, two_by_two_file, capsys, monkeypatch):
    from schrobridge import fortet

    monkeypatch.setattr(fortet, "_clamp_step", lambda phi_u, ceiling, n_next: 2.0 * ceiling)
    code = main(["solve", "--input", two_by_two_file, "--output", str(tmp_path / "s.json"),
                 "--U", ones_file(tmp_path, 2)])
    assert code == 2
    assert "monotone" in _one_error_line(capsys)


def test_overflowing_ceiling_reports_divergent_exit_two(tmp_path, two_by_two_file, capsys):
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
    capsys.readouterr()
    # check has no report to mark divergent: one error line instead
    code = main(["check", "--input", two_by_two_file, "--moment-U", str(upath)])
    assert code == 2
    assert "overflow guard" in _one_error_line(capsys)


def test_ceiling_above_the_overflow_guard_reports_divergent_exit_two(tmp_path, two_by_two_file):
    # each step passes its guards; the iterate itself stays above OVERFLOW_LIMIT
    upath = tmp_path / "U.json"
    upath.write_text("[1e305, 1.0]")
    out = tmp_path / "sol.json"
    code = main(["solve", "--input", two_by_two_file, "--U", str(upath), "--max-iter", "10",
                 "--output", str(out)])
    assert code == 2
    assert read(out)["status"] == "divergent"
    assert read(out)["iterations"] == 10


def test_gaussian_kernel_whose_constant_overflows_exit_one(tmp_path, capsys):
    # a 3-D precision 1e300 I: the log of the density's constant is about 1033
    point = [[0.0, 0.0, 0.0]]
    doc = {"x_space": {"points": point, "weights": [1.0]},
           "y_space": {"points": point, "weights": [1.0]}, "mu": [1.0], "nu": [1.0],
           "kernel": {"kind": "gaussian", "c": (1e300 * np.eye(3)).tolist()}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--input", str(path), "--output", str(tmp_path / "s.json")]) == 1
    assert "kernel evaluation produced non-finite entries" in _one_error_line(capsys)
    assert not (tmp_path / "s.json").exists()


def test_moment_ceiling_on_a_base_row_with_zeros_is_infinite(tmp_path, capsys):
    # row x_o = 0 of the kernel vanishes in column 1, which row 1 reaches with mass
    path = tmp_path / "p.json"
    save_problem(build_dense_problem([[1.0, 0.0], [1.0, 1.0]], [0.5, 0.5], [0.5, 0.5]), str(path))
    upath = tmp_path / "U.json"
    upath.write_text("[1.0, 1.0]")
    out = tmp_path / "r.json"
    assert main(["check", "--input", str(path), "--moment-U", str(upath),
                 "--output", str(out)]) == 4
    assert capsys.readouterr().err == ""
    assert read(out)["moment"]["c"] == "inf"


def test_solve_tol_below_machine_precision_exit_one(tmp_path, two_by_two_file, capsys):
    code = main(["solve", "--input", two_by_two_file, "--tol", "1e-16",
                 "--output", str(tmp_path / "s.json")])
    assert code == 1
    assert "tol must be at least" in _one_error_line(capsys)


def _massless_file(tmp_path):
    """A 3 x 2 problem whose x point 1 carries no mass: reduction keeps x points 0 and 2."""
    path = tmp_path / "massless.json"
    save_problem(build_dense_problem([[1.0, 2.0], [9.0, 9.0], [3.0, 4.0]], [0.5, 0.0, 0.5],
                                     [0.5, 0.5]), str(path))
    return str(path)


def test_ceilings_index_the_x_points_that_carry_mass(tmp_path, capsys):
    ceiling = tmp_path / "U.json"
    ceiling.write_text("[1.0, 1.0]")
    out = tmp_path / "r.json"
    problem = _massless_file(tmp_path)
    assert main(["solve", "--input", problem, "--U", str(ceiling), "--output", str(out)]) == 0
    assert len(read(out)["a"]) == len(read(out)["u_star"]) == 2
    assert main(["check", "--input", problem, "--moment-U", str(ceiling),
                 "--output", str(out)]) == 0
    assert read(out)["moment"]["U_source"] == str(ceiling)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "args, content",
    [
        (["solve", "--U", "{file}"], "[0.0, 1.0]"),
        (["solve", "--U", "{file}"], "[NaN, 1.0]"),
        (["solve", "--U", "{file}"], '["a", 1.0]'),
        (["check", "--moment-U", "{file}"], "[0.0, 1.0]"),
        (["check", "--moment-U", "{file}"], '["a", 1.0]'),
        # one entry per x point of the 2x2 problem
        (["solve", "--U", "{file}"], "[1.0, 1.0, 1.0]"),
        (["check", "--moment-U", "{file}"], "[1.0, 1.0, 1.0]"),
        # one entry per x point that carries mass: two of the three
        (["solve", "--input", "{massless}", "--U", "{file}"], "[1.0, 1.0, 1.0]"),
        (["check", "--domination-witness", "{file}"], '{"K": [0], "c": [1.0]}'),
        (["check", "--moment-r", "0.5"], None),
        # options the chosen path would not read
        (["solve", "--scheme", "sinkhorn", "--U", "{file}"], "[1.0, 1.0]"),
        (["solve", "--scheme", "sinkhorn", "--trace"], None),
        (["check", "--input", "{triple}", "--moment-U", "{file}"], "[1.0, 1.0]"),
        (["check", "--input", "{triple}", "--domination-witness", "{file}"],
         '{"K": [0], "x": [0], "c": [1.0]}'),
        # witness values
        (["check", "--domination-witness", "{file}"], '{"K": [0], "x": [5], "c": [1.0]}'),
        (["check", "--domination-witness", "{file}"], '{"K": [-1], "x": [-2], "c": [1.0]}'),
        (["check", "--domination-witness", "{file}"], '{"K": [0], "x": [0], "c": [-1.0]}'),
        (["check", "--domination-witness", "{file}"], '{"K": [0.7], "x": ["1"], "c": [2.0]}'),
        (["check", "--domination-witness", "{file}"], '{"K": [0], "x": [1.5], "c": [2.0]}'),
        (["check", "--domination-witness", "{file}"], '{"K": [true], "x": [1], "c": [2.0]}'),
        (["check", "--domination-witness", "{file}"], '{"K": [0], "x": [1], "c": ["2.0"]}'),
        # an exponent without the ceiling it belongs to
        (["check", "--moment-r", "3"], None),
        (["check", "--input", "{triple}", "--moment-r", "3"], None),
        # grids and guards
        (["check", "--input", "{triple}", "--points-per-dim", "4"], None),
        (["gaussian-gen", "--input", "{triple}", "--points-per-dim", "4"], None),
        (["check", "--input", "{triple}", "--half-width-sigmas", "-1"], None),
        (["gaussian-gen", "--input", "{triple}", "--half-width-sigmas", "-1"], None),
        (["check", "--input", "{triple2d}", "--points-per-dim", "1001"], None),
        (["gaussian-gen", "--input", "{triple2d}", "--points-per-dim", "1001"], None),
        # grid options that a problem file would not read
        (["check", "--points-per-dim", "4"], None),
        (["check", "--half-width-sigmas", "-1"], None),
        (["check", "--finite-guard", "nan"], None),
        (["compare", "--gap-tol", "nan"], None),
        (["compare", "--gap-tol", "-1"], None),
        (["solve", "--tol", "nan"], None),
        (["report", "--input", "{file}"], b'["\xff"]'),
        # numbers written as strings or booleans
        (["solve", "--U", "{file}"], '["1.0", "1.0"]'),
        (["check", "--moment-U", "{file}"], "[true, true]"),
        (["check", "--input", "{file}"], '{"a": "1.0", "b": true, "c": 1.0}'),
        # a JSON document that is not a triple
        (["gaussian-gen", "--input", "{file}"], "[1.0, 1.0, 1.0]"),
    ],
    ids=["U-zero", "U-nan", "U-string", "moment-U-zero", "moment-U-string",
         "U-wrong-length", "moment-U-wrong-length", "U-per-massless-x-point",
         "witness-without-x", "moment-r-half", "U-sinkhorn", "trace-sinkhorn",
         "moment-U-gaussian", "witness-gaussian", "witness-index-past-end",
         "witness-index-negative", "witness-coefficient-negative", "witness-index-fraction",
         "witness-index-float-fraction", "witness-index-bool", "witness-coefficient-string",
         "moment-r-without-U", "moment-r-gaussian", "check-points-even",
         "gen-points-even", "check-half-width-negative", "gen-half-width-negative",
         "check-grid-too-large", "gen-grid-too-large", "points-problem-file",
         "half-width-problem-file", "finite-guard-nan", "gap-tol-nan",
         "gap-tol-negative", "tol-nan", "report-not-utf8", "U-numeric-strings",
         "moment-U-bools", "triple-string-and-bool", "gen-list"],
)
def test_bad_vector_inputs_exit_one(tmp_path, two_by_two_file, capsys, args, content):
    path = tmp_path / "in.json"
    if content is not None:
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    files = {"{file}": str(path), "{triple}": str(tmp_path / "gp.json"),
             "{triple2d}": str(tmp_path / "gp2.json"), "{massless}": _massless_file(tmp_path)}
    (tmp_path / "gp.json").write_text('{"a": 1.0, "b": 1.0, "c": 1.0}')
    eye = [[1.0, 0.0], [0.0, 1.0]]
    (tmp_path / "gp2.json").write_text(json.dumps({"a": eye, "b": eye, "c": eye}))
    # a case's own --input comes later and replaces the 2x2 problem
    argv = [args[0], "--input", two_by_two_file, "--output", str(tmp_path / "r.json")]
    argv += [files.get(a, a) for a in args[1:]]
    assert main(argv) == 1
    _one_error_line(capsys)


@pytest.mark.parametrize(
    "args",
    [["--moment-U", ""], ["--domination-witness", ""], ["--moment-U", "", "--moment-r", "3"]],
    ids=["moment-U", "witness", "moment-U-with-r"],
)
def test_empty_check_path_is_an_os_error(two_by_two_file, capsys, args):
    # an empty path is a path that cannot be opened, as with solve --U ""
    assert main(["check", "--input", two_by_two_file, *args]) == 1
    err = _one_error_line(capsys)
    assert "No such file or directory" in err


@pytest.mark.parametrize(
    "args",
    [["solve", "--input", "{problem}", "--U", "{bad}"],
     ["check", "--input", "{problem}", "--domination-witness", "{bad}"],
     ["report", "--input", "{bad}"]],
    ids=["U", "witness", "report"],
)
def test_malformed_json_names_file_line_and_column(tmp_path, two_by_two_file, capsys, args):
    bad = tmp_path / "bad.json"
    bad.write_text("[1.0,\n 2.0")
    argv = [{"{problem}": two_by_two_file, "{bad}": str(bad)}.get(a, a) for a in args]
    assert main(argv) == 1
    assert f"{bad}: line 2, column 5: " in _one_error_line(capsys)


def test_options_and_defaults_are_pinned():
    import argparse

    from schrobridge.cli import build_parser

    files = {"--input": "in.json", "--output": None}
    solver = {"--format": "json", "--max-iter": 100_000, "--U": None}
    grid = {"--points-per-dim": None, "--half-width-sigmas": None}
    expected = {
        "solve": {**files, **solver, "--scheme": "fortet", "--tol": 1e-10, "--trace": False},
        "check": {**files, **grid, "--format": "json", "--finite-guard": 1e15,
                  "--domination-witness": None, "--moment-U": None, "--moment-r": None},
        "compare": {**files, **solver, "--tol": 1e-14, "--gap-tol": 1e-8},
        "gaussian-gen": {**files, **grid},
        "report": files,
    }
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert subparsers.choices.keys() == expected.keys()
    for command, sub in subparsers.choices.items():
        args = parser.parse_args([command, "--input", "in.json"])
        parsed = {opt: getattr(args, action.dest) for action in sub._actions
                  for opt in action.option_strings if opt not in ("-h", "--help")}
        assert parsed == expected[command], command


@pytest.mark.parametrize("scheme", ["truncated", "untruncated"])
def test_old_scheme_spellings_are_usage_errors(two_by_two_file, capsys, scheme):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--input", two_by_two_file, "--scheme", scheme])
    assert info.value.code == 2
    assert "'fortet', 'sinkhorn'" in capsys.readouterr().err


def test_a_ceiling_file_named_ones_runs_the_clamp(tmp_path, two_by_two_file, monkeypatch):
    # "ones" is a file name like any other, not a request for the plain scheme
    monkeypatch.chdir(tmp_path)
    for name in ("ones", "ceil.json"):
        (tmp_path / name).write_text("[2.0, 2.0]")
    for command in ("solve", "compare"):
        for name in ("ones", "ceil.json"):
            assert main([command, "--input", two_by_two_file, "--U", name,
                         "--output", f"{command}-{name}.out"]) == 0
        report = (tmp_path / f"{command}-ones.out").read_bytes()
        assert report == (tmp_path / f"{command}-ceil.json.out").read_bytes()
    assert read(tmp_path / "solve-ones.out")["scheme"] == "truncated"


def _readme_command_lines():
    """Every ``schrobridge ...`` command of README's fenced code blocks, as an argv."""
    import shlex

    readme = Path(__file__).parent.parent / "README.md"
    commands, fenced = [], False
    for line in readme.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("schrobridge "):
            commands.append(shlex.split(line)[1:])
    return commands


def test_readme_command_lines_parse():
    from schrobridge.cli import build_parser

    commands = _readme_command_lines()
    assert len(commands) >= 5
    for argv in commands:
        build_parser().parse_args(argv)


def test_gaussian_gen_stdout_equals_output_file(tmp_path, capsys):
    gp_path = tmp_path / "gp.json"
    gp_path.write_text(json.dumps({"a": 1.0, "b": 2.0, "c": 1.0}))
    out = tmp_path / "problem.json"
    argv = ["gaussian-gen", "--input", str(gp_path), "--points-per-dim", "11"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert main(argv + ["--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == stdout


def test_save_problem_writes_the_bytes_of_gaussian_gen(tmp_path):
    gp_path = tmp_path / "gp.json"
    gp_path.write_text(json.dumps({"a": 1.0, "b": 2.0, "c": 1.0}))
    out = tmp_path / "problem.json"
    assert main(["gaussian-gen", "--input", str(gp_path), "--points-per-dim", "7",
                 "--output", str(out)]) == 0
    saved = tmp_path / "saved.json"
    save_problem(discretize_gaussian(GaussianProblem(a=1.0, b=2.0, c=1.0), points_per_dim=7),
                 str(saved))
    assert saved.read_bytes() == out.read_bytes()


def _loaded_by_cli(modules, runs=()):
    """Which of ``modules`` a fresh interpreter has loaded after ``import schrobridge.cli``
    and one ``cli.main(argv)`` per argv of ``runs``, and the exit codes of those runs."""
    code = ("import json, sys, schrobridge.cli as cli; "
            f"codes = [cli.main(argv) for argv in {list(runs)!r}]; "
            f"print(json.dumps([[m for m in {modules!r} if m in sys.modules], codes]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    return json.loads(out.stdout)


def test_import_leaves_scipy_special_unloaded(tmp_path, two_by_two_file):
    # no CLI path needs scipy.special, the Sinkhorn oracle included: it has
    # its own log-sum-exp, so neither the import nor a run of it loads scipy
    runs = [["compare", "--input", two_by_two_file, "--output", str(tmp_path / "c.json")],
            ["solve", "--scheme", "sinkhorn", "--input", two_by_two_file,
             "--output", str(tmp_path / "s.json")]]
    assert _loaded_by_cli(["scipy.special"], runs) == [[], [0, 0]]


def test_cli_import_loads_no_scipy():
    # scipy.special alone takes longer to import than the whole CLI
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, schrobridge.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "[]\n"


def test_import_leaves_scipy_optimize_and_fractions_unloaded():
    # scipy.optimize serves only the witness LP, fractions only the exact
    # check of a scaling certificate
    assert _loaded_by_cli(["scipy.optimize", "fractions"]) == [[], []]


INFEASIBLE = {
    # the two infeasible problems of the benchmark's small batch
    "triangular": ([[1.0, 1.0], [0.0, 1.0]], [0.5, 0.5], [0.5, 0.5],
                   "no scaling exists (tight certificate): x points [1] carry mass 0.5, "
                   "exactly the mass 0.5 of the y points [1] they reach, which other x points "
                   "reach too"),
    "identity": ([[1.0, 0.0], [0.0, 1.0]], [0.7, 0.3], [0.5, 0.5],
                 "no scaling exists (hall certificate): x points [0] carry mass 0.7, more than "
                 "the mass 0.5 of the y points [0] they reach"),
}


@pytest.mark.parametrize("name", sorted(INFEASIBLE))
@pytest.mark.parametrize("args", [["solve"], ["solve", "--scheme", "fortet"], ["compare"]],
                         ids=["truncated", "untruncated", "compare"])
def test_no_scaling_is_refused_before_iterating(tmp_path, capsys, monkeypatch, name, args):
    from schrobridge import fortet

    def never(*a, **k):
        raise AssertionError("the Fortet loop ran on a problem with no solution")

    monkeypatch.setattr(fortet, "_iterate", never)
    P, mu, nu, message = INFEASIBLE[name]
    path = tmp_path / "p.json"
    save_problem(build_dense_problem(P, mu, nu), str(path))
    out = tmp_path / "r.json"
    assert main(args + ["--input", str(path), "--output", str(out), "--max-iter", "20000"]) == 1
    assert _one_error_line(capsys) == f"error: {message}\n"
    assert not out.exists()


def test_feasible_kernel_with_zero_entry_solves(tmp_path):
    problem = build_dense_problem([[1.0, 1.0], [0.0, 1.0]], [0.6, 0.4], [0.4, 0.6])
    path = tmp_path / "p.json"
    save_problem(problem, str(path))
    for scheme in ([], ["--scheme", "fortet"]):
        out = tmp_path / f"{len(scheme)}.json"
        assert main(["solve", "--input", str(path), *scheme, "--output", str(out),
                     "--tol", "1e-12"]) == 0
        report = read(out)
        assert report["status"] == "converged-positive"
        assert_report_rebuilds_pi(report, str(path))


@pytest.mark.parametrize("name", ["triangular", "identity", "feasible", "positive"])
def test_check_reports_the_scaling_certificate(tmp_path, capsys, name):
    P, mu, nu, _ = INFEASIBLE.get(name, ([[1.0, 1.0], [0.0, 1.0]], [0.6, 0.4], [0.4, 0.6], ""))
    if name == "positive":
        P = [[1.0, 2.0], [3.0, 4.0]]
    path = tmp_path / "p.json"
    save_problem(build_dense_problem(P, mu, nu), str(path))
    out = tmp_path / "r.json"
    # the exit code is that of the criteria, which all fail on a kernel with a zero
    assert main(["check", "--input", str(path), "--output", str(out)]) == (
        0 if name == "positive" else 4)
    cert = read(out)["scaling_certificate"]
    table = capsys.readouterr().out
    if name in INFEASIBLE:
        kind, S, mass, reach_mass = {"triangular": ("tight", 1, 0.5, 0.5),
                                     "identity": ("hall", 0, 0.7, 0.5)}[name]
        assert cert == {"kind": kind, "side": "x", "indices": [S], "reach": [S],
                        "mass": mass, "reach_mass": reach_mass}
        assert f"scaling certificate  {kind}" in table
    else:
        assert cert is None
        assert "scaling certificate  none" in table


@pytest.mark.parametrize("command", ["check", "solve", "check-radial"])
def test_kernel_byte_cap_refuses_before_allocating(tmp_path, capsys, monkeypatch, command):
    from schrobridge import problem as problem_module

    # a 9 x 9 grid: an 81 x 81 kernel of 8-byte floats, the one matrix a
    # Gaussian or radial kernel holds besides a row block of differences
    need = 81 * 81 * 8
    gp = tmp_path / "gp.json"
    eye = [[1.0, 0.0], [0.0, 1.0]]
    gp.write_text(json.dumps({"a": eye, "b": eye, "c": eye}))
    path = tmp_path / "p.json"
    assert main(["gaussian-gen", "--input", str(gp), "--points-per-dim", "9",
                 "--output", str(path)]) == 0
    gauss = load_problem(str(path))
    radial = tmp_path / "radial.json"
    save_problem(DiscreteProblem(gauss.x_space, gauss.y_space, gauss.mu, gauss.nu,
                                 make_radial_kernel("gaussian")), str(radial))
    out = tmp_path / "r.json"
    argv = {"check": ["check", "--input", str(gp), "--points-per-dim", "9"],
            "solve": ["solve", "--input", str(path), "--scheme", "fortet"],
            "check-radial": ["check", "--input", str(radial)]}[command]
    argv += ["--output", str(out)]
    monkeypatch.setattr(problem_module, "MAX_KERNEL_BYTES", need - 1)
    assert main(argv) == 1
    assert f"needs {need} bytes" in _one_error_line(capsys)
    assert not out.exists()
    monkeypatch.setattr(problem_module, "MAX_KERNEL_BYTES", need)
    assert main(argv) == 0


_INTEGRAL_2X2 = {"guard": 1e15, "xy": {"finite": True, "value": 0.41666666666666663},
                 "yx": {"finite": True, "value": 0.47619047619047616}}
_TABLE_2X2 = ["positivity           holds",
              "boundedness          holds       sup p = 4",
              "scaling certificate  none",
              "integral x->y        finite      value = 0.416667",
              "integral y->x        finite      value = 0.47619"]
_DISCRETE_2X2 = {"command": "check", "mode": "discrete", "positivity": True,
                 "boundedness": True, "sup_kernel": 4.0, "integral": _INTEGRAL_2X2,
                 "scaling_certificate": None}
_CHECK_CASES = {
    "witness-holds": (
        ["--input", "{p}", "--domination-witness", "{w}"], '{"K": [0], "x": [1], "c": [1.0]}', 0,
        {**_DISCRETE_2X2, "domination": {
            "holds": True, "K_indices": [0], "x_indices": [1], "coefficients": [1.0],
            "violation_index": None, "continuity": "asserted-not-checked"}},
        _TABLE_2X2 + ["compact domination   holds"]),
    "witness-fails": (
        ["--input", "{p}", "--domination-witness", "{w}"], '{"K": [1], "x": [0], "c": [1.0]}', 0,
        {**_DISCRETE_2X2, "domination": {
            "holds": False, "K_indices": [1], "x_indices": [0], "coefficients": [1.0],
            "violation_index": 0, "continuity": "asserted-not-checked"}},
        _TABLE_2X2 + ["compact domination   fails       violated at column 0"]),
    "moment": (
        ["--input", "{p}", "--moment-U", "{w}", "--moment-r", "3"], "[1.0, 1.0]", 0,
        {**_DISCRETE_2X2, "moment": {"holds": True, "c": 9.416666666666666, "r": 3.0,
                                     "x_o_index": 0, "U_source": "{w}"}},
        _TABLE_2X2 + ["moment condition     holds       c = 9.41667, r = 3"]),
    "radial": (
        ["--input", "{radial}"], None, 0,
        {**_DISCRETE_2X2, "sup_kernel": 1.0, "radial": {"holds": True, "L_found": 0.0},
         "integral": {"guard": 1e15, "xy": {"finite": True, "value": 1.9096784544567942},
                      "yx": {"finite": True, "value": 1.9096784544567942}}},
        ["positivity           holds",
         "boundedness          holds       sup p = 1",
         "scaling certificate  none",
         "integral x->y        finite      value = 1.90968",
         "integral y->x        finite      value = 1.90968",
         "radial non-increase  holds       L = 0"]),
    "hall": (
        ["--input", "{hall}"], None, 4,
        {**_DISCRETE_2X2, "positivity": False, "sup_kernel": 1.0,
         "integral": {"guard": 1e15, "xy": {"finite": True, "value": 2.380952380952381},
                      "yx": {"finite": True, "value": 2.0}},
         "scaling_certificate": {"kind": "hall", "side": "x", "indices": [0], "reach": [0],
                                 "mass": 0.7, "reach_mass": 0.5}},
        ["positivity           fails",
         "boundedness          holds       sup p = 1",
         "scaling certificate  hall        x [0] -> y [0]: mass 0.7 vs 0.5",
         "integral x->y        finite      value = 2.38095",
         "integral y->x        finite      value = 2"]),
    "gaussian": (
        ["--input", "{w}", "--points-per-dim", "21"], '{"a": 1.0, "b": 1.0, "c": 1.0}', 0,
        {"command": "check", "mode": "gaussian",
         "matrix_criterion": {"xy_holds": True, "yx_holds": True,
                              "xy_min_eig": 0.5, "yx_min_eig": 0.5},
         "discretization": {"points_per_dim": 21, "half_width_sigmas": 6.0},
         "integral": {"guard": 1e15, "xy": {"finite": True, "value": 5.0132204569013865},
                      "yx": {"finite": True, "value": 5.0132204569013865}}},
        ["matrix x->y    holds       min eig = 0.5",
         "matrix y->x    holds       min eig = 0.5",
         "integral x->y  finite      value = 5.01322",
         "integral y->x  finite      value = 5.01322"]),
}


@pytest.mark.parametrize("name", list(_CHECK_CASES))
def test_check_report_and_table_are_pinned(tmp_path, capsys, two_by_two_file, name):
    # every field of every criteria section, by name and value, and the table
    # printed from them: renaming a criteria field must fail here
    from schrobridge import DiscreteProblem, DiscreteSpace, Marginal, make_radial_kernel

    args, content, code, expected, table = _CHECK_CASES[name]
    files = {"{p}": two_by_two_file, "{w}": str(tmp_path / "in.json"),
             "{radial}": str(tmp_path / "radial.json"), "{hall}": str(tmp_path / "hall.json")}
    if content is not None:
        (tmp_path / "in.json").write_text(content)
    pts = np.linspace(-1.0, 1.0, 5)
    save_problem(DiscreteProblem(DiscreteSpace(pts, np.ones(5)), DiscreteSpace(pts, np.ones(5)),
                                 Marginal(np.full(5, 0.2)), Marginal(np.full(5, 0.2)),
                                 make_radial_kernel("exponential", rate=1.0)), files["{radial}"])
    save_problem(build_dense_problem([[1.0, 0.0], [0.0, 1.0]], [0.7, 0.3], [0.5, 0.5]),
                 files["{hall}"])
    if "moment" in expected:
        expected = {**expected, "moment": {**expected["moment"], "U_source": files["{w}"]}}
    out = tmp_path / "r.json"
    assert main(["check", *(files.get(a, a) for a in args), "--output", str(out)]) == code
    assert out.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    assert capsys.readouterr().out == "".join(line + "\n" for line in table)


def _radial(name, **params):
    return {"kind": "radial", "profile": {"name": name, "params": params}}


_MALFORMED = {
    "entries-ragged": ("kernel", {"kind": "dense-matrix", "entries": [[1.0, 2.0], [3.0]]}),
    "entries-strings": ("kernel", {"kind": "dense-matrix", "entries": [["a", "b"], ["c", "d"]]}),
    "mu-string": ("mu", "abc"),
    "points-string": ("x_space", {"points": ["a", "b"], "weights": [1.0, 1.0]}),
    "kernel-list": ("kernel", ["kind"]),
    "x_space-list": ("x_space", ["points"]),
    "profile-list": ("kernel", {"kind": "radial", "profile": ["name"]}),
    "params-unknown": ("kernel", _radial("exponential", scale=1)),
    "params-string": ("kernel", _radial("exponential", rate="1")),
    "params-list": ("kernel", {"kind": "radial", "profile": {"name": "gaussian", "params": [1]}}),
    "sigma-zero": ("kernel", _radial("gaussian", sigma=0)),
    "rate-negative": ("kernel", _radial("exponential", rate=-1000)),
    # positive and finite, but sigma**2 underflows: the profile is 0/0 at 0
    "sigma-tiny": ("kernel", _radial("gaussian", sigma=1e-200)),
    # exp(-800) underflows at distance 1: a kernel with zeros, and a
    # profile sampled down to 0, which the radial check cannot judge
    "underflow": ("kernel", _radial("exponential", rate=800)),
    # numbers written as strings or booleans, which a float conversion would accept
    "mu-numeric-strings": ("mu", ["0.5", "0.5"]),
    "weights-bools": ("x_space", {"points": [[0.0], [1.0]], "weights": [True, True]}),
    "entries-numeric-strings": ("kernel", {"kind": "dense-matrix",
                                           "entries": [["1", "2"], ["3", "4"]]}),
    "c-string": ("kernel", {"kind": "gaussian", "c": "1.0"}),
    # integers past the float range
    "mu-huge-int": ("mu", [10**400, 1]),
    "rate-huge-int": ("kernel", _radial("exponential", rate=10**400)),
}


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("name", list(_MALFORMED))
def test_malformed_problem_file_exits_with_one_error_line(tmp_path, capsys, name, command):
    key, value = _MALFORMED[name]
    space = {"points": [[0.0], [1.0]], "weights": [1.0, 1.0]}
    doc = {"x_space": space, "y_space": space, "mu": [0.5, 0.5], "nu": [0.5, 0.5],
           "kernel": {"kind": "dense-matrix", "entries": [[1.0, 2.0], [3.0, 4.0]]}, key: value}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    code = main([command, "--input", str(path), "--output", str(out)])
    if name != "underflow":
        assert code == 1
        _one_error_line(capsys)
        assert not out.exists()
    elif command == "solve":
        assert code == 0
    else:
        # the other criteria decide the exit code: 4, as the kernel has zeros
        assert code == 4
        assert capsys.readouterr().err == ""
        report = read(out)
        assert report["radial"] == {"holds": False, "L_found": None}
        assert report["positivity"] is False


_EQUAL_LENGTH = "x_space.points must be numbers in lists of equal length"


@pytest.mark.parametrize("points, message", [
    ([[1.0], [True]], _EQUAL_LENGTH),
    ([[1.0], ["0.5"]], _EQUAL_LENGTH),
    ([[1.0], 2.0], _EQUAL_LENGTH),
    ([[]], "x_space: weights must align with points"),
    ([[[0.0]], [[1.0]]], "x_space: points must be a nonempty list of coordinate vectors"),
    ([[[0.0]], [[True]]], _EQUAL_LENGTH),
    ([[[0.0]], [1.0]], _EQUAL_LENGTH),
], ids=["bool", "string", "row-and-number", "empty-row", "three-levels", "three-levels-bool",
        "three-levels-ragged"])
def test_nested_points_exit_one_with_their_message(tmp_path, capsys, points, message):
    # the number check reads the items of a list of rows together; each
    # nesting keeps its message
    space = {"points": [[0.0], [1.0]], "weights": [1.0, 1.0]}
    doc = {"x_space": {"points": points, "weights": [1.0, 1.0]}, "y_space": space,
           "mu": [0.5, 0.5], "nu": [0.5, 0.5],
           "kernel": {"kind": "dense-matrix", "entries": [[1.0, 2.0], [3.0, 4.0]]}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["solve", "--input", str(path), "--output", str(out)]) == 1
    assert _one_error_line(capsys) == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "line, replacement",
    [
        ("x,1,0.5", "x,one,0.5"),
        ("x,1,0.5", "x,1.0,0.5"),
        ("x,1,0.5", "x,5,0.5"),
        ("x,1,0.5", "x,-1,0.5"),
        ("x,1,0.5", "x,0,0.5"),
        ("x,1,0.5", None),
        ("x,1,0.5", "z,1,0.5"),
        ("y,1,0.5", "X,1,0.5"),
        ("x,0,0.5", "x,0"),
    ],
    ids=["index-word", "index-fraction", "index-past-end", "index-negative", "index-repeated",
         "index-missing", "space-z", "space-upper-x", "two-fields"],
)
def test_bad_csv_bundle_marginals_exit_one(tmp_path, capsys, line, replacement):
    bundle = tmp_path / "bundle"
    save_problem(build_dense_problem([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5], [0.5, 0.5]),
                 str(bundle), format="csv-bundle")
    marginals = bundle / "marginals.csv"
    rows = marginals.read_text().splitlines()
    rows = [replacement if row == line else row for row in rows if replacement or row != line]
    marginals.write_text("\n".join(rows) + "\n")
    out = tmp_path / "sol.json"
    assert main(["solve", "--input", str(bundle), "--format", "csv-bundle",
                 "--output", str(out)]) == 1
    assert "marginals.csv" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "cell, message",
    [("abc", "kernel.csv: line 1: bad float 'abc'\n"),
     ("inf", "kernel.csv: line 1: non-finite value in problem input\n")],
    ids=["word", "inf"],
)
def test_bad_csv_bundle_kernel_cell_exit_one(tmp_path, capsys, cell, message):
    bundle = tmp_path / "bundle"
    save_problem(build_dense_problem([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5], [0.5, 0.5]),
                 str(bundle), format="csv-bundle")
    kernel = bundle / "kernel.csv"
    kernel.write_text(kernel.read_text().replace("1", cell, 1))
    out = tmp_path / "sol.json"
    assert main(["solve", "--input", str(bundle), "--format", "csv-bundle",
                 "--output", str(out)]) == 1
    assert _one_error_line(capsys).endswith(message)
    assert not out.exists()


@pytest.mark.parametrize(
    "row, message",
    [("1,abc", "bad float 'abc'"), ("1,inf", "non-finite value in problem input"),
     ("1,2", "expected 1 field")],
    ids=["word", "inf", "two-cells"],
)
def test_bad_csv_bundle_weights_row_exit_one(tmp_path, capsys, row, message):
    bundle = tmp_path / "bundle"
    save_problem(build_dense_problem([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5], [0.5, 0.5]),
                 str(bundle), format="csv-bundle")
    weights = bundle / "x" / "weights.csv"
    weights.write_text(row + "\n" + weights.read_text().split("\n", 1)[1])
    out = tmp_path / "sol.json"
    assert main(["solve", "--input", str(bundle), "--format", "csv-bundle",
                 "--output", str(out)]) == 1
    assert _one_error_line(capsys) == f"error: {weights}: line 1: {message}\n"
    assert not out.exists()


def _problem_doc(**fields):
    """The 2x2 problem document on the points 0 and 1, with ``fields`` replaced."""
    space = {"points": [[0.0], [1.0]], "weights": [1.0, 1.0]}
    return {"x_space": space, "y_space": space, "mu": [0.5, 0.5], "nu": [0.5, 0.5],
            "kernel": {"kind": "dense-matrix", "entries": [[1.0, 2.0], [3.0, 4.0]]}, **fields}


def _write_bundle(doc, dirpath):
    """Write a dense problem document as the files of a CSV bundle, unvalidated."""
    files = {"kernel.csv": doc["kernel"]["entries"],
             "marginals.csv": [["space", "index", "weight"]]
             + [["x", i, w] for i, w in enumerate(doc["mu"])]
             + [["y", j, w] for j, w in enumerate(doc["nu"])]}
    for sub in "xy":
        files[f"{sub}/points.csv"] = doc[f"{sub}_space"]["points"]
        files[f"{sub}/weights.csv"] = [[w] for w in doc[f"{sub}_space"]["weights"]]
    for name, rows in files.items():
        path = dirpath / name
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)


_TWO_POINTS = [[0.0], [1.0]]

# cells that parse, in documents that break a problem rule
_INVALID_BUNDLES = {
    "weight-zero": ({"x_space": {"points": _TWO_POINTS, "weights": [1.0, 0.0]}},
                    "x_space: reference weights must be finite and positive"),
    "weights-longer": ({"y_space": {"points": _TWO_POINTS, "weights": [1.0, 1.0, 1.0]}},
                       "y_space: weights must align with points"),
    "mass-not-one": ({"mu": [0.5, 0.4]}, "marginal mass 0.9 is not 1 within 1e-12"),
    "entry-negative": ({"kernel": {"kind": "dense-matrix", "entries": [[1.0, -2.0], [3.0, 4.0]]}},
                       "dense kernel entries must be finite and nonnegative"),
    "kernel-2x3": ({"kernel": {"kind": "dense-matrix", "entries": [[1.0, 2.0, 3.0]] * 2}},
                   "dense kernel shape does not match the grids"),
    # ragged rows are refused as JSON lists of unequal length are
    "kernel-ragged": ({"kernel": {"kind": "dense-matrix", "entries": [[1.0, 2.0], [3.0]]}},
                      "kernel.entries must be numbers in lists of equal length"),
    "points-ragged": ({"x_space": {"points": [[0.0], [1.0, 2.0]], "weights": [1.0, 1.0]}},
                      "x_space.points must be numbers in lists of equal length"),
}


@pytest.mark.parametrize("command", ["solve", "check"])
@pytest.mark.parametrize("name", list(_INVALID_BUNDLES))
def test_invalid_bundle_answers_like_its_json_twin(tmp_path, capsys, name, command):
    fields, message = _INVALID_BUNDLES[name]
    doc = _problem_doc(**fields)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    _write_bundle(doc, tmp_path / "bundle")
    for argv in (["--input", str(path)],
                 ["--input", str(tmp_path / "bundle"), "--format", "csv-bundle"]):
        assert main([command, *argv]) == 1
        assert _one_error_line(capsys) == f"error: {message}\n"


def test_bundle_without_x_points_exit_one(tmp_path, capsys):
    _write_bundle(_problem_doc(), tmp_path / "bundle")
    missing = tmp_path / "bundle" / "x" / "points.csv"
    missing.unlink()
    assert main(["check", "--input", str(tmp_path / "bundle"), "--format", "csv-bundle"]) == 1
    assert _one_error_line(capsys) == (
        f"error: {missing}: [Errno 2] No such file or directory: '{missing}'\n")


# refusals of a problem file, each with its one error line (a negative entry
# and a kernel of the wrong shape are in _INVALID_BUNDLES)
_REFUSED_FILES = {
    "c-not-square": (_problem_doc(kernel={"kind": "gaussian", "c": [[1.0, 0.0]]}),
                     "gaussian kernel precision must be a square matrix"),
    "mu-empty": (_problem_doc(mu=[]), "marginal must be a nonempty vector"),
    "entries-1d": (_problem_doc(kernel={"kind": "dense-matrix", "entries": [1.0, 2.0]}),
                   "dense kernel entries must form a matrix"),
    "profile-cauchy": (_problem_doc(kernel=_radial("cauchy")),
                       "unknown radial profile 'cauchy'; known: ['exponential', 'gaussian']"),
    "nu-short": (_problem_doc(nu=[1.0]), "nu must have one weight per y point"),
    "gaussian-1d-2d": (_problem_doc(y_space={"points": [[0.0, 0.0], [1.0, 0.0]],
                                             "weights": [1.0, 1.0]},
                                    kernel={"kind": "gaussian", "c": [[1.0]]}),
                       "functional kernels require grids of equal dimension"),
    "kind-sparse": (_problem_doc(kernel={"kind": "sparse"}), "unknown kernel kind 'sparse'"),
    "list": ([_problem_doc()], "problem document must be a JSON object"),
}


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("name", list(_REFUSED_FILES))
def test_refused_problem_file_exits_with_its_line(tmp_path, capsys, name, command):
    doc, message = _REFUSED_FILES[name]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--input", str(path)]) == 1
    assert _one_error_line(capsys) == f"error: {message}\n"


@pytest.mark.parametrize("command", ["check", "gaussian-gen"])
def test_triple_with_an_infinite_entry_exit_one(tmp_path, capsys, command):
    path = tmp_path / "t.json"
    path.write_text('{"a": [[1e999]], "b": [[1.0]], "c": [[1.0]]}')
    assert main([command, "--input", str(path)]) == 1
    assert _one_error_line(capsys) == "error: bad gaussian problem: a must be finite\n"


def test_solve_sinkhorn_out_of_budget_exit_three(tmp_path, two_by_two_file):
    out = tmp_path / "s.json"
    assert main(["solve", "--input", two_by_two_file, "--scheme", "sinkhorn", "--max-iter", "1",
                 "--tol", "1e-14", "--output", str(out)]) == 3
    assert read(out) == {"command": "solve", "scheme": "sinkhorn", "status": "max-iter"}


def test_compare_refused_by_the_oracle_exit_two(tmp_path):
    # Fortet solves a kernel with a zero entry; the Sinkhorn oracle refuses it
    path = tmp_path / "p.json"
    save_problem(build_dense_problem([[1.0, 1.0], [0.0, 1.0]], [0.6, 0.4], [0.4, 0.6]), str(path))
    out = tmp_path / "c.json"
    assert main(["compare", "--input", str(path), "--output", str(out)]) == 2
    report = read(out)
    assert report["fortet_status"] == "converged-positive"
    assert report["sinkhorn_error"] == "sinkhorn_baseline requires a strictly positive kernel"


def test_check_radial_problem_whose_marginal_tails_underflow(tmp_path, capsys):
    # the far tail of mu is 0, so reduction drops atoms; the radial check still runs
    x = np.linspace(-40.0, 40.0, 81)
    mu = np.exp(-(x + 30.0) ** 2 / 2)
    mu /= mu.sum()
    doc = {"x_space": {"points": x[:, None].tolist(), "weights": [1.0] * 81},
           "y_space": {"points": x[:, None].tolist(), "weights": [1.0] * 81},
           "mu": mu.tolist(), "nu": mu[::-1].tolist(),
           "kernel": {"kind": "radial",
                      "profile": {"name": "exponential", "params": {"rate": 1.0}}}}
    path, out = tmp_path / "p.json", tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--input", str(path), "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = read(out)
    assert report["radial"]["holds"] is True
    assert not report["integral"]["xy"]["finite"] and not report["integral"]["yx"]["finite"]


def test_problem_file_with_an_asymmetric_gaussian_precision_exits_one(tmp_path, capsys):
    space = {"points": [[0.0, 0.0], [1.0, 0.0]], "weights": [1.0, 1.0]}
    doc = {"x_space": space, "y_space": space, "mu": [0.5, 0.5], "nu": [0.5, 0.5],
           "kernel": {"kind": "gaussian", "c": [[2.0, 0.5 + 1e-6], [0.5, 1.0]]}}
    path, out = tmp_path / "p.json", tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--input", str(path), "--output", str(out)]) == 1
    assert "not symmetric" in _one_error_line(capsys)
    assert not out.exists()


# SPD matrices; `a` has eigenvalues 9.5e-6 and 1.8e4, so the matrix
# criterion's harmonic-mean product fails its rounding-asymmetry guard
_ILL_CONDITIONED_TRIPLE = {
    "a": [[5856.219832633245, -8540.53873358892], [-8540.53873358892, 12455.270484861228]],
    "b": [[27115.466942136056, -12626.062279384678], [-12626.062279384678, 5879.767151709585]],
    "c": [[32.249074720135, -27.710476564693], [-27.710476564693, 23.810623600869]],
}


@pytest.mark.parametrize("grid", [[], ["--points-per-dim", "11"]], ids=["default", "11"])
def test_check_ill_conditioned_triple_exit_two(tmp_path, capsys, grid):
    path, out = tmp_path / "gp.json", tmp_path / "r.json"
    path.write_text(json.dumps(_ILL_CONDITIONED_TRIPLE))
    assert main(["check", "--input", str(path), "--output", str(out), *grid]) == 2
    assert "product expression asymmetry" in _one_error_line(capsys)
    assert not out.exists()


def test_check_triple_with_a_precision_near_the_float_range(tmp_path, capsys):
    import warnings

    path, out = tmp_path / "gp.json", tmp_path / "r.json"
    path.write_text('{"a": 1e308, "b": 1.0, "c": 1.0}')
    assert main(["check", "--input", str(path), "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    mc = read(out)["matrix_criterion"]
    assert mc["xy_holds"] and mc["yx_holds"]
    eye = [[1.0, 0.0], [0.0, 1.0]]
    path.write_text(json.dumps({"a": [[1.0, 1e308], [1e308, 1.0]], "b": eye, "c": eye}))
    assert main(["check", "--input", str(path), "--output", str(out)]) == 1
    assert _one_error_line(capsys) == "error: bad gaussian problem: a is not positive definite\n"
    # det(a) = 1e320 leaves the float range, and the marginal weights need no constant
    path.write_text(json.dumps({"a": [[1e160, 0.0], [0.0, 1e160]], "b": eye, "c": eye}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in ("gaussian-gen", "check"):
            assert main([command, "--input", str(path), "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# The default solve (the plain scheme) and the clamp from a given ceiling
# ---------------------------------------------------------------------------

# the reports of the worked 2x2 as the clamp from U = 1 (``--U`` with a
# file of ones) writes them
_TWO_BY_TWO_SOLVE = """{
  "a": [
    0.7101020514233882,
    0.2898979485766118
  ],
  "b": [
    0.31649658091972194,
    0.1938137821491012
  ],
  "command": "solve",
  "early_exit_index": null,
  "iterations": 33,
  "marginal_err_x": 2.4012236643500273e-11,
  "marginal_err_y": 5.551115123125783e-17,
  "rel_entropy": -2.1859366056420186,
  "residual": 1.960587248106549e-11,
  "scheme": "truncated",
  "status": "converged-positive",
  "u_star": [
    0.408248290503479,
    1.0
  ]
}
"""
_TWO_BY_TWO_COMPARE = """{
  "command": "compare",
  "coupling_gap": 9.992007221626409e-16,
  "fortet_iterations": 47,
  "fortet_rel_entropy": -2.1859366056205083,
  "fortet_status": "converged-positive",
  "gap_tol": 1e-08,
  "potential_gap": 2.609024107869118e-15,
  "sinkhorn_rel_entropy": -2.1859366056205065
}
"""


# the report and the trace CSV that ``solve --U ones.json --trace`` writes
_TWO_BY_TWO_TRACE = Path(__file__).parent / "data" / "two_by_two_clamp_trace"


@pytest.mark.parametrize("args, expected", [
    (["solve"], {"r.json": _TWO_BY_TWO_SOLVE.encode()}),
    (["solve", "--scheme", "fortet"], {"r.json": _TWO_BY_TWO_SOLVE.encode()}),
    (["compare"], {"r.json": _TWO_BY_TWO_COMPARE.encode()}),
    (["solve", "--trace"], {f.name: f.read_bytes() for f in _TWO_BY_TWO_TRACE.iterdir()}),
], ids=["solve", "solve-fortet", "compare", "solve-trace"])
def test_dense_reports_keep_their_bytes(tmp_path, two_by_two_file, args, expected):
    assert main(args + ["--input", two_by_two_file, "--output", str(tmp_path / "r.json"),
                        "--U", ones_file(tmp_path, 2)]) == 0
    for name, content in expected.items():
        assert (tmp_path / name).read_bytes() == content


# a 5 x 5 grid against a 4 x 4 one in 2-D under the radial exponential
# profile: the reports and check's table of the one-shot kernel evaluation
_RADIAL_2D = Path(__file__).parent / "data" / "radial_2d"


@pytest.mark.parametrize("entries", [None, 1], ids=["default-blocks", "one-row-blocks"])
@pytest.mark.parametrize("command", ["solve", "compare", "check"])
def test_radial_reports_keep_their_bytes(tmp_path, capsys, monkeypatch, command, entries):
    from schrobridge import problem as problem_module

    if entries is not None:
        monkeypatch.setattr(problem_module, "ROW_BLOCK_ENTRIES", entries)
    out = tmp_path / "r.json"
    assert main([command, "--input", str(_RADIAL_2D / "problem.json"), "--output", str(out)]) == 0
    assert out.read_bytes() == (_RADIAL_2D / f"{command}.json").read_bytes()
    table = (_RADIAL_2D / "check.txt").read_text() if command == "check" else ""
    assert capsys.readouterr() == (table, "")


@pytest.mark.parametrize("command, iterations", [("solve", 6), ("compare", 8)])
def test_default_reports_of_the_two_by_two(tmp_path, two_by_two_file, command, iterations):
    # the clamp from U = 1 takes 33 (solve) and 47 (compare) iterations
    out = tmp_path / "r.json"
    assert main([command, "--input", two_by_two_file, "--output", str(out)]) == 0
    report = read(out)
    assert report["iterations" if command == "solve" else "fortet_iterations"] == iterations
    if command == "solve":
        assert report["scheme"] == "untruncated"
        pinned = json.loads(_TWO_BY_TWO_SOLVE)
        for key in ("a", "b"):
            np.testing.assert_allclose(report[key], pinned[key], rtol=0, atol=1e-10)


def _gaussian_problem_file(tmp_path, name, a, b, c, points):
    gp = GaussianProblem(a=np.atleast_2d(a), b=np.atleast_2d(b), c=np.atleast_2d(c))
    path = tmp_path / f"{name}.json"
    save_problem(discretize_gaussian(gp, points_per_dim=points), str(path))
    return str(path)


def test_default_solve_of_the_801_point_gaussian(tmp_path):
    # the clamp from U = 1 takes 1589 (solve) and 3134 (compare) iterations
    path = _gaussian_problem_file(tmp_path, "g801", 1.0, 1.0, 1.0, 801)
    out = tmp_path / "r.json"
    assert main(["solve", "--input", path, "--output", str(out)]) == 0
    report = read(out)
    assert report["scheme"] == "untruncated"
    assert report["iterations"] <= 29
    assert max(report["marginal_err_x"], report["marginal_err_y"]) <= 1e-10
    assert main(["compare", "--input", path, "--output", str(out)]) == 0
    report = read(out)
    assert report["fortet_iterations"] <= 39
    assert report["potential_gap"] <= 1e-8


@pytest.mark.parametrize("name, a, b", [
    # U = 1 ends max-iter after 30,000 iterations
    ("unit", np.eye(2), np.eye(2)),
    # U = 1 ends degenerate-zero after 0 iterations
    ("hard", np.diag([0.1, 10.0]), np.diag([10.0, 0.1])),
])
def test_two_dimensional_gaussians_solve_from_the_default_ceiling(tmp_path, name, a, b):
    path = _gaussian_problem_file(tmp_path, name, a, b, np.eye(2), 31)
    out = tmp_path / "r.json"
    tol = "1e-5" if name == "hard" else "1e-10"
    assert main(["solve", "--input", path, "--output", str(out), "--tol", tol,
                 "--max-iter", "30000"]) == 0
    report = read(out)
    assert report["scheme"] == "untruncated" and report["iterations"] <= 100


def test_failed_default_run_reports_the_plain_scheme_and_its_exit(tmp_path, capsys):
    # a plain run out of budget (it needs 14): no clamp run follows, so the
    # default report is the plain scheme's, byte for byte, with its exit
    import warnings

    g801 = _gaussian_problem_file(tmp_path, "g801", 1.0, 1.0, 1.0, 801)
    # compare exits 2: a Fortet run out of budget fails the comparison
    for command, code in (("solve", 3), ("compare", 2)):
        default = tmp_path / "default.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = main([command, "--input", g801, "--output", str(default), "--max-iter", "5"])
        assert got == code
        report = read(default)
        assert report["iterations" if command == "solve" else "fortet_iterations"] == 5
        if command == "solve":
            plain = tmp_path / "plain.json"
            assert main([command, "--input", g801, "--output", str(plain), "--max-iter", "5",
                         "--scheme", "fortet"]) == code
            assert default.read_bytes() == plain.read_bytes()
            assert report["scheme"] == "untruncated"
    assert capsys.readouterr().err == ""
    # y is x rolled by 4 points, so the c = 100 kernel vanishes far off that
    # band; the plain scheme solves it in 1 iteration
    n = 104
    x = np.arange(n, dtype=float)[:, None]
    rolled = tmp_path / "rolled.json"
    rolled.write_text(json.dumps({
        "x_space": {"points": x.tolist(), "weights": [1.0] * n},
        "y_space": {"points": np.roll(x, -4, axis=0).tolist(), "weights": [1.0] * n},
        "mu": [1.0 / n] * n, "nu": [1.0 / n] * n,
        "kernel": {"kind": "gaussian", "c": [[100.0]]}}))
    out = tmp_path / "rolled-out.json"
    assert main(["solve", "--input", str(rolled), "--output", str(out)]) == 0
    report = read(out)
    assert (report["scheme"], report["iterations"]) == ("untruncated", 1)


@pytest.mark.parametrize("scale", ["1e200", "1e-200"])
def test_gaussian_precision_with_a_determinant_out_of_range_solves(tmp_path, capsys, scale):
    import warnings

    grid = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    space = {"points": grid, "weights": [1.0] * 4}
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"x_space": space, "y_space": space, "mu": [0.25] * 4,
                                "nu": [0.25] * 4,
                                "kernel": {"kind": "gaussian",
                                           "c": [[float(scale), 0.0], [0.0, float(scale)]]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--input", str(path), "--output", str(tmp_path / "r.json")]) == 0
    assert read(tmp_path / "r.json")["a"] == [0.25] * 4
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name, a, b, c, points", [
    # a potential spanning ~60 orders of magnitude
    ("hard", np.diag([0.1, 10.0]), np.diag([10.0, 0.1]), np.eye(2), 31),
    ("c10", 1.0, 1.0, 10.0, 201),
])
def test_compare_gap_is_scale_free(tmp_path, name, a, b, c, points):
    path = _gaussian_problem_file(tmp_path, name, a, b, c, points)
    out = tmp_path / "r.json"
    assert main(["compare", "--input", path, "--output", str(out)]) == 0
    report = read(out)
    assert report["potential_gap"] <= 1e-10 and report["coupling_gap"] <= 1e-14
