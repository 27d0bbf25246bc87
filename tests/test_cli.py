import json
import os
import subprocess
import sys

import numpy as np
import pytest

from schrobridge import kernel_matrix, load_problem, save_problem, validate_reduction
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
    for scheme in ("untruncated", "sinkhorn"):
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
    code = main(["solve", "--input", str(path), "--scheme", "untruncated", "--tol", "1e-5",
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

    problem = validate_reduction(load_problem(gaussian_file))
    result = solve_fortet(problem, tol=1e-12)
    sol_f = extract_solution(problem, result.u_star, psi_star=result.psi_star)
    sink = sinkhorn_baseline(problem, tol=1e-12)
    monkeypatch.setattr(cli, "_GAP_BLOCK", block)
    assert cli._coupling_gap(sol_f, sink) == float(np.max(np.abs(sol_f.pi - sink.pi)))


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


@pytest.mark.parametrize(
    "args, content",
    [
        (["solve", "--U", "{file}"], "[0.0, 1.0]"),
        (["solve", "--U", "{file}"], "[NaN, 1.0]"),
        (["solve", "--U", "{file}"], '["a", 1.0]'),
        (["check", "--moment-U", "{file}"], "[0.0, 1.0]"),
        (["check", "--moment-U", "{file}"], '["a", 1.0]'),
        (["check", "--domination-witness", "{file}"], '{"K": [0], "c": [1.0]}'),
        (["check", "--moment-r", "0.5"], None),
        # options the chosen path would not read
        (["solve", "--scheme", "untruncated", "--U", "{file}"], "[1.0, 1.0]"),
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
        (["check", "--finite-guard", "nan"], None),
        (["compare", "--gap-tol", "nan"], None),
        (["compare", "--gap-tol", "-1"], None),
        (["solve", "--tol", "nan"], None),
        (["report", "--input", "{file}"], b'["\xff"]'),
        # numbers written as strings or booleans
        (["solve", "--U", "{file}"], '["1.0", "1.0"]'),
        (["check", "--moment-U", "{file}"], "[true, true]"),
        (["check", "--input", "{file}"], '{"a": "1.0", "b": true, "c": 1.0}'),
    ],
    ids=["U-zero", "U-nan", "U-string", "moment-U-zero", "moment-U-string",
         "witness-without-x", "moment-r-half", "U-untruncated", "U-sinkhorn", "trace-sinkhorn",
         "moment-U-gaussian", "witness-gaussian", "witness-index-past-end",
         "witness-index-negative", "witness-coefficient-negative", "witness-index-fraction",
         "witness-index-float-fraction", "witness-index-bool", "witness-coefficient-string",
         "moment-r-without-U", "moment-r-gaussian", "check-points-even",
         "gen-points-even", "check-half-width-negative", "gen-half-width-negative",
         "check-grid-too-large", "gen-grid-too-large", "finite-guard-nan", "gap-tol-nan",
         "gap-tol-negative", "tol-nan", "report-not-utf8", "U-numeric-strings",
         "moment-U-bools", "triple-string-and-bool"],
)
def test_bad_vector_inputs_exit_one(tmp_path, two_by_two_file, capsys, args, content):
    path = tmp_path / "in.json"
    if content is not None:
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    files = {"{file}": str(path), "{triple}": str(tmp_path / "gp.json"),
             "{triple2d}": str(tmp_path / "gp2.json")}
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
    solver = {"--format": "json", "--max-iter": 100_000, "--U": "ones"}
    grid = {"--points-per-dim": None, "--half-width-sigmas": 6.0}
    expected = {
        "solve": {**files, **solver, "--scheme": "truncated", "--tol": 1e-10, "--trace": False},
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


def test_gaussian_gen_stdout_equals_output_file(tmp_path, capsys):
    gp_path = tmp_path / "gp.json"
    gp_path.write_text(json.dumps({"a": 1.0, "b": 2.0, "c": 1.0}))
    out = tmp_path / "problem.json"
    argv = ["gaussian-gen", "--input", str(gp_path), "--points-per-dim", "11"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert main(argv + ["--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == stdout


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
@pytest.mark.parametrize("args", [["solve"], ["solve", "--scheme", "untruncated"], ["compare"]],
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
    for scheme in ("truncated", "untruncated"):
        out = tmp_path / f"{scheme}.json"
        assert main(["solve", "--input", str(path), "--scheme", scheme, "--output", str(out),
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


@pytest.mark.parametrize("command", ["check", "solve"])
def test_kernel_byte_cap_refuses_before_allocating(tmp_path, capsys, monkeypatch, command):
    from schrobridge import problem as problem_module

    # a 9 x 9 grid: an 81 x 81 kernel of 8-byte floats, plus its (81, 81, 2) differences
    need = 81 * 81 * 8 * 3
    gp = tmp_path / "gp.json"
    eye = [[1.0, 0.0], [0.0, 1.0]]
    gp.write_text(json.dumps({"a": eye, "b": eye, "c": eye}))
    path = tmp_path / "p.json"
    assert main(["gaussian-gen", "--input", str(gp), "--points-per-dim", "9",
                 "--output", str(path)]) == 0
    out = tmp_path / "r.json"
    argv = {"check": ["check", "--input", str(gp), "--points-per-dim", "9"],
            "solve": ["solve", "--input", str(path), "--scheme", "untruncated"]}[command]
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
    "cutoff-string": ("kernel", {**_radial("exponential", rate=1), "cutoff": "far"}),
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
    ],
    ids=["index-word", "index-fraction", "index-past-end", "index-negative", "index-repeated",
         "index-missing", "space-z", "space-upper-x"],
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
# The default ceiling: a plain solve for kernels given on points
# ---------------------------------------------------------------------------

# the reports of the worked 2x2 as the clamp from U = 1 writes them; a
# dense kernel takes no plain start, so they keep every byte
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
  "coupling_gap": 1.0547118733938987e-15,
  "fortet_iterations": 47,
  "fortet_rel_entropy": -2.1859366056205083,
  "fortet_status": "converged-positive",
  "gap_tol": 1e-08,
  "potential_gap": 2.6645352591003757e-15,
  "sinkhorn_rel_entropy": -2.1859366056205065
}
"""


@pytest.mark.parametrize("command, expected", [("solve", _TWO_BY_TWO_SOLVE),
                                               ("compare", _TWO_BY_TWO_COMPARE)])
def test_dense_reports_keep_their_bytes(tmp_path, two_by_two_file, command, expected):
    out = tmp_path / "r.json"
    assert main([command, "--input", two_by_two_file, "--output", str(out)]) == 0
    assert out.read_text() == expected


def _gaussian_problem_file(tmp_path, name, a, b, c, points):
    gp = GaussianProblem(a=np.atleast_2d(a), b=np.atleast_2d(b), c=np.atleast_2d(c))
    path = tmp_path / f"{name}.json"
    save_problem(discretize_gaussian(gp, points_per_dim=points), str(path))
    return str(path)


def test_coarse_start_on_the_801_point_gaussian(tmp_path):
    # the clamp from U = 1 takes 1589 (solve) and 3134 (compare) iterations
    path = _gaussian_problem_file(tmp_path, "g801", 1.0, 1.0, 1.0, 801)
    out = tmp_path / "r.json"
    assert main(["solve", "--input", path, "--output", str(out)]) == 0
    report = read(out)
    assert report["ceiling"] == "plain" and report["plain_iterations"] > 0
    assert report["iterations"] + report["plain_iterations"] <= 29
    assert max(report["marginal_err_x"], report["marginal_err_y"]) <= 1e-10
    assert main(["compare", "--input", path, "--output", str(out)]) == 0
    report = read(out)
    assert report["ceiling"] == "plain"
    assert report["fortet_iterations"] + report["plain_iterations"] <= 39
    assert report["potential_gap"] <= 1e-8


def test_small_point_grid_report_has_no_ceiling_keys(tmp_path, gaussian_file):
    out = tmp_path / "r.json"
    assert main(["solve", "--input", gaussian_file, "--output", str(out)]) == 0
    assert not {"ceiling", "plain_iterations"} & read(out).keys()


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
    assert report["ceiling"] == "plain" and report["iterations"] <= 100


def test_failed_coarse_level_keeps_the_clamp_and_its_exit(tmp_path, capsys):
    # a plain start out of budget: both runs are the clamp's from U = 1,
    # byte for byte, with no warning
    import warnings

    g801 = _gaussian_problem_file(tmp_path, "g801", 1.0, 1.0, 1.0, 801)
    ones = tmp_path / "ones.json"
    ones.write_text(json.dumps([1.0] * 801))
    # compare exits 2: a Fortet run out of budget fails the comparison
    for command, code in (("solve", 3), ("compare", 2)):
        default, given = tmp_path / "default.json", tmp_path / "given.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = main([command, "--input", g801, "--output", str(default), "--max-iter", "5"])
        assert got == main([command, "--input", g801, "--output", str(given), "--max-iter", "5",
                            "--U", str(ones)])
        assert got == code
        assert default.read_bytes() == given.read_bytes()
    assert capsys.readouterr().err == ""
    # y is x rolled by 4 points, so the c = 100 kernel vanishes far off that
    # band; the plain start solves it in 1 iteration, and so does the run
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
    assert (report["ceiling"], report["plain_iterations"], report["iterations"]) == ("plain", 1, 1)


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
