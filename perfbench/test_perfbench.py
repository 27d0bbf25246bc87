"""Tests of the benchmark's own machinery: the correctness gate and the tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402
from workload import _load_program  # noqa: E402

cli, MODULES = _load_program(os.path.join(os.path.dirname(HERE), "src"))


def _op(workload, op_id):
    problems, ops = inputs.build(workload, seed=0)
    op = next(o for o in ops if o.id == op_id)
    return op, next(p for p in problems if p.name == op.problem)


def _run(op, problem, tmp_path):
    inputs.write_inputs([problem], str(tmp_path))
    out = str(tmp_path / "report.json")
    code = cli.main([a.format(dir=str(tmp_path), out=out) for a in op.argv])
    with open(out, encoding="utf-8") as fh:
        return code, json.load(fh)


def test_gate_passes_a_true_solution_and_rejects_a_perturbed_a(tmp_path):
    op, problem = _op("small-batch", "worked2x2")
    code, report = _run(op, problem, tmp_path)
    assert gate.judge(op, problem, code, report, None).ok

    report["a"][0] *= 1.0 + 1e-6
    outcome = gate.judge(op, problem, code, report, None)
    assert outcome.status == "wrong"
    assert "marginal" in outcome.reason


def test_gate_accepts_an_infeasible_op_that_claims_nothing(tmp_path):
    op, problem = _op("small-batch", "infeasible_identity")
    report = {"command": "solve", "status": "max-iter", "iterations": 20000}
    assert gate.judge(op, problem, 3, report, None).ok


def test_gate_rejects_an_infeasible_op_that_claims_convergence():
    op, problem = _op("small-batch", "infeasible_triangular")
    claimed = {"status": "converged-positive", "a": [0.5, 0.5], "b": [1.0, 1.0]}
    assert gate.judge(op, problem, 0, claimed, None).status == "wrong"
    # a nonzero exit does not excuse a report that still carries a solution
    assert gate.judge(op, problem, 3, claimed, None).status == "wrong"


def test_gate_rejects_an_escaped_exception():
    op, problem = _op("small-batch", "worked2x2")
    outcome = gate.judge(op, problem, None, None, "RuntimeError: boom")
    assert outcome.status == "fail"
    assert "escaped" in outcome.reason


def test_gate_recomputes_check_values(tmp_path):
    op, problem = _op("dense-check", "check_json")
    code, report = _run(op, problem, tmp_path)
    assert gate.judge(op, problem, code, report, None).ok

    report["integral"]["xy"]["value"] *= 1.0 + 1e-6
    assert gate.judge(op, problem, code, report, None).status == "wrong"


def _snapshot():
    return {(layer, attr): val for layer, mod in MODULES.items()
            for attr, val in vars(mod).items()}


def test_tracer_restores_every_module_attribute(tmp_path):
    op, problem = _op("small-batch", "worked2x2")
    before = _snapshot()
    with Tracer(MODULES) as tracer:
        assert MODULES["fortet"].psi is not before[("fortet", "psi")]
        assert MODULES["criteria"].kernel_matrix is not before[("criteria", "kernel_matrix")]
        _run(op, problem, tmp_path)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    spans = tracer.summary()
    assert spans["cli.main"]["calls"] == 1
    # calls between modules are seen through the importing module's attribute
    assert spans["fortet.psi"]["calls"] > 0
    assert spans["extnum.ext_matvec"]["calls"] == 2 * spans["fortet.psi"]["calls"]
    assert spans["problem.kernel_matrix.build"]["calls"] == 1
    main = spans["cli.main"]
    assert 0 < main["self_s"] < main["total_s"]


def test_tracer_restores_attributes_after_an_exception():
    before = _snapshot()
    with pytest.raises(ZeroDivisionError):
        with Tracer(MODULES):
            MODULES["extnum"].as_ext_array([1.0, 2.0])
            1 / 0
    assert all(_snapshot()[k] is v for k, v in before.items())


def test_self_time_is_span_minus_children():
    import types

    mod = types.ModuleType("fake")
    mod.__name__ = "fake"

    def inner():
        return sum(range(20000))

    def outer():
        return mod.inner() + mod.inner()

    inner.__module__ = outer.__module__ = "fake"
    mod.inner, mod.outer = inner, outer
    with Tracer({"fake": mod}) as tracer:
        mod.outer()
    spans = tracer.summary()
    assert spans["fake.inner"]["calls"] == 2
    outer_s = spans["fake.outer"]
    assert outer_s["self_s"] == pytest.approx(
        outer_s["total_s"] - spans["fake.inner"]["total_s"], abs=1e-12)


def test_inputs_depend_only_on_the_seed():
    a, _ = inputs.build("dense-check", seed=7)
    b, _ = inputs.build("dense-check", seed=7)
    c, _ = inputs.build("dense-check", seed=8)
    assert np.array_equal(a[0].P, b[0].P)
    assert not np.array_equal(a[0].P, c[0].P)
