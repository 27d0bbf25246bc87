"""The correctness gate: every op's output, checked with the benchmark's own numpy.

Fields of a report are used only as claims to check: a solve's
coupling is rebuilt as ``pi = a P b`` from the report's ``a`` and ``b``
and the gate's own kernel, and criteria values are recomputed.

An op ends in one of three outcomes:

* ``pass``  -- the output is what the op expects;
* ``fail``  -- no usable output: an expected success exited nonzero, or
  an exception escaped ``cli.main``;
* ``wrong`` -- the program claimed a result that the gate refutes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from inputs import Op, Problem

#: The exit codes the CLI documents for a run that yields no solution.
DOCUMENTED_FAILURE_EXITS = {1, 2, 3, 4, 5}
#: ``compare``'s default bound on the potential gap.
GAP_TOL = 1e-8
#: Relative agreement required between a reported criterion value and the
#: gate's own; both sum the same finite terms in different orders.
CRITERION_RTOL = 1e-9


@dataclass
class Outcome:
    status: str  # "pass", "fail" or "wrong"
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


PASS = Outcome("pass")


def _vector(report: dict, key: str, size: int) -> np.ndarray | None:
    try:
        v = np.asarray(report[key], dtype=float)
    except (KeyError, TypeError, ValueError):
        return None
    if v.shape != (size,) or not np.isfinite(v).all() or (v <= 0).any():
        return None
    return v


def _close(reported, expected: float) -> bool:
    if not isinstance(reported, (int, float)):
        return reported == "inf" and math.isinf(expected)
    return math.isclose(float(reported), expected, rel_tol=CRITERION_RTOL)


def _solution(p: Problem, op: Op, report: dict) -> Outcome:
    a = _vector(report, "a", p.shape[0])
    b = _vector(report, "b", p.shape[1])
    if a is None or b is None:
        return Outcome("wrong", "exit 0 without finite positive a and b")
    pi = a[:, None] * p.P * b[None, :]
    err_x = float(np.max(np.abs(pi.sum(axis=1) - p.mu)))
    err_y = float(np.max(np.abs(pi.sum(axis=0) - p.nu)))
    if not max(err_x, err_y) <= op.marginal_tol:
        return Outcome("wrong", f"marginal errors {err_x:.3g}, {err_y:.3g} exceed "
                                f"{op.marginal_tol:g}")
    return PASS


def _integral(P: np.ndarray, inner: np.ndarray, outer: np.ndarray) -> float:
    s = inner @ P
    if ((s == 0) & (outer > 0)).any():
        return math.inf
    return float(np.sum(outer[s > 0] / s[s > 0]))


def _moment_c(p: Problem, U: np.ndarray, r: float = 2.0) -> float:
    psi = (p.mu / U) @ p.P
    base = p.P[0, :]
    return float(np.max(((p.P / base) ** r @ (base * p.nu / psi)) / U**r))


def _check(p: Problem, report: dict) -> Outcome:
    if not (p.P > 0).all():
        return Outcome("wrong", "check op on a kernel the gate does not see as positive")
    if report.get("mode") == "discrete" and report.get("positivity") is not True:
        return Outcome("wrong", "positivity not reported for a positive kernel")
    integral = report.get("integral")
    expected = {"xy": _integral(p.P, p.mu, p.nu), "yx": _integral(p.P.T, p.nu, p.mu)}
    if not isinstance(integral, dict) or not all(isinstance(integral.get(k), dict)
                                                 for k in expected):
        return Outcome("wrong", "exit 0 without an integral criterion")
    for key, value in expected.items():
        if not _close(integral[key].get("value"), value):
            return Outcome("wrong", f"integral {key} value disagrees with {value:.17g}")
    if not any(integral[k].get("finite") is True for k in expected):
        return Outcome("wrong", "no finite integral criterion")
    if "moment" in report:
        c = _moment_c(p, np.ones(p.shape[0]))
        moment = report["moment"]
        if not isinstance(moment, dict) or not _close(moment.get("c"), c):
            return Outcome("wrong", f"moment constant disagrees with {c:.17g}")
    return PASS


def judge(op: Op, p: Problem, code, report: dict | None, escaped: str | None) -> Outcome:
    """Outcome of one op from its exit code, its report (or None) and any escaped exception."""
    if escaped is not None:
        return Outcome("fail", f"exception escaped cli.main: {escaped}")
    if not isinstance(code, int):
        return Outcome("fail", f"cli.main returned {code!r}, not an exit code")
    if report is not None and not isinstance(report, dict):
        return Outcome("wrong", "report is not a JSON object")

    if op.expect == "infeasible":
        claims = report is not None and (
            "a" in report or "b" in report or report.get("status") == "converged-positive")
        if code == 0 or claims:
            return Outcome("wrong", f"solution claimed for an infeasible problem (exit {code})")
        if code not in DOCUMENTED_FAILURE_EXITS:
            return Outcome("fail", f"undocumented exit code {code}")
        return PASS

    if code != 0:
        return Outcome("fail", f"exit {code}")
    if report is None:
        return Outcome("fail", "exit 0 without a report")
    if op.expect == "solution":
        return _solution(p, op, report)
    if op.expect == "compare":
        gap = report.get("potential_gap")
        if not isinstance(gap, (int, float)) or not gap <= GAP_TOL:
            return Outcome("wrong", f"exit 0 with potential gap {gap!r} above {GAP_TOL:g}")
        return PASS
    if op.expect == "check":
        return _check(p, report)
    raise ValueError(f"unknown expectation {op.expect!r}")
