"""Seeded workload inputs, built with numpy alone.

Nothing here imports ``schrobridge``: the problems, the Gaussian grids and
the ``phi(1)`` ceiling are computed from their documented definitions, so
a change to the program cannot change its own benchmark inputs.

``build(workload, seed)`` returns the workload's problems (with the
reference arrays the correctness gate needs) and its op list.
``write_inputs`` writes the files the ops read.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("gauss1d-801", "iter-heavy", "small-batch", "dense-check")

HALF_WIDTH_SIGMAS = 6.0
SMALL_BATCH_PROBLEMS = 200


@dataclass
class Problem:
    """One problem: what is written to disk and what the gate checks against."""

    name: str
    x_points: np.ndarray  # (n_x, d)
    y_points: np.ndarray  # (n_y, d)
    x_weights: np.ndarray
    y_weights: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    P: np.ndarray  # the kernel on the grid, as the gate rebuilds it
    gaussian_c: np.ndarray | None = None  # written as a gaussian kernel when set
    csv_bundle: bool = False
    extra_files: dict = field(default_factory=dict)  # file name -> JSON payload

    @property
    def shape(self) -> tuple[int, int]:
        return self.P.shape


@dataclass
class Op:
    """One CLI invocation and what its output must satisfy.

    ``expect`` is one of ``solution`` (a converged solve whose marginals
    match within ``marginal_tol``), ``infeasible`` (no solution may be
    claimed), ``compare`` and ``check``.  ``argv`` holds ``{dir}``
    placeholders for the input directory and ``{out}`` for the report.
    """

    id: str
    kind: str
    problem: str
    argv: list[str]
    expect: str
    marginal_tol: float = 0.0


# ---------------------------------------------------------------------------
# Gaussian grids (the discretization documented in the README: each
# marginal on its own tensor grid over +-6 sigma per coordinate, weights
# density times cell volume, renormalized; reference weights the cell
# volume; kernel the centered Gaussian density of precision c at y - x)
# ---------------------------------------------------------------------------


def _tensor_grid(precision: np.ndarray, points_per_dim: int):
    sigmas = np.sqrt(np.diag(np.linalg.inv(precision)))
    axes = [np.linspace(-HALF_WIDTH_SIGMAS * s, HALF_WIDTH_SIGMAS * s, points_per_dim)
            for s in sigmas]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])
    cell = float(np.prod([ax[1] - ax[0] for ax in axes]))
    return points, cell


def gaussian_kernel(c: np.ndarray, x_points: np.ndarray, y_points: np.ndarray) -> np.ndarray:
    diff = y_points[None, :, :] - x_points[:, None, :]
    quad = np.einsum("ijk,kl,ijl->ij", diff, c, diff)
    d = c.shape[0]
    return math.sqrt(np.linalg.det(c) / (2.0 * math.pi) ** d) * np.exp(-0.5 * quad)


def gaussian_problem(name: str, a, b, c, points_per_dim: int) -> Problem:
    a, b, c = (np.atleast_2d(np.asarray(m, dtype=float)) for m in (a, b, c))
    x_points, x_cell = _tensor_grid(a, points_per_dim)
    y_points, y_cell = _tensor_grid(b, points_per_dim)

    def density(points, precision):
        w = np.exp(-0.5 * np.einsum("ik,kl,il->i", points, precision, points))
        return w / w.sum()

    return Problem(
        name=name,
        x_points=x_points,
        y_points=y_points,
        x_weights=np.full(len(x_points), x_cell),
        y_weights=np.full(len(y_points), y_cell),
        mu=density(x_points, a),
        nu=density(y_points, b),
        P=gaussian_kernel(c, x_points, y_points),
        gaussian_c=c,
    )


def phi_of_ones(problem: Problem) -> np.ndarray:
    """The shaped ceiling phi(1): two matvecs with the kernel."""
    psi = problem.P.T @ problem.mu
    return problem.P @ (problem.nu / psi)


# ---------------------------------------------------------------------------
# Dense problems
# ---------------------------------------------------------------------------


def dense_problem(name: str, P, mu, nu, csv_bundle: bool = False) -> Problem:
    P = np.asarray(P, dtype=float)
    n_x, n_y = P.shape
    return Problem(
        name=name,
        x_points=np.arange(n_x, dtype=float)[:, None],
        y_points=np.arange(n_y, dtype=float)[:, None],
        x_weights=np.ones(n_x),
        y_weights=np.ones(n_y),
        mu=np.asarray(mu, dtype=float),
        nu=np.asarray(nu, dtype=float),
        P=P,
        csv_bundle=csv_bundle,
    )


def random_dense_problem(name: str, rng: np.random.Generator, n_x: int, n_y: int,
                         csv_bundle: bool = False) -> Problem:
    # entries and weights bounded away from zero: strictly positive and
    # well conditioned, so every solve converges well inside its budget
    P = rng.uniform(0.1, 1.0, size=(n_x, n_y))
    mu = rng.uniform(0.2, 1.0, size=n_x)
    nu = rng.uniform(0.2, 1.0, size=n_y)
    return dense_problem(name, P, mu / mu.sum(), nu / nu.sum(), csv_bundle=csv_bundle)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _solve(problem: str, *flags: str, marginal_tol: float, op_id: str | None = None) -> Op:
    return Op(id=op_id or problem, kind="solve", problem=problem,
              argv=["solve", "--input", f"{{dir}}/{problem}.json", "--output", "{out}", *flags],
              expect="solution", marginal_tol=marginal_tol)


def build(workload: str, seed: int) -> tuple[list[Problem], list[Op]]:
    """Problems and the op list of one pass of ``workload``."""
    rng = np.random.default_rng(seed)
    if workload == "gauss1d-801":
        g = gaussian_problem("gauss1d", 1.0, 1.0, 1.0, 801)
        g.extra_files["triple.json"] = {"a": 1.0, "b": 1.0, "c": 1.0}
        ops = [
            # marginals held to 1e-8 here and in small-batch (acceptance criterion 04)
            _solve(g.name, "--tol", "1e-10", marginal_tol=1e-8, op_id="solve"),
            Op(id="compare", kind="compare", problem=g.name,
               argv=["compare", "--input", "{dir}/gauss1d.json", "--output", "{out}"],
               expect="compare"),
            Op(id="check", kind="check", problem=g.name,
               argv=["check", "--input", "{dir}/triple.json", "--output", "{out}",
                     "--points-per-dim", "801"],
               expect="check"),
        ]
        return [g], ops

    if workload == "iter-heavy":
        hard = gaussian_problem("hard2d", np.diag([0.1, 10.0]), np.diag([10.0, 0.1]),
                                np.eye(2), 31)
        hard.extra_files["ceiling.json"] = phi_of_ones(hard).tolist()
        c10 = gaussian_problem("gauss1d_c10", 1.0, 1.0, 10.0, 201)
        # marginals are held to each op's own tol
        ops = [
            _solve(hard.name, "--tol", "1e-05", "--U", "{dir}/ceiling.json",
                   "--max-iter", "30000", marginal_tol=1e-5),
            _solve(c10.name, "--tol", "1e-10", marginal_tol=1e-10),
        ]
        return [hard, c10], ops

    if workload == "small-batch":
        # 200 rather than 100: the median over one seed's problems then moves
        # by a few percent from seed to seed instead of about ten
        problems = [random_dense_problem(f"rand{k:03d}", rng,
                                         int(rng.integers(2, 9)), int(rng.integers(2, 9)))
                    for k in range(SMALL_BATCH_PROBLEMS)]
        problems.append(dense_problem("worked2x2", [[1.0, 2.0], [3.0, 4.0]],
                                      [0.5, 0.5], [0.5, 0.5]))
        ops = [_solve(p.name, marginal_tol=1e-8) for p in problems]
        # the two infeasible problems: a scaling would need pi[0,1] > 0 and
        # pi[0,1] = 0 at once, and P = I forces mu = nu
        problems.append(dense_problem("infeasible_triangular", [[1.0, 1.0], [0.0, 1.0]],
                                      [0.5, 0.5], [0.5, 0.5]))
        problems.append(dense_problem("infeasible_identity", [[1.0, 0.0], [0.0, 1.0]],
                                      [0.7, 0.3], [0.5, 0.5]))
        for name in ("infeasible_triangular", "infeasible_identity"):
            ops.append(Op(id=name, kind="solve", problem=name,
                          argv=["solve", "--input", f"{{dir}}/{name}.json", "--output", "{out}",
                                "--max-iter", "20000"],
                          expect="infeasible"))
        return problems, ops

    if workload == "dense-check":
        p = random_dense_problem("dense500", rng, 500, 500, csv_bundle=True)
        p.extra_files["ones.json"] = [1.0] * 500
        base = ["check", "--output", "{out}", "--moment-U", "{dir}/ones.json"]
        ops = [
            Op(id="check_json", kind="check", problem=p.name,
               argv=base + ["--input", "{dir}/dense500.json"], expect="check"),
            # fails at the seed: cmd_check opens the input path as a JSON
            # file before it honours --format (a known defect, kept visible)
            Op(id="check_csv", kind="check_csv", problem=p.name,
               argv=base + ["--input", "{dir}/dense500.csv", "--format", "csv-bundle"],
               expect="check"),
        ]
        return [p], ops

    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


def _problem_dict(p: Problem) -> dict:
    if p.gaussian_c is not None:
        kernel = {"kind": "gaussian", "c": p.gaussian_c.tolist()}
    else:
        kernel = {"kind": "dense-matrix", "entries": p.P.tolist()}
    return {
        "x_space": {"points": p.x_points.tolist(), "weights": p.x_weights.tolist()},
        "y_space": {"points": p.y_points.tolist(), "weights": p.y_weights.tolist()},
        "mu": p.mu.tolist(),
        "nu": p.nu.tolist(),
        "kernel": kernel,
    }


def _write_csv(path: str, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def _write_csv_bundle(p: Problem, dirpath: str) -> None:
    for sub, points, weights in (("x", p.x_points, p.x_weights), ("y", p.y_points, p.y_weights)):
        os.makedirs(os.path.join(dirpath, sub), exist_ok=True)
        _write_csv(os.path.join(dirpath, sub, "points.csv"), points.tolist())
        _write_csv(os.path.join(dirpath, sub, "weights.csv"), [[w] for w in weights.tolist()])
    rows = [["space", "index", "weight"]]
    rows += [["x", i, w] for i, w in enumerate(p.mu.tolist())]
    rows += [["y", j, w] for j, w in enumerate(p.nu.tolist())]
    _write_csv(os.path.join(dirpath, "marginals.csv"), rows)
    _write_csv(os.path.join(dirpath, "kernel.csv"), p.P.tolist())


def write_inputs(problems: list[Problem], dirpath: str) -> None:
    os.makedirs(dirpath, exist_ok=True)
    for p in problems:
        with open(os.path.join(dirpath, f"{p.name}.json"), "w", encoding="utf-8") as fh:
            json.dump(_problem_dict(p), fh, indent=2, allow_nan=False)
        if p.csv_bundle:
            _write_csv_bundle(p, os.path.join(dirpath, f"{p.name}.csv"))
        for fname, payload in p.extra_files.items():
            with open(os.path.join(dirpath, fname), "w", encoding="utf-8") as fh:
                json.dump(payload, fh, allow_nan=False)
