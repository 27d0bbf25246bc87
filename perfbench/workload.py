"""One workload in a fresh process: CLI ops in-process, gated, timed, optionally traced.

Run by ``run.py``; not meant to be called by hand.  Reads the inputs
``run.py`` wrote, runs passes over the workload's op list until the time
budget is spent, and writes per-op results, layer spans and the
environment record as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

import gate
import inputs

LAYERS = ("problem", "fortet", "extnum", "criteria", "gaussian", "cli")


def _load_program(src: str):
    """Import the program from ``src`` and nowhere else."""
    sys.path.insert(0, src)
    import schrobridge.cli as cli
    from schrobridge import criteria, extnum, fortet, gaussian, problem

    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"schrobridge was imported from {where}, not from {src}")
    return cli, dict(zip(LAYERS, (problem, fortet, extnum, criteria, gaussian, cli)))


def _path_bytes(path: str) -> int:
    if os.path.isdir(path):
        return sum(os.path.getsize(os.path.join(d, f))
                   for d, _, files in os.walk(path) for f in files)
    return os.path.getsize(path)


def blas_floor_us(P: np.ndarray, budget_s: float = 0.1) -> float:
    """Median time of the bare ``P @ w`` + ``P.T @ v`` pair, in microseconds."""
    w = np.ones(P.shape[1])
    v = np.ones(P.shape[0])
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < 5 or (time.perf_counter() < deadline and len(samples) < 2000):
        t = time.perf_counter()
        P @ w
        P.T @ v
        samples.append(time.perf_counter() - t)
    return statistics.median(samples) * 1e6


class Runner:
    def __init__(self, cli, problems, ops, input_dir: str, out_dir: str):
        self.cli = cli
        self.problems = {p.name: p for p in problems}
        self.ops = ops
        self.input_dir = input_dir
        self.out_dir = out_dir
        self.input_bytes = {}
        for op in ops:
            paths = [a.format(dir=input_dir) for a in op.argv if "{dir}" in a]
            self.input_bytes[op.id] = sum(_path_bytes(p) for p in paths if os.path.exists(p))

    def run_op(self, op) -> dict:
        out = os.path.join(self.out_dir, f"{op.id}.json")
        if os.path.exists(out):
            os.remove(out)
        argv = [a.format(dir=self.input_dir, out=out) for a in op.argv]
        stderr = io.StringIO()
        code = escaped = None
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # an escaped exception is a gate failure
                escaped = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
        report = None
        report_bytes = 0
        if os.path.exists(out):
            report_bytes = os.path.getsize(out)
            try:
                with open(out, encoding="utf-8") as fh:
                    report = json.load(fh)
            except (OSError, ValueError):
                report = None
        outcome = gate.judge(op, self.problems[op.problem], code, report, escaped)
        iterations = 0
        if report is not None:
            iterations = report.get("iterations") or report.get("fortet_iterations") or 0
        return {
            "id": op.id,
            "kind": op.kind,
            "latency_s": latency,
            "exit": code,
            "outcome": outcome.status,
            "reason": " | ".join(filter(None, (outcome.reason, stderr.getvalue().strip()[:300]))),
            "iterations": int(iterations) if isinstance(iterations, int) else 0,
            "report_bytes": report_bytes,
        }

    def run_pass(self, tracer=None) -> tuple[float, list[dict]]:
        results = []
        bounds = []
        t0 = time.perf_counter()
        for op in self.ops:
            start = len(tracer) if tracer is not None else 0
            results.append(self.run_op(op))
            bounds.append((start, len(tracer) if tracer is not None else 0))
        wall = time.perf_counter() - t0
        if tracer is not None:
            for res, (start, stop) in zip(results, bounds):
                res["spans"] = tracer.summary(start, stop)
        return wall, results


def run(args) -> dict:
    cli, modules = _load_program(args.src)
    problems, ops = inputs.build(args.workload, args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    runner = Runner(cli, problems, ops, args.input_dir, args.out_dir)
    floors = {p.name: blas_floor_us(p.P) for p in problems}

    passes = []  # untraced
    traced = []
    began = time.perf_counter()
    while True:
        wall, results = runner.run_pass()
        passes.append({"wall_s": wall, "ops": results})
        step = wall
        if args.trace:
            from tracer import Tracer

            with Tracer(modules) as tracer:
                t_wall, t_results = runner.run_pass(tracer)
            traced.append({"wall_s": t_wall, "ops": t_results})
            step += t_wall
        if time.perf_counter() - began + step > args.seconds:
            break

    return {
        "workload": args.workload,
        "seed": args.seed,
        "measured_s": time.perf_counter() - began,
        "ops": [{"id": op.id, "kind": op.kind, "problem": op.problem,
                 "shape": list(runner.problems[op.problem].shape),
                 "input_bytes": runner.input_bytes[op.id],
                 "floor_us": floors[op.problem]} for op in ops],
        "passes": passes,
        "traced_passes": traced,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }


def _blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        if ".so" not in path:
            continue
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--input-dir", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    result = run(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
