"""End-to-end benchmark of the ``schrobridge`` CLI, with a traced per-layer breakdown.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``inputs.py``):

* ``gauss1d-801``  -- solve, compare and check on the 1-D unit Gaussian at
  801 points: report encoding, the Sinkhorn oracle and memory dominate;
* ``small-batch``  -- 200 tiny random dense problems, the 2x2 worked
  example and two infeasible problems: per-call overhead and budget burns;
* ``iter-heavy``   -- the hard 2-D Gaussian (31^2 grid, shaped ceiling) and
  the c=10 1-D Gaussian: the Fortet loop dominates;
* ``dense-check``  -- ``check --moment-U`` on a 500x500 dense problem read
  from JSON and from a CSV bundle: parsing, validation and criteria only.

Only the first two are listed in ``BENCHMARK.json``.  The last two run
the same way but are not gated: on a 2-core shared VM their memory-bound
ops changed speed by up to a third from run to run.

Gated metrics: ``setup_s`` (median import time), ``op_p50_s`` (median
latency of the ops that passed the gate), ``pass_s`` (median over passes
of their summed latency) and ``peak_rss_mib`` (``ru_maxrss`` of the
workload process).

Each run writes the inputs from the seed, times ``import schrobridge.cli``
in fresh interpreters (``setup_s``), then runs the workload in a fresh
process that calls ``schrobridge.cli.main(argv)`` in-process for each op
and checks every output with the gate in ``gate.py``.  Passes over the
op list repeat while another one fits in ``--seconds`` (at least one
runs).  With ``--trace 1`` every untraced pass is followed by a traced
one, whose spans give the layer metrics; the difference of their wall
times is the tracing overhead.  BLAS runs on one thread throughout.

Standard output ends with two lines: the full result (every metric with
its unit and sample count, the environment record and the seed), then
the summary object ``{"correct", "attempted", "failed", "metrics"}``.
Only ops that pass the gate count in latencies; an op that fails (no
usable output) or is wrong (a refuted claim) counts in ``failed``, and a
wrong one makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread, set before numpy loads here and inherited by every child:
# on a small shared machine two-thread BLAS times swing by tens of percent
# while one-thread times repeat within a few percent.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# and one hash seed, so dict and set layouts do not differ from process to process
os.environ["PYTHONHASHSEED"] = "0"

import inputs  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))

#: Every run must end within this many seconds.
RUN_LIMIT_S = 175.0
SETUP_SAMPLES = 5
MIB = 1024.0 * 1024.0

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import schrobridge.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def fail(message: str, code: int = 2):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(code)


def measure_setup(deadline: float) -> list[float]:
    """Fresh-interpreter import times of ``schrobridge.cli``.

    In a new checkout the first sample also compiles bytecode; the median
    of the samples is what ``setup_s`` reports.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, SRC], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            fail(f"import schrobridge.cli failed:\n{proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def metric(value, unit: str, n: int, **extra) -> dict:
    return {"value": value, "unit": unit, "n": n, **extra}


def end_to_end(result: dict, setup: list[float]) -> dict:
    passes = result["passes"]
    ok = [op for p in passes for op in p["ops"] if op["outcome"] == "pass"]
    attempted = sum(len(p["ops"]) for p in passes)
    failed = attempted - len(ok)

    def latencies(kind=None):
        return [op["latency_s"] for op in ok if kind is None or op["kind"] == kind]

    def per_pass_sum(kind=None):
        return [sum(op["latency_s"] for op in p["ops"]
                    if op["outcome"] == "pass" and (kind is None or op["kind"] == kind))
                for p in passes]

    m = {"setup_s": metric(statistics.median(setup), "s", len(setup))}
    if ok:
        m["op_p50_s"] = metric(statistics.median(latencies()), "s", len(ok))
        m["pass_s"] = metric(statistics.median(per_pass_sum()), "s", len(passes))
    m["peak_rss_mib"] = metric(result["peak_rss_mib"], "MiB", 1)

    # the per-kind metrics, present where the workload has passing ops of that kind
    solves = latencies("solve")
    if solves:
        m["solve_s"] = metric(statistics.median(solves), "s", len(solves))
        m["solve_total_s"] = metric(statistics.median(per_pass_sum("solve")), "s", len(passes))
    per_pass_solves = min(sum(op["kind"] == "solve" for op in p["ops"]) for p in passes)
    if per_pass_solves >= 100:
        p90 = statistics.quantiles(solves, n=10)[-1]
        m["solve_p90_s"] = metric(p90, "s", len(solves),
                                  beyond=sum(v > p90 for v in solves))
    for name, kind in (("compare_s", "compare"), ("check_s", "check"),
                       ("check_csv_s", "check_csv")):
        lat = latencies(kind)
        if lat:
            m[name] = metric(statistics.median(lat), "s", len(lat))
    m["error_rate"] = metric(failed / attempted, "ratio", attempted,
                             failed=failed, attempted=attempted)
    return m


def _layer_values(traced_pass: dict, ops_meta: dict) -> dict:
    """Layer metrics of one traced pass; a span name never seen counts zero calls."""
    spans: dict[str, dict] = {}
    matvec_bytes = 0.0
    solver_s = 0.0
    iterations = 0
    floor_weighted = 0.0
    for op in traced_pass["ops"]:
        meta = ops_meta[op["id"]]
        for name, s in op["spans"].items():
            agg = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in agg:
                agg[key] += s[key]
        n_x, n_y = meta["shape"]
        matvec_bytes += op["spans"].get("extnum.ext_matvec", {}).get("calls", 0) * n_x * n_y * 8
        solver_s += sum(op["spans"].get(f, {}).get("total_s", 0.0)
                        for f in ("fortet.solve_fortet", "fortet.solve_untruncated"))
        iterations += op["iterations"]
        floor_weighted += op["iterations"] * meta["floor_us"]

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def layer_self(layer):
        return sum(s["self_s"] for name, s in spans.items() if name.startswith(layer + "."))

    def layer_calls(layer):
        return sum(s["calls"] for name, s in spans.items() if name.startswith(layer + "."))

    floors = [m["floor_us"] for m in ops_meta.values()]
    floor_us = floor_weighted / iterations if iterations else statistics.mean(floors)
    v = {
        "problem.load_s": get("problem.load_problem", "total_s"),
        "problem.input_mib": sum(ops_meta[op["id"]]["input_bytes"]
                                 for op in traced_pass["ops"]) / MIB,
        "problem.validate_s": get("problem.validate_reduction", "self_s"),
        "problem.kernel_build_s": get("problem.kernel_matrix.build", "total_s"),
        "problem.kernel_calls": get("problem.kernel_matrix.build", "calls")
        + get("problem.kernel_matrix.hit", "calls"),
        "fortet.iterations": iterations,
        "fortet.psi_s": get("fortet.psi", "self_s"),
        "fortet.phi_s": get("fortet.phi", "self_s"),
        "extnum.check_calls": get("extnum.as_ext_array", "calls"),
        "extnum.check_s": get("extnum.as_ext_array", "self_s")
        + get("extnum.scaled_inverse", "self_s"),
        "extnum.matvec_calls": get("extnum.ext_matvec", "calls"),
        "extnum.matvec_s": get("extnum.ext_matvec", "self_s"),
        "extnum.matvec_mib": matvec_bytes / MIB,
        "cli.self_s": layer_self("cli"),
        "cli.report_mib": sum(op["report_bytes"] for op in traced_pass["ops"]) / MIB,
        "blas.floor_us": floor_us,
    }
    # layers that run on some workloads only
    if get("fortet.solve_fortet", "calls") + get("fortet.solve_untruncated", "calls"):
        v["fortet.loop_self_s"] = (get("fortet.solve_fortet", "self_s")
                                   + get("fortet.solve_untruncated", "self_s"))
    if iterations and solver_s:
        v["fortet.us_per_iter"] = solver_s / iterations * 1e6
        v["fortet.floor_ratio"] = v["fortet.us_per_iter"] / floor_us
    if get("fortet.extract_solution", "calls"):
        v["fortet.extract_s"] = get("fortet.extract_solution", "total_s")
    if get("fortet.sinkhorn_baseline", "calls"):
        v["fortet.sinkhorn_s"] = get("fortet.sinkhorn_baseline", "total_s")
    for layer in ("criteria", "gaussian"):
        if layer_calls(layer):
            v[f"{layer}.s"] = layer_self(layer)
    return v


LAYER_UNITS = {
    "problem.load_s": "s", "problem.input_mib": "MiB", "problem.validate_s": "s",
    "problem.kernel_build_s": "s", "problem.kernel_calls": "count",
    "fortet.iterations": "count", "fortet.loop_self_s": "s", "fortet.psi_s": "s",
    "fortet.phi_s": "s", "fortet.us_per_iter": "us", "fortet.floor_ratio": "ratio",
    "fortet.extract_s": "s", "fortet.sinkhorn_s": "s", "extnum.check_calls": "count",
    "extnum.check_s": "s", "extnum.matvec_calls": "count", "extnum.matvec_s": "s",
    "extnum.matvec_mib": "MiB", "criteria.s": "s", "gaussian.s": "s", "cli.self_s": "s",
    "cli.report_mib": "MiB", "blas.floor_us": "us", "trace.overhead_s": "s",
}
#: Computed from sizes, not measured.
COMPUTED = {"problem.input_mib", "extnum.matvec_mib"}


def per_layer(result: dict) -> dict:
    ops_meta = {op["id"]: op for op in result["ops"]}
    traced = result["traced_passes"]
    per_pass = [_layer_values(p, ops_meta) for p in traced]
    m = {}
    for name in LAYER_UNITS:
        values = [v[name] for v in per_pass if name in v]
        if values:
            m[name] = metric(statistics.median(values), LAYER_UNITS[name], len(values),
                             **({"computed": True} if name in COMPUTED else {}))
    overhead = (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in result["passes"]))
    m["trace.overhead_s"] = metric(overhead, "s", len(traced))
    return m


# ---------------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "schrobridge", "cli.py")):
        fail(f"no program source at {SRC}/schrobridge; run from a source checkout")
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    input_dir = os.path.join(work, "in")
    problems, _ = inputs.build(args.workload, args.seed)
    inputs.write_inputs(problems, input_dir)

    setup = measure_setup(deadline)

    result_path = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", SRC, "--input-dir", input_dir, "--out-dir", os.path.join(work, "out"),
           "--result", result_path]
    with subprocess.Popen(cmd, cwd=ROOT) as proc:
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("workload process exceeded the run time limit", 1)
    if code != 0:
        fail(f"workload process exited with {code}", 1)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    e2e = end_to_end(result, setup)
    layers = per_layer(result) if args.trace else {}
    runs = result["passes"] + result["traced_passes"]
    outcomes = [op for p in runs for op in p["ops"]]
    wrong = [op for op in outcomes if op["outcome"] == "wrong"]
    failures = {}
    for op in outcomes:
        if op["outcome"] != "pass":
            failures.setdefault(op["id"], {"outcome": op["outcome"], "reason": op["reason"],
                                           "count": 0})["count"] += 1

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    source = layers if args.trace else e2e
    missing = [name for name in wanted if name not in source]
    # a workload that BENCHMARK.json does not list may lack a layer (dense-check never solves)
    if missing and any(w["name"] == args.workload for w in spec["workloads"]):
        fail(f"no measurement for {', '.join(missing)}; failures: {json.dumps(failures)}", 1)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(result["passes"]),
        "traced_passes": len(result["traced_passes"]),
        "end_to_end": e2e,
        "per_layer": layers,
        "failures": failures,
        "setup_samples_s": setup,
        "environment": {**result["environment"], "commit": git_commit(),
                        "src_sha256": source_digest(), "seed": args.seed},
    }
    with open(os.path.join(work, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": len(outcomes) - sum(op["outcome"] == "pass" for op in outcomes),
        "metrics": {name: {"value": source[name]["value"], "unit": source[name]["unit"]}
                    for name in wanted if name in source},
    }))


if __name__ == "__main__":
    main()
