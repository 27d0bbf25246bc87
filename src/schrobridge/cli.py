"""Command-line front end.

Subcommands::

    solve         run a scheme on a problem file, write a solution report
    check         run the existence criteria, write a criteria report
    compare       fortet vs sinkhorn potentials and couplings
    gaussian-gen  discretize a Gaussian triple into a problem file
    report        render a JSON report as a table on stdout

Exit codes: 0 success / criterion certified / gap within tolerance;
1 parse or validation failure, including a ``--tol`` below 4 eps
(``fortet.MIN_TOL``); 2 degenerate, divergent or failed solve: a
divergent run (a step past the overflow guard, under either scheme) is
written as a report with status "divergent", and a solver error (a
vanishing or non-finite dual, a violated monotone decrease, or a
Sinkhorn run refused on a kernel with a zero entry) as one ``error:``
line on stderr; 3 iteration budget exhausted; 4 no checked criterion
holds; 5 compare gap above tolerance.

Reports are JSON with sorted keys (byte-identical for identical inputs);
infinities are serialized as the string "inf".  Traces are CSV with
header ``n,min_u,max_u,residual,min_phi,normalization``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import criteria as crit
from . import fortet as ft
from . import gaussian as gs
from .problem import (
    DiscreteProblem,
    ParseError,
    SchemaError,
    ValidationError,
    load_problem,
    problem_to_dict,
    save_problem,
    validate_reduction,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEGENERATE = 2
EXIT_MAX_ITER = 3
EXIT_NO_CRITERION = 4
EXIT_GAP = 5

TRACE_HEADER = ["n", "min_u", "max_u", "residual", "min_phi", "normalization"]


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    output_path: str | None = None
    tol: float = 1e-10
    max_iter: int = 100_000
    scheme: str = "truncated"
    U: str = "ones"
    trace: bool = False
    gap_tol: float = 1e-8
    finite_guard: float = crit.DIVERGENCE_GUARD
    points_per_dim: int | None = None
    half_width_sigmas: float = 6.0
    moment_U_path: str | None = None
    moment_r: float = 2.0
    domination_witness_path: str | None = None
    input_format: str = "json"

    def __post_init__(self):
        if self.tol < ft.MIN_TOL:
            raise ValidationError(f"tol must be at least {ft.MIN_TOL:.3g}")
        if self.max_iter < 1:
            raise ValidationError("max-iter must be at least 1")


def _jsonable(obj):
    """Recursively convert to JSON-safe values; infinities become 'inf'."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _dumps(obj, level: int = 0) -> str:
    """``json.dumps(_jsonable(obj), sort_keys=True, indent=2)``, nested ``level`` deep.

    Dicts (string keys) are walked here, and a nonempty float array with
    only finite entries is written straight from ``float.__repr__``, as
    the json encoder writes floats; everything else, including arrays
    that hold ``inf`` or ``nan``, goes through ``_jsonable`` and ``json``.
    """
    pad = "\n" + "  " * (level + 1)
    if isinstance(obj, dict) and obj:
        items = (f"{json.dumps(k)}: {_dumps(obj[k], level + 1)}" for k in sorted(obj))
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
    if (isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim and obj.size
            and np.isfinite(obj).all()):
        if obj.ndim == 1:
            items = map(float.__repr__, obj.tolist())
        else:
            items = (_dumps(row, level + 1) for row in obj)
        return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False)
    return text.replace("\n", pad[:-2])


def _write_report(payload: dict, path: str | None) -> None:
    text = _dumps(payload) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_trace_csv(trace, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for rec in trace:
            writer.writerow([
                rec.n,
                f"{rec.min_u:.17g}",
                f"{rec.max_u:.17g}",
                f"{rec.residual:.17g}",
                f"{rec.min_phi:.17g}",
                f"{rec.normalization:.17g}",
            ])


def _load_validated(config: RunConfig) -> DiscreteProblem:
    problem = load_problem(config.input_path, format=config.input_format)
    return validate_reduction(problem)


def _load_ceiling(config: RunConfig, problem: DiscreteProblem) -> np.ndarray:
    if config.U == "ones":
        return np.ones(problem.n_x)
    with open(config.U, "r", encoding="utf-8") as fh:
        vec = np.asarray(json.load(fh), dtype=float)
    if vec.shape != (problem.n_x,):
        raise ValidationError("ceiling file length does not match the x grid")
    return vec


def cmd_solve(config: RunConfig) -> int:
    problem = _load_validated(config)
    payload: dict = {"command": "solve", "scheme": config.scheme}

    if config.scheme == "sinkhorn":
        try:
            sol = ft.sinkhorn_baseline(problem, tol=config.tol, max_iter=config.max_iter)
        except ft.MaxIterExceeded:
            payload.update({"status": ft.STATUS_MAX_ITER})
            _write_report(payload, config.output_path)
            return EXIT_MAX_ITER
        except ValueError as exc:  # the oracle refuses a kernel with a zero entry
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_DEGENERATE
        payload.update({"status": ft.STATUS_CONVERGED, "iterations": None, "residual": None})
        _fill_solution(payload, sol)
        _write_report(payload, config.output_path)
        return EXIT_OK

    if config.scheme == "truncated":
        result = ft.solve_fortet(
            problem,
            U=_load_ceiling(config, problem),
            tol=config.tol,
            max_iter=config.max_iter,
            trace=config.trace,
        )
    elif config.scheme == "untruncated":
        result = ft.solve_untruncated(
            problem, tol=config.tol, max_iter=config.max_iter, trace=config.trace
        )
    else:
        raise ValidationError(f"unknown scheme {config.scheme!r}")

    payload.update(
        {
            "status": result.status,
            "iterations": result.iterations,
            "residual": result.residual,
            "early_exit_index": result.early_exit_index,
        }
    )
    if config.trace:
        payload["trace"] = [asdict(rec) for rec in result.trace]
        if config.output_path:
            _write_trace_csv(result.trace, config.output_path + ".trace.csv")
    if result.status == ft.STATUS_CONVERGED:
        sol = ft.extract_solution(problem, result.u_star, psi_star=result.psi_star)
        _fill_solution(payload, sol)
        payload["u_star"] = result.u_star
    _write_report(payload, config.output_path)
    if result.status == ft.STATUS_CONVERGED:
        return EXIT_OK
    if result.status == ft.STATUS_MAX_ITER:
        return EXIT_MAX_ITER
    return EXIT_DEGENERATE


def _fill_solution(payload: dict, sol: ft.SchrodingerSolution) -> None:
    payload.update(
        {
            "a": sol.a,
            "b": sol.b,
            "pi": sol.pi,
            "marginal_err_x": sol.marginal_err_x,
            "marginal_err_y": sol.marginal_err_y,
            "rel_entropy": sol.rel_entropy,
        }
    )


def _sniff_gaussian(path: str) -> dict | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if isinstance(obj, dict) and {"a", "b", "c"} <= set(obj):
        return obj
    return None


def _gaussian_from_dict(obj: dict) -> gs.GaussianProblem:
    def mat(v):
        arr = np.asarray(v, dtype=float)
        return arr.reshape(1, 1) if arr.ndim == 0 else arr

    try:
        return gs.GaussianProblem(a=mat(obj["a"]), b=mat(obj["b"]), c=mat(obj["c"]))
    except (gs.NotSPD, gs.DimensionMismatch, ValueError) as exc:
        raise SchemaError(f"bad gaussian problem: {exc}") from exc


def _default_points(dim: int) -> int:
    return {1: 201, 2: 31}.get(dim, 11)


def cmd_check(config: RunConfig) -> int:
    gauss_obj = _sniff_gaussian(config.input_path) if config.input_format == "json" else None
    if gauss_obj is not None:
        gp = _gaussian_from_dict(gauss_obj)
        pts = config.points_per_dim or _default_points(gp.dim)
        mc = gs.matrix_criterion(gp)
        problem = validate_reduction(
            gs.discretize_gaussian(
                gp, half_width_sigmas=config.half_width_sigmas, points_per_dim=pts
            )
        )
        integral = crit.check_integral_criterion(problem, finite_guard=config.finite_guard)
        payload = {
            "command": "check",
            "mode": "gaussian",
            "matrix_criterion": {
                "xy_holds": mc.xy_holds,
                "yx_holds": mc.yx_holds,
                "xy_min_eig": mc.xy_min_eig,
                "yx_min_eig": mc.yx_min_eig,
            },
            "discretization": {"points_per_dim": pts, "half_width_sigmas": config.half_width_sigmas},
            "integral": _integral_payload(integral),
        }
        ok = mc.xy_holds or mc.yx_holds or integral.xy.finite or integral.yx.finite
        _print_criteria_table(payload)
        if config.output_path:
            _write_report(payload, config.output_path)
        return EXIT_OK if ok else EXIT_NO_CRITERION

    problem = _load_validated(config)
    witness = None
    if config.domination_witness_path:
        with open(config.domination_witness_path, "r", encoding="utf-8") as fh:
            w = json.load(fh)
        witness = (w["K"], w["x"], w["c"])
    moment_U = None
    if config.moment_U_path:
        with open(config.moment_U_path, "r", encoding="utf-8") as fh:
            moment_U = np.asarray(json.load(fh), dtype=float)
    report = crit.full_report(
        problem,
        finite_guard=config.finite_guard,
        domination_witness=witness,
        moment_U=moment_U,
        moment_r=config.moment_r,
    )
    payload = {
        "command": "check",
        "mode": "discrete",
        "positivity": report.positivity,
        "boundedness": report.boundedness,
        "sup_kernel": report.sup_kernel,
        "integral": _integral_payload(report.integral),
    }
    if report.domination is not None:
        payload["domination"] = {
            "holds": report.domination.holds,
            "K_indices": list(report.domination.K_indices),
            "x_indices": list(report.domination.x_indices),
            "coefficients": list(report.domination.coefficients),
            "violation_index": report.domination.violation_index,
            "continuity": report.domination.continuity,
        }
    if report.moment is not None:
        payload["moment"] = {
            "holds": report.moment.holds,
            "c": report.moment.c,
            "r": report.moment.r,
            "x_o_index": report.moment.x_o_index,
            "U_source": config.moment_U_path,
        }
    if report.radial is not None:
        payload["radial"] = {"holds": report.radial.holds, "L_found": report.radial.L_found}
    _print_criteria_table(payload)
    if config.output_path:
        _write_report(payload, config.output_path)
    return EXIT_OK if crit.sufficient_for_existence(report) else EXIT_NO_CRITERION


def _integral_payload(integral: crit.IntegralCriterionResult) -> dict:
    return {
        "xy": {"value": integral.xy.value, "finite": integral.xy.finite},
        "yx": {"value": integral.yx.value, "finite": integral.yx.finite},
        "guard": integral.guard,
    }


def _print_criteria_table(payload: dict) -> None:
    rows: list[tuple[str, str, str]] = []
    if "positivity" in payload:
        rows.append(("positivity", "holds" if payload["positivity"] else "fails", ""))
        rows.append(("boundedness", "holds" if payload["boundedness"] else "fails",
                     f"sup p = {payload['sup_kernel']:g}"))
    if "matrix_criterion" in payload:
        mc = payload["matrix_criterion"]
        rows.append(("matrix x->y", "holds" if mc["xy_holds"] else "fails",
                     f"min eig = {mc['xy_min_eig']:.3g}"))
        rows.append(("matrix y->x", "holds" if mc["yx_holds"] else "fails",
                     f"min eig = {mc['yx_min_eig']:.3g}"))
    eq = payload["integral"]
    for key in ("xy", "yx"):
        val = eq[key]["value"]
        rows.append((f"integral {key[0]}->{key[1]}",
                     "finite" if eq[key]["finite"] else "not finite",
                     f"value = {val if isinstance(val, str) else format(val, '.6g')}"))
    if "domination" in payload:
        h = payload["domination"]
        note = "" if h["holds"] else f"violated at column {h['violation_index']}"
        rows.append(("compact domination", "holds" if h["holds"] else "fails", note))
    if "moment" in payload:
        h = payload["moment"]
        rows.append(("moment condition", "holds" if h["holds"] else "fails",
                     f"c = {h['c']:.6g}, r = {h['r']:g}"))
    if "radial" in payload:
        h = payload["radial"]
        note = f"L = {h['L_found']:g}" if h["holds"] else "no admissible cutoff"
        rows.append(("radial non-increase", "holds" if h["holds"] else "fails", note))
    width = max(len(r[0]) for r in rows)
    for name, verdict, note in rows:
        line = f"{name.ljust(width)}  {verdict:<12}{note}".rstrip()
        sys.stdout.write(line + "\n")


def cmd_compare(config: RunConfig) -> int:
    problem = _load_validated(config)
    result = ft.solve_fortet(
        problem, U=_load_ceiling(config, problem), tol=config.tol, max_iter=config.max_iter
    )
    failed = result.status != ft.STATUS_CONVERGED
    payload: dict = {
        "command": "compare",
        "fortet_status": result.status,
        "fortet_iterations": result.iterations,
    }
    if failed:
        _write_report(payload, config.output_path)
        return EXIT_DEGENERATE
    try:
        sink = ft.sinkhorn_baseline(problem, tol=config.tol, max_iter=config.max_iter)
    except (ft.MaxIterExceeded, ValueError) as exc:
        payload["sinkhorn_error"] = str(exc)
        _write_report(payload, config.output_path)
        return EXIT_DEGENERATE

    u_f = result.u_star / result.u_star[0]
    u_s = ft.potential_from_solution(problem, sink)
    u_s = u_s / u_s[0]
    gap = float(np.max(np.abs(u_f - u_s)))
    sol_f = ft.extract_solution(problem, result.u_star, psi_star=result.psi_star)
    coupling_gap = float(np.max(np.abs(sol_f.pi - sink.pi)))
    payload.update(
        {
            "potential_gap": gap,
            "coupling_gap": coupling_gap,
            "gap_tol": config.gap_tol,
            "fortet_rel_entropy": sol_f.rel_entropy,
            "sinkhorn_rel_entropy": sink.rel_entropy,
        }
    )
    _write_report(payload, config.output_path)
    return EXIT_OK if gap <= config.gap_tol else EXIT_GAP


def cmd_gaussian_gen(config: RunConfig) -> int:
    gauss_obj = _sniff_gaussian(config.input_path)
    if gauss_obj is None:
        raise SchemaError("gaussian-gen expects a JSON object with keys a, b, c")
    gp = _gaussian_from_dict(gauss_obj)
    pts = config.points_per_dim or _default_points(gp.dim)
    problem = gs.discretize_gaussian(
        gp, half_width_sigmas=config.half_width_sigmas, points_per_dim=pts
    )
    if config.output_path is None:
        _write_report(problem_to_dict(problem), None)
    else:
        save_problem(problem, config.output_path, format="json")
    return EXIT_OK


def cmd_report(config: RunConfig) -> int:
    with open(config.input_path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    rows: list[tuple[str, str]] = []

    def flatten(prefix: str, value):
        if isinstance(value, dict):
            for k in sorted(value):
                flatten(f"{prefix}.{k}" if prefix else k, value[k])
        elif isinstance(value, list):
            rows.append((prefix, f"<{len(value)} values>"))
        else:
            rows.append((prefix, str(value)))

    flatten("", obj)
    width = max((len(k) for k, _ in rows), default=0)
    for k, v in rows:
        sys.stdout.write(f"{k.ljust(width)}  {v}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="schrobridge", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, dest="input_path")
        p.add_argument("--output", dest="output_path")

    p_solve = sub.add_parser("solve", help="solve a problem file")
    common(p_solve)
    p_solve.add_argument("--format", dest="input_format", choices=["json", "csv-bundle"],
                         default="json")
    p_solve.add_argument("--scheme", choices=["truncated", "untruncated", "sinkhorn"],
                         default="truncated")
    p_solve.add_argument("--tol", type=float, default=1e-10)
    p_solve.add_argument("--max-iter", type=int, default=100_000, dest="max_iter")
    p_solve.add_argument("--U", default="ones",
                         help="'ones' or a JSON file with the ceiling vector")
    p_solve.add_argument("--trace", action="store_true")

    p_check = sub.add_parser("check", help="run existence criteria")
    common(p_check)
    p_check.add_argument("--format", dest="input_format", choices=["json", "csv-bundle"],
                         default="json")
    p_check.add_argument("--finite-guard", type=float, default=crit.DIVERGENCE_GUARD,
                         dest="finite_guard")
    p_check.add_argument("--points-per-dim", type=int, dest="points_per_dim")
    p_check.add_argument("--half-width-sigmas", type=float, default=6.0,
                         dest="half_width_sigmas")
    p_check.add_argument("--domination-witness", dest="domination_witness_path",
                         help="JSON file with keys K, x, c")
    p_check.add_argument("--moment-U", dest="moment_U_path",
                         help="JSON file with the ceiling vector")
    p_check.add_argument("--moment-r", type=float, default=2.0, dest="moment_r")

    p_cmp = sub.add_parser("compare", help="fortet vs sinkhorn")
    common(p_cmp)
    p_cmp.add_argument("--format", dest="input_format", choices=["json", "csv-bundle"],
                       default="json")
    # tight default: the gap is measured after normalizing at the first
    # grid index, which can sit deep in a potential's tail
    p_cmp.add_argument("--tol", type=float, default=1e-14)
    p_cmp.add_argument("--max-iter", type=int, default=100_000, dest="max_iter")
    p_cmp.add_argument("--U", default="ones")
    p_cmp.add_argument("--gap-tol", type=float, default=1e-8, dest="gap_tol")

    p_gen = sub.add_parser("gaussian-gen", help="discretize a gaussian triple")
    common(p_gen)
    p_gen.add_argument("--points-per-dim", type=int, dest="points_per_dim")
    p_gen.add_argument("--half-width-sigmas", type=float, default=6.0,
                       dest="half_width_sigmas")

    p_rep = sub.add_parser("report", help="render a JSON report")
    common(p_rep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fields = {f for f in RunConfig.__dataclass_fields__}
    kwargs = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    try:
        config = RunConfig(**kwargs)
        handler = {
            "solve": cmd_solve,
            "check": cmd_check,
            "compare": cmd_compare,
            "gaussian-gen": cmd_gaussian_gen,
            "report": cmd_report,
        }[config.command]
        return handler(config)
    except (ParseError, SchemaError, ValidationError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except (ft.NonFiniteIntermediate, ft.MonotonicityViolated) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DEGENERATE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
