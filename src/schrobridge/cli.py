"""Command-line front end.

Subcommands::

    solve         run a scheme on a problem file, write a solution report
    check         run the existence criteria, write a criteria report
    compare       fortet vs sinkhorn potentials and couplings
    gaussian-gen  discretize a Gaussian triple into a problem file
    report        render a JSON report as a table, on stdout or to --output

Exit codes: 0 success / criterion certified / gap within tolerance;
1 parse or validation failure: a JSON input that does not parse (the
message names its file, line and column), a kernel whose values are
negative or not finite (``problem.EvaluationError``), a ``--tol`` below 4 eps
(``fortet.MIN_TOL``) or NaN, a ``--U`` or ``--moment-U`` file that is
not a list of one finite, strictly positive number per x point, a
``--U`` file or ``--trace`` with a scheme it does not apply to, a
``--moment-U`` or ``--domination-witness`` with a Gaussian triple, a
witness without the keys K, x and c, with an index that is not an
integer or lies outside the x grid, or with a coefficient not finite
and positive, a ``--moment-r`` not above 1 or without ``--moment-U``, a
``--finite-guard`` not positive, a ``--gap-tol`` negative or NaN, a
grid with ``--points-per-dim`` not odd and at least 3,
``--half-width-sigmas`` not positive, or more points than
``gaussian.MAX_GRID_POINTS``, a kernel larger than
``problem.MAX_KERNEL_BYTES``, and a problem with no solution: before a
Fortet run (``solve`` with either Fortet scheme, ``compare``) a kernel
with a zero entry is checked for a scaling certificate
(``criteria.scaling_certificate``), and a verified one is refused with
one ``error:`` line that names the x points S, the y points N(S) they
reach and the two masses, without iterating or writing a report; 2
degenerate, divergent or failed solve: a
divergent run (a step past the overflow guard, under either scheme) is
written as a report with status "divergent", and a solver error (a
vanishing or non-finite dual, a violated monotone decrease, a Sinkhorn
run refused on a kernel with a zero entry, or a ``check --moment-U``
ceiling small enough to pass the overflow guard) as one ``error:``
line on stderr; 3 iteration budget exhausted; 4 none of the paper's
sufficient criteria holds (``criteria.sufficient_for_existence``); 5
compare gap above tolerance.  Each of those criteria needs a strictly
positive kernel, so a ``check`` of a problem file whose kernel has a
zero entry always exits 4, even when a solution exists and ``solve``
finds it.  Such a ``check`` reports the certificate under
``scaling_certificate`` without changing its exit code; null there means
that none was found, which is not a proof that a solution exists.

``--U ones``, the default of ``solve --scheme truncated`` and ``compare``,
asks for the default ceiling (``fortet.solve_fortet`` with ``U=None``):
for a Gaussian or radial kernel with at least
``problem.PLAIN_START_MIN_POINTS`` points a side, the normalized
potential of a plain solve of the problem, from which the run takes the
rescaled step; all ones with the clamp for a dense kernel, a smaller
grid, or a plain start that fails.  A run from a plain start adds
``ceiling: "plain"`` and ``plain_iterations`` (the plain run's;
``iterations`` and ``fortet_iterations`` count the truncated run) to
its report; every other report is unchanged.

Reports are JSON with sorted keys (byte-identical for identical inputs);
infinities are serialized as the string "inf".  A solution report holds
the scalings ``a`` and ``b`` but not the dense coupling, which is
``a[:, None] * P * b[None, :]``.  A ``check`` report section holds its
``criteria`` result's fields by name (``scaling`` as
``scaling_certificate``, and ``moment`` adds ``U_source``).  Traces are
CSV headed by the field names of ``fortet.TraceRecord``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, astuple, fields, replace

import numpy as np

from . import criteria as crit
from . import fortet as ft
from . import gaussian as gs
from .extnum import ExtOverflowError
from .problem import (
    DiscreteProblem,
    EvaluationError,
    ParseError,
    SchemaError,
    ValidationError,
    _number_array,
    _read_json,
    _write_csv,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    validate_reduction,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEGENERATE = 2
EXIT_MAX_ITER = 3
EXIT_NO_CRITERION = 4
EXIT_GAP = 5

TRACE_HEADER = [f.name for f in fields(ft.TraceRecord)]


def _dumps(obj, level: int = 0) -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it, nested ``level`` deep.

    Numpy arrays and scalars are written as lists and numbers, and
    infinite and NaN floats as the strings "inf" and "nan".  A nonempty
    float array with only finite entries is written straight from
    ``float.__repr__``, as the json encoder writes floats, with one
    ``isfinite`` check per array instead of one per element.
    """
    pad = "\n" + "  " * (level + 1)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim and obj.size and np.isfinite(obj).all():
            if obj.ndim == 1:
                items = map(float.__repr__, obj.tolist())
            else:
                items = (_dumps(row, level + 1) for row in obj)
            return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"
        obj = obj.tolist()
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return float.__repr__(f) if math.isfinite(f) else '"nan"' if math.isnan(f) else '"inf"'
    if isinstance(obj, np.integer):
        return str(int(obj))
    # generators, not lists: an item (a large array of a report) is freed
    # once joined, not held through the copies of the concatenation
    if isinstance(obj, dict):
        brackets = "{}"
        items = (f"{json.dumps(k)}: {_dumps(obj[k], level + 1)}" for k in sorted(obj))
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        items = (_dumps(v, level + 1) for v in obj)
    else:  # str, int, bool and None; json raises TypeError on anything else
        return json.dumps(obj)
    if not obj:
        return brackets
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1]


def _write_report(payload: dict, path: str | None) -> None:
    _write_text(_dumps(payload) + "\n", path)


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_validated(args: argparse.Namespace) -> DiscreteProblem:
    return validate_reduction(load_problem(args.input, format=args.format))


def _refuse_without_scaling(problem: DiscreteProblem) -> None:
    """Raise :class:`criteria.NoScaling` when a verified certificate shows no scaling exists."""
    certificate = crit.scaling_certificate(problem)
    if certificate is not None:
        raise crit.NoScaling(certificate)


def _load_ceiling(path: str, problem: DiscreteProblem) -> np.ndarray:
    """A ceiling from a JSON list: one finite, strictly positive number per x point."""
    obj = _read_json(path)
    try:
        vec = _number_array(obj)
    except ValueError as exc:
        raise ValidationError(f"{path}: a ceiling must be a list of numbers") from exc
    if vec.shape != (problem.n_x,):
        raise ValidationError(f"{path}: a ceiling needs one entry per x point ({problem.n_x})")
    if not (np.isfinite(vec).all() and (vec > 0).all()):
        raise ValidationError(f"{path}: ceiling entries must be finite and strictly positive")
    return vec


def _discretize(args: argparse.Namespace, obj):
    """``(gp, points_per_dim, problem)``: the Gaussian triple ``obj`` on the grid
    the options ask for, or None when ``obj`` is not a triple."""
    if not (isinstance(obj, dict) and {"a", "b", "c"} <= obj.keys()):
        return None
    try:
        gp = gs.GaussianProblem(**{k: _number_array(obj[k]) for k in "abc"})
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad gaussian problem: {exc}") from exc
    pts = {1: 201, 2: 31}.get(gp.dim, 11) if args.points_per_dim is None else args.points_per_dim
    try:
        problem = gs.discretize_gaussian(gp, args.half_width_sigmas, pts)
    except ValueError as exc:
        raise ValidationError(f"bad grid: {exc}") from exc
    return gp, pts, problem


def cmd_solve(args: argparse.Namespace) -> int:
    if args.scheme != "truncated" and args.U != "ones":
        raise ValidationError(f"--U applies to --scheme truncated only, not {args.scheme}")
    if args.scheme == "sinkhorn" and args.trace:
        raise ValidationError("--trace applies to the Fortet schemes only, not sinkhorn")
    problem = _load_validated(args)
    payload: dict = {"command": "solve", "scheme": args.scheme}

    if args.scheme == "sinkhorn":
        try:
            sol = ft.sinkhorn_baseline(problem, tol=args.tol, max_iter=args.max_iter)
        except ft.MaxIterExceeded:
            payload.update({"status": ft.STATUS_MAX_ITER})
            _write_report(payload, args.output)
            return EXIT_MAX_ITER
        except ValueError as exc:  # the oracle refuses a kernel with a zero entry
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_DEGENERATE
        payload.update({"status": ft.STATUS_CONVERGED, "iterations": None, "residual": None})
        _fill_solution(payload, sol)
        _write_report(payload, args.output)
        return EXIT_OK

    _refuse_without_scaling(problem)
    if args.scheme == "truncated":
        result = ft.solve_fortet(
            problem,
            U=None if args.U == "ones" else _load_ceiling(args.U, problem),
            tol=args.tol,
            max_iter=args.max_iter,
            trace=args.trace,
        )
    else:
        result = ft.solve_untruncated(
            problem, tol=args.tol, max_iter=args.max_iter, trace=args.trace
        )

    payload.update(
        {
            "status": result.status,
            "iterations": result.iterations,
            "residual": result.residual,
            "early_exit_index": result.early_exit_index,
            **_ceiling_keys(result),
        }
    )
    if args.trace:
        payload["trace"] = [asdict(rec) for rec in result.trace]
        if args.output:
            _write_csv(args.output + ".trace.csv", [TRACE_HEADER, *map(astuple, result.trace)])
    if result.status == ft.STATUS_CONVERGED:
        sol = ft.extract_solution(problem, result.u_star, psi_star=result.psi_star)
        _fill_solution(payload, sol)
        payload["u_star"] = result.u_star
    _write_report(payload, args.output)
    if result.status == ft.STATUS_CONVERGED:
        return EXIT_OK
    if result.status == ft.STATUS_MAX_ITER:
        return EXIT_MAX_ITER
    return EXIT_DEGENERATE


def _ceiling_keys(result: ft.FixedPointResult) -> dict:
    """``ceiling: "plain"`` and ``plain_iterations`` for a run from a plain
    start; nothing otherwise, so every other report keeps its bytes."""
    if result.plain_iterations is None:
        return {}
    return {"ceiling": "plain", "plain_iterations": result.plain_iterations}


def _fill_solution(payload: dict, sol: ft.SchrodingerSolution) -> None:
    payload.update(
        {
            "a": sol.a,
            "b": sol.b,
            "marginal_err_x": sol.marginal_err_x,
            "marginal_err_y": sol.marginal_err_y,
            "rel_entropy": sol.rel_entropy,
        }
    )


def cmd_check(args: argparse.Namespace) -> int:
    if args.moment_r is not None and not args.moment_U:
        raise ValidationError("--moment-r applies only with --moment-U")
    if args.format == "json":
        obj = _read_json(args.input)
        gaussian = _discretize(args, obj)
        if gaussian is not None:
            return _check_gaussian(args, *gaussian)
        problem = validate_reduction(problem_from_dict(obj))
    else:
        problem = _load_validated(args)
    domination = None
    if args.domination_witness:
        path = args.domination_witness
        w = _read_json(path)
        if not (isinstance(w, dict) and {"K", "x", "c"} <= w.keys()):
            raise ValidationError(f"{path}: a witness needs the keys K, x and c")
        try:
            domination = crit.check_compact_domination(problem, w["K"], w["x"], w["c"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{path}: bad witness: {exc}") from exc
    moment_U = _load_ceiling(args.moment_U, problem) if args.moment_U else None
    report = crit.full_report(
        problem, finite_guard=args.finite_guard, moment_U=moment_U,
        moment_r=2.0 if args.moment_r is None else args.moment_r,
    )
    report = replace(report, domination=domination)
    # the certificate goes under its own name, and as null when there is none
    sections = asdict(report)
    payload = {"command": "check", "mode": "discrete",
               "scaling_certificate": sections.pop("scaling"),
               **{key: value for key, value in sections.items() if value is not None}}
    if report.moment is not None:
        payload["moment"]["U_source"] = args.moment_U
    _print_criteria_table(payload)
    if args.output:
        _write_report(payload, args.output)
    return EXIT_OK if crit.sufficient_for_existence(report) else EXIT_NO_CRITERION


def _check_gaussian(args: argparse.Namespace, gp: gs.GaussianProblem, pts: int,
                    problem: DiscreteProblem) -> int:
    if args.moment_U or args.domination_witness:
        raise ValidationError("--moment-U and --domination-witness need a problem file, "
                              "not a gaussian triple")
    mc = gs.matrix_criterion(gp)
    integral = crit.check_integral_criterion(
        validate_reduction(problem), finite_guard=args.finite_guard
    )
    payload = {
        "command": "check",
        "mode": "gaussian",
        "matrix_criterion": asdict(mc),
        "discretization": {"points_per_dim": pts, "half_width_sigmas": args.half_width_sigmas},
        "integral": asdict(integral),
    }
    ok = mc.xy_holds or mc.yx_holds or integral.xy.finite or integral.yx.finite
    _print_criteria_table(payload)
    if args.output:
        _write_report(payload, args.output)
    return EXIT_OK if ok else EXIT_NO_CRITERION


def _print_criteria_table(payload: dict) -> None:
    rows: list[tuple[str, str, str]] = []
    if "positivity" in payload:
        rows.append(("positivity", "holds" if payload["positivity"] else "fails", ""))
        rows.append(("boundedness", "holds" if payload["boundedness"] else "fails",
                     f"sup p = {payload['sup_kernel']:g}"))
        c = payload["scaling_certificate"]
        rows.append(("scaling certificate", "none" if c is None else c["kind"],
                     "" if c is None else f"x {list(c['indices'])} -> y {list(c['reach'])}: "
                     f"mass {c['mass']:.6g} vs {c['reach_mass']:.6g}"))
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


#: entries of one row block of :func:`_coupling_gap` (512 KiB of floats)
_GAP_BLOCK = 1 << 16


def _coupling_gap(one: ft.SchrodingerSolution, two: ft.SchrodingerSolution) -> float:
    """``max |pi_one - pi_two|`` over fixed row blocks, never forming a whole coupling.

    The entries of a block are those of the whole ``pi``, bit for bit, so
    the gap is the dense one.
    """
    n_x, n_y = one.factors[1].shape
    step = max(1, _GAP_BLOCK // n_y)
    return max(float(np.max(np.abs(one.pi_rows(blk) - two.pi_rows(blk))))
               for blk in (slice(lo, lo + step) for lo in range(0, n_x, step)))


def cmd_compare(args: argparse.Namespace) -> int:
    problem = _load_validated(args)
    _refuse_without_scaling(problem)
    U = None if args.U == "ones" else _load_ceiling(args.U, problem)
    result = ft.solve_fortet(problem, U=U, tol=args.tol, max_iter=args.max_iter)
    failed = result.status != ft.STATUS_CONVERGED
    payload: dict = {
        "command": "compare",
        "fortet_status": result.status,
        "fortet_iterations": result.iterations,
        **_ceiling_keys(result),
    }
    if failed:
        _write_report(payload, args.output)
        return EXIT_DEGENERATE
    try:
        sink = ft.sinkhorn_baseline(problem, tol=args.tol, max_iter=args.max_iter)
    except (ft.MaxIterExceeded, ValueError) as exc:
        payload["sinkhorn_error"] = str(exc)
        _write_report(payload, args.output)
        return EXIT_DEGENERATE

    # each potential divided by its own maximum, so the gap is scale-free
    u_f = result.u_star / np.max(result.u_star)
    u_s = ft.potential_from_solution(problem, sink)
    u_s = u_s / np.max(u_s)
    gap = float(np.max(np.abs(u_f - u_s)))
    sol_f = ft.extract_solution(problem, result.u_star, psi_star=result.psi_star)
    coupling_gap = _coupling_gap(sol_f, sink)
    payload.update(
        {
            "potential_gap": gap,
            "coupling_gap": coupling_gap,
            "gap_tol": args.gap_tol,
            "fortet_rel_entropy": sol_f.rel_entropy,
            "sinkhorn_rel_entropy": sink.rel_entropy,
        }
    )
    _write_report(payload, args.output)
    return EXIT_OK if gap <= args.gap_tol else EXIT_GAP


def cmd_gaussian_gen(args: argparse.Namespace) -> int:
    gaussian = _discretize(args, _read_json(args.input))
    if gaussian is None:
        raise SchemaError("gaussian-gen expects a JSON object with keys a, b, c")
    _write_report(problem_to_dict(gaussian[2]), args.output)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    obj = _read_json(args.input)
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
    _write_text("".join(f"{k.ljust(width)}  {v}\n" for k, v in rows), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="schrobridge", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--input", required=True)
    files.add_argument("--output")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["json", "csv-bundle"], default="json")
    fortet = argparse.ArgumentParser(add_help=False)
    fortet.add_argument("--max-iter", type=int, default=100_000)
    fortet.add_argument("--U", default="ones",
                        help="'ones' for the default ceiling (shaped by a plain solve "
                             "for a Gaussian or radial kernel on a large grid, all ones "
                             "otherwise) or a JSON file with the ceiling vector")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--points-per-dim", type=int)
    grid.add_argument("--half-width-sigmas", type=float, default=6.0)

    p_solve = sub.add_parser("solve", parents=[files, fmt, fortet], help="solve a problem file")
    p_solve.add_argument("--scheme", choices=["truncated", "untruncated", "sinkhorn"],
                         default="truncated")
    p_solve.add_argument("--tol", type=float, default=1e-10)
    p_solve.add_argument("--trace", action="store_true")
    p_solve.set_defaults(handler=cmd_solve)

    p_check = sub.add_parser("check", parents=[files, fmt, grid], help="run existence criteria")
    p_check.add_argument("--finite-guard", type=float, default=crit.DIVERGENCE_GUARD)
    p_check.add_argument("--domination-witness", help="JSON file with keys K, x, c")
    p_check.add_argument("--moment-U", help="JSON file with the ceiling vector")
    # None, not 2.0, so that an explicit --moment-r without --moment-U is caught
    p_check.add_argument("--moment-r", type=float)
    p_check.set_defaults(handler=cmd_check)

    p_cmp = sub.add_parser("compare", parents=[files, fmt, fortet], help="fortet vs sinkhorn")
    # tight default, so both runs settle far inside --gap-tol; the
    # potential gap compares each potential over its own maximum
    p_cmp.add_argument("--tol", type=float, default=1e-14)
    p_cmp.add_argument("--gap-tol", type=float, default=1e-8)
    p_cmp.set_defaults(handler=cmd_compare)

    sub.add_parser("gaussian-gen", parents=[files, grid],
                   help="discretize a gaussian triple").set_defaults(handler=cmd_gaussian_gen)
    sub.add_parser("report", parents=[files],
                   help="render a JSON report").set_defaults(handler=cmd_report)
    return parser


def _check_limits(args: argparse.Namespace) -> None:
    """Reject a numeric option out of its range (NaN included) before any handler runs."""
    limits = {
        "tol": (lambda v: v >= ft.MIN_TOL, f"tol must be at least {ft.MIN_TOL:.3g}"),
        "max_iter": (lambda v: v >= 1, "max-iter must be at least 1"),
        "moment_r": (lambda v: v > 1.0, "moment-r must exceed 1"),
        "finite_guard": (lambda v: v > 0.0, "finite-guard must be positive"),
        "gap_tol": (lambda v: v >= 0.0, "gap-tol must be a nonnegative number"),
    }
    for dest, (ok, message) in limits.items():
        if getattr(args, dest, None) is not None and not ok(getattr(args, dest)):
            raise ValidationError(message)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_limits(args)
        return args.handler(args)
    except (ParseError, ValidationError, EvaluationError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except (ft.NonFiniteIntermediate, ft.MonotonicityViolated, ExtOverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DEGENERATE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
