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
not a list of one finite, strictly positive number per x point that
carries mass (ceilings, witness indices and a report's ``a`` and
``u_star`` index the x points of nonzero mass, in file order), a
``--U`` file or ``--trace`` with ``--scheme sinkhorn``, a
``--moment-U`` or ``--domination-witness`` with a Gaussian triple, a
witness without the keys K, x and c, with an index that is not an
integer or lies outside the x grid, or with a coefficient not finite
and positive, a ``--moment-r`` not above 1 or without ``--moment-U``, a
``--finite-guard`` not positive, a ``--gap-tol`` negative or NaN, a
grid with ``--points-per-dim`` not odd and at least 3,
``--half-width-sigmas`` not positive, or more points than
``gaussian.MAX_GRID_POINTS``, either grid option in a ``check`` of a
problem file, a kernel larger than
``problem.MAX_KERNEL_BYTES``, and a problem with no solution: before a
Fortet run (``solve --scheme fortet``, ``compare``) a kernel
with a zero entry is checked for a scaling certificate
(``criteria.scaling_certificate``), and a verified one is refused with
one ``error:`` line that names the x points S, the y points N(S) they
reach and the two masses, without iterating or writing a report; 2
degenerate, divergent or failed solve: a
divergent run (a step past the overflow guard, under either scheme) is
written as a report with status "divergent", and a solver error (a
vanishing or non-finite dual, a violated monotone decrease, a Sinkhorn
run refused on a kernel with a zero entry, a ``check --moment-U``
ceiling small enough to pass the overflow guard, or any other
``ArithmeticError``, such as the rounding guard of the Gaussian matrix
criterion on an ill-conditioned triple) as one ``error:`` line on
stderr; 3 iteration budget exhausted; 4 none of the paper's
sufficient criteria holds (``criteria.sufficient_for_existence``); 5
compare gap above tolerance.  Each of those criteria needs a strictly
positive kernel, so a ``check`` of a problem file whose kernel has a
zero entry always exits 4, even when a solution exists and ``solve``
finds it.  Such a ``check`` reports the certificate under
``scaling_certificate`` without changing its exit code; null there means
that none was found, which is not a proof that a solution exists.

``solve --scheme fortet`` (the default) and ``compare`` run
``fortet.solve_fortet``: without ``--U`` the plain scheme to ``--tol``,
converged or not, and with a ``--U`` file the clamp from that ceiling,
the paper's scheme.  A ``solve`` report's ``scheme`` names the scheme
that ran: ``"untruncated"``, ``"truncated"`` or ``"sinkhorn"``.

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
import sys
from dataclasses import asdict, astuple, fields, replace

import numpy as np

from . import criteria as crit
from . import fortet as ft
from . import gaussian as gs
from .problem import (
    FORMATS,
    DiscreteProblem,
    EvaluationError,
    ParseError,
    SchemaError,
    ValidationError,
    _dumps,
    _number_array,
    _read_json,
    _write_csv,
    _write_report,
    _write_text,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    read_document,
    row_blocks,
    validate_reduction,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEGENERATE = 2
EXIT_MAX_ITER = 3
EXIT_NO_CRITERION = 4
EXIT_GAP = 5

TRACE_HEADER = [f.name for f in fields(ft.TraceRecord)]

#: the exit code of each status a ``solve`` report can carry
_SOLVE_EXIT = {ft.STATUS_CONVERGED: EXIT_OK, ft.STATUS_MAX_ITER: EXIT_MAX_ITER,
               ft.STATUS_DEGENERATE: EXIT_DEGENERATE, ft.STATUS_DIVERGENT: EXIT_DEGENERATE}


def _load_validated(args: argparse.Namespace) -> DiscreteProblem:
    return validate_reduction(load_problem(args.input, format=args.format))


def _load_ceiling(path: str, problem: DiscreteProblem) -> np.ndarray:
    """A ceiling from a JSON list: one finite, strictly positive number per x point."""
    obj = _read_json(path)
    try:
        vec = _number_array(obj)
    except ValueError as exc:
        raise ValidationError(f"{path}: a ceiling must be a list of numbers") from exc
    try:
        return ft._check_positive_finite(vec, "a ceiling", problem.n_x)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _discretize(args: argparse.Namespace, obj):
    """``(gp, grid, problem)``: the Gaussian triple ``obj`` on the grid the
    options ask for, with ``grid`` its ``points_per_dim`` and
    ``half_width_sigmas``, or None when ``obj`` is not a triple."""
    if not (isinstance(obj, dict) and {"a", "b", "c"} <= obj.keys()):
        return None
    try:
        gp = gs.GaussianProblem(**{k: _number_array(obj[k]) for k in "abc"})
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad gaussian problem: {exc}") from exc
    pts = {1: 201, 2: 31}.get(gp.dim, 11) if args.points_per_dim is None else args.points_per_dim
    width = 6.0 if args.half_width_sigmas is None else args.half_width_sigmas
    try:
        problem = gs.discretize_gaussian(gp, width, pts)
    except ValueError as exc:
        raise ValidationError(f"bad grid: {exc}") from exc
    return gp, {"points_per_dim": pts, "half_width_sigmas": width}, problem


def _run_fortet(args: argparse.Namespace, problem: DiscreteProblem,
                trace: bool = False) -> ft.FixedPointResult:
    """``solve_fortet`` with the ``--U``, ``--tol`` and ``--max-iter`` of ``args``.

    A verified certificate that no scaling exists raises
    :class:`criteria.NoScaling` first, before the ceiling file is read.
    """
    certificate = crit.scaling_certificate(problem)
    if certificate is not None:
        raise crit.NoScaling(certificate)
    U = None if args.U is None else _load_ceiling(args.U, problem)
    return ft.solve_fortet(problem, U=U, tol=args.tol, max_iter=args.max_iter, trace=trace)


def cmd_solve(args: argparse.Namespace) -> int:
    if args.scheme == "sinkhorn" and (args.U is not None or args.trace):
        raise ValidationError("--U and --trace apply to --scheme fortet only, not sinkhorn")
    problem = _load_validated(args)
    payload: dict = {"command": "solve", "scheme": args.scheme}
    sol = None
    if args.scheme == "sinkhorn":
        try:
            sol = ft.sinkhorn_baseline(problem, tol=args.tol, max_iter=args.max_iter)
        except ft.MaxIterExceeded:
            payload["status"] = ft.STATUS_MAX_ITER
        except ValueError as exc:  # a kernel with a zero entry, or scalings out of float range
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_DEGENERATE
        else:
            payload.update({"status": ft.STATUS_CONVERGED, "iterations": None, "residual": None})
    else:
        result = _run_fortet(args, problem, trace=args.trace)
        payload.update(scheme=result.scheme, status=result.status, iterations=result.iterations,
                       residual=result.residual, early_exit_index=result.early_exit_index)
        if args.trace:
            payload["trace"] = [asdict(rec) for rec in result.trace]
            if args.output:
                _write_csv(args.output + ".trace.csv", [TRACE_HEADER, *map(astuple, result.trace)])
        if result.status == ft.STATUS_CONVERGED:
            sol = ft.extract_solution(problem, result.u_star, psi_star=result.psi_star)
            payload["u_star"] = result.u_star
    if sol is not None:
        payload.update(a=sol.a, b=sol.b, marginal_err_x=sol.marginal_err_x,
                       marginal_err_y=sol.marginal_err_y, rel_entropy=sol.rel_entropy)
    _write_report(payload, args.output)
    return _SOLVE_EXIT[payload["status"]]


def cmd_check(args: argparse.Namespace) -> int:
    if args.moment_r is not None and args.moment_U is None:
        raise ValidationError("--moment-r applies only with --moment-U")
    obj = read_document(args.input, args.format)
    gaussian = _discretize(args, obj)  # None for a problem document, a bundle's included
    if gaussian is not None:
        return _check_gaussian(args, *gaussian)
    if args.points_per_dim is not None or args.half_width_sigmas is not None:
        raise ValidationError("--points-per-dim and --half-width-sigmas need a gaussian "
                              "triple, not a problem file")
    problem = validate_reduction(problem_from_dict(obj))
    domination = None
    if args.domination_witness is not None:
        path = args.domination_witness
        w = _read_json(path)
        if not (isinstance(w, dict) and {"K", "x", "c"} <= w.keys()):
            raise ValidationError(f"{path}: a witness needs the keys K, x and c")
        try:
            domination = crit.check_compact_domination(problem, w["K"], w["x"], w["c"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{path}: bad witness: {exc}") from exc
    moment = None
    if args.moment_U is not None:
        moment = crit.check_moment_condition(
            problem, _load_ceiling(args.moment_U, problem),
            r=2.0 if args.moment_r is None else args.moment_r,
        )
    report = replace(crit.full_report(problem, finite_guard=args.finite_guard),
                     domination=domination, moment=moment)
    # the certificate goes under its own name, and as null when there is none
    sections = asdict(report)
    payload = {"command": "check", "mode": "discrete",
               "scaling_certificate": sections.pop("scaling"),
               **{key: value for key, value in sections.items() if value is not None}}
    if report.moment is not None:
        payload["moment"]["U_source"] = args.moment_U
    return _finish_check(args, payload, crit.sufficient_for_existence(report))


def _check_gaussian(args: argparse.Namespace, gp: gs.GaussianProblem, grid: dict,
                    problem: DiscreteProblem) -> int:
    if args.moment_U is not None or args.domination_witness is not None:
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
        "discretization": grid,
        "integral": asdict(integral),
    }
    return _finish_check(
        args, payload, mc.xy_holds or mc.yx_holds or integral.xy.finite or integral.yx.finite
    )


def _finish_check(args: argparse.Namespace, payload: dict, holds: bool) -> int:
    """Print the criteria table, write the report to ``--output`` if given, and
    exit 0 when some criterion ``holds``, 4 otherwise."""
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
    if args.output:
        _write_report(payload, args.output)
    return EXIT_OK if holds else EXIT_NO_CRITERION


def _coupling_gap(one: ft.SchrodingerSolution, two: ft.SchrodingerSolution) -> float:
    """``max |pi_one - pi_two|`` over row blocks, never forming a whole coupling.

    Two reused block buffers hold the products ``(a' P') b'`` that
    :attr:`~schrobridge.fortet.SchrodingerSolution.pi` forms, so the
    entries are those of the whole ``pi``, bit for bit, and the gap is the
    dense one.
    """
    n_x, n_y = one.factors[1].shape
    blocks = row_blocks(n_x, n_y)
    first, second = (np.empty((blocks[0].stop, n_y)) for _ in range(2))
    gaps = []
    for rows in blocks:
        k = rows.stop - rows.start
        for buf, (a, P, b) in ((first[:k], one.factors), (second[:k], two.factors)):
            np.multiply(np.multiply(a[rows, None], P[rows], out=buf), b, out=buf)
        diff = np.subtract(first[:k], second[:k], out=first[:k])
        gaps.append(float(np.max(np.abs(diff, out=diff))))
    return max(gaps)


def cmd_compare(args: argparse.Namespace) -> int:
    problem = _load_validated(args)
    result = _run_fortet(args, problem)
    payload: dict = {
        "command": "compare",
        "fortet_status": result.status,
        "fortet_iterations": result.iterations,
    }
    if result.status != ft.STATUS_CONVERGED:
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
    payload.update(potential_gap=gap, coupling_gap=_coupling_gap(sol_f, sink),
                   gap_tol=args.gap_tol, fortet_rel_entropy=sol_f.rel_entropy,
                   sinkhorn_rel_entropy=sink.rel_entropy)
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
    fmt.add_argument("--format", choices=tuple(FORMATS), default="json")
    fortet = argparse.ArgumentParser(add_help=False)
    fortet.add_argument("--max-iter", type=int, default=100_000)
    fortet.add_argument("--U", help="JSON file with a ceiling vector: runs the clamp from it "
                                     "instead of the plain scheme")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--points-per-dim", type=int)
    grid.add_argument("--half-width-sigmas", type=float)

    p_solve = sub.add_parser("solve", parents=[files, fmt, fortet], help="solve a problem file")
    p_solve.add_argument("--scheme", choices=["fortet", "sinkhorn"], default="fortet")
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
    except (ft.NonFiniteIntermediate, ft.MonotonicityViolated, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DEGENERATE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
