"""Machine-checkable existence criteria for a discretized problem.

Four checks are provided, each returning a verdict that carries either a
witness or the violating index -- never a bare boolean:

  * the integral criterion (both directions): finiteness of
    ``sum_j [sum_i P[i,j] mu_i]^{-1} nu_j`` and its mirror;
  * the compact-domination condition: finitely many base points x_k and
    positive coefficients c_k with
    ``max_{i in K} P[i,j] <= sum_k c_k P[x_k, j]`` for every column j;
  * the exponential-moment condition with a ceiling U and exponent r > 1:
    finiteness of ``max_i [sum_j (P[i,j]/P[x_o,j])^r P[x_o,j] / psi(U)_j
    nu_j] / U_i^r``;
  * radial non-increase: the smallest cutoff L beyond which a sampled
    radial profile is non-increasing.

On a finite grid every sum is finite in exact arithmetic, so criterion
failure shows up either as a structural infinity (a zero denominator) or
as a numerically enormous value; ``finite`` verdicts compare against a
configurable divergence guard.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .extnum import INF
from .fortet import phi, psi
from .problem import DiscreteProblem, RadialKernel, kernel_matrix

#: Sums at or above this are reported as numerically divergent.  Discrete
#: sums are always finite in exact arithmetic; a well-posed criterion
#: integral converges to a moderate value as the grid refines, while a
#: divergent one is dominated by its grid boundary and blows up by tens
#: of orders of magnitude.
DIVERGENCE_GUARD = 1e15


class PreconditionFailed(RuntimeError):
    """A prerequisite finiteness check failed.

    ``part`` is "psi" when the ceiling or its dual psi(U) is not finite
    positive, "phi" when phi(U) is not finite; ``index`` locates the
    offending grid point.
    """

    def __init__(self, part: str, index: int):
        super().__init__(f"finiteness precondition ({part}) failed at index {index}")
        self.part = part
        self.index = index


@dataclass(frozen=True)
class IntegralDirection:
    value: float
    finite: bool


@dataclass(frozen=True)
class IntegralCriterionResult:
    xy: IntegralDirection
    yx: IntegralDirection
    guard: float


@dataclass(frozen=True)
class CompactDominationResult:
    holds: bool
    K_indices: tuple[int, ...]
    x_indices: tuple[int, ...]
    coefficients: tuple[float, ...]
    violation_index: int | None
    continuity: str


@dataclass(frozen=True)
class MomentConditionResult:
    holds: bool
    c: float
    r: float
    x_o_index: int


@dataclass(frozen=True)
class RadialResult:
    holds: bool
    L_found: float | None


@dataclass(frozen=True)
class CriteriaReport:
    positivity: bool
    boundedness: bool
    sup_kernel: float
    integral: IntegralCriterionResult
    domination: CompactDominationResult | None = None
    moment: MomentConditionResult | None = None
    radial: RadialResult | None = None


def _integral_direction(P: np.ndarray, inner_marginal: np.ndarray,
                        outer_marginal: np.ndarray, guard: float) -> IntegralDirection:
    # exactly rounded sums keep the verdict independent of summation
    # order, so transposing the problem swaps the directions bit-for-bit
    weighted = P * inner_marginal[:, None]
    inner = np.array([math.fsum(weighted[:, j]) for j in range(P.shape[1])])
    zero = inner == 0.0
    if (zero & (outer_marginal > 0)).any():
        return IntegralDirection(value=INF, finite=False)
    with np.errstate(over="ignore"):
        value = math.fsum(outer_marginal[~zero] / inner[~zero])
    return IntegralDirection(value=float(value), finite=bool(value < guard))


def check_integral_criterion(
    problem: DiscreteProblem, finite_guard: float = DIVERGENCE_GUARD
) -> IntegralCriterionResult:
    """Evaluate both directions of the integral criterion.

    The x->y direction sums ``nu_j / (sum_i P[i,j] mu_i)``; a zero inner
    sum against positive nu-mass makes the value INF.  The y->x direction
    exchanges the roles of the marginals.  ``finite`` means not INF and
    below the divergence guard.
    """
    P = kernel_matrix(problem)
    return IntegralCriterionResult(
        xy=_integral_direction(P, problem.mu.weights, problem.nu.weights, finite_guard),
        yx=_integral_direction(P.T, problem.nu.weights, problem.mu.weights, finite_guard),
        guard=finite_guard,
    )


def _as_real(v) -> float:
    """``v`` as a float: a real number, not a bool or a string."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"coefficient {v!r} is not a number")
    return float(v)


def _as_index(i) -> int:
    """``i`` as an int: an integer or a float without a fractional part."""
    if isinstance(i, bool) or not (
        isinstance(i, numbers.Integral) or isinstance(i, numbers.Real) and float(i).is_integer()
    ):
        raise ValueError(f"index {i!r} is not an integer")
    return int(i)


def check_compact_domination(
    problem: DiscreteProblem,
    K_indices,
    x_indices,
    coefficients,
) -> CompactDominationResult:
    """Verify a compact-domination witness.

    Holds iff for every column j the maximum of P over the rows in K is
    at most ``sum_k c_k P[x_k, j]``.  On failure the first violating
    column index is reported.  Continuity of the kernel in x is recorded
    by kernel kind: functional kernels are continuous by construction,
    dense tables are taken on faith.  Raises ValueError for an index outside
    ``[0, n_x)`` or not an integer (a bool, a string or a float with a
    fractional part), and for a coefficient that is not a finite, positive
    real number.
    """
    K_indices = tuple(_as_index(i) for i in K_indices)
    x_indices = tuple(_as_index(i) for i in x_indices)
    coefficients = tuple(_as_real(c) for c in coefficients)
    if not K_indices or not x_indices or len(x_indices) != len(coefficients):
        raise ValueError("K nonempty and x_indices/coefficients of equal positive length required")
    if not all(0 <= i < problem.n_x for i in K_indices + x_indices):
        raise ValueError(f"indices must lie in [0, {problem.n_x})")
    if not all(0 < c < math.inf for c in coefficients):
        raise ValueError("coefficients must be finite and positive")
    P = kernel_matrix(problem)
    target = P[list(K_indices), :].max(axis=0)
    bound = np.asarray(coefficients) @ P[list(x_indices), :]
    bad = np.flatnonzero(target > bound)
    continuity = (
        "asserted-not-checked" if problem.kernel.kind == "dense-matrix"
        else "declared-by-kernel-kind"
    )
    return CompactDominationResult(
        holds=bad.size == 0,
        K_indices=K_indices,
        x_indices=x_indices,
        coefficients=coefficients,
        violation_index=int(bad[0]) if bad.size else None,
        continuity=continuity,
    )


def suggest_domination_witness(
    problem: DiscreteProblem,
    K_indices,
    candidate_indices=None,
):
    """Best-effort witness construction: minimal-mass coefficients by LP.

    Base points default to the geometric boundary of K (convex hull
    vertices; the extreme points in one dimension).  Returns
    ``(x_indices, coefficients)`` or None when the linear program is
    infeasible over the candidates.  No completeness guarantee.
    """
    from scipy.optimize import linprog

    K_indices = [int(i) for i in K_indices]
    if candidate_indices is None:
        pts = problem.x_space.points[K_indices]
        if pts.shape[1] == 1 or len(K_indices) < 4:
            order = np.argsort(pts[:, 0])
            cand = sorted({K_indices[order[0]], K_indices[order[-1]]})
        else:
            try:
                from scipy.spatial import ConvexHull

                hull = ConvexHull(pts)
                cand = sorted({K_indices[v] for v in hull.vertices})
            except Exception:
                cand = list(K_indices)
    else:
        cand = [int(i) for i in candidate_indices]

    P = kernel_matrix(problem)
    target = P[K_indices, :].max(axis=0)
    A_ub = -P[cand, :].T
    b_ub = -target
    res = linprog(c=np.ones(len(cand)), A_ub=A_ub, b_ub=b_ub,
                  bounds=[(0, None)] * len(cand), method="highs")
    if not res.success:
        return None
    keep = res.x > 1e-12
    if not keep.any():
        return None
    x_idx = [int(cand[k]) for k in np.flatnonzero(keep)]
    coeffs = res.x[keep]
    # the LP meets its constraints only to solver tolerance; inflate until
    # the exact comparison of the checker holds
    for bump in (1.0 + 1e-9, 1.0 + 1e-6, 1.001, 1.1):
        scaled = coeffs * bump
        if check_compact_domination(problem, K_indices, x_idx, scaled).holds:
            return tuple(x_idx), tuple(float(v) for v in scaled)
    return None


def check_moment_condition(
    problem: DiscreteProblem,
    U: np.ndarray,
    r: float = 2.0,
    x_o_index: int = 0,
) -> MomentConditionResult:
    """Evaluate the exponential-moment condition for a ceiling U.

    First requires psi(U) finite everywhere, then phi(U) finite
    everywhere (raising :class:`PreconditionFailed` naming the failing
    part and index), then reports the smallest admissible constant

        c = max_i [ sum_j (P[i,j]/P[x_o,j])^r P[x_o,j] psi(U)_j^{-1} nu_j ] / U_i^r

    and holds iff c is finite.  The verdict is invariant under scaling
    U -> kappa U.
    """
    if r <= 1.0:
        raise ValueError("r must exceed 1")
    U = np.asarray(U, dtype=float)
    bad_U = ~np.isfinite(U) | (U <= 0)
    if bad_U.any():
        raise PreconditionFailed("psi", int(np.flatnonzero(bad_U)[0]))
    psi_U = psi(problem, U)
    if not np.isfinite(psi_U).all():
        raise PreconditionFailed("psi", int(np.flatnonzero(~np.isfinite(psi_U))[0]))
    phi_U = phi(problem, U, psi_u=psi_U)
    if not np.isfinite(phi_U).all():
        raise PreconditionFailed("phi", int(np.flatnonzero(~np.isfinite(phi_U))[0]))

    P = kernel_matrix(problem)
    base = P[x_o_index, :]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = P / base[None, :]
        weights = base * problem.nu.weights / psi_U
        sums = (ratios**r) @ weights
        c_val = np.nanmax(sums / U**r)
    if np.isnan(c_val):
        c_val = INF
    return MomentConditionResult(
        holds=bool(np.isfinite(c_val) and c_val < 1e300),
        c=float(c_val),
        r=float(r),
        x_o_index=int(x_o_index),
    )


def check_radial(
    t_samples,
    theta_values,
    L_candidates,
    tol: float = 1e-12,
) -> RadialResult:
    """Find the smallest cutoff beyond which a sampled profile decays.

    The samples must be positive and bounded.  A candidate L passes when
    the profile restricted to sample points >= L is non-increasing up to
    ``tol``; the smallest passing candidate is reported.
    """
    t = np.asarray(t_samples, dtype=float)
    th = np.asarray(theta_values, dtype=float)
    if t.shape != th.shape or t.ndim != 1:
        raise ValueError("t_samples and theta_values must be aligned vectors")
    if (th <= 0).any() or not np.isfinite(th).all():
        raise ValueError("profile samples must be positive and bounded")
    order = np.argsort(t)
    t, th = t[order], th[order]
    for L in sorted(float(x) for x in L_candidates):
        tail = th[t >= L]
        if tail.size < 2 or (np.diff(tail) <= tol).all():
            return RadialResult(holds=True, L_found=L)
    return RadialResult(holds=False, L_found=None)


def full_report(
    problem: DiscreteProblem,
    finite_guard: float = DIVERGENCE_GUARD,
    domination_witness: tuple | None = None,
    moment_U: np.ndarray | None = None,
    moment_r: float = 2.0,
    radial_candidates=None,
) -> CriteriaReport:
    """Assemble the full criteria report for a problem.

    The domination and moment conditions are evaluated only when the
    caller supplies a witness (a ``(K_indices, x_indices, coefficients)``
    triple) or a ceiling; on a finite grid both are vacuously satisfiable
    and carry no information unless the witness is meaningful.  The
    radial check runs automatically for radial-kind kernels.
    """
    P = kernel_matrix(problem)
    report_kwargs = {}
    if domination_witness is not None:
        K_idx, x_idx, coeffs = domination_witness
        report_kwargs["domination"] = check_compact_domination(problem, K_idx, x_idx, coeffs)
    if moment_U is not None:
        report_kwargs["moment"] = check_moment_condition(problem, moment_U, r=moment_r)
    if isinstance(problem.kernel, RadialKernel):
        diffs = problem.x_space.points[:, None, :] - problem.y_space.points[None, :, :]
        t_max = float(np.sqrt((diffs * diffs).sum(axis=2)).max())
        t = np.linspace(0.0, max(t_max, 1.0), 512)
        theta = np.asarray(problem.kernel.profile(t), dtype=float)
        if radial_candidates is None:
            radial_candidates = np.linspace(0.0, max(t_max, 1.0), 101)
        report_kwargs["radial"] = check_radial(t, theta, radial_candidates)
    return CriteriaReport(
        positivity=bool((P > 0).all()),
        boundedness=bool(np.isfinite(P).all()),
        sup_kernel=float(P.max()),
        integral=check_integral_criterion(problem, finite_guard),
        **report_kwargs,
    )


def sufficient_for_existence(report: CriteriaReport) -> bool:
    """True when some checked criterion certifies existence.

    The integral criterion needs positivity and boundedness and one
    finite direction; a supplied domination witness or moment ceiling
    that holds also certifies (with positivity); so does the radial
    condition for a radial kernel.
    """
    if report.positivity and report.boundedness:
        if report.integral.xy.finite or report.integral.yx.finite:
            return True
        if report.domination is not None and report.domination.holds:
            return True
    if report.positivity and report.moment is not None and report.moment.holds:
        return True
    if report.positivity and report.radial is not None and report.radial.holds:
        return True
    return False
