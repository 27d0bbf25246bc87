"""Machine-checkable existence criteria for a discretized problem.

Five checks are provided, each returning a verdict that carries either a
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
    radial profile is non-increasing;
  * the scaling certificate: a set of x points whose mass the y points it
    reaches cannot absorb (Hall's condition), which proves that no
    scaling of a kernel with zero entries has the marginals.

:func:`full_report` runs all but the domination and moment checks,
which need a caller's witness or ceiling.  On a finite grid every sum
is finite in exact arithmetic, so criterion failure shows up either as
a structural infinity (a zero denominator) or as a numerically
enormous value; ``finite`` verdicts compare against a configurable
divergence guard.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .extnum import INF, OVERFLOW_LIMIT
from .fortet import _check_positive_finite, phi, psi
from .problem import (
    MARGINAL_MASS_TOL,
    DenseKernel,
    DiscreteProblem,
    RadialKernel,
    ValidationError,
    distance_blocks,
    kernel_matrix,
)

#: Sums at or above this are reported as numerically divergent.  Discrete
#: sums are always finite in exact arithmetic; a well-posed criterion
#: integral converges to a moderate value as the grid refines, while a
#: divergent one is dominated by its grid boundary and blows up by tens
#: of orders of magnitude.
DIVERGENCE_GUARD = 1e15


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
class ScalingCertificate:
    """Proof that no scaling ``a P b`` has the marginals mu and nu.

    ``indices`` is a set S of points on ``side`` (always "x": the set of x
    points, as in :class:`~schrobridge.problem.IrreducibleProblem`) and
    ``reach`` is N(S), the y points that S reaches through ``P > 0``;
    ``mass`` is mu(S) and ``reach_mass`` is nu(N(S)).  ``kind`` is "hall"
    when mu(S) > nu(N(S)), and "tight" when mu(S) = nu(N(S)) while an x
    point outside S reaches N(S) too: a coupling with these marginals
    then puts no mass on that positive entry of P, which a scaling must.
    The masses were compared normalized, ``mu(S) nu(Y)`` against
    ``nu(N(S)) mu(X)``, in exact rational arithmetic.
    """

    kind: str
    side: str
    indices: tuple[int, ...]
    reach: tuple[int, ...]
    mass: float
    reach_mass: float


class NoScaling(ValidationError):
    """A verified :class:`ScalingCertificate`: the problem has no solution.

    The message names the x points S, the y points N(S) they reach and the
    two masses.  :class:`~schrobridge.problem.IrreducibleProblem`'s
    unreachable x point i is the special case S = {i}, N(S) empty.
    """

    def __init__(self, certificate: ScalingCertificate):
        c = certificate
        relation = "more than" if c.kind == "hall" else "exactly"
        tail = ", which other x points reach too" if c.kind == "tight" else ""
        super().__init__(
            f"no scaling exists ({c.kind} certificate): x points {list(c.indices)} carry "
            f"mass {c.mass!r}, {relation} the mass {c.reach_mass!r} of the y points "
            f"{list(c.reach)} they reach{tail}"
        )


@dataclass(frozen=True)
class CriteriaReport:
    positivity: bool
    boundedness: bool
    sup_kernel: float
    integral: IntegralCriterionResult
    domination: CompactDominationResult | None = None
    moment: MomentConditionResult | None = None
    radial: RadialResult | None = None
    scaling: ScalingCertificate | None = None


def _column_sums(P: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each column of ``P * w[:, None]``, its terms added in row index order.

    Every entry is the same sequence of roundings whatever the memory
    layout of ``P``, so ``P.T`` and a C-ordered copy of it give the same
    bits; ``w @ P`` and ``P.T @ w`` do not (their order follows the layout
    and the BLAS threads).  For nonnegative terms each entry is within
    ``gamma_{n-1} = (n-1) u / (1 - (n-1) u)``, ``u = 2^-53``, relative of
    the exact sum (Higham 1993, *The accuracy of floating point
    summation*), and is zero exactly when every term is.
    """
    out = np.zeros(P.shape[1])
    with np.errstate(over="ignore"):
        for row, weight in zip(P, w):
            out += row * weight
    return out


def _integral_direction(P: np.ndarray, inner_marginal: np.ndarray,
                        outer_marginal: np.ndarray, guard: float) -> IntegralDirection:
    """``sum_j outer_j / inner_j`` with ``inner_j = sum_i P[i,j] inner_marginal_i``.

    The inner sums are :func:`_column_sums`; the outer one is one
    ``math.fsum``, INF when finite terms sum past the float range.
    """
    inner = _column_sums(P, inner_marginal)
    zero = inner == 0.0
    if (zero & (outer_marginal > 0)).any():
        return IntegralDirection(value=INF, finite=False)
    with np.errstate(over="ignore"):
        terms = outer_marginal[~zero] / inner[~zero]
    try:
        value = math.fsum(terms)
    except OverflowError:  # "intermediate overflow": every term finite, their sum is not
        value = INF
    return IntegralDirection(value=float(value), finite=bool(value < guard))


def check_integral_criterion(
    problem: DiscreteProblem, finite_guard: float = DIVERGENCE_GUARD
) -> IntegralCriterionResult:
    """Evaluate both directions of the integral criterion.

    The x->y direction sums ``nu_j / (sum_i P[i,j] mu_i)``; a zero inner
    sum against positive nu-mass makes the value INF.  The y->x direction
    exchanges the roles of the marginals.  ``finite`` means not INF and
    below the divergence guard.  The inner sums add their terms in one
    fixed order, whatever the layout of the kernel matrix, so the
    directions of the transposed problem are these, swapped, bit for bit.
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


def _witness(problem: DiscreteProblem, K_indices, x_indices, coefficients):
    """The witness as tuples of ints and floats; ValueError as
    :func:`check_compact_domination` states."""
    K_indices = tuple(_as_index(i) for i in K_indices)
    x_indices = tuple(_as_index(i) for i in x_indices)
    coefficients = tuple(_as_real(c) for c in coefficients)
    if not K_indices or not x_indices or len(x_indices) != len(coefficients):
        raise ValueError("K nonempty and x_indices/coefficients of equal positive length required")
    if not all(0 <= i < problem.n_x for i in K_indices + x_indices):
        raise ValueError(f"indices must lie in [0, {problem.n_x})")
    if not all(0 < c < math.inf for c in coefficients):
        raise ValueError("coefficients must be finite and positive")
    return K_indices, x_indices, coefficients


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
    K_indices, x_indices, coefficients = _witness(problem, K_indices, x_indices, coefficients)
    P = kernel_matrix(problem)
    target = P[list(K_indices), :].max(axis=0)
    bound = np.asarray(coefficients) @ P[list(x_indices), :]
    bad = np.flatnonzero(target > bound)
    continuity = (
        "asserted-not-checked" if isinstance(problem.kernel, DenseKernel)
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


def suggest_domination_witness(problem: DiscreteProblem, K_indices):
    """Best-effort witness construction: minimal-mass coefficients by LP.

    The candidate base points are the two extreme points of K in one
    dimension and all of K otherwise; the LP keeps those it needs.
    Returns ``(x_indices, coefficients)`` or None when the linear program
    is infeasible over the candidates.  No completeness guarantee.  Raises
    ValueError, before the LP, for a K that :func:`check_compact_domination`
    refuses: empty, or with an index not an integer or outside ``[0, n_x)``.
    """
    from scipy.optimize import linprog

    # x = K with unit coefficients passes whenever K does, so this refuses a bad K alone
    K_indices = list(K_indices)
    K_indices = list(_witness(problem, K_indices, K_indices, [1.0] * len(K_indices))[0])
    cand = K_indices
    if problem.x_space.dim == 1:
        order = np.argsort(problem.x_space.points[K_indices, 0])
        cand = sorted({K_indices[order[0]], K_indices[order[-1]]})

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
) -> MomentConditionResult:
    """Evaluate the exponential-moment condition for a ceiling U.

    ``U`` must hold one finite, strictly positive entry per x point (else
    ``ValueError``); an overflowing psi(U) or phi(U) raises
    ``ExtOverflowError``.  Reports the smallest admissible constant

        c = max_i [ sum_j (P[i,j]/P[x_o,j])^r P[x_o,j] psi(U)_j^{-1} nu_j ] / U_i^r

    with the base point x_o the first x point, under the ``[0, inf]``
    rules, and holds iff c is finite.  The verdict is invariant under
    scaling U -> kappa U.
    """
    U = _check_positive_finite(U, "ceiling U", problem.n_x)
    if r <= 1.0:
        raise ValueError("r must exceed 1")
    psi_U = psi(problem, U)
    phi(problem, U, psi_u=psi_U)  # run for its overflow guard alone

    P = kernel_matrix(problem)
    nu = problem.nu.weights
    base = P[0, :]
    off = base == 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        weights = base * nu / psi_U
        ratios = (P / base) ** r
        ratios[:, weights == 0.0] = 0.0  # a zero weight annihilates its column, INF included
        sums = ratios @ weights
        # a column where the base row vanishes: (P_ij / 0)^r 0 nu_j is INF when P_ij nu_j > 0
        sums[((P[:, off] > 0.0) & (nu[off] > 0.0)).any(axis=1)] = INF
        c_val = np.max(np.divide(sums, U**r, out=np.full_like(sums, INF), where=sums < INF))
    return MomentConditionResult(
        holds=bool(np.isfinite(c_val) and c_val < OVERFLOW_LIMIT),
        c=float(c_val),
        r=float(r),
        x_o_index=0,
    )


def check_radial(t_samples, theta_values, L_candidates) -> RadialResult:
    """Find the smallest cutoff beyond which a sampled profile decays.

    The samples must be finite and strictly positive.  A candidate L
    passes when the profile restricted to sample points >= L is
    non-increasing up to 1e-12; the smallest passing candidate is reported.
    """
    t = np.asarray(t_samples, dtype=float)
    th = np.asarray(theta_values, dtype=float)
    if t.shape != th.shape or t.ndim != 1:
        raise ValueError("t_samples and theta_values must be aligned vectors")
    th = _check_positive_finite(th, "profile samples", t.size)
    order = np.argsort(t)
    t, th = t[order], th[order]
    for L in sorted(float(x) for x in L_candidates):
        tail = th[t >= L]
        if tail.size < 2 or (np.diff(tail) <= 1e-12).all():
            return RadialResult(holds=True, L_found=L)
    return RadialResult(holds=False, L_found=None)


def scaling_certificate(problem: DiscreteProblem) -> ScalingCertificate | None:
    """A verified proof that no scaling ``a P b`` has the marginals, or None.

    On a finite grid existence depends on the zero pattern of P alone: a
    scaling exists iff some matrix with exactly that pattern has the
    marginals mu and nu (Menon 1968; Brualdi 1968), iff no set S of x
    points has mu(S) > nu(N(S)), or mu(S) = nu(N(S)) while
    ``P[X \\ S, N(S)]`` has a positive entry.  A positive P has a scaling,
    so it returns None at once.  Otherwise a maximum flow on the support
    graph -- source to x_i with capacity mu_i, x_i to y_j uncapped where
    ``P[i, j] > 0``, y_j to sink with capacity nu_j -- yields a candidate:

    * a flow short of the mass: S is the x side of a minimum cut;
    * a full flow with an edge (i, j) that carries nothing and lies on no
      residual cycle: S is what y_j reaches in the residual graph.

    The flow is found in floating point, on the normalized marginals,
    with residual capacities at or below ``MARGINAL_MASS_TOL`` counted as
    zero.  The candidate is returned only after an exact check in
    rational arithmetic, so a certificate is always a proof; a mass that
    small can hide one, and then None is returned.

    Points without mass are left out, as :func:`validate_reduction`
    drops them.  An x point with mass and no positive entry, which
    validation refuses, gives a hall certificate: its S contains the
    point.
    """
    P = kernel_matrix(problem)
    if P.min() > 0.0:
        return None
    support = P > 0
    mu, nu = problem.mu.weights, problem.nu.weights
    support &= (mu > 0)[:, None] & (nu > 0)[None, :]
    S = _certificate_candidate(support, mu / mu.sum(), nu / nu.sum())
    return None if S is None else _verified_certificate(support, mu, nu, S)


def _search(fwd: np.ndarray, bwd: np.ndarray, start_x: np.ndarray, start_y: np.ndarray):
    """Breadth-first search over x -> y edges where ``fwd`` and y -> x edges where ``bwd``.

    Both are boolean ``(n_x, n_y)`` matrices; the search starts from the
    points marked in ``start_x`` and ``start_y``.  Returns the x and y
    points reached, the point each was reached from (-1 for a start
    point), and the y points in the order they were reached.
    """
    seen_x, seen_y = start_x.copy(), start_y.copy()
    from_x = np.full(fwd.shape[0], -1)
    from_y = np.full(fwd.shape[1], -1)
    fx, fy = np.flatnonzero(start_x), np.flatnonzero(start_y)
    order = [fy]
    while fx.size or fy.size:
        hit = fwd[fx]
        ny = np.flatnonzero(hit.any(axis=0) & ~seen_y)
        if ny.size:
            from_y[ny] = fx[hit[:, ny].argmax(axis=0)]
            seen_y[ny] = True
            order.append(ny)
        fy = np.concatenate((fy, ny))
        hit = bwd[:, fy]
        fx = np.flatnonzero(hit.any(axis=1) & ~seen_x)
        if fx.size:
            from_x[fx] = fy[hit[fx].argmax(axis=1)]
            seen_x[fx] = True
        fy = fy[:0]
    return seen_x, seen_y, from_x, from_y, np.concatenate(order)


def _augment(flow, free_x, free_y, from_x, from_y, j: int, tol: float) -> None:
    """Push the bottleneck of the search-tree path source ~> y_j -> sink, if above ``tol``.

    The path enters each of its y points along an uncapped support edge
    and leaves it, except at y_j, backward along an edge with flow.
    """
    path = []
    bottleneck = free_y[j]
    y = j
    while True:
        i = from_y[y]
        back = from_x[i]
        path.append((i, y, back))
        if back < 0:
            bottleneck = min(bottleneck, free_x[i])
            break
        bottleneck = min(bottleneck, flow[i, back])
        y = back
    if bottleneck <= tol:
        return
    free_y[j] -= bottleneck
    for i, y, back in path:
        flow[i, y] += bottleneck
        if back < 0:
            free_x[i] -= bottleneck
        else:
            flow[i, back] -= bottleneck


def _certificate_candidate(support: np.ndarray, mu: np.ndarray, nu: np.ndarray):
    """The set S (a boolean mask over x) of a would-be certificate, or None."""
    tol = MARGINAL_MASS_TOL
    n_x, n_y = support.shape
    none_x, none_y = np.zeros(n_x, dtype=bool), np.zeros(n_y, dtype=bool)
    # a feasible start that is positive on every support edge
    deg_x, deg_y = np.maximum(support.sum(axis=1), 1), np.maximum(support.sum(axis=0), 1)
    share = np.minimum((mu / deg_x)[:, None], (nu / deg_y)[None, :])
    flow = np.where(support, share, 0.0)
    free_x = mu - flow.sum(axis=1)
    free_y = nu - flow.sum(axis=0)
    while True:
        seen_x, _, from_x, from_y, order = _search(support, flow > tol, free_x > tol, none_y)
        ends = order[free_y[order] > tol]
        if not ends.size:
            break
        # every path of the search tree is a shortest augmenting path until
        # it is blocked, so push along each in turn before searching again
        for j in ends.tolist():
            _augment(flow, free_x, free_y, from_x, from_y, j, tol)
    if (free_x > tol).any():
        return seen_x
    carries = flow > tol
    idle = support & ~carries
    while idle.any():
        start = none_y.copy()
        start[np.flatnonzero(idle.any(axis=0))[0]] = True
        fwd_x, fwd_y = _search(support, carries, none_x, start)[:2]
        bwd_x, bwd_y = _search(carries, support, none_x, start)[:2]
        # the strongly connected component of the start point
        comp_x, comp_y = fwd_x & bwd_x, fwd_y & bwd_y
        if (idle[:, comp_y] & ~comp_x[:, None]).any():
            return fwd_x
        idle[:, comp_y] = False
    return None


def _verified_certificate(support: np.ndarray, mu: np.ndarray, nu: np.ndarray,
                          S: np.ndarray) -> ScalingCertificate | None:
    """The certificate that ``S`` makes, checked in exact rational arithmetic, or None."""
    from fractions import Fraction

    def exact(w: np.ndarray) -> Fraction:
        return sum(map(Fraction, w.tolist()), Fraction(0))

    reach = support[S].any(axis=0)
    lhs = exact(mu[S]) * exact(nu)
    rhs = exact(nu[reach]) * exact(mu)
    if lhs > rhs:
        kind = "hall"
    elif lhs == rhs and support[~S][:, reach].any():
        kind = "tight"
    else:
        return None
    return ScalingCertificate(
        kind=kind,
        side="x",
        indices=tuple(np.flatnonzero(S).tolist()),
        reach=tuple(np.flatnonzero(reach).tolist()),
        mass=math.fsum(mu[S]),
        reach_mass=math.fsum(nu[reach]),
    )


def full_report(problem: DiscreteProblem, finite_guard: float = DIVERGENCE_GUARD) -> CriteriaReport:
    """Assemble the criteria every problem gets.

    The scaling certificate is always sought (see
    :func:`scaling_certificate`).  The radial check runs automatically for
    radial-kind kernels, on 512 samples of the profile and 101 candidate
    cutoffs up to the largest distance on the grid; a profile that
    underflows to 0 there fails it, with no cutoff found.  ``domination``
    and ``moment`` stay None; a caller with a witness or a ceiling adds
    them with ``dataclasses.replace``.
    """
    P = kernel_matrix(problem)
    radial = None
    if isinstance(problem.kernel, RadialKernel):
        blocks = distance_blocks(problem.x_space.points, problem.y_space.points)
        top = max(1.0, *(float(r.max()) for _, r in blocks))
        t = np.linspace(0.0, top, 512)
        with np.errstate(all="ignore"):
            theta = np.asarray(problem.kernel.profile(t), dtype=float)
        radial = (check_radial(t, theta, np.linspace(0.0, top, 101)) if (theta > 0).all()
                  else RadialResult(holds=False, L_found=None))
    sup = float(P.max())
    return CriteriaReport(
        positivity=bool(P.min() > 0.0),
        boundedness=sup < INF,
        sup_kernel=sup,
        integral=check_integral_criterion(problem, finite_guard),
        scaling=scaling_certificate(problem),
        radial=radial,
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
