"""Fixed-point machinery for the discrete Schrödinger system.

The unknown is a positive potential ``u`` over the x grid.  Its dual over
the y grid is ``psi(u)_j = sum_i P[i,j] mu_i / u_i`` and the return map is
``phi(u)_i = sum_j P[i,j] nu_j / psi(u)_j``; positive fixed points of
``phi`` solve the system, and the coupling is recovered from
``a = mu/u``, ``b = nu/psi(u)``, ``pi = a P b``.

Two iteration schemes ``u_{n+1} = clamp_n(phi(u_n))`` run on one loop: the
truncated scheme

    u_{n+1} = max(U/(n+1), min(phi(u_n), U)),   u_1 = U,

which decreases monotonically, stays within [U/n, U], and keeps every
iterate strictly positive; and the plain scheme ``u_{n+1} = phi(u_n)``
(the identity clamp), the classical potential form of Sinkhorn /
iterative proportional fitting.  The truncated scheme's default ceiling
for a kernel given on points is shaped by a plain solve of the problem
itself, and from it the run takes the rescaled step

    u_{n+1} = max(U/(n+1), min(s_n phi(u_n), u_n)),   s_n = min(1, min_i u_i / phi_i(u_n)),

which keeps the same bounds (see :func:`solve_fortet`).  Either scheme
starts from a finite, strictly positive vector, checked once at entry;
ends converged-positive, degenerate-zero, max-iter, or divergent (a step
past the overflow guard); and rejects ``tol`` below ``MIN_TOL``.  Inside the loop a step runs as
two bare BLAS matvecs when scalar bounds on the kernel and the iterate
rule out every overflow guard and a vanishing ``psi``, and as the public
``psi`` and ``phi`` otherwise (see ``_dual_step``).  A log-domain Sinkhorn
solver is included as an independent baseline, plus the kernel twisting
transform ``p -> alpha(x) beta(y) p`` under which the coupling is invariant.

All maps are pure with respect to the problem; sums inside a map may be
evaluated in parallel over the output index, while the solver loops are
sequential in n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .extnum import (
    ExtOverflowError,
    INF,
    OVERFLOW_LIMIT,
    as_ext_array,
    ext_matvec,
    scaled_inverse,
)
from .problem import DiscreteProblem, DenseKernel, kernel_matrix, takes_plain_start

STATUS_CONVERGED = "converged-positive"
STATUS_DEGENERATE = "degenerate-zero"
STATUS_MAX_ITER = "max-iter"
STATUS_DIVERGENT = "divergent"

#: Collapse to the trivial zero fixed point is declared once, while still
#: decreasing, min phi falls below this multiple of min U (truncated scheme)
#: or ``min_i phi_i(u_n) / phi_i(u_1)`` below it (plain scheme).
DEGENERATE_CUTOFF = 1e-13

#: ``tol`` of the plain solve that shapes a default ceiling; the ceiling
#: needs the shape of the potential, not its last digits.
PLAIN_START_TOL = 1e-6

#: the smallest ``tol`` the solvers accept: 4 eps.  Below a few eps the
#: stopping test can sit under the rounding noise of one step and never pass.
MIN_TOL = 4 * float(np.finfo(float).eps)


class NonFiniteIntermediate(RuntimeError):
    """An operation that requires finite duals met an infinite one."""


class MonotonicityViolated(RuntimeError):
    """An iterate of the truncated scheme exceeded its predecessor somewhere."""


class DegeneratePotential(ValueError):
    """Solution extraction was attempted from a zero or infinite potential."""


class MaxIterExceeded(RuntimeError):
    """An iteration budget ran out."""

    def __init__(self, message: str, iterations: int = 0):
        super().__init__(message)
        self.iterations = iterations


@dataclass
class TraceRecord:
    """One scheme step: statistics of u_n and of phi(u_n)."""

    n: int
    min_u: float
    max_u: float
    residual: float
    min_phi: float
    normalization: float


@dataclass
class SchemeState:
    """State of the truncated scheme after n steps (u is u_n)."""

    n: int
    u: np.ndarray
    ceiling: np.ndarray
    phi_u: np.ndarray | None = None
    early_exit_index: int | None = None


@dataclass
class FixedPointResult:
    u_star: np.ndarray
    iterations: int
    residual: float
    trace: list[TraceRecord]
    status: str
    early_exit_index: int | None = None
    psi_star: np.ndarray | None = field(default=None, repr=False)
    #: iterations of the plain solve that shaped the default ceiling; None without one
    plain_iterations: int | None = None


@dataclass
class SchrodingerSolution:
    """Measures a, b and diagnostics; the coupling pi = a P b is built on demand.

    ``factors`` is ``(a', P', b')`` with ``pi = a' P' b'``: the scalings
    and the kernel they were solved on.  It is ``(a, P, b)`` for a solution
    of the problem itself, and the twisted triple after
    :func:`untwist_solution`.  ``P'`` is the problem's cached kernel, not a
    copy, so a solution holds no n_x x n_y array of its own.
    """

    a: np.ndarray
    b: np.ndarray
    marginal_err_x: float
    marginal_err_y: float
    rel_entropy: float
    factors: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False, compare=False)

    def pi_rows(self, rows: slice) -> np.ndarray:
        """The rows ``rows`` of the coupling ``a' P' b'``, as a new array."""
        a, P, b = self.factors
        return a[rows, None] * P[rows] * b[None, :]

    @property
    def pi(self) -> np.ndarray:
        """The dense coupling ``a' P' b'``, a new n_x x n_y array on each access."""
        return self.pi_rows(slice(None))


# ---------------------------------------------------------------------------
# The dual maps
# ---------------------------------------------------------------------------


_VANISHED_DUAL = "dual of a finite potential vanished somewhere; is the problem reduced?"


def _dual_step(problem: DiscreteProblem):
    """``u -> (psi(u), phi(u))`` for a finite, strictly positive ``u``.

    Both schemes call this instead of :func:`psi` and :func:`phi`: their
    potentials are checked finite and strictly positive once, at entry.
    When scalar bounds rule out the four overflow guards and a vanishing
    ``psi``, a step is two divisions and two BLAS matvecs; otherwise it is
    :func:`psi` and :func:`phi` themselves, which run every check and
    raise each error.  The bounds are taken once per kernel (the largest
    column sum ``C`` and row sum ``R`` of ``P``, its smallest column peak
    ``p = min_j max_i P_ij``, and the extremes of ``mu`` and ``nu``) and
    per step (``lo = min u``, ``hi = max u``):

    * ``mu/u <= fl(max mu / lo)`` and ``nu/psi <= fl(max nu / psi_lo)``,
      as correctly rounded division is monotone;
    * ``psi <= 2 C max(mu/u)`` and ``phi <= 2 R max(nu/psi)``, as a
      rounded sum of nonnegative terms is within ``1 + gamma_n`` of the
      exact one (Higham 2002, section 4.2);
    * ``psi >= psi_lo = fl(p fl(min mu / hi))``, as such a sum is at least
      its largest rounded term.

    ``2 C`` and ``2 R`` are clamped to at least 1, so each bound also
    bounds its own quotient.  The fast path computes what the public maps
    compute when no check trips, so the iterates are bitwise theirs.
    """
    P = kernel_matrix(problem)
    PT = P.T
    mu = problem.mu.weights
    nu = problem.nu.weights
    bound_x = max(1.0, 2.0 * float(np.max(P.sum(axis=0))))  # psi <= bound_x * max(mu/u)
    bound_y = max(1.0, 2.0 * float(np.max(P.sum(axis=1))))  # phi <= bound_y * max(nu/psi)
    col_peak = float(np.min(P.max(axis=0)))
    mu_max, mu_min, nu_max = float(np.max(mu)), float(np.min(mu)), float(np.max(nu))
    lowest, highest = np.minimum.reduce, np.maximum.reduce

    def step(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ps_lo = col_peak * (mu_min / float(highest(u)))
        if (ps_lo > 0.0 and bound_x * (mu_max / float(lowest(u))) <= OVERFLOW_LIMIT
                and bound_y * (nu_max / ps_lo) <= OVERFLOW_LIMIT):
            ps = PT @ (mu / u)
            return ps, P @ (nu / ps)
        ps = psi(problem, u)
        return ps, phi(problem, u, psi_u=ps)

    return step


def psi(problem: DiscreteProblem, u: np.ndarray) -> np.ndarray:
    """Dual potential over the y grid: psi_j = sum_i P[i,j] mu_i / u_i.

    ``u`` is an extended vector (entries in [0, inf]); infinities are
    legal values in and out.  For finite ``u`` every entry of the result
    is strictly positive on a reduced problem.
    """
    u = as_ext_array(u)
    if u.shape != (problem.n_x,):
        raise ValueError(f"potential has shape {u.shape}, expected ({problem.n_x},)")
    out = ext_matvec(kernel_matrix(problem).T, scaled_inverse(problem.mu.weights, u))
    if np.isfinite(u).all() and not (out > 0).all():
        raise NonFiniteIntermediate(_VANISHED_DUAL)
    return out


def phi(problem: DiscreteProblem, u: np.ndarray, psi_u: np.ndarray | None = None) -> np.ndarray:
    """Return map over the x grid: phi_i = sum_j P[i,j] nu_j / psi_j."""
    psi_u = psi(problem, u) if psi_u is None else psi_u
    return ext_matvec(kernel_matrix(problem), scaled_inverse(problem.nu.weights, psi_u))


def normalization_check(problem: DiscreteProblem, u: np.ndarray) -> float:
    """Return sum_i (phi(u)_i / u_i) mu_i, which equals 1 for positive u.

    The raw value is returned for diagnostics; the identity holds up to
    accumulation error for any strictly positive finite potential on a
    validated problem.
    """
    u = _check_positive_finite(u, "potential", problem.n_x)
    # mu/u is under psi's overflow guard; phi/u alone may overflow when mu_i is tiny
    return math.fsum(scaled_inverse(problem.mu.weights, u) * phi(problem, u))


def restricted_normalization(problem: DiscreteProblem, u: np.ndarray) -> tuple[float, float]:
    """Both sides of the mass identity for a potential with possible zeros.

    Left: the mu-integral of phi(u)/u restricted to the set where phi(u)
    is positive (extended-real valued).  Right: the nu-mass of the y
    points where psi(u) is finite.  The two agree for any 0 <= u <= U
    with psi(U) finite.
    """
    ps = psi(problem, u)
    ph = phi(problem, u, psi_u=ps)
    if np.isinf(ph).any():
        raise NonFiniteIntermediate("phi has infinite entries")
    lhs = math.fsum(scaled_inverse(problem.mu.weights * ph, u))
    rhs = math.fsum(problem.nu.weights[np.isfinite(ps)])
    return lhs, rhs


# ---------------------------------------------------------------------------
# Truncated scheme
# ---------------------------------------------------------------------------


def _clamp_step(phi_u: np.ndarray, ceiling: np.ndarray, n_next: int) -> np.ndarray:
    # inner min first, then the floor, exactly as the scheme is written
    return np.maximum(ceiling / n_next, np.minimum(phi_u, ceiling))


def _rescaled_step(phi_u: np.ndarray, u: np.ndarray, ceiling: np.ndarray,
                   n_next: int) -> np.ndarray:
    """``max(U/(n+1), min(s phi(u_n), u_n))`` with ``s = min(1, min_i u_i / phi_i(u_n))``.

    ``s phi`` lies under ``u`` but for the last ulp of the product, which
    the inner min with ``u`` absorbs; so the step decreases monotonically,
    stays under ``U`` and above the floor ``U/n``, as the clamp does.
    """
    s = min(1.0, float(np.minimum.reduce(u / phi_u)))
    return np.maximum(ceiling / n_next, np.minimum(s * phi_u, u))


def iterate_truncated(state: SchemeState, problem: DiscreteProblem) -> SchemeState:
    """One step of the truncated scheme; records the early-exit index.

    The early-exit index is the first n at which phi(u_n) <= U holds
    everywhere; from that point on the limit is guaranteed positive and
    the ceiling clamp no longer binds at the fixed point.
    """
    phi_u = phi(problem, state.u)
    early = state.early_exit_index
    if early is None and (phi_u <= state.ceiling).all():
        early = state.n
    u_next = _clamp_step(phi_u, state.ceiling, state.n + 1)
    return SchemeState(
        n=state.n + 1,
        u=u_next,
        ceiling=state.ceiling,
        phi_u=phi_u,
        early_exit_index=early,
    )


def _check_positive_finite(vec: np.ndarray, name: str, size: int,
                           error: type[ValueError] = ValueError) -> np.ndarray:
    """``vec`` as a float array; ``ValueError`` for a wrong shape, a NaN or a
    negative entry, and ``error`` for a zero or infinite one."""
    vec = as_ext_array(vec)
    if vec.shape != (size,):
        raise ValueError(f"{name} must have one entry per grid point ({size})")
    if np.isinf(vec).any() or (vec <= 0).any():
        raise error(f"{name} must be strictly positive and finite")
    return vec


def _check_budget(tol: float, max_iter: int) -> None:
    if not tol >= MIN_TOL or max_iter < 1:  # NaN included
        raise ValueError(f"tol must be at least {MIN_TOL:.3g} and max_iter at least 1")


@np.errstate(over="ignore")  # |phi - u|/u, up to 1/mu_i, may overflow: rel reads inf
def _iterate(problem, u, tol, max_iter, trace, *, advance, target, scale,
             degenerate_below, per_index=False, ceiling=None,
             check_dichotomy=False) -> FixedPointResult:
    """The loop of both schemes, ``u_{n+1} = advance(phi(u_n))`` from ``u_1 = u``.

    ``u`` is finite and strictly positive, and so is every iterate the
    loop steps from, so each step is :func:`_dual_step`.
    ``advance(phi_u, u, n + 1)`` is ``u_{n+1}`` and its sup relative
    change from ``u``.  The run converges once that change is at most
    ``tol`` and ``max |u - target(phi(u))|`` at most ``tol * scale(u)``;
    it is degenerate-zero once its level falls below ``degenerate_below``
    while still decreasing, and divergent once a step passes the overflow
    guard or the iterate lies above it.  The early-exit index is the first
    n with ``phi(u_n) <= ceiling``.  The level is min phi, or with
    ``per_index`` ``min_i phi_i(u_n) / phi_i(u_1)``, each index against its
    own first value (0 when phi vanishes somewhere).  With
    ``check_dichotomy``, a phi that vanishes at some points but not all
    raises.
    """
    records: list[TraceRecord] = []
    early_exit: int | None = None
    prev_level = INF
    status = STATUS_MAX_ITER
    step = _dual_step(problem)
    n = 1
    try:
        ps, ph = step(u)
        first_phi = ph
        while True:
            min_phi = float(np.minimum.reduce(ph))
            if early_exit is None and ceiling is not None and (ph <= ceiling).all():
                early_exit = n
            if min_phi == 0.0 and check_dichotomy and float(np.max(ph)) != 0.0:
                raise NonFiniteIntermediate(
                    "dichotomy violated: phi vanished at some points but not all"
                )
            level = min_phi
            if per_index and min_phi > 0.0:  # then first_phi > 0 too, or the run ended at n = 1
                level = float(np.minimum.reduce(ph / first_phi))
            if level < degenerate_below and level < prev_level:
                status = STATUS_DEGENERATE
                break
            prev_level = level

            u_next, rel = advance(ph, u, n + 1)
            if trace:
                records.append(
                    TraceRecord(
                        n=n,
                        min_u=float(np.min(u)),
                        max_u=float(np.max(u)),
                        residual=rel,
                        min_phi=min_phi,
                        normalization=float(np.dot(problem.mu.weights / u, ph)),
                    )
                )
            u = u_next
            n += 1
            ps, ph = step(u)
            if rel <= tol and float(np.max(np.abs(u - target(ph)))) <= tol * scale(u):
                status = STATUS_CONVERGED
                break
            if n > max_iter:
                break
        residual = float(np.max(np.abs(u - target(ph))))
    except ExtOverflowError:
        status = STATUS_DIVERGENT
        residual = INF
        ps = None
    if float(np.max(u)) > OVERFLOW_LIMIT:
        status = STATUS_DIVERGENT

    return FixedPointResult(u_star=u, iterations=n - 1, residual=residual, trace=records,
                            status=status, early_exit_index=early_exit, psi_star=ps)


def _plain_ceiling(problem: DiscreteProblem, max_iter: int) -> tuple[np.ndarray, int] | None:
    """The default ceiling shaped by a plain solve, and that solve's iterations.

    For a problem that takes the plain start (:func:`problem.takes_plain_start`),
    the plain scheme runs on the problem itself to ``PLAIN_START_TOL``
    from all ones, and its potential ``u`` gives ``U = u / max(u)``.
    None for any other problem, and when the run raises
    :class:`NonFiniteIntermediate` or does not converge within
    ``max_iter``, or ``U`` is not finite and strictly positive.
    """
    if not takes_plain_start(problem):
        return None
    try:
        result = solve_untruncated(problem, tol=PLAIN_START_TOL, max_iter=max_iter)
    except NonFiniteIntermediate:
        return None
    if result.status != STATUS_CONVERGED:
        return None
    with np.errstate(all="ignore"):  # a potential past the float range is refused below
        U = result.u_star / np.max(result.u_star)
    if not (np.isfinite(U).all() and (U > 0).all()):
        return None
    return U, result.iterations


def solve_fortet(
    problem: DiscreteProblem,
    U: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    trace: bool = False,
) -> FixedPointResult:
    """Run the truncated scheme from u_1 = U until the iterate settles.

    ``U=None`` asks for the best default ceiling the problem allows.  For
    a Gaussian or radial kernel on a grid with at least
    ``problem.PLAIN_START_MIN_POINTS`` points a side, that is the
    normalized potential of a plain solve of the problem itself
    (:func:`_plain_ceiling`; its iterations are ``plain_iterations``),
    and the run takes the rescaled step (:func:`_rescaled_step`) instead
    of the clamp, since from a shaped ceiling the clamp stalls: the floor
    ``U/n`` then holds indices far longer than from ``U = 1``.
    Otherwise, and when the plain start fails, ``U`` is all ones with the
    clamp; a start that fails has then spent up to ``max_iter`` plain
    iterations before the clamp run.  A given ``U`` always runs the clamp.

    The rescaled step keeps the clamp's guarantees: each iterate lies in
    ``[U/n, U]`` and under its predecessor.  Its limit, when positive, is
    a fixed point of ``phi``: there the floor no longer binds, and
    ``u = min(s phi(u), u)`` with ``s phi(u) <= u`` gives ``s phi(u) = u``;
    the identity ``sum_i mu_i phi_i(u) / u_i = 1``
    (:func:`normalization_check`) then reads ``1 / s = 1``, so ``s = 1``
    and ``phi(u) = u``.  The fixed point is unique up to scale, so the
    coupling is that of the clamp run; only the scale of ``u_star``
    differs.

    Stops when the sup relative change of u drops to ``tol`` *and* the
    fixed-point residual is small: ``||u - min(phi(u), U)||_inf`` at most
    ``tol * ||U||_inf`` under the clamp, ``||u - phi(u)||_inf`` at most
    ``tol * ||u||_inf`` under the rescaled step; the returned status is
    then converged-positive.  Collapse of phi toward zero (below
    ``DEGENERATE_CUTOFF * min U`` while still decreasing) reports
    degenerate-zero, a step past the overflow guard reports divergent,
    and an exhausted budget reports max-iter.  ``tol`` must be at least
    ``MIN_TOL``.
    """
    _check_budget(tol, max_iter)
    shaped = _plain_ceiling(problem, max_iter) if U is None else None
    plain_iterations = None
    if shaped is not None:
        U, plain_iterations = shaped
    else:
        U = _check_positive_finite(np.ones(problem.n_x) if U is None else U, "ceiling U",
                                   problem.n_x)
    sup_U = float(np.max(U))

    def advance(phi_u: np.ndarray, u: np.ndarray, n_next: int):
        if shaped is None:
            u_next = _clamp_step(phi_u, U, n_next)
        else:
            u_next = _rescaled_step(phi_u, u, U, n_next)
        if not (u_next <= u).all():
            raise MonotonicityViolated("monotone decrease of the truncated scheme violated")
        # every iterate lies in [U/n, U]: finite and strictly positive; and
        # u - u_next is |u_next - u| bit for bit, as it is nonnegative
        return u_next, float(np.maximum.reduce((u - u_next) / u))

    if shaped is None:
        target, scale = (lambda phi_u: np.minimum(phi_u, U)), (lambda u: sup_U)
    else:
        target, scale = (lambda phi_u: phi_u), (lambda u: float(np.max(u)))
    result = _iterate(problem, U.copy(), tol, max_iter, trace, advance=advance,
                      target=target, scale=scale,
                      degenerate_below=DEGENERATE_CUTOFF * float(np.min(U)), ceiling=U,
                      check_dichotomy=bool((kernel_matrix(problem) > 0).all()))
    result.plain_iterations = plain_iterations
    return result


def solve_untruncated(
    problem: DiscreteProblem,
    u1: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    trace: bool = False,
) -> FixedPointResult:
    """Plain iteration u_{n+1} = phi(u_n) from u_1 (default all ones).

    Without the positivity floor the iteration may collapse to the zero
    fixed point (status degenerate-zero: ``min_i phi_i(u_n) / phi_i(u_1)``
    below ``DEGENERATE_CUTOFF`` while still decreasing, so each index is
    measured against its own scale) or blow up past the overflow guard
    (status divergent).  ``u1`` must be finite and strictly
    positive, like the ceiling of :func:`solve_fortet`; ``tol`` must be
    at least ``MIN_TOL``.
    """
    _check_budget(tol, max_iter)
    if u1 is None:
        u1 = np.ones(problem.n_x)
    u = _check_positive_finite(u1, "start u1", problem.n_x).copy()

    def advance(phi_u: np.ndarray, u: np.ndarray, n_next: int):
        return phi_u, float(np.maximum.reduce(np.abs(phi_u - u) / u))

    return _iterate(problem, u, tol, max_iter, trace, advance=advance,
                    target=lambda phi_u: phi_u, scale=lambda u: float(np.max(u)),
                    degenerate_below=DEGENERATE_CUTOFF, per_index=True)


# ---------------------------------------------------------------------------
# Solution extraction and the Sinkhorn baseline
# ---------------------------------------------------------------------------


def _marginals(a: np.ndarray, P: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of ``pi = a P b`` from two matvecs: ``a (P b)`` and ``b (P^T a)``."""
    return a * (P @ b), b * (P.T @ a)


def _solution(problem: DiscreteProblem, a: np.ndarray, b: np.ndarray) -> SchrodingerSolution:
    """The solution with scalings ``a``, ``b``, rescaled to sum(a) = 1 (pi unchanged).

    The diagnostics need no dense pi.  With row sums ``r`` and column sums
    ``c`` from :func:`_marginals`, and since
    ``log(pi_ij / (P_ij wx_i wy_j)) = log(a_i/wx_i) + log(b_j/wy_j)`` on
    the support of pi, the entropy of pi relative to ``P wx wy`` is
    ``sum_i r_i log(a_i/wx_i) + sum_j c_j log(b_j/wy_j)``; points that
    carry no mass add nothing.
    """
    s = float(a.sum())
    a = a / s
    b = b * s
    P = kernel_matrix(problem)
    rows, cols = _marginals(a, P, b)

    def entropy_part(mass: np.ndarray, scaling: np.ndarray, weights: np.ndarray) -> float:
        on = mass > 0
        return float(np.dot(mass[on], np.log(scaling[on] / weights[on])))

    return SchrodingerSolution(
        a=a,
        b=b,
        marginal_err_x=float(np.max(np.abs(rows - problem.mu.weights))),
        marginal_err_y=float(np.max(np.abs(cols - problem.nu.weights))),
        rel_entropy=entropy_part(rows, a, problem.x_space.weights)
        + entropy_part(cols, b, problem.y_space.weights),
        factors=(a, P, b),
    )


def extract_solution(
    problem: DiscreteProblem,
    u_star: np.ndarray,
    psi_star: np.ndarray | None = None,
) -> SchrodingerSolution:
    """Build the measures from a positive finite potential.

    ``a = mu/u``, ``b = nu/psi(u)``, and the coupling ``pi[i,j] =
    a_i P[i,j] b_j`` is exact by construction and built only when
    :attr:`SchrodingerSolution.pi` is read.  The free scale is fixed by
    normalizing sum(a) = 1, which leaves pi unchanged.  ``u_star`` needs
    one entry per x point and ``psi_star`` one per y point; a wrong shape,
    a NaN or a negative entry raises ``ValueError``, a zero or infinite
    one :class:`DegeneratePotential`.
    """
    u_star = _check_positive_finite(u_star, "potential", problem.n_x, DegeneratePotential)
    if psi_star is None:
        psi_star = psi(problem, u_star)
    psi_star = _check_positive_finite(psi_star, "dual potential", problem.n_y,
                                      DegeneratePotential)
    return _solution(problem, problem.mu.weights / u_star, problem.nu.weights / psi_star)


def potential_from_solution(problem: DiscreteProblem, solution: SchrodingerSolution) -> np.ndarray:
    """Recover the potential u = mu / a underlying a solution."""
    return problem.mu.weights / solution.a


def _logsumexp(t: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(t), axis))`` for a finite ``t``, overwriting ``t``.

    Runs the finite path of ``scipy.special.logsumexp`` (scipy 1.17)
    operation for operation, so the result is bitwise equal to it: split
    the maxima out of the sum and count them (``m``), exponentiate the
    rest shifted by the max, sum, and return ``log1p(s/m) + log(m) + max``.
    scipy's second, unshifted ``log(sum(exp(t)))`` replaces only results
    that are not finite, which a finite ``t`` of moderate size never gives,
    so it is left out.
    """
    t_max = t.max(axis=axis, keepdims=True)
    at_max = t == t_max
    m = np.count_nonzero(at_max, axis=axis, keepdims=True).astype(float)
    np.putmask(t, at_max, -INF)
    t -= t_max
    np.exp(t, out=t)
    s = t.sum(axis=axis, keepdims=True) / m
    return (np.log1p(s) + np.log(m) + t_max).squeeze(axis)


def sinkhorn_baseline(
    problem: DiscreteProblem,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> SchrodingerSolution:
    """Log-domain Sinkhorn / IPF on the kernel matrix.

    Alternates b <- nu / (P^T a) and a <- mu / (P b) in log space until
    both marginal sup-residuals are at most ``tol``.  Serves as the
    independent oracle for the Fortet solver; requires a strictly
    positive kernel and, like the Fortet solvers, ``tol`` at least
    ``MIN_TOL``.  Besides the cached kernel it holds ``log P`` and one
    work array of the same shape.
    """
    _check_budget(tol, max_iter)
    P = kernel_matrix(problem)
    if not (P > 0).all():
        raise ValueError("sinkhorn_baseline requires a strictly positive kernel")
    logP = np.log(P)
    work = np.empty_like(logP)
    logmu = np.log(problem.mu.weights)
    lognu = np.log(problem.nu.weights)
    f = np.zeros(problem.n_x)
    g = lognu - _logsumexp(np.add(logP, f[:, None], out=work), axis=0)
    for it in range(1, max_iter + 1):
        f = logmu - _logsumexp(np.add(logP, g[None, :], out=work), axis=1)
        # rows are exact after the f update; only the column error remains
        col_log = _logsumexp(np.add(logP, f[:, None], out=work), axis=0)
        col_err = float(np.max(np.abs(np.exp(g + col_log) - problem.nu.weights)))
        if col_err <= tol:
            break
        g = lognu - col_log
    else:
        raise MaxIterExceeded(
            f"sinkhorn did not reach tol={tol:g} in {max_iter} iterations",
            iterations=max_iter,
        )
    return _solution(problem, np.exp(f), np.exp(g))


# ---------------------------------------------------------------------------
# Twisting
# ---------------------------------------------------------------------------


def twist(problem: DiscreteProblem, alpha: np.ndarray, beta: np.ndarray) -> DiscreteProblem:
    """Replace the kernel by alpha(x) beta(y) p(x, y); marginals unchanged."""
    alpha = _check_positive_finite(alpha, "alpha", problem.n_x)
    beta = _check_positive_finite(beta, "beta", problem.n_y)
    P = kernel_matrix(problem)
    return DiscreteProblem(
        x_space=problem.x_space,
        y_space=problem.y_space,
        mu=problem.mu,
        nu=problem.nu,
        kernel=DenseKernel(alpha[:, None] * P * beta[None, :]),
    )


def untwist_solution(
    solution: SchrodingerSolution, alpha: np.ndarray, beta: np.ndarray
) -> SchrodingerSolution:
    """Map a solution of the twisted problem back to the original kernel.

    The measures transform by (a, b) -> (alpha * a, beta * b); the
    coupling is untouched, and still built from the twisted factors.  The
    relative entropy is restated against the original reference, which
    shifts it by the pi-averaged log twists.
    """
    alpha = _check_positive_finite(alpha, "alpha", solution.a.size)
    beta = _check_positive_finite(beta, "beta", solution.b.size)
    a = alpha * solution.a
    b = beta * solution.b
    s = float(a.sum())
    rows, cols = _marginals(*solution.factors)
    shift = float(np.dot(rows, np.log(alpha)) + np.dot(cols, np.log(beta)))
    return SchrodingerSolution(
        a=a / s,
        b=b * s,
        marginal_err_x=solution.marginal_err_x,
        marginal_err_y=solution.marginal_err_y,
        rel_entropy=solution.rel_entropy + shift,
        factors=solution.factors,
    )
