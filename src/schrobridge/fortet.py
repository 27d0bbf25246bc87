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
iterative proportional fitting.  :func:`solve_fortet` runs the first
from a given ceiling and the second otherwise.  Either scheme starts from a
finite, strictly positive vector, checked once at entry; ends
converged-positive, degenerate-zero, max-iter, or divergent (a step past
the overflow guard); and rejects ``tol`` below ``MIN_TOL``.  Inside the
loop a step is two BLAS matvecs that guard the vectors they hold as the
public ``psi`` and ``phi`` do (see ``_dual_step``).  A Sinkhorn solver
stabilized by absorption is included as an independent baseline, plus
the kernel twisting transform ``p -> alpha(x) beta(y) p`` under which the
coupling is invariant.

All maps are pure with respect to the problem; sums inside a map may be
evaluated in parallel over the output index, while the solver loops are
sequential in n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .extnum import (
    _INVERSE_OVERFLOW,
    _MATVEC_OVERFLOW,
    ExtOverflowError,
    INF,
    OVERFLOW_LIMIT,
    as_ext_array,
    ext_matvec,
    scaled_inverse,
)
from .problem import DiscreteProblem, DenseKernel, kernel_matrix

STATUS_CONVERGED = "converged-positive"
STATUS_DEGENERATE = "degenerate-zero"
STATUS_MAX_ITER = "max-iter"
STATUS_DIVERGENT = "divergent"

#: Collapse to the trivial zero fixed point is declared once, while still
#: decreasing, min phi falls below this multiple of min U (truncated scheme)
#: or ``min_i phi_i(u_n) / phi_i(u_1)`` below it (plain scheme).
DEGENERATE_CUTOFF = 1e-13

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
    #: the scheme that produced ``u_star``: "untruncated" (plain) or "truncated" (clamp)
    scheme: str
    early_exit_index: int | None = None
    psi_star: np.ndarray | None = field(default=None, repr=False)


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

    @property
    def pi(self) -> np.ndarray:
        """The dense coupling ``a' P' b'``, a new n_x x n_y array on each access."""
        a, P, b = self.factors
        return a[:, None] * P * b[None, :]


# ---------------------------------------------------------------------------
# The dual maps
# ---------------------------------------------------------------------------


_VANISHED_DUAL = ("dual of a finite potential vanished somewhere: mu/u underflowed, "
                  "or the problem is not reduced")


def _dual_step(problem: DiscreteProblem):
    """``u -> (psi(u), phi(u))`` for a finite, strictly positive ``u``.

    Both schemes call this instead of :func:`psi` and :func:`phi`: their
    potentials are checked finite and strictly positive once, at entry.
    A step is two divisions and two BLAS matvecs, and it guards each
    vector it holds as the public maps do, in their order and with their
    errors: ``mu/u`` and ``psi`` above ``OVERFLOW_LIMIT``, a ``psi`` that
    vanishes somewhere, then ``nu/psi`` and ``phi`` above the limit.  On
    a finite, strictly positive ``u`` the public maps compute the same
    values, so the iterates are bitwise theirs.
    """
    P = kernel_matrix(problem)
    PT = P.T
    mu = problem.mu.weights
    nu = problem.nu.weights

    def guard(v: np.ndarray, message: str) -> np.ndarray:
        if np.maximum.reduce(v) > OVERFLOW_LIMIT:
            raise ExtOverflowError(message)
        return v

    @np.errstate(over="ignore")  # an overflow reads inf and trips its guard
    def step(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ps = guard(PT @ guard(mu / u, _INVERSE_OVERFLOW), _MATVEC_OVERFLOW)
        if not np.minimum.reduce(ps) > 0.0:
            raise NonFiniteIntermediate(_VANISHED_DUAL)
        return ps, guard(P @ guard(nu / ps, _INVERSE_OVERFLOW), _MATVEC_OVERFLOW)

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


def _residual(u: np.ndarray, phi_u: np.ndarray, U: np.ndarray | None) -> float:
    """``max |u - phi(u)|``, or with a ceiling ``max |u - min(phi(u), U)|``."""
    return float(np.max(np.abs(u - (phi_u if U is None else np.minimum(phi_u, U)))))


@np.errstate(over="ignore")  # |u_next - u|/u, up to 1/mu_i, may overflow: rel reads inf
def _iterate(problem, u, tol, max_iter, trace, U=None) -> FixedPointResult:
    """The loop of both schemes, ``u_{n+1} = clamp_n(phi(u_n))`` from ``u_1 = u``.

    ``U=None`` is the plain scheme, the identity clamp; a ceiling ``U`` is
    the truncated scheme, :func:`_clamp_step`, whose iterates may not
    increase anywhere.  ``u`` and every iterate the loop steps from are
    finite and strictly positive, so each step is :func:`_dual_step`.  The
    run converges once ``max |u_{n+1} - u_n| / u_n <= tol`` and
    :func:`_residual` is at most ``tol * max u`` (``tol * max U`` with a
    ceiling).  It is degenerate-zero once its level falls below the cutoff
    while still decreasing: ``min_i phi_i(u_n) / phi_i(u_1)`` (0 when phi
    vanishes somewhere) against ``DEGENERATE_CUTOFF``, or with ``U``,
    ``min phi`` against ``DEGENERATE_CUTOFF * min U``.  It is divergent once
    a step passes the overflow guard or the iterate lies above it.  With
    ``U`` the early-exit index is the first n with ``phi(u_n) <= U``, and
    on a positive kernel a phi that vanishes at some points but not all
    raises.
    """
    if U is None:
        cutoff = DEGENERATE_CUTOFF
    else:
        cutoff = DEGENERATE_CUTOFF * float(np.min(U))
        sup_U = float(np.max(U))
        check_dichotomy = bool(kernel_matrix(problem).min() > 0.0)
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
            level = min_phi = float(np.minimum.reduce(ph))
            if U is None and min_phi > 0.0:  # then first_phi > 0 too, or the run ended at n = 1
                level = float(np.minimum.reduce(ph / first_phi))
            if U is not None:
                if early_exit is None and (ph <= U).all():
                    early_exit = n
                if min_phi == 0.0 and check_dichotomy and float(np.max(ph)) != 0.0:
                    raise NonFiniteIntermediate("dichotomy violated: phi vanished at some "
                                                "points but not all")
            if level < cutoff and level < prev_level:
                status = STATUS_DEGENERATE
                break
            prev_level = level

            u_next = ph
            if U is not None:
                u_next = _clamp_step(ph, U, n + 1)
                if not (u_next <= u).all():
                    raise MonotonicityViolated("monotone decrease of the truncated scheme violated")
            rel = float(np.maximum.reduce(np.abs(u_next - u) / u))
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
            if rel <= tol and _residual(u, ph, U) <= tol * (
                    float(np.max(u)) if U is None else sup_U):
                status = STATUS_CONVERGED
                break
            if n > max_iter:
                break
        residual = _residual(u, ph, U)
    except ExtOverflowError:
        status = STATUS_DIVERGENT
        residual = INF
        ps = None
    if float(np.max(u)) > OVERFLOW_LIMIT:
        status = STATUS_DIVERGENT

    return FixedPointResult(u_star=u, iterations=n - 1, residual=residual, trace=records,
                            status=status, scheme="untruncated" if U is None else "truncated",
                            early_exit_index=early_exit, psi_star=ps)


def solve_fortet(
    problem: DiscreteProblem,
    U: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    trace: bool = False,
    u1: np.ndarray | None = None,
) -> FixedPointResult:
    """Solve by the truncated scheme from a ceiling ``U``, or else by the plain scheme.

    A given ``U`` runs the truncated scheme from ``u_1 = U``, the paper's.
    Otherwise the plain iteration ``u_{n+1} = phi(u_n)`` runs from ``u1``
    (default all ones): Sinkhorn's iteration on a positive kernel, which
    converges whenever a scaling exists (Sinkhorn & Knopp 1967), and IPF on
    a kernel with zeros, which converges exactly when one exists
    (Pukelsheim 2014).  ``scheme`` names the scheme that ran: "truncated"
    or "untruncated".  ``U`` and ``u1`` must be finite, strictly positive
    and not both given, and ``tol`` at least ``MIN_TOL``, or ``ValueError``.

    Either run returns its result as it ends: converged-positive once the
    sup relative change of u is at most ``tol`` *and* the fixed-point
    residual ``||u - min(phi(u), U)||_inf`` at most ``tol * ||U||_inf``
    (``||u - phi(u)||_inf`` and ``tol * ||u||_inf`` without a ceiling);
    degenerate-zero once, while still decreasing, ``min phi`` falls below
    ``DEGENERATE_CUTOFF * min U``, or without a ceiling, where nothing
    floors the iterate, ``min_i phi_i(u_n) / phi_i(u_1)`` below
    ``DEGENERATE_CUTOFF``, so each index is measured against its own scale;
    divergent at a step past the overflow guard; max-iter otherwise.
    """
    _check_budget(tol, max_iter)
    if U is None:
        u1 = np.ones(problem.n_x) if u1 is None else u1
        return _iterate(problem, _check_positive_finite(u1, "start u1", problem.n_x).copy(),
                        tol, max_iter, trace)
    if u1 is not None:
        raise ValueError("solve_fortet takes a ceiling U or a start u1, not both")
    U = _check_positive_finite(U, "ceiling U", problem.n_x)
    return _iterate(problem, U.copy(), tol, max_iter, trace, U)


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
    """``log(sum(exp(t), axis))`` for a finite ``t``, shifted by the max; overwrites ``t``."""
    t_max = t.max(axis=axis, keepdims=True)
    np.exp(np.subtract(t, t_max, out=t), out=t)
    return np.log(t.sum(axis=axis)) + t_max.squeeze(axis)


@np.errstate(divide="ignore", over="ignore")  # a scaling out of float range is absorbed
def sinkhorn_baseline(problem: DiscreteProblem, tol: float = 1e-10,
                      max_iter: int = 100_000) -> SchrodingerSolution:
    """Sinkhorn / IPF on the kernel matrix, stabilized by absorption.

    Alternates ``b <- nu / (K^T a)`` and ``a <- mu / (K b)`` on
    ``K = exp(log P + f + g)``, from ``K = P`` and ``a = 1``, until the
    column sup-residual is at most ``tol``.  A scaling with an entry of
    ``|log| > 100``, zero or non-finite included, is absorbed (Schmitzer
    2019, Algorithm 2): the other goes into its potential, the step is
    redone exactly in the log domain, ``K`` (now at most 1) is rebuilt, and
    ``a = b = 1``.  Scalings ``a e^f``, ``b e^g`` or marginals out of float
    range raise :class:`DegeneratePotential`.  The Fortet solver's oracle:
    needs a strictly positive kernel and ``tol >= MIN_TOL``; holds no
    kernel-sized array until it absorbs, ``log P`` and ``K`` after that.
    """
    _check_budget(tol, max_iter)
    P = kernel_matrix(problem)
    if not P.min() > 0.0:
        raise ValueError("sinkhorn_baseline requires a strictly positive kernel")
    mu, nu = problem.mu.weights, problem.nu.weights
    K, logP, f, g = P, None, np.zeros(problem.n_x), np.zeros(problem.n_y)

    def out_of_range(scaling):  # |log| > 100 somewhere, or a NaN
        return not np.max(np.abs(np.log(scaling))) <= 100.0

    def absorb(f, g, axis):
        """Redo the step of ``g`` (axis 0) or ``f`` (axis 1) in the log domain; rebuild K."""
        nonlocal K, logP
        if K is P:
            logP, K = np.log(P), np.empty_like(P)
        if axis == 0:
            g = np.log(nu) - _logsumexp(np.add(logP, f[:, None], out=K), axis=0)
        else:
            f = np.log(mu) - _logsumexp(np.add(logP, g, out=K), axis=1)
        np.exp(np.add(np.add(logP, f[:, None], out=K), g, out=K), out=K)
        return f, g

    a, col = 1.0, P.sum(axis=0)  # the first b step, from a = 1
    for _ in range(max_iter):
        b = nu / col
        if out_of_range(b):
            f, g = absorb(f + np.log(a), g, axis=0)
            b = np.ones(problem.n_y)
        a = mu / (K @ b)
        if out_of_range(a):
            f, g = absorb(f, g + np.log(b), axis=1)
            a, b = np.ones(problem.n_x), np.ones(problem.n_y)
        col = K.T @ a
        if float(np.max(np.abs(b * col - nu))) <= tol:
            break
    else:
        raise MaxIterExceeded(f"sinkhorn did not reach tol={tol:g} in {max_iter} iterations")
    f, g = f + np.log(a), g + np.log(b)
    shift = _logsumexp(f.copy(), axis=0)  # the free scale, at sum(a) = 1 as in _solution
    sol = _solution(problem, *(
        _check_positive_finite(np.exp(v), f"sinkhorn scaling {name}", v.size, DegeneratePotential)
        for name, v in (("a", f - shift), ("b", g + shift))))
    if not math.isfinite(sol.marginal_err_x + sol.marginal_err_y):  # P b or P^T a overflowed
        raise DegeneratePotential("sinkhorn scalings a and b give non-finite marginals")
    return sol


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
