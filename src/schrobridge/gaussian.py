"""Closed-form Gaussian calculus: densities, convolution, criteria, grids.

For centered Gaussian data -- marginal precisions ``a`` and ``b``, kernel
precision ``c`` -- the integral existence criteria reduce to algebra.
The Laplace-transform convolution identity turns the inner integral into
a Gaussian with precision ``a c (a + c)^{-1}``; the first integral
criterion is then finiteness of a Gaussian integral, i.e. positive
definiteness of ``b - a c (a + c)^{-1}`` (and the mirrored expression
with the roles of ``a`` and ``b`` swapped).  For commuting matrices the
two conditions read ``ab + cb - ac > 0`` and ``ab + ac - cb > 0``.

The scalar quadratic ``ceiling_quadratic`` governs the exponential-quadratic
ceiling family ``U(x) = exp(x d x / 2)``: the criterion with exponent r
holds iff the quadratic is positive at d.  Its sign analysis depends on
the ordering of b and c; only the identities themselves (the r-reduction
and the value at the right endpoint of the admissible d interval) are
machine-checked here, by :func:`ceiling_quadratic_boundary`.

This module is also the generator of benchmark problems: use
:func:`discretize_gaussian` to realize a Gaussian triple on a tensor
grid as a :class:`~schrobridge.problem.DiscreteProblem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# NotSPD and SYMMETRY_TOL are re-exported: the SPD check is shared with GaussianKernel
from .problem import (SYMMETRY_TOL, DiscreteProblem, DiscreteSpace, GaussianKernel,
                      GridTooLarge, Marginal, NotSPD, _as_spd, _gaussian_log_norm)


class DimensionMismatch(ValueError):
    """Matrix operands have incompatible shapes."""


class DegenerateBC(ValueError):
    """The boundary identity needs b != c."""


#: Relative asymmetry allowed in derived matrix expressions before the
#: quadratic-form comparison is considered meaningless.
ASYMMETRY_GUARD = 1e-10


@dataclass(frozen=True)
class GaussianProblem:
    """Centered Gaussian data: precisions of mu, nu and of the kernel."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = _as_spd(self.a, "a")
        b = _as_spd(self.b, "b")
        c = _as_spd(self.c, "c")
        if not (a.shape == b.shape == c.shape):
            raise DimensionMismatch("a, b, c must share one dimension")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def scalars(self) -> tuple[float, float, float]:
        if self.dim != 1:
            raise DimensionMismatch("scalar form requires dimension 1")
        return float(self.a[0, 0]), float(self.b[0, 0]), float(self.c[0, 0])


def gauss_density(kappa, z) -> float:
    """Centered Gaussian density with precision kappa evaluated at z.

    Returns sqrt(det(kappa) / (2 pi)^n) * exp(-z . kappa z / 2), the
    constant taken as :class:`~schrobridge.problem.GaussianKernel` takes it.
    """
    kappa = _as_spd(kappa, "kappa")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    n = kappa.shape[0]
    if z.shape != (n,):
        raise DimensionMismatch(f"z has shape {z.shape}, expected ({n},)")
    return math.exp(_gaussian_log_norm(kappa)) * math.exp(-0.5 * float(z @ kappa @ z))


def _symmetrized_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    # the harmonic-mean ordering left (left+right)^{-1} right equals its own
    # transpose in exact arithmetic (both orderings coincide with
    # (left^{-1} + right^{-1})^{-1}), so raw asymmetry must be rounding noise
    raw = left @ np.linalg.inv(left + right) @ right
    asym = np.abs(raw - raw.T).max()
    scale = max(np.abs(raw).max(), 1e-30)
    if asym > ASYMMETRY_GUARD * scale:
        raise ArithmeticError(
            f"product expression asymmetry {asym:g} exceeds {ASYMMETRY_GUARD:g} of scale"
        )
    return (raw + raw.T) / 2.0


def gauss_convolve_precision(c, alpha) -> np.ndarray:
    """Precision of the convolution of two centered Gaussians.

    Convolving the density of precision ``c`` (as a kernel in y - x) with
    the density of precision ``alpha`` yields, up to constants, the
    density of precision ``alpha c (alpha + c)^{-1}``.
    """
    c = _as_spd(c, "c")
    alpha = _as_spd(alpha, "alpha")
    if c.shape != alpha.shape:
        raise DimensionMismatch("c and alpha must share one dimension")
    out = _symmetrized_product(alpha, c)
    if np.linalg.eigvalsh(out).min() <= 0:
        raise NotSPD("convolution precision lost positive definiteness")
    return out


@dataclass(frozen=True)
class MatrixCriterionResult:
    xy_holds: bool
    yx_holds: bool
    xy_min_eig: float
    yx_min_eig: float


def matrix_criterion(gp: GaussianProblem) -> MatrixCriterionResult:
    """Both directions of the Gaussian integral criterion.

    Direction x->y holds iff b - a c (a + c)^{-1} is positive definite;
    direction y->x swaps the roles of a and b.
    """
    beta = _symmetrized_product(gp.a, gp.c)
    gamma = _symmetrized_product(gp.b, gp.c)
    xy_min = float(np.linalg.eigvalsh(gp.b - beta).min())
    yx_min = float(np.linalg.eigvalsh(gp.a - gamma).min())
    return MatrixCriterionResult(
        xy_holds=xy_min > 0.0,
        yx_holds=yx_min > 0.0,
        xy_min_eig=xy_min,
        yx_min_eig=yx_min,
    )


def ceiling_quadratic(gp: GaussianProblem, d: float, r: float) -> float:
    """The scalar quadratic in d controlling the exponent-r criterion.

    ``d^2 + [a + 2c - (r-1) c^2/b] d + c [a + c - r a c / b - (r-1) c^2/b]``.
    """
    a, b, c = gp.scalars()
    lin = a + 2.0 * c - (r - 1.0) * c * c / b
    const = c * (a + c - r * a * c / b - (r - 1.0) * c * c / b)
    return d * d + lin * d + const


def d_upper_bound(gp: GaussianProblem) -> float:
    """Right endpoint -a + b c / (c - b) of the admissible d interval (b < c case)."""
    a, b, c = gp.scalars()
    if abs(b - c) < 1e-12:
        raise DegenerateBC("d_upper_bound requires b != c")
    return -a + b * c / (c - b)


@dataclass(frozen=True)
class BoundaryIdentity:
    lhs: float
    rhs: float


def ceiling_quadratic_boundary(gp: GaussianProblem) -> BoundaryIdentity:
    """Both sides of the boundary-value identity at r = 1.

    The quadratic at r = 1 evaluated at the right endpoint of the
    admissible interval equals ``c^3 (ab - ac + bc) / (b (c - b)^2)``;
    the two evaluations must agree to rounding.
    """
    a, b, c = gp.scalars()
    d_bar = d_upper_bound(gp)
    lhs = ceiling_quadratic(gp, d_bar, r=1.0)
    rhs = c**3 * (a * b - a * c + b * c) / (b * (c - b) ** 2)
    return BoundaryIdentity(lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------

MAX_GRID_POINTS = 1_000_000


def _tensor_grid(precision: np.ndarray, half_width_sigmas: float, points_per_dim: int):
    sigmas = np.sqrt(np.diag(np.linalg.inv(precision)))
    axes = [
        np.linspace(-half_width_sigmas * s, half_width_sigmas * s, points_per_dim)
        for s in sigmas
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])
    cell = float(np.prod([ax[1] - ax[0] for ax in axes]))
    return points, cell


def _density_weights(points: np.ndarray, precision: np.ndarray) -> np.ndarray:
    """``exp(-quad / 2)`` normalized: the density's constant and the cell
    volume cancel in the normalization, so neither is computed."""
    w = np.exp(-0.5 * np.einsum("ik,kl,il->i", points, precision, points))
    return w / w.sum()


def discretize_gaussian(
    gp: GaussianProblem,
    half_width_sigmas: float = 6.0,
    points_per_dim: int = 201,
) -> DiscreteProblem:
    """Realize a Gaussian triple on uniform tensor grids.

    Each marginal gets its own grid covering ``half_width_sigmas``
    standard deviations per coordinate, with an odd number of points per
    dimension so the origin is a grid point.  Marginal weights are
    density times cell volume, renormalized; the reference weights are
    the cell volumes.
    """
    if points_per_dim < 3 or points_per_dim % 2 == 0:
        raise ValueError("points_per_dim must be an odd integer >= 3")
    if not half_width_sigmas > 0:
        raise ValueError("half_width_sigmas must be positive")
    total = points_per_dim**gp.dim
    if total > MAX_GRID_POINTS:
        raise GridTooLarge(f"{total} grid points exceed the cap of {MAX_GRID_POINTS}")

    x_points, x_cell = _tensor_grid(gp.a, half_width_sigmas, points_per_dim)
    y_points, y_cell = _tensor_grid(gp.b, half_width_sigmas, points_per_dim)
    return DiscreteProblem(
        x_space=DiscreteSpace(x_points, np.full(total, x_cell)),
        y_space=DiscreteSpace(y_points, np.full(total, y_cell)),
        mu=Marginal(_density_weights(x_points, gp.a)),
        nu=Marginal(_density_weights(y_points, gp.b)),
        kernel=GaussianKernel(gp.c),
    )
