import os
import tracemalloc

# one BLAS thread, set before numpy loads OpenBLAS: the timed tests then
# measure the program, not how many cores a loaded machine has free
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from schrobridge import (  # noqa: E402
    DenseKernel,
    DiscreteProblem,
    DiscreteSpace,
    GaussianProblem,
    Marginal,
    discretize_gaussian,
    validate_reduction,
)


def peak_bytes(call) -> int:
    """The most bytes ``call()`` held at once above what it started with, by ``tracemalloc``."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def build_dense_problem(P, mu, nu, x_weights=None, y_weights=None, x_points=None, y_points=None):
    """Assemble a dense-kernel problem from raw arrays (no reduction)."""
    P = np.asarray(P, dtype=float)
    nx, ny = P.shape
    return DiscreteProblem(
        x_space=DiscreteSpace(
            np.arange(nx, dtype=float) if x_points is None else np.asarray(x_points, float),
            np.ones(nx) if x_weights is None else np.asarray(x_weights, float),
        ),
        y_space=DiscreteSpace(
            np.arange(ny, dtype=float) if y_points is None else np.asarray(y_points, float),
            np.ones(ny) if y_weights is None else np.asarray(y_weights, float),
        ),
        mu=Marginal(np.asarray(mu, dtype=float)),
        nu=Marginal(np.asarray(nu, dtype=float)),
        kernel=DenseKernel(P),
    )


def random_positive_problem(rng, nx, ny, low=0.05, high=3.0):
    """Seeded strictly positive dense problem with random marginals."""
    P = rng.uniform(low, high, (nx, ny))
    mu = rng.uniform(0.2, 1.0, nx)
    nu = rng.uniform(0.2, 1.0, ny)
    return build_dense_problem(P, mu / mu.sum(), nu / nu.sum())


def wide_kernel_problems(count):
    """Seeded dense problems of 2-8 points a side whose kernel entries are
    ``exp(U(-s, s))`` for ``s`` cycling through 10, 100, 300, 600 and 700,
    with marginals ``exp(U(-5, 0))``, normalized: scalings that span the
    float range."""
    rng = np.random.default_rng(11)
    for k in range(count):
        s = (10.0, 100.0, 300.0, 600.0, 700.0)[k % 5]
        nx, ny = rng.integers(2, 9, 2)
        P = np.exp(rng.uniform(-s, s, (nx, ny)))
        mu = np.exp(rng.uniform(-5.0, 0.0, nx))
        nu = np.exp(rng.uniform(-5.0, 0.0, ny))
        yield build_dense_problem(P, mu / mu.sum(), nu / nu.sum())


@pytest.fixture
def two_by_two():
    """The worked 2x2 problem: P=[[1,2],[3,4]], uniform marginals."""
    return validate_reduction(
        build_dense_problem([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5], [0.5, 0.5])
    )


@pytest.fixture
def constant_kernel():
    """P identically 1 on a 2x2 grid with uniform marginals."""
    return validate_reduction(
        build_dense_problem([[1.0, 1.0], [1.0, 1.0]], [0.5, 0.5], [0.5, 0.5])
    )


@pytest.fixture(scope="session")
def gaussian_1d_small():
    """Scalar a=b=c=1 on a coarse 51-point grid (fast cross-checks)."""
    gp = GaussianProblem(a=[[1.0]], b=[[1.0]], c=[[1.0]])
    return validate_reduction(discretize_gaussian(gp, points_per_dim=51))


@pytest.fixture(scope="session")
def gaussian_1d_full():
    """Scalar a=b=c=1 on the benchmark 201-point grid over +-6 sigma."""
    gp = GaussianProblem(a=[[1.0]], b=[[1.0]], c=[[1.0]])
    return validate_reduction(discretize_gaussian(gp, points_per_dim=201))
