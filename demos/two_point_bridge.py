"""Walk through the solver on the smallest interesting problem.

A 2x2 kernel P = [[1, 2], [3, 4]] with uniform marginals: watch the
truncated scheme shrink from the all-ones ceiling to the positive fixed
point, then extract the coupling and check its marginals and entropy.
"""

import numpy as np

from schrobridge import (
    DenseKernel,
    DiscreteProblem,
    DiscreteSpace,
    Marginal,
    extract_solution,
    iterate_truncated,
    normalization_check,
    sinkhorn_baseline,
    solve_fortet,
    validate_reduction,
)
from schrobridge.fortet import SchemeState

problem = validate_reduction(DiscreteProblem(
    x_space=DiscreteSpace(np.array([0.0, 1.0]), np.array([1.0, 1.0])),
    y_space=DiscreteSpace(np.array([0.0, 1.0]), np.array([1.0, 1.0])),
    mu=Marginal(np.array([0.5, 0.5])),
    nu=Marginal(np.array([0.5, 0.5])),
    kernel=DenseKernel(np.array([[1.0, 2.0], [3.0, 4.0]])),
))

print("first scheme steps (u_1 = ceiling = ones):")
state = SchemeState(n=1, u=np.ones(2), ceiling=np.ones(2))
for _ in range(6):
    state = iterate_truncated(state, problem)
    print(f"  n={state.n}  u = {state.u}  (phi of previous iterate: {state.phi_u})")

result = solve_fortet(problem, tol=1e-12)
print(f"\nconverged after {result.iterations} steps, status {result.status}")
print(f"u* = {result.u_star}")
print(f"fixed-point residual ||u - phi(u)||_inf = {result.residual:.3e}")
print(f"normalization sum (should be 1): {normalization_check(problem, result.u_star)!r}")

sol = extract_solution(problem, result.u_star, psi_star=result.psi_star)
print(f"\ncoupling pi =\n{sol.pi}")
print(f"marginal residuals: x {sol.marginal_err_x:.2e}, y {sol.marginal_err_y:.2e}")
print(f"relative entropy vs the kernel reference: {sol.rel_entropy:.6f}")

sink = sinkhorn_baseline(problem, tol=1e-13)
print(f"\nsinkhorn baseline coupling gap: {np.abs(sol.pi - sink.pi).max():.2e}")
