"""Solve the unit Gaussian bridge on a 201-point grid.

Standard-normal marginals coupled through a unit-width Gaussian kernel.
The closed-form criteria certify existence, the plain Fortet scheme
(the default of ``solve_fortet``) solves the discretized system, and the
extracted coupling reproduces both marginals to ~1e-11.
"""

import numpy as np

from schrobridge import (
    GaussianProblem,
    check_integral_criterion,
    discretize_gaussian,
    extract_solution,
    matrix_criterion,
    solve_fortet,
    validate_reduction,
)

gp = GaussianProblem(a=[[1.0]], b=[[1.0]], c=[[1.0]])

mc = matrix_criterion(gp)
print(f"matrix criterion: x->y {mc.xy_holds} (min eig {mc.xy_min_eig:.3f}), "
      f"y->x {mc.yx_holds}")

problem = validate_reduction(discretize_gaussian(gp, points_per_dim=201))
print(f"grid: {problem.n_x} x-points over "
      f"[{problem.x_space.points[0,0]:.0f}, {problem.x_space.points[-1,0]:.0f}]")

eq = check_integral_criterion(problem)
print(f"integral criterion: x->y value {eq.xy.value:.4f} finite={eq.xy.finite}")

result = solve_fortet(problem, tol=1e-10)
print(f"\n{result.status} after {result.iterations} iterations "
      f"(residual {result.residual:.2e})")

sol = extract_solution(problem, result.u_star, psi_star=result.psi_star)
print(f"marginal residuals: x {sol.marginal_err_x:.2e}, y {sol.marginal_err_y:.2e}")
print(f"relative entropy of the coupling: {sol.rel_entropy:.6f}")

# the potential is a Gaussian ray: log u is a parabola in x
x = problem.x_space.points[:, 0]
logu = np.log(result.u_star)
coeffs = np.polyfit(x, logu, 2)
print(f"\nlog u* fitted as {coeffs[0]:.4f} x^2 + {coeffs[1]:.1e} x + {coeffs[2]:.4f}")
print("(the quadratic coefficient is -s/2 for the bridge exponent s)")
