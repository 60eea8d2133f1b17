"""Solve a sampled-data problem and cross-check against the exact oracle.

Solves the double integrator with quadratic cost on eight sampling
intervals by the augmented-Lagrangian method with projected
quasi-Newton inner steps, then
compares the held control values against the independent route: exact
zero-order-hold discretization plus an equality-constrained QP.  The
returned costate is certified through the adjoint-equation and
averaged-gradient residuals, never trusted blindly.
"""

import numpy as np

from sampled_ocp import (Extremal, build_problem, hg_residual, solve,
                         solve_lq_sampled_exact, uniform_partition)

prob = build_problem("lq_double_integrator")
part = uniform_partition(8, 1.0)

print("=== augmented-Lagrangian solve ===")
sol = solve(prob, part)
d = sol.diagnostics
print(f"cost        {sol.cost:.10f}")
print(f"feasibility {d.feasibility:.2e}   stationarity {d.stationarity:.2e}")
print(f"iterations  {d.iterations} inner / {d.outer_iterations} outer")
print(f"feasibility per outer round: "
      + " ".join(f"{f:.1e}" for f in d.feasibility_log))
print("control values:", np.round(sol.control.values.ravel(), 6))

print()
print("=== exact-discretization QP oracle ===")
oracle = solve_lq_sampled_exact(prob.lq, part, prob.control_set)
print(f"cost        {oracle.cost:.10f}")
print("control values:", np.round(oracle.control.values.ravel(), 6))
print(f"sup control difference: "
      f"{np.max(np.abs(sol.control.values - oracle.control.values)):.3e}")

print()
print("=== certificate ===")
print(f"adjoint-equation residual:  {sol.residuals.ae_residual:.2e}")
print(f"averaged-gradient residual: {sol.residuals.ahg_sup:.2e}")
verdicts = sol.residuals.verdicts()
print("gating verdicts:", {k: verdicts[k] for k in sol.residuals.gating})
hg = hg_residual(Extremal(prob, sol.state, sol.control, sol.costate,
                          sol.p0)).sup
print("(the report leaves the pointwise gradient condition unevaluated for "
      f"sampled controls; called directly it reads {hg:.3f} here, an O(norm) "
      "quantity)")
print(f"costate terminal value -mu: {np.round(sol.costate.final_costate, 6)}")
print(f"normality: p0 = {sol.p0}")
