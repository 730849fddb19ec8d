"""One treasury, several municipalities: rationing through a shadow price.

When local rules together demand more than the provincial budget B, the
planner does not rewrite them — it charges every municipality the same
shadow price lambda_B on top of its political cost, which tightens every
local rule just enough that aggregate demand meets B.

Run:  python3 demos/03_treasury_allocation.py
"""

import numpy as np

from bailrule import (
    AllocationProblem,
    MechanismParams,
    allocate,
    cap_ordering_report,
    cutoffs,
    tlc_policy_linear,
)

plain = MechanismParams(omega_b=1.0, c=1.0, omega_T=0.0, T=0.0, b_bar=10.0, theta_bar=10.0)

# --- the worked two-city instance -------------------------------------------

prob = AllocationProblem(((plain, 1.0), (plain, 2.0)), treasury_limit=1.0)
res = allocate(prob)
print("two identical cities, shocks (1, 2), budget 1")
print("  allocations :", tuple(round(b, 9) for b in res.allocations))
print("  shadow price:", round(res.lambda_B, 9))
print("  flags       :", res.flags)
print()
# The marginal city (shock 1) is priced out entirely: with lambda_B = 1 its
# effective political cost equals its marginal benefit.

# --- slack budget: the shadow price vanishes ---------------------------------

res2 = allocate(AllocationProblem(((plain, 1.0), (plain, 2.0)), treasury_limit=5.0))
print("same cities, budget 5 (slack)")
print("  allocations :", res2.allocations)
print("  shadow price:", res2.lambda_B)
print("  flags       :", res2.flags)
print()

# --- heterogeneous caps and costs --------------------------------------------

munis = (
    (MechanismParams(1.0, 1.0, 0.2, 0.0, b_bar=0.4, theta_bar=10.0), 3.0),   # tight cap
    (MechanismParams(1.0, 1.0, 0.2, 0.0, b_bar=5.0, theta_bar=10.0), 3.0),   # loose cap
    (MechanismParams(1.0, 1.0, 1.5, 0.0, b_bar=5.0, theta_bar=10.0), 3.0),   # costly dollars
)
prob3 = AllocationProblem(munis, treasury_limit=2.0)
res3 = allocate(prob3)
print("three municipalities, budget 2")
for i, (b, flag) in enumerate(zip(res3.allocations, res3.flags)):
    print(f"  city {i}: b = {b:.4f}  ({flag})")
print(f"  shadow price: {res3.lambda_B:.4f}")
print()

# Under the common shadow price each city still runs a threshold-linear-cap
# rule; who hits the cap first is readable off the adjusted cutoffs.
print("cap-hit order under the clearing price (city, theta_hi):")
for idx, theta_hi in cap_ordering_report(prob3, res3.lambda_B):
    print(f"  city {idx}: theta_hi = {theta_hi:.4f}")
print()

# --- the budget sweep: demand is piecewise linear in lambda_B -----------------

print("aggregate demand as the budget tightens:")
for B in np.linspace(3.0, 0.5, 6):
    r = allocate(AllocationProblem(munis, treasury_limit=float(B)))
    print(f"  B = {B:4.1f}: total = {r.total:6.4f}, lambda_B = {r.lambda_B:.4f}")
