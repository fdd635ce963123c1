"""Shifting a circle along trajectories and watching orthogonality.

Each point of the curve is launched with momentum nu * n (n the unit
normal covector).  Variation vectors ride along in the integrator, and
the deviation functions phi_i = <p|tau_i> measure how far the displaced
curves tilt away from the trajectories.  For the classical unit-speed
shift the displaced circles sit at radius 1 + t exactly; for a
non-compliant force the deviation grows to order one by t = 1.
"""

import numpy as np

from nslab import (
    ExplicitSystem,
    Hypersurface,
    IntegratorConfig,
    ZeroConnection,
    build_modified_hamiltonian,
    canonical_connection,
    simulate_shift,
    solve_nu,
    verify_orthogonality,
)

circle = Hypersurface(2, ["cos(y1)", "sin(y1)"], [[-1.2, 1.2]])
cfg = IntegratorConfig(t_end=1.0, step=1e-3)

print("1. unit-speed shift of the circle (free flow, nu = 1)")
sys_id = ExplicitSystem(2, ["p1", "p2"], ["0", "0"])
run = simulate_shift(sys_id, ZeroConnection(2), circle, 1.0, cfg, grid=[9])
radii = np.linalg.norm(run.trajectories.x, axis=-1)
err = np.max(np.abs(radii - (1.0 + run.t)[None, :]))
print(f"   radius error vs 1 + t : {err:.2e}")
print(f"   verdict               : {verify_orthogonality(run, 1e-8).verdict}")
print()

print("2. rescaled Hamiltonian flow with solved nu")
geo = build_modified_hamiltonian("(p1^2 + p2^2)/2", 2)
conn = canonical_connection(geo)
grid = solve_nu(geo, conn, circle, [0.0], 1.0, [9])
run = simulate_shift(geo, conn, circle, grid, cfg)
report = verify_orthogonality(run, 1e-6)
print(f"   two-path nu residual  : {grid.residual:.2e}")
print(f"   max deviation |phi|   : {report.max_abs:.2e}")
print(f"   verdict               : {report.verdict}")
print()

print("3. perturbed force Theta = (p2^2, 0): orthogonality breaks")
bad = ExplicitSystem(2, ["p1", "p2"], ["p2^2", "0"])
run = simulate_shift(bad, canonical_connection(bad), circle, 1.0, cfg, grid=[9])
report = verify_orthogonality(run, 1e-6)
prof = run.phi_matrix()
print(f"   verdict               : {report.verdict}"
      f" (first violation at t = {report.first_violation:.3f})")
for t_probe in (0.25, 0.5, 1.0):
    k = int(round(t_probe / cfg.step))
    print(f"   max|phi| at t = {t_probe:4.2f}  : {prof[k]:.4f}")
