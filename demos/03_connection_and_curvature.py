"""The canonical connection, its curvatures, and gauge freedom.

Every system generates a symmetric momentum-dependent connection from
its own acceleration field.  Two curvature tensors come with it, and a
gauge move (shift the connection by any symmetric tensor, compensate in
the force covector) leaves the underlying dynamics, the deviation field
alpha, and every normality residual unchanged.  All of these are fields
of one PointCalculus: a system and a connection at a phase point.
"""

import numpy as np

from nslab import (
    GaugedConnection,
    PhasePoint,
    PointCalculus,
    build_modified_hamiltonian,
    canonical_connection,
    random_gauge_tensor,
    residual_from_calc,
)
from nslab.oracles import canonical_connection_oracle

sysm = build_modified_hamiltonian("(p1^2 + 2*p2^2)/2 + x1", 2)
conn = canonical_connection(sysm)
q = PhasePoint([0.3, -0.2], [1.1, 0.7])
calc = PointCalculus(sysm, conn, q)

gamma = calc.gamma
print("canonical connection at one point (k, i, j):")
print(np.round(gamma, 6))
oracle = canonical_connection_oracle(sysm, q)
print(f"agreement with the velocity-space oracle: {np.max(np.abs(gamma - oracle)):.2e}")
print()

R, D = calc.R, calc.D
print(f"curvature   max|R| = {np.max(np.abs(R)):.6f}, "
      f"antisymmetry defect {np.max(np.abs(R + np.transpose(R, (0, 1, 3, 2)))):.2e}")
print(f"dyn. curv.  max|D| = {np.max(np.abs(D)):.6f}")
print()

rng = np.random.default_rng(0)
T = random_gauge_tensor(2, rng)
# the gauged calc's force covector Q is the compensated one
moved = PointCalculus(sysm, GaugedConnection(conn, T), q)
V, Theta = sysm.rhs(q.x, q.p)
rebuilt = moved.Q + np.einsum("kij,k,j->i", moved.gamma, q.p, V)
print("after a random symmetric gauge shift:")
print(f"  connection moved by      {np.max(np.abs(moved.gamma - gamma)):.3f}")
print(f"  dynamics reconstruction  {np.max(np.abs(rebuilt - Theta)):.2e}  (Theta unchanged)")
base = residual_from_calc(calc)
shifted = residual_from_calc(moved)
print(f"  weak residual change     {np.max(np.abs(shifted.weak1 - base.weak1)):.2e}")
print(f"  force covector differs:  {np.max(np.abs(moved.Q - calc.Q)):.3f}")
