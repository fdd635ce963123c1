"""Per-point kinematics of a momentum-space Newtonian system.

A system is the pair dx/dt = V(x,p), dp/dt = Theta(x,p).  At each point
the laboratory derives a frame: the metric pair g = dV/dp and its
inverse, the momentum-weighted velocity W, the kinetic-like scalar
Omega = <p|W>, and the projector P onto the null space of p along W.
Rescaled Hamiltonian systems obey the striking identities W = -V and
Omega = -1 everywhere.
"""

import numpy as np

from nslab import (
    ExplicitSystem,
    PhasePoint,
    PointCalculus,
    PointSampler,
    ZeroConnection,
    build_modified_hamiltonian,
    check_regularity,
)

geo = build_modified_hamiltonian("(p1^2 + p2^2)/2 + x1", 2)
q = PhasePoint([0.4, -0.1], [1.2, 0.5])
# the frame needs no connection; depth 0 asks for values only
fr = PointCalculus(geo, ZeroConnection(2), q, depth=0)

print("rescaled Hamiltonian system, H = (p1^2 + p2^2)/2 + x1")
print(f"  V     = {fr.V}")
print(f"  W     = {fr.W}        (note W = -V)")
print(f"  Omega = {fr.Omega:+.15f}  (note Omega = -1)")
print(f"  g_up @ g_down - I, max = {np.max(np.abs(fr.g_up @ fr.g_down - np.eye(2))):.2e}")
print(f"  P idempotency defect   = {np.max(np.abs(fr.P @ fr.P - fr.P)):.2e}")
print(f"  P annihilates W        = {np.max(np.abs(fr.P @ fr.W)):.2e}")
print()

print("regularity screen over 200 sampled points (|p| in [0.1, 10]):")
report = check_regularity(geo, PointSampler(n=2, count=200, seed=42))
print(f"  verdict: {'regular (local evidence)' if report.verdict else 'NOT regular'}")
print(f"  note   : {report.note}")
print()

print("a degenerate Legendre map is caught sample by sample:")
flat = ExplicitSystem(2, ["p1", "p1"], ["0", "0"])
report = check_regularity(flat, PointSampler(n=2, count=20, seed=1))
print(f"  verdict: {report.verdict}, failures: {len(report.failures)}/20")
print(f"  first  : {report.failures[0].failure}")
