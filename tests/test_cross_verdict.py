"""Cross-verdict agreement: three independent routes to one yes/no question.

Whether a system admits the normal shift is read three ways: the residual
sweep over a point cloud, the compatibility defect of the Pfaff system at
the nodes of a solved nu grid, and the orthogonality of the shift launched
from that solved grid.  On systems that admit the shift and on perturbed
ones the three verdicts must agree; a disagreement is a defect in one
route, whatever the tolerances.

The shift starts from the solved nu: with a constant nu, systems that admit
the shift (H_X, the flat family) still read VIOLATED, since a constant is
not a solution of their Pfaff system.  The perturbation eps*p2^2 stops at
1e-4: all three maxima scale linearly in eps, with constants of about 18
(sweep), 0.38 (defect) and 0.016 (shift), so at eps 1e-6 the routes split
at tol 1e-7.
"""

import numpy as np
import pytest

from nslab import (
    ExplicitSystem,
    Hypersurface,
    IntegratorConfig,
    PointSampler,
    build_modified_hamiltonian,
    build_riemannian_euclidean,
    canonical_connection,
    compatibility_residual,
    normality_report,
    simulate_shift,
    solve_nu,
    verify_orthogonality,
)
from nslab.surfaces import grid_nodes

TOL = 1e-7
SPHERE = Hypersurface(3, ["sin(y1)*cos(y2)", "sin(y1)*sin(y2)", "cos(y1)"],
                      [[0.3, 1.2], [-0.6, 0.6]])


def verdicts(sys):
    """(sweep PASS, defect PASS, shift NORMAL) and the three maxima."""
    conn = canonical_connection(sys)
    sweep = normality_report(sys, conn, PointSampler(3, 20, seed=7, pmax=4.0), TOL)
    grid = solve_nu(sys, conn, SPHERE, (0.75, 0.0), 1.0, [3, 3], substeps=2)
    defect = float(np.max(np.abs(compatibility_residual(
        sys, conn, SPHERE, grid_nodes(grid.axes), grid.values.reshape(-1)))))
    run = simulate_shift(sys, conn, SPHERE, grid, IntegratorConfig(t_end=0.3, step=1e-2))
    shift = verify_orthogonality(run, TOL)
    return ((sweep.verdict == "PASS", defect <= TOL, shift.verdict == "NORMAL"),
            (sweep.max_abs, defect, shift.max_abs))


@pytest.mark.parametrize("sys", [
    build_modified_hamiltonian("(p1^2+p2^2+p3^2)/2", 3),
    build_modified_hamiltonian("(p1^2+p2^2+p3^2)/2 + x1*p2^2/5", 3),
    build_riemannian_euclidean("v + x1*v^2/10", "w/5", 3),
], ids=["free", "H_X", "flat"])
def test_systems_that_admit_the_shift_pass_every_route(sys):
    passed, maxima = verdicts(sys)
    assert passed == (True, True, True), maxima


@pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-4])
def test_perturbed_systems_fail_every_route(eps):
    sys = ExplicitSystem(3, ["p1", "p2", "p3"], [f"{eps!r}*p2^2", "0", "0"])
    passed, maxima = verdicts(sys)
    assert passed == (False, False, False), maxima
