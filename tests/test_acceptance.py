"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see one
`ACCEPTANCE <k> ... PASS` line per criterion.  Every tolerance below is
pinned, not calibrated.
"""

import numpy as np

from nslab import (
    ExplicitSystem,
    ExtendedState,
    GaugedConnection,
    Hypersurface,
    IntegratorConfig,
    PhasePoint,
    PointSampler,
    ZeroConnection,
    build_modified_hamiltonian,
    build_riemannian_euclidean,
    canonical_connection,
    compatibility_residual,
    integrate_family,
    normality_report,
    pfaff_rhs,
    random_gauge_tensor,
    residual_at,
    simulate_shift,
    solve_nu,
    surface_frame,
)
from nslab.engine import PointCalculus
from nslab.expressions import parse, phase_variables, substitute
from nslab.oracles import canonical_connection_oracle


def verdict(number, label, passed, detail):
    print(f"ACCEPTANCE {number:2d} {label}: "
          f"{'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number} failed: {detail}"


CIRCLE = Hypersurface(2, ["cos(y1)", "sin(y1)"], [[-1.2, 1.2]])
SPHERE = Hypersurface(3, ["sin(y1)*cos(y2)", "sin(y1)*sin(y2)", "cos(y1)"],
                      [[0.3, 1.2], [-0.6, 0.6]])


def test_01_weak_normality_on_example_family():
    worst = 0.0
    for text in ["(p1^2 + p2^2)/2", "sqrt(p1^2 + p2^2)",
                 "(p1^2 + 2*p2^2)/2 + x1"]:
        sysm = build_modified_hamiltonian(text, 2)
        conn = canonical_connection(sysm)
        for q in PointSampler(2, 100, seed=42).points():
            r = residual_at(sysm, conn, q)
            worst = max(worst, float(np.max(np.abs(r.weak1))), float(np.max(np.abs(r.weak2))))
    verdict(1, "weak normality, Hamiltonian family (n=2)",
            worst <= 1e-8, f"max residual {worst:.3e} <= 1e-8")


def test_02_additional_normality_on_example_family():
    worst = 0.0
    for text in ["(p1^2 + p2^2 + p3^2)/2",
                 "sqrt(p1^2 + p2^2/2 + p3^2/4)"]:
        sysm = build_modified_hamiltonian(text, 3)
        conn = canonical_connection(sysm)
        for q in PointSampler(3, 100, seed=42).points():
            r = residual_at(sysm, conn, q)
            for part in (r.addA, r.addB, r.addC):
                worst = max(worst, float(np.max(np.abs(part))))
    verdict(2, "additional normality, Hamiltonian family (n=3)",
            worst <= 1e-8, f"max residual {worst:.3e} <= 1e-8")


def test_03_flat_family_compliance():
    # |p| capped at 4 so the builder's domain margin |dW/dv| >= 0.2 holds
    # throughout the |x| <= 1 box; near dW/dv = 0 the family itself
    # degenerates and conditioning, not normality, would be measured
    sysm = build_riemannian_euclidean("v + x1*v^2/10", "w/5", 3)
    conn = canonical_connection(sysm)
    worst = 0.0
    for q in PointSampler(3, 100, seed=42, pmax=4.0).points():
        worst = max(worst, residual_at(sysm, conn, q).max_abs)
    verdict(3, "two-function flat family passes both suites",
            worst <= 1e-7, f"max residual {worst:.3e} <= 1e-7")


def test_04_discrimination():
    bad2 = ExplicitSystem(2, ["p1", "p2"], ["p2^2", "0"])
    conn = canonical_connection(bad2)
    r = residual_at(bad2, conn, PhasePoint([0, 0], [1, 2]))
    weak_max = max(float(np.max(np.abs(r.weak1))), float(np.max(np.abs(r.weak2))))
    report = normality_report(bad2, conn, PointSampler(2, 50, seed=42), 1e-7)
    run = simulate_shift(bad2, conn, CIRCLE, 1.0,
                         IntegratorConfig(t_end=1.0, step=1e-3), grid=[9])
    phi_end = float(run.phi_matrix()[-1])
    ok = weak_max > 1e-3 and report.verdict == "FAIL" and phi_end > 1e-2
    verdict(4, "non-compliant system is rejected", ok,
            f"weak {weak_max:.4f} > 1e-3, verdict {report.verdict}, "
            f"max|phi|(1) {phi_end:.4f} > 1e-2")


def test_05_bonnet_baseline():
    sys_id = ExplicitSystem(2, ["p1", "p2"], ["0", "0"])
    run = simulate_shift(sys_id, ZeroConnection(2), CIRCLE, 1.0,
                         IntegratorConfig(t_end=1.0, step=1e-3), grid=[9])
    radius_err = max(
        float(np.max(np.abs(np.linalg.norm(tr.x, axis=1) - (1.0 + run.t))))
        for tr in run.trajectories)
    phi_max = float(np.max(run.phi_matrix()))
    ok = radius_err <= 1e-8 and phi_max <= 1e-8
    verdict(5, "unit-speed circle shift reaches radius 1+t", ok,
            f"radius err {radius_err:.2e} <= 1e-8, max|phi| {phi_max:.2e} <= 1e-8")


def test_06_orthogonality_conservation():
    cfg = IntegratorConfig(t_end=1.0, step=1e-3)
    results = []
    geo2 = build_modified_hamiltonian("(p1^2 + p2^2)/2", 2)
    conn2 = canonical_connection(geo2)
    grid2 = solve_nu(geo2, conn2, CIRCLE, [0.0], 1.0, [9])
    run2 = simulate_shift(geo2, conn2, CIRCLE, grid2, cfg)
    results.append(float(np.max(run2.phi_matrix())))
    geo3 = build_modified_hamiltonian("(p1^2 + p2^2 + p3^2)/2", 3)
    conn3 = canonical_connection(geo3)
    grid3 = solve_nu(geo3, conn3, SPHERE, [0.75, 0.0], 1.0, [5, 5])
    run3 = simulate_shift(geo3, conn3, SPHERE, grid3, cfg)
    results.append(float(np.max(run3.phi_matrix())))
    worst = max(results)
    verdict(6, "solved-nu shifts stay orthogonal (circle and sphere patch)",
            worst <= 1e-6, f"max|phi| {worst:.2e} <= 1e-6")


def test_07_canonical_connection_consistency():
    rng = np.random.default_rng(42)
    worst = 0.0
    cases = [
        (build_modified_hamiltonian("(p1^2 + p2^2)/2", 2), 3.0),
        (build_riemannian_euclidean("v + x1*v^2/10", "w/5", 3), 2.0),
    ]
    for sysm, pmax in cases:
        conn = canonical_connection(sysm)
        for _ in range(20):
            n = sysm.n
            p = rng.normal(size=n)
            p *= rng.uniform(0.3, pmax) / np.linalg.norm(p)
            q = PhasePoint(rng.uniform(-1, 1, n), p)
            gamma = PointCalculus(sysm, conn, q, depth=0).gamma
            delta = np.max(np.abs(gamma - canonical_connection_oracle(sysm, q)))
            worst = max(worst, float(delta))
    verdict(7, "canonical connection equals velocity-space oracle",
            worst <= 1e-8, f"max disagreement {worst:.3e} <= 1e-8")


def test_08_gauge_invariance():
    sysm = build_modified_hamiltonian("(p1^2 + p2^2)/2", 2)
    conn = canonical_connection(sysm)
    points = PointSampler(2, 2, seed=43).points()
    base = [(PointCalculus(sysm, conn, q).alpha, residual_at(sysm, conn, q))
            for q in points]
    rng = np.random.default_rng(42)
    worst_alpha, worst_resid = 0.0, 0.0
    for _ in range(50):
        T = random_gauge_tensor(2, rng)
        gauged = GaugedConnection(conn, T)
        for q, (alpha0, r0) in zip(points, base):
            calc = PointCalculus(sysm, gauged, q)
            worst_alpha = max(worst_alpha, float(np.max(np.abs(calc.alpha - alpha0))))
            r = residual_at(sysm, gauged, q)
            for attr in ("weak1", "weak2", "addA", "addB", "addC"):
                delta = np.max(np.abs(getattr(r, attr) - getattr(r0, attr))) \
                    if getattr(r, attr).size else 0.0
                worst_resid = max(worst_resid, float(delta))
    ok = worst_alpha <= 1e-8 and worst_resid <= 1e-7
    verdict(8, "50 random gauges leave alpha and residuals unchanged", ok,
            f"alpha {worst_alpha:.2e} <= 1e-8, residuals {worst_resid:.2e} <= 1e-7")


def test_09_pfaff_compatibility_oracle():
    bad3 = ExplicitSystem(3, ["p1", "p2", "p3"], ["p2^2", "0", "0"])
    conn_bad = canonical_connection(bad3)
    y, nu = np.array([0.7, 0.2]), 1.3
    direct = compatibility_residual(bad3, conn_bad, SPHERE, y, nu)
    h = 1e-5
    psi = pfaff_rhs(bad3, conn_bad, SPHERE, y, nu)
    dpsi_dy = np.zeros((2, 2))
    for j in range(2):
        yp, ym = y.copy(), y.copy()
        yp[j] += h
        ym[j] -= h
        dpsi_dy[:, j] = (pfaff_rhs(bad3, conn_bad, SPHERE, yp, nu)
                         - pfaff_rhs(bad3, conn_bad, SPHERE, ym, nu)) / (2 * h)
    dpsi_dnu = (pfaff_rhs(bad3, conn_bad, SPHERE, y, nu + h)
                - pfaff_rhs(bad3, conn_bad, SPHERE, y, nu - h)) / (2 * h)
    theta = dpsi_dy + np.outer(dpsi_dnu, psi)
    oracle = theta - theta.T
    rel = float(np.max(np.abs(oracle - direct)) / np.max(np.abs(direct)))

    geo3 = build_modified_hamiltonian("(p1^2 + p2^2 + p3^2)/2", 3)
    conn_geo = canonical_connection(geo3)
    rng = np.random.default_rng(42)
    geo_worst = 0.0
    for _ in range(20):
        yy = [rng.uniform(0.3, 1.2), rng.uniform(-0.6, 0.6)]
        vv = rng.uniform(0.5, 2.0)
        geo_worst = max(geo_worst, float(np.max(np.abs(
            compatibility_residual(geo3, conn_geo, SPHERE, yy, vv)))))

    geox = build_modified_hamiltonian("(p1^2 + p2^2 + p3^2)/2 + x1/2", 3)
    conn_geox = canonical_connection(geox)
    coarse = solve_nu(geox, conn_geox, SPHERE, [0.75, 0.0], 2.0, [3, 3],
                      substeps=1)
    fine = solve_nu(geox, conn_geox, SPHERE, [0.75, 0.0], 2.0, [5, 5],
                    substeps=1)
    order = float(np.log2(coarse.residual / fine.residual))

    ok = rel <= 1e-5 and geo_worst <= 1e-8 and order >= 3.5
    verdict(9, "compatibility residual against mixed-partial oracle", ok,
            f"rel err {rel:.2e} <= 1e-5, compliant {geo_worst:.2e} <= 1e-8, "
            f"two-path order {order:.2f} >= 3.5")


def test_10_second_fundamental_form_symmetry():
    sysx = build_modified_hamiltonian("(p1^2 + p2^2 + p3^2)/2 + x1/2", 3)
    connx = canonical_connection(sysx)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        a, b, c, d = rng.uniform(-0.4, 0.4, 4)
        f = (f"{a:.4f}*cos(y1) + {b:.4f}*sin(2*y1 + y2)"
             f" + {c:.4f}*cos(y2) + {d:.4f}*sin(y1 - y2)")
        surf = Hypersurface(3, ["y1", "y2", f], [[-1, 1], [-1, 1]])
        y = rng.uniform(-1, 1, 2)
        nu = rng.uniform(0.5, 2.0)
        sf = surface_frame(sysx, connx, surf, y, nu)
        worst = max(worst, float(np.max(np.abs(sf.b - sf.b.T))))
    sys_id = ExplicitSystem(2, ["p1", "p2"], ["0", "0"])
    circle_b = surface_frame(sys_id, ZeroConnection(2), CIRCLE, [0.0], 1.0).b
    circle_err = abs(float(circle_b[0, 0]) + 1.0)
    ok = worst <= 1e-8 and circle_err <= 1e-10
    verdict(10, "second fundamental form is symmetric", ok,
            f"max |b - b^T| {worst:.2e} <= 1e-8, circle b [-1] err {circle_err:.2e}")


def test_11_flat_family_hamiltonian_equivalence():
    # the h = 0 family member and the rescaled Hamiltonian flow of the
    # same W are one dynamical system once the momentum fibers are
    # inverted: H(x, p) = W(x, 1/|p|) with initial momentum p0/|p0|^2.
    # The naive identification (H = W(x, |p|), equal momenta) differs at
    # O(0.1) because the two charts parametrize the fiber inversely; see
    # the equivalence discussion in the README.
    n = 3
    flat = build_riemannian_euclidean("v + x1*v^2/10", "0", n)
    W = parse("v + x1*v^2/10", ("x1", "x2", "x3", "v"))
    inv = parse("1/sqrt(p1^2 + p2^2 + p3^2)", phase_variables(n))
    twin = build_modified_hamiltonian(substitute(W, "v", inv), n)
    zc = ZeroConnection(n)
    cfg = IntegratorConfig(t_end=1.0, step=1e-3)
    rng = np.random.default_rng(42)
    x0, p0, inverted = np.empty((3, 10, n))
    for b in range(10):
        x0[b] = rng.uniform(-0.3, 0.3, n)
        p0[b] = rng.normal(size=n)
        p0[b] *= rng.uniform(0.6, 1.2) / np.linalg.norm(p0[b])
        inverted[b] = p0[b] / float(p0[b] @ p0[b])
    ta = integrate_family(flat, zc, ExtendedState(0, PhasePoint(x0, p0)), cfg)
    tb = integrate_family(twin, zc, ExtendedState(0, PhasePoint(x0, inverted)), cfg)
    v_twin = tb.p / np.einsum("...i,...i->...", tb.p, tb.p)[..., None]
    worst = max(float(np.max(np.abs(ta.x - tb.x))), float(np.max(np.abs(ta.p - v_twin))))
    verdict(11, "flat family (h=0) equals rescaled Hamiltonian flow",
            worst <= 1e-6, f"max trajectory gap {worst:.2e} <= 1e-6 over 10 runs")


def test_12_deviation_ode():
    sysm = build_modified_hamiltonian("(p1^2 + p2^2)/2", 2)
    conn = canonical_connection(sysm)
    cfg = IntegratorConfig(t_end=1.0, step=1e-3)
    rng = np.random.default_rng(42)
    x0, p0 = np.empty((2, 10, 2))
    taus, dps = np.empty((2, 10, 2, 2))
    for b in range(10):
        x0[b] = rng.uniform(-0.5, 0.5, 2)
        p0[b] = rng.normal(size=2)
        p0[b] *= rng.uniform(0.5, 1.5) / np.linalg.norm(p0[b])
        taus[b] = rng.uniform(-1, 1, (2, 2))
        dps[b] = rng.uniform(-1, 1, (2, 2))
    state = ExtendedState(0, PhasePoint(x0, p0), taus, dps)
    h = cfg.step
    worst_gap, max_pdd = 0.0, 0.0
    checks = []
    for tr in integrate_family(sysm, conn, state, cfg):
        phis = tr.phis
        for k in range(100, 901, 40):
            pdd = (-phis[k - 2] + 16 * phis[k - 1] - 30 * phis[k]
                   + 16 * phis[k + 1] - phis[k + 2]) / (12 * h * h)
            pd = (phis[k - 2] - 8 * phis[k - 1]
                  + 8 * phis[k + 1] - phis[k + 2]) / (12 * h)
            A, B = PointCalculus(sysm, conn, tr.point(k)).ode_coefficients
            gap = float(np.max(np.abs(pdd - (A * pd + B * phis[k]))))
            checks.append(gap)
            max_pdd = max(max_pdd, float(np.max(np.abs(pdd))))
    worst_gap = max(checks)
    tol = max(1e-4, 1e-3 * max_pdd)
    verdict(12, "deviation functions obey the second-order law",
            worst_gap <= tol, f"max defect {worst_gap:.2e} <= {tol:.2e}")
