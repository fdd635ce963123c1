import re

import numpy as np
import pytest

from nslab import (
    ConfigError,
    Hypersurface,
    IntegratorConfig,
    NuVanished,
    RankDeficientTangents,
    build_modified_hamiltonian,
    canonical_connection,
    compatibility_residual,
    pfaff_rhs,
    simulate_shift,
    solve_nu,
    surface_frame,
    surface_from_config,
    verify_orthogonality,
)
from nslab.engine import PointCalculus

# frozen two-path regression value for the non-compliant system
# (5x5 grid from y0=(0.75, 0), nu0=1, four substeps per edge)
BAD3_NU_RESIDUAL = 0.0216531
# frozen deviation growth of the non-compliant circle shift at t=1
BAD2_SHIFT_PHI = 1.20355


@pytest.fixture(scope="module")
def circle():
    return Hypersurface(2, ["cos(y1)", "sin(y1)"], [[-1.2, 1.2]])


@pytest.fixture(scope="module")
def line():
    return Hypersurface(2, ["y1", "0"], [[-1.0, 1.0]])


@pytest.fixture(scope="module")
def sphere():
    return Hypersurface(3, ["sin(y1)*cos(y2)", "sin(y1)*sin(y2)", "cos(y1)"],
                        [[0.3, 1.2], [-0.6, 0.6]])


class TestSurfaceFrame:
    def test_line_flat(self, sys_id2, zero2, line):
        sf = surface_frame(sys_id2, zero2, line, [0.2], 1.0)
        assert np.allclose(sf.normal, [0, 1])
        assert np.allclose(sf.b, [[0.0]])

    def test_circle(self, sys_id2, zero2, circle):
        sf = surface_frame(sys_id2, zero2, circle, [0.0], 1.0)
        assert np.allclose(sf.taus, [[0, 1]])
        assert np.allclose(sf.normal, [1, 0])
        assert np.allclose(sf.b, [[-1.0]], atol=1e-12)

    def test_sphere_symmetry(self, sys_id3, zero3, sphere):
        rng = np.random.default_rng(61)
        for _ in range(20):
            y = [rng.uniform(0.3, 1.2), rng.uniform(-0.6, 0.6)]
            sf = surface_frame(sys_id3, zero3, sphere, y, 1.0)
            assert np.max(np.abs(sf.b - sf.b.T)) < 1e-10
            assert np.max(np.abs(sf.taus @ sf.normal)) < 1e-12

    def test_symmetry_under_curved_connection(self, sys_geox3, conn_geox3, sphere):
        rng = np.random.default_rng(62)
        for _ in range(6):
            y = [rng.uniform(0.3, 1.2), rng.uniform(-0.6, 0.6)]
            nu = rng.uniform(0.5, 2.0)
            sf = surface_frame(sys_geox3, conn_geox3, sphere, y, nu)
            assert np.max(np.abs(sf.b - sf.b.T)) < 1e-8

    def test_random_trig_surfaces_symmetry(self, sys_geox3, conn_geox3):
        rng = np.random.default_rng(63)
        for _ in range(10):
            a, b, c, d = rng.uniform(-0.4, 0.4, 4)
            f = (f"{a:.4f}*cos(y1) + {b:.4f}*sin(2*y1 + y2)"
                 f" + {c:.4f}*cos(y2) + {d:.4f}*sin(y1 - y2)")
            surf = Hypersurface(3, ["y1", "y2", f], [[-1, 1], [-1, 1]])
            y = rng.uniform(-1, 1, 2)
            nu = rng.uniform(0.5, 2.0)
            sf = surface_frame(sys_geox3, conn_geox3, surf, y, nu)
            assert np.max(np.abs(sf.b - sf.b.T)) < 1e-8

    def test_rank_deficient(self, sys_id3, zero3):
        degenerate = Hypersurface(3, ["y1 + y2", "y1 + y2", "0"],
                                  [[-1, 1], [-1, 1]])
        with pytest.raises(RankDeficientTangents):
            surface_frame(sys_id3, zero3, degenerate, [0.1, 0.2], 1.0)

    def test_zero_nu_rejected(self, sys_id2, zero2, circle):
        with pytest.raises(ValueError):
            surface_frame(sys_id2, zero2, circle, [0.0], 0.0)

    def test_tiny_sphere_is_regular(self, sphere):
        # the rank check is relative to the tangent lengths, not absolute
        tiny = Hypersurface(3, ["1e-7*sin(y1)*cos(y2)", "1e-7*sin(y1)*sin(y2)",
                                "1e-7*cos(y1)"], sphere.domain)
        y = [0.7, 0.1]
        _, _, normal, dn_dy = tiny.geometry(y)
        _, _, unit_normal, unit_dn_dy = sphere.geometry(y)
        assert np.max(np.abs(normal - unit_normal)) <= 1e-12
        assert np.max(np.abs(dn_dy - unit_dn_dy)) <= 1e-12


class TestPfaffRhs:
    def test_identity_circle_constant(self, sys_id2, zero2, circle):
        psi = pfaff_rhs(sys_id2, zero2, circle, [0.4], 1.0)
        assert np.max(np.abs(psi)) < 1e-14

    def test_geodesic_circle_constant(self, sys_geo2, conn_geo2, circle):
        psi = pfaff_rhs(sys_geo2, conn_geo2, circle, [0.4], 1.0)
        assert np.max(np.abs(psi)) < 1e-10

    def test_line_any_nu(self, sys_id2, zero2, line):
        for nu in (0.5, 1.0, 3.0):
            psi = pfaff_rhs(sys_id2, zero2, line, [0.3], nu)
            assert np.max(np.abs(psi)) < 1e-14


class TestSolveNu:
    def test_identity_circle(self, sys_id2, zero2, circle):
        grid = solve_nu(sys_id2, zero2, circle, [0.0], 1.0, [9])
        assert np.max(np.abs(grid.values - 1.0)) < 1e-12
        assert grid.residual <= 1e-12

    def test_geodesic_sphere(self, sys_geo3, conn_geo3, sphere):
        grid = solve_nu(sys_geo3, conn_geo3, sphere, [0.75, 0.0], 2.0, [5, 5])
        assert grid.residual <= 1e-8
        assert np.max(np.abs(grid.values - 2.0)) < 1e-10

    def test_bad_sphere_baseline(self, sys_bad3, conn_bad3, sphere):
        grid = solve_nu(sys_bad3, conn_bad3, sphere, [0.75, 0.0], 1.0, [5, 5])
        assert grid.residual > 1e-4
        assert grid.residual == pytest.approx(BAD3_NU_RESIDUAL, rel=1e-4)

    def test_zero_nu0_rejected(self, sys_id2, zero2, circle):
        with pytest.raises(ValueError):
            solve_nu(sys_id2, zero2, circle, [0.0], 0.0, [5])

    @pytest.mark.parametrize("counts", [[5, 1], [1, 5], [1, 1]])
    def test_two_parameter_grid_needs_a_cell(self, sys_bad3, conn_bad3, sphere, counts):
        # with no cell there is no two-path residual, and the incompatible
        # control would read 0
        with pytest.raises(ConfigError, match="at least 2 grid nodes per axis"):
            solve_nu(sys_bad3, conn_bad3, sphere, [0.75, 0.0], 1.0, counts)

    def test_one_parameter_grid_has_no_condition(self, sys_id2, zero2, circle):
        for count in (1, 2):
            grid = solve_nu(sys_id2, zero2, circle, [0.0], 1.0, [count])
            assert grid.residual == 0

    def test_vanishing_sheet_detected(self, circle):
        # from this base value the true solution reaches nu = 0 inside the
        # patch (the right-hand side is singular there); the solver must
        # refuse rather than step across the zero set
        from nslab import build_modified_hamiltonian, canonical_connection

        sysm = build_modified_hamiltonian("(p1^2 + p2^2)/2 + x1", 2)
        conn = canonical_connection(sysm)
        with pytest.raises(NuVanished):
            solve_nu(sysm, conn, circle, [-1.2], 1.0, [9])
        # the same system is fine when normalized at the patch center
        grid = solve_nu(sysm, conn, circle, [0.0], 1.0, [9])
        assert np.all(grid.values > 0)

    def test_fourth_order_two_path_scaling(self, sys_geox3, conn_geox3, sphere):
        coarse = solve_nu(sys_geox3, conn_geox3, sphere, [0.75, 0.0], 2.0,
                          [3, 3], substeps=1)
        fine = solve_nu(sys_geox3, conn_geox3, sphere, [0.75, 0.0], 2.0,
                        [5, 5], substeps=1)
        order = np.log2(coarse.residual / fine.residual)
        assert order >= 3.5


class TestCompatibility:
    def test_identity_circle_vacuous(self, sys_id2, zero2, circle):
        out = compatibility_residual(sys_id2, zero2, circle, [0.3], 1.0)
        assert out.shape == (1, 1)
        assert out[0, 0] == 0.0

    def test_geodesic_sphere(self, sys_geo3, conn_geo3, sphere):
        rng = np.random.default_rng(70)
        for _ in range(20):
            y = [rng.uniform(0.3, 1.2), rng.uniform(-0.6, 0.6)]
            nu = rng.uniform(0.5, 2.0)
            out = compatibility_residual(sys_geo3, conn_geo3, sphere, y, nu)
            assert np.max(np.abs(out)) <= 1e-8

    def test_exactly_antisymmetric(self, sys_bad3, conn_bad3, sphere):
        out = compatibility_residual(sys_bad3, conn_bad3, sphere, [0.7, 0.2], 1.3)
        assert np.array_equal(out, -out.T)

    def test_matches_mixed_partial_oracle(self, sys_bad3, conn_bad3, sphere):
        y, nu = np.array([0.7, 0.2]), 1.3
        direct = compatibility_residual(sys_bad3, conn_bad3, sphere, y, nu)
        h = 1e-5
        m = sphere.m
        psi = pfaff_rhs(sys_bad3, conn_bad3, sphere, y, nu)
        dpsi_dy = np.zeros((m, m))
        for j in range(m):
            yp, ym = y.copy(), y.copy()
            yp[j] += h
            ym[j] -= h
            dpsi_dy[:, j] = (pfaff_rhs(sys_bad3, conn_bad3, sphere, yp, nu)
                             - pfaff_rhs(sys_bad3, conn_bad3, sphere, ym, nu)) / (2 * h)
        dpsi_dnu = (pfaff_rhs(sys_bad3, conn_bad3, sphere, y, nu + h)
                    - pfaff_rhs(sys_bad3, conn_bad3, sphere, y, nu - h)) / (2 * h)
        theta = dpsi_dy + np.outer(dpsi_dnu, psi)
        oracle = theta - theta.T
        rel = np.max(np.abs(oracle - direct)) / np.max(np.abs(direct))
        assert rel < 1e-5


class TestSimulateShift:
    def test_initial_deviation_vanishes(self, sys_geox2, conn_geox2, circle):
        # p(0) = nu * n annihilates the tangents, so phi_i(0) = 0
        cfg = IntegratorConfig(t_end=0.01, step=1e-2)
        grid = solve_nu(sys_geox2, conn_geox2, circle, [0.0], 1.5, [5])
        run = simulate_shift(sys_geox2, conn_geox2, circle, grid, cfg)
        for tr in run.trajectories:
            assert np.max(np.abs(tr.phis[0])) < 1e-12

    def test_bonnet_circle(self, sys_id2, zero2, circle):
        cfg = IntegratorConfig(t_end=1.0, step=1e-3)
        run = simulate_shift(sys_id2, zero2, circle, 1.0, cfg, grid=[9])
        for tr in run.trajectories:
            radii = np.linalg.norm(tr.x, axis=1)
            assert np.max(np.abs(radii - (1.0 + run.t))) < 1e-8
        report = verify_orthogonality(run, 1e-8)
        assert report.verdict == "NORMAL"

    def test_geodesic_circle_constant_nu(self, sys_geo2, conn_geo2, circle):
        cfg = IntegratorConfig(t_end=1.0, step=1e-3)
        run = simulate_shift(sys_geo2, conn_geo2, circle, 1.0, cfg, grid=[9])
        assert verify_orthogonality(run, 1e-6).verdict == "NORMAL"

    def test_bad_circle_loses_orthogonality(self, sys_bad2, conn_bad2, circle):
        cfg = IntegratorConfig(t_end=1.0, step=1e-3)
        run = simulate_shift(sys_bad2, conn_bad2, circle, 1.0, cfg, grid=[9])
        final = float(run.phi_matrix()[-1])
        assert final > 1e-2
        assert final == pytest.approx(BAD2_SHIFT_PHI, rel=1e-4)
        report = verify_orthogonality(run, 1e-6)
        assert report.verdict == "VIOLATED"
        assert report.first_violation is not None

    @pytest.mark.parametrize("H, verdict", [
        ("(p1^2 + p2^2 + p3^2)/2", "NORMAL"),
        ("(p1^2 + p2^2 + p3^2)/2 + x1*p2^2/5", "VIOLATED"),
    ])
    def test_verdict_holds_across_recording_intervals(self, sphere, H, verdict):
        # the free flow and the x-dependent one with a constant nu, on a
        # 3 x 3 patch: the stepper's own steps give one verdict whether it
        # records every 1e-3 or every 1e-2
        sysm = build_modified_hamiltonian(H, 3)
        conn = canonical_connection(sysm)
        for step in (1e-3, 1e-2):
            run = simulate_shift(sysm, conn, sphere, 1.0, IntegratorConfig(0.5, step),
                                 grid=[3, 3])
            assert verify_orthogonality(run, 1e-6).verdict == verdict

    def test_solved_grid_source(self, sys_geo3, conn_geo3, sphere, tmp_path):
        cfg = IntegratorConfig(t_end=0.3, step=2e-3)
        grid = solve_nu(sys_geo3, conn_geo3, sphere, [0.75, 0.0], 1.0, [3, 3])
        run = simulate_shift(sys_geo3, conn_geo3, sphere, grid, cfg)
        assert verify_orthogonality(run, 1e-6).verdict == "NORMAL"
        # the nu grid's CSV rows are the launch nodes and speeds, in launch order
        grid.write_csv(tmp_path / "nu_grid.csv")
        lines = (tmp_path / "nu_grid.csv").read_text().splitlines()
        assert lines[0] == "y1,y2,nu"
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(table, np.column_stack([run.ys, run.nus]))

    def test_nu_scaling_invariance(self, sys_geox2, conn_geox2):
        # (nu0, n) -> (nu0/c, c n) must leave p(0), trajectories and phi alone
        cfg = IntegratorConfig(t_end=0.5, step=2e-3)
        c = 3.7
        base = Hypersurface(2, ["cos(y1)", "sin(y1)"], [[-1.0, 1.0]])
        scaled = Hypersurface(2, ["cos(y1)", "sin(y1)"], [[-1.0, 1.0]],
                              normal_scale=c)
        runs = []
        for surf, nu0 in ((base, 1.3), (scaled, 1.3 / c)):
            grid = solve_nu(sys_geox2, conn_geox2, surf, [0.0], nu0, [7])
            runs.append(simulate_shift(sys_geox2, conn_geox2, surf, grid, cfg))
        a, b = runs
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert np.max(np.abs(ta.p[0] - tb.p[0])) < 1e-12
            assert np.max(np.abs(ta.x - tb.x)) < 1e-10
            assert np.max(np.abs(ta.phis - tb.phis)) < 1e-10

    def test_launch_matches_neighbouring_trajectories(self, sys_geox2, conn_geox2):
        # (tau, dp) of the middle node are d(x, p)/dy of the shifted family:
        # central differences of the outer nodes' trajectories are the oracle
        y0, h = 0.3, 1e-4
        patch = Hypersurface(2, ["cos(y1)", "sin(y1)"], [[y0 - h, y0 + h]])
        grid = solve_nu(sys_geox2, conn_geox2, patch, [y0], 1.2, [3])
        cfg = IntegratorConfig(t_end=0.5, step=1e-3)
        run = simulate_shift(sys_geox2, conn_geox2, patch, grid, cfg)
        lo, mid, hi = run.trajectories
        fd_x = (hi.x - lo.x) / (2 * h)
        fd_p = (hi.p - lo.p) / (2 * h)
        assert np.max(np.abs(fd_x - mid.taus[:, 0])) < 1e-6
        assert np.max(np.abs(fd_p - mid.dps[:, 0])) < 1e-6

    def test_tiny_nu_rejected(self, sys_id2, zero2, circle):
        cfg = IntegratorConfig(t_end=0.1, step=1e-2)
        with pytest.raises(NuVanished):
            simulate_shift(sys_id2, zero2, circle, 1e-12, cfg, grid=[3])

    def test_csv(self, sys_id2, zero2, circle, tmp_path):
        cfg = IntegratorConfig(t_end=0.01, step=1e-2)
        run = simulate_shift(sys_id2, zero2, circle, 1.0, cfg, grid=[3])
        path = tmp_path / "shift.csv"
        run.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "y1,t,x1,x2,p1,p2,phi_1"
        assert len(lines) == 1 + 3 * 2

    def test_csv_values_parse_back(self, sys_geox3, conn_geox3, sphere, tmp_path):
        # one row per node and recorded time, nodes in the grid index's C order
        cfg = IntegratorConfig(t_end=0.05, step=1e-2)
        run = simulate_shift(sys_geox3, conn_geox3, sphere, 1.1, cfg, grid=[3, 2])
        path = tmp_path / "shift.csv"
        run.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "y1,y2,t,x1,x2,x3,p1,p2,p3,phi_1,phi_2"
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        axes = sphere.grid_axes([3, 2])
        assert run.ys.tolist() == [[a, b] for a in axes[0] for b in axes[1]]
        rows = len(run.t)
        assert table.shape == (6 * rows, 11)
        for b, (y, tr) in enumerate(zip(run.ys, run.trajectories)):
            block = table[b * rows:(b + 1) * rows]
            assert np.array_equal(block[:, :2], np.broadcast_to(y, (rows, 2)))
            assert np.array_equal(block[:, 2], tr.t)
            assert np.array_equal(block[:, 3:6], tr.x)
            assert np.array_equal(block[:, 6:9], tr.p)
            assert np.array_equal(block[:, 9:], tr.phis)
            assert np.abs(tr.phis).max() > 0


class TestShiftEvaluations:
    """The launch evaluates the field stack only for dnu/dy of a solved nu."""

    @pytest.fixture
    def calcs(self, monkeypatch):
        built = []
        init = PointCalculus.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PointCalculus, "__init__", counted)
        return built

    def test_constant_nu_builds_none(self, sys_geox2, conn_geox2, circle, calcs):
        cfg = IntegratorConfig(t_end=0.01, step=1e-2)
        simulate_shift(sys_geox2, conn_geox2, circle, 1.0, cfg, grid=[5])
        assert len(calcs) == 0

    def test_solved_nu_builds_one_per_node(self, sys_geox2, conn_geox2, circle, calcs):
        cfg = IntegratorConfig(t_end=0.01, step=1e-2)
        grid = solve_nu(sys_geox2, conn_geox2, circle, [0.0], 1.5, [5])
        calcs.clear()
        simulate_shift(sys_geox2, conn_geox2, circle, grid, cfg)
        # the launch evaluates dnu/dy at all 5 nodes in one batched pfaff_rhs call
        assert len(calcs) == 1

    def test_solved_launch_makes_one_geometry_pass(self, sys_geox2, conn_geox2, circle,
                                                   monkeypatch):
        cfg = IntegratorConfig(t_end=0.01, step=1e-2)
        grid = solve_nu(sys_geox2, conn_geox2, circle, [0.0], 1.5, [5])
        calls = []
        geometry = Hypersurface.geometry
        monkeypatch.setattr(Hypersurface, "geometry",
                            lambda self, y: calls.append(len(y)) or geometry(self, y))
        simulate_shift(sys_geox2, conn_geox2, circle, grid, cfg)
        # the launch data and dnu/dy read the same geometry of the 5 nodes
        assert calls == [5]

    def test_batched_launch_matches_per_node(self, sys_geox3, conn_geox3, sphere):
        # 25 nodes: two pfaff_rhs chunks, against one geometry and pfaff_rhs per node
        grid = solve_nu(sys_geox3, conn_geox3, sphere, [0.75, 0.0], 1.1, [5, 5],
                        substeps=1)
        cfg = IntegratorConfig(t_end=0.01, step=1e-2)
        run = simulate_shift(sys_geox3, conn_geox3, sphere, grid, cfg)
        for y, nu, tr in zip(run.ys, grid.values.reshape(-1), run.trajectories):
            x, taus, normal, dn_dy = sphere.geometry(y)
            dnu = pfaff_rhs(sys_geox3, conn_geox3, sphere, y, nu)
            want = (x, nu * normal, taus, dnu[:, None] * normal[None, :] + nu * dn_dy)
            got = (tr.x[0], tr.p[0], tr.taus[0], tr.dps[0])
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= 1e-14

    def test_vanished_nu_names_its_node(self, sys_geox2, conn_geox2, circle):
        grid = solve_nu(sys_geox2, conn_geox2, circle, [0.0], 1.5, [5])
        grid.values[3] = 1e-13
        cfg = IntegratorConfig(t_end=0.01, step=1e-2)
        y = repr(grid.axes[0][3:4])
        with pytest.raises(NuVanished, match=re.escape(f"grid node y={y}")):
            simulate_shift(sys_geox2, conn_geox2, circle, grid, cfg)


class TestVerify:
    def test_all_zero(self, sys_id2, zero2, circle):
        cfg = IntegratorConfig(t_end=0.05, step=1e-2)
        run = simulate_shift(sys_id2, zero2, circle, 1.0, cfg, grid=[3])
        assert verify_orthogonality(run, 1e-6).verdict == "NORMAL"

    def test_violation_time_reported(self, sys_bad2, conn_bad2, circle):
        cfg = IntegratorConfig(t_end=1.0, step=1e-2)
        run = simulate_shift(sys_bad2, conn_bad2, circle, 1.0, cfg, grid=[3])
        report = verify_orthogonality(run, 1e-6)
        assert report.verdict == "VIOLATED"
        assert 0.0 < report.first_violation <= 1.0

    def test_nan_tol_is_violated(self, sys_id2, zero2, circle):
        cfg = IntegratorConfig(t_end=0.05, step=1e-2)
        run = simulate_shift(sys_id2, zero2, circle, 1.0, cfg, grid=[3])
        report = verify_orthogonality(run, float("nan"))
        assert report.verdict == "VIOLATED"
        assert report.first_violation == 0.0

    def test_nan_in_profile_is_violated(self):
        class Run:
            t = np.array([0.0, 0.1, 0.2])

            def phi_matrix(self):
                return np.array([0.0, np.nan, 1e-9])

        report = verify_orthogonality(Run(), 1e-6)
        assert report.verdict == "VIOLATED"
        assert report.first_violation == 0.1

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="phi is read against an absolute tol, so rounding "
                              "that grows with nu0 reads as a violation")
    def test_free_shift_is_normal_at_any_speed(self, sys_geo3, conn_geo3, sphere):
        # H = |p|^2/2 admits the normal shift; max|phi| grows like nu0 from
        # rounding alone and passes tol near nu0 = 1e10
        cfg = IntegratorConfig(t_end=0.5, step=1e-2)
        run = simulate_shift(sys_geo3, conn_geo3, sphere, 1e10, cfg, grid=[4, 4])
        assert verify_orthogonality(run, 1e-6).verdict == "NORMAL"


class TestConfig:
    def test_surface_from_config(self):
        surf = surface_from_config({
            "params": 1,
            "embedding": ["cos(y1)", "sin(y1)"],
            "domain": [[-1.0, 1.0]],
            "grid": [7],
        })
        assert surf.n == 2 and surf.default_grid == [7]

    def test_surface_outside_the_configuration_space(self, sys_geo2, sphere):
        # an n = 2 system with a surface in three coordinates: every entry
        # point names the mismatch before it evaluates anything
        from nslab import canonical_connection
        conn = canonical_connection(sys_geo2)
        calls = [lambda: solve_nu(sys_geo2, conn, sphere, [0.75, 0.0], 1.0, [3, 3]),
                 lambda: simulate_shift(sys_geo2, conn, sphere, 1.0,
                                        IntegratorConfig(t_end=0.01, step=0.01), grid=[2, 2]),
                 lambda: pfaff_rhs(sys_geo2, conn, sphere, [0.75, 0.0], 1.0),
                 lambda: surface_frame(sys_geo2, conn, sphere, [0.75, 0.0], 1.0)]
        for call in calls:
            with pytest.raises(ConfigError, match="3 ambient coordinates but the "
                                                  "system has dimension 2"):
                call()

    def test_param_count_mismatch(self):
        with pytest.raises(ConfigError):
            surface_from_config({"params": 2,
                                 "embedding": ["cos(y1)", "sin(y1)"],
                                 "domain": [[-1, 1]]})
