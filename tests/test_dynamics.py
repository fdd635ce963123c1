import numpy as np
import pytest

from nslab import (
    ExplicitSystem,
    ExtendedState,
    IntegratorConfig,
    NonFiniteState,
    PhasePoint,
    ZeroConnection,
    deviation,
    integrate,
    integrate_family,
    phase_rhs,
    variational_rhs,
    weak_fields,
)
from longform import long_form_fields


def q(x, p):
    return PhasePoint(np.asarray(x, float), np.asarray(p, float))


class TestPhaseRhs:
    def test_identity(self, sys_id2):
        V, T = phase_rhs(sys_id2, q([0.4, 0.2], [1, 2]))
        assert np.allclose(V, [1, 2]) and np.allclose(T, 0)

    def test_geodesic(self, sys_geo2):
        V, T = phase_rhs(sys_geo2, q([0, 0], [1, 0]))
        assert np.allclose(V, [1, 0]) and np.allclose(T, 0, atol=1e-15)

    def test_bad(self, sys_bad2):
        V, T = phase_rhs(sys_bad2, q([0, 0], [1, 2]))
        assert np.allclose(V, [1, 2]) and np.allclose(T, [4, 0])


class TestDeviation:
    @pytest.mark.parametrize("p,tau,expected", [
        ([1, 0], [0, 1], 0.0),
        ([1, 0], [1, 0], 1.0),
        ([3, 4], [4, -3], 0.0),
    ])
    def test_products(self, p, tau, expected, sys_id2):
        state = ExtendedState(0, q([0, 0], p), [tau], [[0, 0]])
        assert deviation(state)[0] == expected


class TestVariationalRhs:
    def test_identity_decouples(self, sys_id2, zero2):
        state = ExtendedState(0, q([0, 0], [1, 0]), [[0.3, 0.4]], [[0.7, -0.2]])
        _, _, dtaus, dxis = variational_rhs(sys_id2, zero2, state)
        # with the zero connection xi = dp
        assert np.allclose(dtaus, state.dps)
        assert np.allclose(dxis, 0)

    def test_zero_variation_stays_zero(self, sys_geox2, conn_geox2):
        state = ExtendedState(0, q([0.2, 0.1], [1, 0.5]),
                              np.zeros((1, 2)), np.zeros((1, 2)))
        _, _, dtaus, dxis = variational_rhs(sys_geox2, conn_geox2, state)
        assert np.allclose(dtaus, 0) and np.allclose(dxis, 0)

    @pytest.mark.parametrize("case", ["geo", "geox"])
    def test_matches_trajectory_pair(self, case, sys_geo2, conn_geo2,
                                     sys_geox2, conn_geox2):
        sysm, conn = ((sys_geo2, conn_geo2) if case == "geo"
                      else (sys_geox2, conn_geox2))
        cfg = IntegratorConfig(t_end=1.0, step=1e-3)
        x0, p0 = np.array([0.2, -0.1]), np.array([1.0, 0.6])
        dx0, dp0 = np.array([0.3, -0.2]), np.array([0.1, 0.4])
        eps = 1e-5
        tr = integrate(sysm, conn, ExtendedState(0, q(x0, p0), [dx0], [dp0]), cfg)
        plus = integrate(sysm, conn,
                         ExtendedState(0, q(x0 + eps * dx0, p0 + eps * dp0)), cfg)
        minus = integrate(sysm, conn,
                          ExtendedState(0, q(x0 - eps * dx0, p0 - eps * dp0)), cfg)
        fd = (plus.x - minus.x) / (2 * eps)
        assert np.max(np.abs(fd - tr.taus[:, 0, :])) < 5 * eps

    def test_consistent_with_integrator_chart(self, sys_geox2, conn_geox2):
        # the recorded (tau, xi) trajectory must differentiate to the
        # covariant right-hand side, though the stepper carries (tau, dp)
        cfg = IntegratorConfig(t_end=0.2, step=1e-4)
        x0, p0 = np.array([0.1, 0.3]), np.array([0.9, 0.4])
        tau0, dp0 = np.array([1.0, -0.5]), np.array([0.2, 0.7])
        tr = integrate(sys_geox2, conn_geox2,
                       ExtendedState(0, q(x0, p0), [tau0], [dp0]), cfg)
        k = 1000
        st = tr.state(k)
        _, _, dtaus, dxis = variational_rhs(sys_geox2, conn_geox2, st)
        h = cfg.step
        fd_tau = (tr.taus[k + 1] - tr.taus[k - 1]) / (2 * h)
        fd_xi = (tr.xis(k + 1) - tr.xis(k - 1)) / (2 * h)
        assert np.max(np.abs(fd_tau - dtaus)) < 1e-6
        assert np.max(np.abs(fd_xi - dxis)) < 1e-6


class TestIntegrate:
    def test_identity_linear_motion(self, sys_id2, zero2):
        cfg = IntegratorConfig(t_end=1.0, step=1e-3)
        tr = integrate(sys_id2, zero2, ExtendedState(0, q([0, 0], [1, 0])), cfg)
        assert np.max(np.abs(tr.x[-1] - [1, 0])) < 1e-10

    def test_geodesic_closed_form(self, sys_geo2, conn_geo2):
        cfg = IntegratorConfig(t_end=1.0, step=1e-3)
        tr = integrate(sys_geo2, conn_geo2, ExtendedState(0, q([1, 0], [1, 0])), cfg)
        assert np.max(np.abs(tr.x[-1] - [2, 0])) < 1e-9
        assert np.max(np.abs(tr.p[-1] - [1, 0])) < 1e-9

    def test_geodesic_exactness_degenerate_for_order_probe(self, sys_geo2,
                                                           conn_geo2):
        # the momentum is constant along these trajectories, so RK4
        # reproduces them to roundoff and no h^4 slope can be read off
        ref = np.array([2.0, 0.0])
        for step in (1e-2, 5e-3):
            cfg = IntegratorConfig(t_end=1.0, step=step)
            tr = integrate(sys_geo2, conn_geo2,
                           ExtendedState(0, q([1, 0], [1, 0])), cfg)
            assert np.max(np.abs(tr.x[-1] - ref)) < 1e-13

    def test_fourth_order_convergence(self, sys_geox2, conn_geox2):
        # genuine h^4 slope on a curved member of the same family
        state = ExtendedState(0, q([0.1, 0.2], [1.0, 0.8]))
        ref = integrate(sys_geox2, conn_geox2, state,
                        IntegratorConfig(t_end=1.0, step=1e-4)).x[-1]
        errs = []
        for step in (1e-2, 5e-3):
            tr = integrate(sys_geox2, conn_geox2, state,
                           IntegratorConfig(t_end=1.0, step=step))
            errs.append(np.max(np.abs(tr.x[-1] - ref)))
        ratio = errs[0] / errs[1]
        assert ratio >= 12.0
        assert 8.0 <= ratio <= 32.0  # within a factor-of-2 band of 2^4

    def test_linearity_of_variations(self, sys_geox2, conn_geox2):
        cfg = IntegratorConfig(t_end=1.0, step=2e-3)
        point = q([0.2, -0.1], [1.0, 0.6])
        t1, x1 = np.array([0.3, -0.2]), np.array([0.1, 0.4])
        t2, x2 = np.array([-0.5, 0.8]), np.array([0.9, -0.3])
        run = lambda taus, xis: integrate(
            sys_geox2, conn_geox2, ExtendedState(0, point, taus, xis), cfg)
        a = run([t1], [x1])
        b = run([t2], [x2])
        c = run([t1 + t2], [x1 + x2])
        assert np.max(np.abs(a.taus + b.taus - c.taus)) < 1e-9
        assert np.max(np.abs(a.dps + b.dps - c.dps)) < 1e-9

    def test_nonfinite_detection(self):
        runaway = ExplicitSystem(2, ["p1^3", "p2"], ["p1^3", "0"])
        cfg = IntegratorConfig(t_end=10.0, step=1e-2)
        with pytest.raises(NonFiniteState) as err:
            integrate(runaway, ZeroConnection(2),
                      ExtendedState(0, q([0, 0], [2, 0])), cfg)
        assert err.value.t > 0

    def test_family_matches_single(self, sys_geox2, conn_geox2):
        cfg = IntegratorConfig(t_end=0.5, step=1e-3)
        states = [ExtendedState(0, q([0.1, 0.0], [1.0, 0.2])),
                  ExtendedState(0, q([0.0, 0.2], [0.8, -0.4]))]
        fam = integrate_family(sys_geox2, conn_geox2, states, cfg)
        for st, tr in zip(states, fam):
            single = integrate(sys_geox2, conn_geox2, st, cfg)
            assert np.array_equal(single.x, tr.x)
            assert np.array_equal(single.p, tr.p)

    def test_csv_roundtrip(self, sys_geo2, conn_geo2, tmp_path):
        cfg = IntegratorConfig(t_end=0.01, step=1e-3)
        state = ExtendedState(0, q([1, 0], [1, 0]), [[0, 1]], [[0.5, 0]])
        tr = integrate(sys_geo2, conn_geo2, state, cfg)
        path = tmp_path / "trajectory.csv"
        tr.write_csv(path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["t", "x1", "x2", "p1", "p2", "tau1_1", "tau1_2",
                          "xi1_1", "xi1_2", "phi_1"]
        assert len(lines) == cfg.steps + 2

    def test_csv_xi_matches_each_step(self, sys_geox2, conn_geox2, tmp_path):
        # 41 steps: the connection is read in batches of 16, 16 and 9 points
        cfg = IntegratorConfig(t_end=0.4, step=1e-2)
        state = ExtendedState(0, q([0.3, -0.2], [1.1, 0.6]), [[0, 1]], [[0.5, 0.2]])
        tr = integrate(sys_geox2, conn_geox2, state, cfg)
        path = tmp_path / "trajectory.csv"
        tr.write_csv(path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        xi = rows[:, 7:9]
        want = np.stack([tr.xis(k)[0] for k in range(len(tr.t))])
        assert np.max(np.abs(want)) > 0.1
        assert np.max(np.abs(xi - want)) <= 1e-15


class TestWeakFields:
    def test_identity_all_zero(self, sys_id2, zero2):
        wf = weak_fields(sys_id2, zero2, q([0.7, -0.4], [1.4, 0.2]))
        for part in (wf.U, wf.alpha, wf.beta, wf.eta):
            assert np.allclose(part, 0.0)
        assert wf.A == 0.0 and wf.B == 0.0

    def test_coefficient_identities(self, sys_geox2, conn_geox2):
        from nslab.engine import PointCalculus

        point = q([0.3, 0.2], [1.0, 0.4])
        wf = weak_fields(sys_geox2, conn_geox2, point)
        calc = PointCalculus(sys_geox2, conn_geox2, point)
        assert wf.A * calc.Omega == point.p @ wf.alpha
        assert wf.B * calc.Omega == wf.eta @ calc.W

    @pytest.mark.parametrize("which", ["geox", "bad"])
    def test_long_form_oracle(self, which, sys_geox2, conn_geox2, sys_bad2,
                              conn_bad2):
        sysm, conn = ((sys_geox2, conn_geox2) if which == "geox"
                      else (sys_bad2, conn_bad2))
        rng = np.random.default_rng(17)
        for _ in range(8):
            point = q(rng.uniform(-1, 1, 2), rng.uniform(0.3, 2, 2))
            wf = weak_fields(sysm, conn, point)
            alpha, beta, eta = long_form_fields(sysm, conn, point)
            scale = 1 + np.max(np.abs(alpha)) + np.max(np.abs(beta))
            assert np.max(np.abs(wf.alpha - alpha)) < 1e-9 * scale
            assert np.max(np.abs(wf.beta - beta)) < 1e-9 * scale
            assert np.max(np.abs(wf.eta - eta)) < 1e-9 * scale


class TestDeviationOde:
    def _run(self, sysm, conn, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-0.5, 0.5, 2)
        p0 = rng.uniform(0.5, 1.5, 2)
        taus = rng.uniform(-1, 1, (2, 2))
        xis = rng.uniform(-1, 1, (2, 2))
        cfg = IntegratorConfig(t_end=1.0, step=1e-3)
        return integrate(sysm, conn, ExtendedState(0, q(x0, p0), taus, xis), cfg)

    @pytest.mark.parametrize("which", ["geo", "geox"])
    def test_second_order_ode(self, which, sys_geo2, conn_geo2, sys_geox2,
                              conn_geox2):
        sysm, conn = ((sys_geo2, conn_geo2) if which == "geo"
                      else (sys_geox2, conn_geox2))
        tr = self._run(sysm, conn, 101)
        phis = tr.phis
        h = 1e-3
        max_pdd = 0.0
        rows = []
        for k in range(100, 901, 50):
            pdd = (-phis[k - 2] + 16 * phis[k - 1] - 30 * phis[k]
                   + 16 * phis[k + 1] - phis[k + 2]) / (12 * h * h)
            pd = (phis[k - 2] - 8 * phis[k - 1]
                  + 8 * phis[k + 1] - phis[k + 2]) / (12 * h)
            wf = weak_fields(sysm, conn, tr.point(k))
            rows.append((pdd, wf.A * pd + wf.B * phis[k]))
            max_pdd = max(max_pdd, np.max(np.abs(pdd)))
        tol = max(1e-4, 1e-3 * max_pdd)
        for pdd, pred in rows:
            assert np.max(np.abs(pdd - pred)) <= tol

    def test_phidot_matches_field_form(self, sys_geox2, conn_geox2):
        # d phi/dt = sum_k U_k tau^k + sum_k W^k xi_k
        from nslab.engine import PointCalculus

        tr = self._run(sys_geox2, conn_geox2, 55)
        phis = tr.phis
        h = 1e-3
        for k in range(100, 901, 100):
            pd = (phis[k - 2] - 8 * phis[k - 1]
                  + 8 * phis[k + 1] - phis[k + 2]) / (12 * h)
            st = tr.state(k)
            calc = PointCalculus(sys_geox2, conn_geox2, st.q)
            pred = st.taus @ calc.U + tr.xis(k) @ calc.W
            assert np.max(np.abs(pd - pred)) < 1e-5
