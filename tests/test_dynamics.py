import math
import re

import numpy as np
import pytest

from nslab import (
    EvaluationDomainError,
    ExplicitSystem,
    ExtendedState,
    IntegratorConfig,
    NonFiniteState,
    PhasePoint,
    ZeroConnection,
    deviation,
    integrate_family,
    rk4_step,
    variational_rhs,
)
from nslab.dynamics import _DP_A, _DP_D, _DP_E, _dp_attempt, _fill_records
from nslab.engine import PointCalculus
from longform import long_form_fields


def q(x, p):
    return PhasePoint(np.asarray(x, float), np.asarray(p, float))


class TestPhaseRhs:
    def test_identity(self, sys_id2):
        V, T = sys_id2.rhs(np.array([0.4, 0.2]), np.array([1.0, 2.0]))
        assert np.allclose(V, [1, 2]) and np.allclose(T, 0)

    def test_geodesic(self, sys_geo2):
        V, T = sys_geo2.rhs(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        assert np.allclose(V, [1, 0]) and np.allclose(T, 0, atol=1e-15)

    def test_bad(self, sys_bad2):
        V, T = sys_bad2.rhs(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        assert np.allclose(V, [1, 2]) and np.allclose(T, [4, 0])


class TestRk4Step:
    def test_linear_growth_factor(self):
        # y' = lam y: one step multiplies y by the degree-4 Taylor polynomial
        # of exp(lam h), row by row
        lam = np.array([-3.0, -0.5, 0.0, 0.7, 2.0])[:, None]
        y = np.array([1.0, -2.0, 0.3, 4.0, 0.25])[:, None]
        h = 0.1
        z = lam * h
        want = y * (1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)
        got = rk4_step(lambda t, v: lam * v, 0.0, y, h)
        assert got.shape == y.shape
        assert np.allclose(got, want, rtol=4e-16, atol=0)

    def test_stage_times(self):
        seen = []

        def f(t, v):
            seen.append(t)
            return np.ones_like(v)

        t, h = 0.3, 0.125
        rk4_step(f, t, np.zeros(3), h)
        assert seen == [t, t + h / 2, t + h / 2, t + h]


class TestDeviation:
    @pytest.mark.parametrize("p,tau,expected", [
        ([1, 0], [0, 1], 0.0),
        ([1, 0], [1, 0], 1.0),
        ([3, 4], [4, -3], 0.0),
    ])
    def test_products(self, p, tau, expected, sys_id2):
        state = ExtendedState(0, q([0, 0], p), [tau], [[0, 0]])
        assert deviation(state)[0] == expected


class TestExtendedState:
    def test_variations_lead_with_the_batch(self):
        batch = q(np.zeros((3, 2)), np.ones((3, 2)))
        assert ExtendedState(0, batch).taus.shape == (3, 0, 2)
        assert ExtendedState(0, batch, np.zeros((3, 2, 2)), np.zeros((3, 2, 2))).m == 2
        # variation-first, a missing variation axis, and a flat layout
        for shape in [(2, 3, 2), (4, 3), (6,)]:
            with pytest.raises(ValueError, match="do not match"):
                ExtendedState(0, batch, np.zeros(shape), np.zeros(shape))
        with pytest.raises(ValueError, match="do not match"):
            ExtendedState(0, q([0, 0], [1, 0]), np.arange(6.0), np.zeros(6))
        assert ExtendedState(0, q([0, 0], [1, 0]), [[0, 1]], [[1, 0]]).m == 1


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
        tr = integrate_family(sysm, conn, ExtendedState(0, q(x0, p0), [dx0], [dp0]), cfg)
        plus = integrate_family(sysm, conn,
                                ExtendedState(0, q(x0 + eps * dx0, p0 + eps * dp0)), cfg)
        minus = integrate_family(sysm, conn,
                                 ExtendedState(0, q(x0 - eps * dx0, p0 - eps * dp0)), cfg)
        fd = (plus.x - minus.x) / (2 * eps)
        assert np.max(np.abs(fd - tr.taus[:, 0, :])) < 5 * eps

    def test_consistent_with_integrator_chart(self, sys_geox2, conn_geox2):
        # the recorded (tau, xi) trajectory must differentiate to the
        # covariant right-hand side, though the stepper carries (tau, dp)
        cfg = IntegratorConfig(t_end=0.2, step=1e-4)
        x0, p0 = np.array([0.1, 0.3]), np.array([0.9, 0.4])
        tau0, dp0 = np.array([1.0, -0.5]), np.array([0.2, 0.7])
        tr = integrate_family(sys_geox2, conn_geox2,
                              ExtendedState(0, q(x0, p0), [tau0], [dp0]), cfg)
        k = 1000
        st = tr.state(k)
        _, _, dtaus, dxis = variational_rhs(sys_geox2, conn_geox2, st)
        h = cfg.step
        fd_tau = (tr.taus[k + 1] - tr.taus[k - 1]) / (2 * h)
        fd_xi = (tr.xis(k + 1) - tr.xis(k - 1)) / (2 * h)
        assert np.max(np.abs(fd_tau - dtaus)) < 1e-6
        assert np.max(np.abs(fd_xi - dxis)) < 1e-6


def _row(state, b):
    """Batch row b of an extended state, as an unbatched state."""
    return ExtendedState(state.t, state.q[b], state.taus[b], state.dps[b])


def _assert_identical(a, b):
    """Two trajectories record the same bits."""
    for name in ("x", "p", "taus", "dps"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def _count_jacobian_calls(sysm):
    """List that grows by one entry per `rhs_jacobian_batch` call of sysm."""
    calls = []
    jac = sysm.rhs_jacobian_batch
    sysm.rhs_jacobian_batch = lambda X, P: calls.append(len(X)) or jac(X, P)
    return calls


@pytest.fixture(scope="module")
def geox2_reference(sys_geox2):
    """(f, y0, every state of RK4 at h = 1e-4 over [0, 1]) on a curved geox2 member.

    y = (x, p, tau, dp) with one variation pair; f is the phase and
    variation flow, the variation by the Jacobian of (V, Theta).
    """
    def f(t, y):
        V, T, J = sys_geox2.rhs_jacobian_batch(y[:, :2], y[:, 2:4])
        return np.concatenate([V, T, np.einsum("bij,bj->bi", J, y[:, 4:])], axis=1)

    y0 = np.array([[0.1, 0.2, 1.0, 0.8, 0.3, -0.2, 0.5, 0.1]])
    h = 1e-4
    path = [y0]
    for k in range(10000):
        path.append(rk4_step(f, k * h, path[-1], h))
    return f, y0, np.concatenate(path)


class TestFillRecords:
    @pytest.mark.parametrize("span", [1.0, -1.0])
    def test_matches_the_interpolant_per_record(self, span):
        # rows whose steps cover no record, one record and many records
        # (the first covers none, as its step ends before the next record),
        # each written into its own row of the history; the others stay NaN.
        # The last step ends on a record, where theta is 1
        rng = np.random.default_rng(7)
        grid = np.linspace(0.0, span, 41)
        s0 = span * np.array([0.101, 0.2, 0.1])
        s1 = np.array([span * 0.12, span * 0.23, grid[36]])
        rows = np.array([2, 0, 1])
        y0, f0, y1, f1, d = rng.normal(size=(5, 3, 6))
        hist = np.full((4, len(grid), 6), np.nan)
        _fill_records(hist, grid, rows, s0, s1, y0, f0, y1, f1, d)

        h = s1 - s0
        dy = y1 - y0
        r3 = h[:, None] * f0 - dy
        # y0 + th (dy + (1 - th) (r3 + th (r4 + (1 - th) r5))), innermost first
        coef = [h[:, None] * d, dy - h[:, None] * f1 - r3, r3, dy, y0]
        filled = np.zeros(hist.shape[:2], bool)
        for i, r in enumerate(rows):
            ks = [k for k, g in enumerate(grid) if span * s0[i] < span * g <= span * s1[i]]
            assert len(ks) == [0, 1, 32][i]
            for k in ks:
                th = (grid[k] - s0[i]) / h[i]
                want, scale = coef[0][i], np.abs(coef[0][i])
                for a, w in zip(coef[1:], (1 - th, th, 1 - th, th)):
                    want = want * w + a[i]      # Horner, and on |terms| for the scale
                    scale = scale * abs(w) + np.abs(a[i])
                assert np.all(np.abs(hist[r, k] - want) <= 1e-14 * scale)
                filled[r, k] = True
        assert np.all(np.isnan(hist[~filled]))
        # theta = 1 gives y1 to rounding
        eps = np.finfo(float).eps
        assert np.all(np.abs(hist[1, 36] - y1[2]) <= eps * (np.abs(y0[2]) + np.abs(y1[2])))


class TestDormandPrince:
    def test_tableau_is_consistent(self):
        # the rows of A sum to the published nodes c_2 .. c_7; the last row
        # is b, whose sum c_7 is 1
        nodes = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
        for row, c in zip(_DP_A, nodes, strict=True):
            assert abs(math.fsum(row) - c) <= 1e-15
        # e = b - b_hat and the dense output's d both annihilate constants
        assert abs(math.fsum(_DP_E)) <= 1e-15
        assert abs(math.fsum(_DP_D)) <= 1e-14

    def test_error_estimate_scales_as_h5(self):
        # the first-attempt estimate on the frequency-6 oscillator falls by
        # 2^5 when h halves (31.9)
        f = lambda y: np.stack([y[:, 1], -36.0 * y[:, 0]], axis=1)
        y0 = np.array([[0.3, 0.5]])
        est = [np.max(np.abs(_dp_attempt(f, y0, f(y0), np.array([[h]]))[2]))
               for h in (1e-2, 5e-3)]
        assert 16.0 <= est[0] / est[1] <= 64.0

    def test_dense_output_is_fourth_order(self):
        # y' = -y over one step: the dense output at theta = 1/2 errs
        # O(h^5), so halving h cuts it about 30 times
        f = lambda y: -y
        errs = []
        for h in (0.1, 0.05):
            y0 = np.array([[1.0]])
            y1, ks, _ = _dp_attempt(f, y0, f(y0), np.array([[h]]))
            d = sum(w * k for w, k in zip(_DP_D, ks))
            hist = np.full((1, 3, 1), np.nan)
            _fill_records(hist, np.array([0.0, h / 2, h]), np.array([0]), np.array([0.0]),
                          np.array([h]), y0, ks[0], y1, ks[-1], d)
            errs.append(abs(hist[0, 1, 0] - np.exp(-h / 2)))
        assert errs[0] >= 16.0 * errs[1]


class TestIntegrate:
    def test_identity_linear_motion(self, sys_id2, zero2):
        cfg = IntegratorConfig(t_end=1.0, step=1e-3)
        tr = integrate_family(sys_id2, zero2, ExtendedState(0, q([0, 0], [1, 0])), cfg)
        assert np.max(np.abs(tr.x[-1] - [1, 0])) < 1e-10

    def test_zero_connection_xis_form_no_fields(self, sys_id2, zero2, monkeypatch, tmp_path):
        # xi reads only gamma, which the zero connection gives without V or
        # Theta, so writing a trajectory forms neither
        tr = integrate_family(sys_id2, zero2, ExtendedState(0, q([0, 0], [1, 0.5])),
                              IntegratorConfig(t_end=0.05, step=1e-2))
        calls = []
        fields = ExplicitSystem.v_theta_series

        def count(self, *args):
            calls.append(args)
            return fields(self, *args)

        monkeypatch.setattr(ExplicitSystem, "v_theta_series", count)
        tr.write_csv(tmp_path / "trajectory.csv")
        assert not tr.xis(slice(None)).any()
        assert calls == []
        # a calc that reads W forms V and Theta once
        PointCalculus(sys_id2, zero2, tr.point(0), depth=0).W
        assert len(calls) == 1

    def test_geodesic_closed_form(self, sys_geo2, conn_geo2):
        cfg = IntegratorConfig(t_end=1.0, step=1e-3)
        tr = integrate_family(sys_geo2, conn_geo2, ExtendedState(0, q([1, 0], [1, 0])), cfg)
        assert np.max(np.abs(tr.x[-1] - [2, 0])) < 1e-9
        assert np.max(np.abs(tr.p[-1] - [1, 0])) < 1e-9

    def test_geodesic_exactness_degenerate_for_order_probe(self, sys_geo2,
                                                           conn_geo2):
        # the momentum is constant along these trajectories, so the stepper
        # reproduces them to roundoff and no order can be read off
        ref = np.array([2.0, 0.0])
        for step in (1e-2, 5e-3):
            cfg = IntegratorConfig(t_end=1.0, step=step)
            tr = integrate_family(sys_geo2, conn_geo2,
                                  ExtendedState(0, q([1, 0], [1, 0])), cfg)
            assert np.max(np.abs(tr.x[-1] - ref)) < 1e-13

    def test_fourth_order_convergence(self, geox2_reference):
        # genuine h^4 slope of the one RK4 scheme, at fixed h, on a curved
        # member of the same family
        f, y0, ref = geox2_reference
        errs = []
        for h in (1e-2, 5e-3):
            y = y0
            for k in range(round(1.0 / h)):
                y = rk4_step(f, k * h, y, h)
            errs.append(np.max(np.abs(y[0, :2] - ref[-1, :2])))
        ratio = errs[0] / errs[1]
        assert ratio >= 12.0
        assert 8.0 <= ratio <= 32.0  # within a factor-of-2 band of 2^4

    def test_matches_fixed_step_reference(self, sys_geox2, conn_geox2, geox2_reference):
        # the error-controlled flow at every recorded time, variations included,
        # against RK4 at h = 1e-4, whose own error is below 1e-13 here
        _, y0, ref = geox2_reference
        cfg = IntegratorConfig(t_end=1.0, step=1e-2)
        state = ExtendedState(0, q(y0[0, :2], y0[0, 2:4]), [y0[0, 4:6]], [y0[0, 6:]])
        tr = integrate_family(sys_geox2, conn_geox2, state, cfg)
        got = np.concatenate([tr.x, tr.p, tr.taus[:, 0], tr.dps[:, 0]], axis=1)
        assert np.max(np.abs(got - ref[::100])) < 1e-10

    def test_linearity_of_variations(self, sys_geox2, conn_geox2):
        cfg = IntegratorConfig(t_end=1.0, step=2e-3)
        point = q([0.2, -0.1], [1.0, 0.6])
        t1, x1 = np.array([0.3, -0.2]), np.array([0.1, 0.4])
        t2, x2 = np.array([-0.5, 0.8]), np.array([0.9, -0.3])
        run = lambda taus, xis: integrate_family(
            sys_geox2, conn_geox2, ExtendedState(0, point, taus, xis), cfg)
        a = run([t1], [x1])
        b = run([t2], [x2])
        c = run([t1 + t2], [x1 + x2])
        assert np.max(np.abs(a.taus + b.taus - c.taus)) < 1e-9
        assert np.max(np.abs(a.dps + b.dps - c.dps)) < 1e-9

    def test_nonfinite_detection(self):
        runaway = ExplicitSystem(2, ["p1^3", "p2"], ["p1^3", "0"])
        cfg = IntegratorConfig(t_end=10.0, step=1e-2)
        recorded = np.linspace(0.0, cfg.t_end, cfg.steps + 1).tolist()
        # p1 = 1 fails at step 52, where a sum of 52 steps of 1e-2 is not 0.52
        for p1 in (2.0, 1.0):
            with pytest.raises(NonFiniteState) as err:
                integrate_family(runaway, ZeroConnection(2),
                                 ExtendedState(0, q([0, 0], [p1, 0])), cfg)
            # the failing step's time as the trajectory records it
            assert err.value.t > 0
            assert err.value.t in recorded

    @pytest.mark.parametrize("step", [0.0, -1e-3, np.inf, np.nan])
    def test_step_must_be_positive_and_finite(self, step):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            IntegratorConfig(t_end=1.0, step=step)

    @pytest.mark.parametrize("t_end", [0.0, -0.0, np.inf, -np.inf, np.nan])
    def test_t_end_must_be_nonzero_and_finite(self, t_end):
        # a zero span records no evolution, so nothing to verify
        with pytest.raises(ValueError, match="t_end must be nonzero and finite"):
            IntegratorConfig(t_end=t_end)

    def test_backward_time_is_allowed(self):
        assert IntegratorConfig(t_end=-0.5, step=0.1).steps == 5

    def test_family_matches_single(self, sys_geox2, conn_geox2):
        # two variation pairs per row, none of them zero; forward and backward
        state = ExtendedState(0, q([[0.1, 0.0], [0.0, 0.2]], [[1.0, 0.2], [0.8, -0.4]]),
                              [[[0.0, 1.0], [0.3, -0.2]], [[1.0, 0.5], [-0.1, 0.7]]],
                              [[[0.5, 0.1], [-0.2, 0.4]], [[0.0, -0.3], [0.6, 0.2]]])
        for t_end in (0.5, -0.5):
            cfg = IntegratorConfig(t_end=t_end, step=1e-3)
            fam = integrate_family(sys_geox2, conn_geox2, state, cfg)
            assert len(fam) == 2 and fam.taus.shape == (2, cfg.steps + 1, 2, 2)
            for b in range(2):
                _assert_identical(integrate_family(sys_geox2, conn_geox2, _row(state, b), cfg),
                                  fam[b])
                assert np.abs(fam[b].taus[-1] - fam[b].taus[0]).max() > 0

    def test_trajectory_carries_the_batch_axes(self, sys_geox2, conn_geox2):
        # a (2, 3) batch: every record array leads with it, fam[i][j] is that
        # row alone, and a record's state, point and xi keep the batch
        rng = np.random.default_rng(3)
        state = ExtendedState(0, q(rng.uniform(-0.3, 0.3, (2, 3, 2)),
                                   rng.uniform(0.5, 1.5, (2, 3, 2))),
                              rng.normal(size=(2, 3, 1, 2)), rng.normal(size=(2, 3, 1, 2)))
        assert state.m == 1
        cfg = IntegratorConfig(t_end=0.2, step=1e-2)
        fam = integrate_family(sys_geox2, conn_geox2, state, cfg)
        records = cfg.steps + 1
        assert len(fam) == 2 and len(fam[1]) == 3 and fam.t.shape == (records,)
        assert fam.x.shape == fam.p.shape == (2, 3, records, 2)
        assert fam.taus.shape == fam.dps.shape == (2, 3, records, 1, 2)
        assert fam.phis.shape == (2, 3, records, 1)
        row = integrate_family(sys_geox2, conn_geox2, _row(_row(state, 1), 2), cfg)
        _assert_identical(row, fam[1][2])
        assert np.array_equal(row.phis, fam.phis[1, 2])
        st = fam.state(4)
        assert st.t == fam.t[4] and st.taus.shape == (2, 3, 1, 2)
        assert np.array_equal(st.q.x, fam.x[:, :, 4])
        assert np.allclose(deviation(st), fam.phis[:, :, 4], rtol=1e-15, atol=1e-15)
        assert np.array_equal(fam.xis(4)[1, 2], row.xis(4))
        with pytest.raises(TypeError, match="no batch axis"):
            row[0]

    @pytest.mark.parametrize("t_end", [0.5, -0.5])
    def test_family_matches_single_under_uneven_steps(self, t_end):
        # p2 = 0 keeps the first row on a straight line, which one step
        # integrates; the second oscillates in x1 at frequency 2 |p2| = 6
        sysm = ExplicitSystem(2, ["p1", "p2"], ["-4*x1*p2^2", "0"])
        calls = _count_jacobian_calls(sysm)
        cfg = IntegratorConfig(t_end=t_end, step=1e-2)
        state = ExtendedState(0, q([[0.3, 0.0], [0.3, 0.1]], [[1.0, 0.0], [0.5, 3.0]]),
                              [[[1.0, 0.5]]] * 2, [[[0.2, -0.1]]] * 2)
        singles, counts = [], []
        for b in range(2):
            calls.clear()
            singles.append(integrate_family(sysm, ZeroConnection(2), _row(state, b), cfg))
            counts.append(len(calls))
        assert counts[0] < counts[1] / 4
        # the straight row's estimate is 0, so its second step runs to the
        # end: 1 + 2 x 6 = 13 calls
        assert counts[0] <= 16
        fam = integrate_family(sysm, ZeroConnection(2), state, cfg)
        for single, tr in zip(singles, fam, strict=True):
            _assert_identical(single, tr)

    def test_an_accepted_step_costs_six_evaluations(self):
        # a span of one recording interval is one attempt, accepted against
        # its own estimate: the start slope and six stages, the seventh
        # being the slope at y1, and no further call for it
        sysm = ExplicitSystem(2, ["p1", "p2"], ["-4*x1*p2^2", "0"])
        calls = _count_jacobian_calls(sysm)
        tr = integrate_family(sysm, ZeroConnection(2), ExtendedState(0, q([0.3, 0.1], [0.5, 3.0])),
                              IntegratorConfig(t_end=1e-2, step=1e-2))
        assert calls == [1] * 7
        exact = 0.3 * np.cos(6e-2) + 0.5 / 6 * np.sin(6e-2)
        assert abs(tr.x[-1, 0] - exact) < 1e-8

    def test_tolerance_follows_the_recording_interval(self):
        # the estimate of one step of 1e-2 exceeds STEP_TOL on this
        # oscillator of frequency 6, so it is the tolerance: under twice the
        # 4 x 50 calls of RK4 at the recording interval (295), and more
        # accurate than that RK4 (2.6e-10 against 7.1e-8); 16 times the
        # estimate as the tolerance would err 3.9e-9
        sysm = ExplicitSystem(2, ["p1", "p2"], ["-4*x1*p2^2", "0"])
        calls = _count_jacobian_calls(sysm)
        tr = integrate_family(sysm, ZeroConnection(2), ExtendedState(0, q([0.3, 0.1], [0.5, 3.0])),
                              IntegratorConfig(t_end=0.5, step=1e-2))
        assert len(calls) < 400
        exact = 0.3 * np.cos(6 * tr.t) + 0.5 / 6 * np.sin(6 * tr.t)
        assert np.max(np.abs(tr.x[:, 0] - exact)) < 1e-9

    def test_runaway_stops_at_the_step_floor(self):
        # p1' = p1^3 blows up at t = 0.125 while the state stays finite, so
        # only the floor ends the row: about 100 attempts of 6 calls (619) as
        # the step shrinks toward the blow-up to 1e-4 of the recording interval
        runaway = ExplicitSystem(2, ["p1^3", "p2"], ["p1^3", "0"])
        calls = _count_jacobian_calls(runaway)
        with pytest.raises(NonFiniteState) as err:
            integrate_family(runaway, ZeroConnection(2), ExtendedState(0, q([0, 0], [2.0, 0])),
                             IntegratorConfig(t_end=10.0, step=1e-2))
        assert err.value.t == np.linspace(0.0, 10.0, 1001)[13]  # first record past it
        assert len(calls) < 1000

    def test_stall_names_the_step_floor(self):
        # x1 = 1 - t reaches log's boundary at t = 1, where p1'' = -1/x1
        # blows up: the error estimate shrinks the step to the floor while
        # the state stays finite and no evaluation raises.  The estimate of
        # p1 is the largest of the stalled attempt, and the error names it
        sysm = ExplicitSystem(2, ["-1", "1"], ["log(x1)", "0"])
        msg = ("the integration step fell below dynamics.STEP_FLOOR times the "
               "recording interval before t=1.0")
        with pytest.raises(NonFiniteState, match=re.escape(msg)) as err:
            integrate_family(sysm, ZeroConnection(2), ExtendedState(0, q([1, 0], [1, 0])),
                             IntegratorConfig(t_end=2.0, step=1e-2))
        assert err.value.t == 1.0
        assert err.value.component == "p1"
        assert str(err.value).endswith("was in p1")

    def test_nonfinite_attempt_shrinks_the_step_fivefold(self):
        # the first attempt's second stage reads NaN, so its estimate is NaN
        # and it is rejected; the retry is 1/5 as long.  Each attempt's step
        # is read from its second stage, x0 + (h/5) V with V = p
        sysm = ExplicitSystem(2, ["p1", "p2"], ["0", "0"])
        xs = []
        jac = sysm.rhs_jacobian_batch

        def stage(X, P):
            xs.append(X[0, 0])
            V, T, J = jac(X, P)
            return (np.full_like(V, np.nan) if len(xs) == 2 else V), T, J

        sysm.rhs_jacobian_batch = stage
        tr = integrate_family(sysm, ZeroConnection(2), ExtendedState(0, q([0.3, 0.1], [0.5, 2.0])),
                              IntegratorConfig(t_end=0.1, step=0.1))
        # the start's slope, the rejected attempt's one evaluated stage (its
        # NaN makes the later stages non-finite, so they are not evaluated),
        # then the retry
        steps = [5 * (x - 0.3) / 0.5 for x in xs[1:3]]
        assert steps == pytest.approx([0.1, 0.02], rel=1e-12)
        assert tr.x[-1] == pytest.approx([0.35, 0.3], rel=1e-14)

    def test_attempt_outside_the_domain_is_rejected(self):
        # x1 = exp(-8 p2 t) stays positive, but the first attempt of the
        # p2 = 1 row, one recording interval of 1/4, puts its fourth stage
        # at x1 = -0.6, where log raises: that attempt is rejected, and the
        # batch's rows are evaluated again alone, so each steps as it does
        # alone
        sysm = ExplicitSystem(2, ["-8*x1*p2", "1"], ["log(x1)", "0"])
        raised = []
        jac = sysm.rhs_jacobian_batch

        def counted(X, P):
            try:
                return jac(X, P)
            except EvaluationDomainError:
                raised.append(len(X))
                raise

        sysm.rhs_jacobian_batch = counted
        cfg = IntegratorConfig(t_end=1.0, step=0.25)
        state = ExtendedState(0, q([[1.0, 0.0]] * 2, [[0.0, 1.0], [0.0, 0.125]]),
                              [[[1.0, 0.5]]] * 2, [[[0.3, 1.0]]] * 2)
        fam = integrate_family(sysm, ZeroConnection(2), state, cfg)
        assert raised[0] == 2
        for b in range(2):
            _assert_identical(integrate_family(sysm, ZeroConnection(2), _row(state, b), cfg),
                              fam[b])
        # a row whose first attempt fails keeps STEP_TOL; the exact solution
        # is x1 = exp(-8 t), x2 = t, p1 = -4 t^2, p2 = 1
        tr = fam[0]
        exact = np.stack([np.exp(-8 * tr.t), tr.t, -4 * tr.t ** 2, np.ones_like(tr.t)], 1)
        assert np.max(np.abs(np.concatenate([tr.x, tr.p], 1) - exact)) < 1e-10

    def test_failing_row_is_isolated_by_halving(self):
        # the system of the test above: the first attempt of the p2 = 1 row
        # raises, the 15 rows at p2 = 0.125 stay in the domain.  The raising
        # stage splits its batch in halves, so it is resolved in 1 + 1 + 2 x 4
        # calls, and every row steps as it does alone
        sysm = ExplicitSystem(2, ["-8*x1*p2", "1"], ["log(x1)", "0"])
        log = []    # (rows, raised) per rhs_jacobian_batch call
        jac = sysm.rhs_jacobian_batch

        def counted(X, P):
            try:
                out = jac(X, P)
            except EvaluationDomainError:
                log.append((len(X), True))
                raise
            log.append((len(X), False))
            return out

        sysm.rhs_jacobian_batch = counted
        cfg = IntegratorConfig(t_end=1.0, step=0.25)
        x0 = [[1.0 + k / 16, 0.0] for k in range(16)]
        p0 = [[0.0, 1.0 if k == 6 else 0.125] for k in range(16)]
        state = ExtendedState(0, q(x0, p0), [[[1.0, 0.5]]] * 16, [[[0.3, 1.0]]] * 16)
        fam = integrate_family(sysm, ZeroConnection(2), state, cfg)
        first = next(i for i, (_, raised) in enumerate(log) if raised)
        assert log[first] == (16, True)
        # every row has its result once it is in a part that evaluates, or
        # alone in a part that raises
        done, last = 0, first
        while done < 16:
            last += 1
            rows, raised = log[last]
            done += rows if not raised or rows == 1 else 0
        assert last - first + 1 <= 10
        for b in range(16):
            _assert_identical(integrate_family(sysm, ZeroConnection(2), _row(state, b), cfg),
                              fam[b])

    def test_trajectory_keeps_its_start_time(self, sys_id2, zero2):
        cfg = IntegratorConfig(t_end=1.0, step=0.5)
        tr = integrate_family(sys_id2, zero2, ExtendedState(5.0, q([0, 0], [1, 0])), cfg)
        assert tr.t.tolist() == [5.0, 5.5, 6.0]
        # a recorded state integrated again continues on the same clock
        again = integrate_family(sys_id2, zero2, tr.state(2), cfg)
        assert again.t.tolist() == [6.0, 6.5, 7.0]

    def test_csv_roundtrip(self, sys_geo2, conn_geo2, tmp_path):
        cfg = IntegratorConfig(t_end=0.01, step=1e-3)
        state = ExtendedState(0, q([1, 0], [1, 0]), [[0, 1]], [[0.5, 0]])
        tr = integrate_family(sys_geo2, conn_geo2, state, cfg)
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
        tr = integrate_family(sys_geox2, conn_geox2, state, cfg)
        path = tmp_path / "trajectory.csv"
        tr.write_csv(path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        xi = rows[:, 7:9]
        want = np.stack([tr.xis(k)[0] for k in range(len(tr.t))])
        assert np.max(np.abs(want)) > 0.1
        assert np.max(np.abs(xi - want)) <= 1e-15


class TestWeakFields:
    def test_identity_all_zero(self, sys_id2, zero2):
        calc = PointCalculus(sys_id2, zero2, q([0.7, -0.4], [1.4, 0.2]))
        for part in (calc.U, calc.alpha, calc.beta, calc.eta):
            assert np.allclose(part, 0.0)
        A, B = calc.ode_coefficients
        assert A == 0.0 and B == 0.0

    def test_coefficient_identities(self, sys_geox2, conn_geox2):
        point = q([0.3, 0.2], [1.0, 0.4])
        calc = PointCalculus(sys_geox2, conn_geox2, point)
        A, B = calc.ode_coefficients
        assert A * calc.Omega == point.p @ calc.alpha
        assert B * calc.Omega == calc.eta @ calc.W

    @pytest.mark.parametrize("which", ["geox", "bad"])
    def test_long_form_oracle(self, which, sys_geox2, conn_geox2, sys_bad2,
                              conn_bad2):
        sysm, conn = ((sys_geox2, conn_geox2) if which == "geox"
                      else (sys_bad2, conn_bad2))
        rng = np.random.default_rng(17)
        for _ in range(8):
            point = q(rng.uniform(-1, 1, 2), rng.uniform(0.3, 2, 2))
            calc = PointCalculus(sysm, conn, point)
            alpha, beta, eta = long_form_fields(sysm, conn, point)
            scale = 1 + np.max(np.abs(alpha)) + np.max(np.abs(beta))
            assert np.max(np.abs(calc.alpha - alpha)) < 1e-9 * scale
            assert np.max(np.abs(calc.beta - beta)) < 1e-9 * scale
            assert np.max(np.abs(calc.eta - eta)) < 1e-9 * scale


class TestDeviationOde:
    def _run(self, sysm, conn, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-0.5, 0.5, 2)
        p0 = rng.uniform(0.5, 1.5, 2)
        taus = rng.uniform(-1, 1, (2, 2))
        xis = rng.uniform(-1, 1, (2, 2))
        cfg = IntegratorConfig(t_end=1.0, step=1e-3)
        return integrate_family(sysm, conn, ExtendedState(0, q(x0, p0), taus, xis), cfg)

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
            A, B = PointCalculus(sysm, conn, tr.point(k)).ode_coefficients
            rows.append((pdd, A * pd + B * phis[k]))
            max_pdd = max(max_pdd, np.max(np.abs(pdd)))
        tol = max(1e-4, 1e-3 * max_pdd)
        for pdd, pred in rows:
            assert np.max(np.abs(pdd - pred)) <= tol

    def test_phidot_matches_field_form(self, sys_geox2, conn_geox2):
        # d phi/dt = sum_k U_k tau^k + sum_k W^k xi_k

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
