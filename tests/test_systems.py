from types import SimpleNamespace

import numpy as np
import pytest

from nslab import (
    ConfigError,
    DegenerateOmega,
    ExplicitSystem,
    NslabError,
    PhasePoint,
    PointSampler,
    SingularMetric,
    ZeroConnection,
    ZeroWv,
    build_modified_hamiltonian,
    build_riemannian_euclidean,
    canonical_connection,
    check_regularity,
    evaluate,
    finite_difference_probe,
    normality_report,
    system_from_config,
    taylor,
)
from nslab.engine import PointCalculus
from nslab.systems import SINGULAR_RATIO


def q(x, p):
    return PhasePoint(np.asarray(x, float), np.asarray(p, float))


def frame(sysm, point):
    """The kinematic fields (V, metric pair, W, Omega, P) at a point."""
    return PointCalculus(sysm, ZeroConnection(sysm.n), point, depth=0)


class TestPhasePoint:
    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            PhasePoint([1.0], [1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PhasePoint([np.inf, 0], [1, 0])


class TestFrame:
    def test_identity_system(self, sys_id2):
        fr = frame(sys_id2, q([0, 0], [3, 4]))
        assert np.allclose(fr.g_up, np.eye(2))
        assert np.allclose(fr.W, [3, 4])
        assert fr.Omega == 25.0
        assert np.allclose(fr.P, [[0.64, -0.48], [-0.48, 0.36]], atol=1e-15)

    def test_geodesic_point(self, sys_geo2):
        fr = frame(sys_geo2, q([0, 0], [1, 0]))
        assert np.allclose(fr.V, [1, 0])
        assert np.allclose(fr.W, [-1, 0], atol=1e-14)
        assert fr.Omega == pytest.approx(-1.0, abs=1e-14)

    def test_geodesic_metric_pair(self, sys_geo2):
        fr = frame(sys_geo2, q([0, 0], [3, 4]))
        expected = np.array([[7.0, -24.0], [-24.0, -7.0]]) / 625.0
        assert np.allclose(fr.g_up, expected, atol=1e-15)
        assert np.linalg.det(fr.g_up) == pytest.approx(-1.0 / 625.0, rel=1e-12)

    def test_frame_identities_random(self, sys_geox2, sys_geo3):
        rng = np.random.default_rng(0)
        for sysm in (sys_geox2, sys_geo3):
            for _ in range(10):
                point = q(rng.uniform(-1, 1, sysm.n),
                          rng.uniform(0.2, 2, sysm.n) * rng.choice([-1, 1], sysm.n))
                fr = frame(sysm, point)
                n = sysm.n
                assert np.allclose(fr.g_up @ fr.g_down, np.eye(n), atol=1e-12)
                assert np.allclose(fr.P @ fr.P, fr.P, atol=1e-10)
                assert np.allclose(fr.P @ fr.W, 0, atol=1e-10)
                assert np.allclose(point.p @ fr.P, 0, atol=1e-10)
                assert fr.Omega == point.p @ fr.W

    def test_singular_metric(self):
        sysm = ExplicitSystem(2, ["p1", "p1"], ["0", "0"])
        with pytest.raises(SingularMetric):
            frame(sysm, q([0, 0], [1, 1])).g_up

    def test_singular_metric_is_scale_free(self):
        # a regular map scaled by 1e-5 stays regular; det g is 1e-15 here
        tiny = ExplicitSystem(3, ["1e-5*p1", "1e-5*p2", "1e-5*p3"], ["0", "0", "0"])
        sampler = PointSampler(3, 5, seed=0)
        assert check_regularity(tiny, sampler).verdict
        report = normality_report(tiny, ZeroConnection(3), sampler, 1e-7)
        assert report.verdict == "PASS"
        assert report.max_abs == 0.0

    @pytest.mark.parametrize("scale", ["1e-11", "1e-13"])
    def test_omega_and_velocity_cutoffs_are_scale_free(self, scale):
        # at 1e-11 <p|W> is ~1e-13, below an absolute cutoff of 1e-12;
        # at 1e-13 |V| is too
        tiny = ExplicitSystem(3, [f"{scale}*p{i}" for i in (1, 2, 3)], ["0", "0", "0"])
        sampler = PointSampler(3, 5, seed=0)
        assert check_regularity(tiny, sampler).verdict
        report = normality_report(tiny, ZeroConnection(3), sampler, 1e-7)
        assert report.verdict == "PASS"
        assert report.max_abs == 0.0

    def test_rotation_omega_stays_degenerate(self):
        # W is orthogonal to p, so <p|W> is zero up to rounding
        rotation = ExplicitSystem(2, ["p2", "-p1"], ["0", "0"])
        for point in PointSampler(2, 5, seed=0).points():
            with pytest.raises(DegenerateOmega):
                frame(rotation, point).Omega
        report = check_regularity(rotation, PointSampler(2, 5, seed=0))
        assert not report.verdict
        assert all("degenerate Omega" in s.failure for s in report.failures)


class TestModifiedHamiltonianBuilder:
    def test_values(self, sys_geo2):
        V, T = sys_geo2.rhs(np.zeros(2), np.array([1.0, 0.0]))
        assert np.allclose(V, [1, 0])
        assert np.allclose(T, [0, 0])

    def test_w_is_minus_v_everywhere(self):
        rng = np.random.default_rng(1)
        for text in ["(p1^2+p2^2)/2", "sqrt(p1^2+p2^2)", "(p1^2+2*p2^2)/2 + x1",
                     "exp(x1)*p1^2/2 + p2^2/2 + x2"]:
            sysm = build_modified_hamiltonian(text, 2)
            for _ in range(6):
                point = q(rng.uniform(-1, 1, 2), rng.uniform(0.3, 2, 2))
                fr = frame(sysm, point)
                assert np.allclose(fr.W, -fr.V, atol=1e-12)
                assert fr.Omega == pytest.approx(-1.0, abs=1e-12)

    def test_denominator_cutoff_is_scale_free(self):
        # the rescaled flow does not depend on the scale of H
        verdicts = []
        for scale in ("1", "1e-13"):
            sysm = build_modified_hamiltonian(f"{scale}*(p1^2 + p2^2)/2 + {scale}*x1", 2)
            report = normality_report(sysm, canonical_connection(sysm),
                                      PointSampler(2, 5, seed=0), 1e-7)
            assert not any(r.error for r in report.rows)
            verdicts.append(report.verdict)
        assert verdicts == ["PASS", "PASS"]

    def test_zero_momentum_degenerate(self):
        sysm = build_modified_hamiltonian("p1^2 + p2^2", 2)
        with pytest.raises(DegenerateOmega):
            sysm.rhs(np.zeros(2), np.zeros(2))


class TestRhsJacobian:
    SYSTEMS = {
        "hamiltonian": lambda: build_modified_hamiltonian(
            "(p1^2 + p2^2 + p3^2)/2 + x1*p2^2/5", 3),
        "explicit": lambda: ExplicitSystem(3, ["p1*x2", "p2", "p3 + x1^2"],
                                           ["p2^2", "x3*p1", "0"]),
        "euclidean": lambda: build_riemannian_euclidean("v + x1*v^2/10", "w/5", 3),
    }

    @pytest.mark.parametrize("kind", sorted(SYSTEMS))
    def test_batch_rows_are_single_points(self, kind):
        sysm = self.SYSTEMS[kind]()
        rng = np.random.default_rng(5)
        X, P = rng.uniform(-0.5, 0.5, (6, 3)), rng.uniform(0.5, 1.5, (6, 3))
        V, T, J = sysm.rhs_jacobian_batch(X, P)
        assert (V.shape, T.shape, J.shape) == ((6, 3), (6, 3), (6, 6, 6))
        # the integrator's einsum sums in an order that follows J's layout
        assert J.flags.c_contiguous
        for b in range(6):
            Vb, Tb, Jb = sysm.rhs_jacobian_batch(X[b], P[b])
            assert Jb.flags.c_contiguous
            assert np.array_equal(Vb, V[b]) and np.array_equal(Tb, T[b])
            assert np.array_equal(Jb, J[b])

    @pytest.mark.parametrize("kind", sorted(SYSTEMS))
    def test_rows_are_components_and_columns_are_directions(self, kind):
        sysm = self.SYSTEMS[kind]()
        point = q([0.2, -0.1, 0.3], [0.9, 0.4, -0.7])
        V, T, J = sysm.rhs_jacobian_batch(point.x, point.p)
        _, _, _, Vs, Ts = sysm.series_at(point, 1)
        units = [tuple(int(k == v) for k in range(6)) for v in range(6)]
        for i in range(3):
            assert V[i] == Vs[i].value() and T[i] == Ts[i].value()
            assert J[i].tolist() == [Vs[i].partial(u) for u in units]
            assert J[3 + i].tolist() == [Ts[i].partial(u) for u in units]


class TestSeriesContract:
    """V comes out exact to `v_trust` and Theta to `v_trust - 1`, for every kind.

    Theta is exact to `v_trust` itself at 0 and 1: `rhs` reads its values
    and `rhs_jacobian_batch` its first partials.
    """

    SYSTEMS = TestRhsJacobian.SYSTEMS

    @pytest.mark.parametrize("v_trust", range(5))
    @pytest.mark.parametrize("kind", sorted(SYSTEMS))
    def test_series_at_trusts(self, kind, v_trust):
        sysm = self.SYSTEMS[kind]()
        _, xs, ps, V, T = sysm.series_at(q([0.2, -0.1, 0.3], [0.9, 0.4, -0.7]), v_trust)
        # a calc reads the phase variables and V no further than v_trust
        assert xs.trust == ps.trust == V.trust == v_trust
        assert T.trust >= max(v_trust - 1, min(v_trust, 1))

    @pytest.mark.parametrize("kind", sorted(SYSTEMS))
    def test_jacobian_theta_rows_match_central_differences(self, kind):
        sysm = self.SYSTEMS[kind]()
        z = np.array([0.2, -0.1, 0.3, 0.9, 0.4, -0.7])
        _, _, J = sysm.rhs_jacobian_batch(z[:3], z[3:])
        for col, step in enumerate(1e-6 * np.eye(6)):
            fd = (sysm.rhs((z + step)[:3], (z + step)[3:])[1]
                  - sysm.rhs((z - step)[:3], (z - step)[3:])[1]) / 2e-6
            assert J[3:, col] == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestEuclideanBuilder:
    # a W per function whose derivative rule is easy to get wrong; {xn} is
    # the last coordinate, so n = 3 reads a third x-partial
    W_FUNCTIONS = ["v + abs(x1 - {xn})*v^2/10",
                   "v*(1 + tan(x1)/5) + {xn}",
                   "atan2(x1, v) + 2*v*(1 + {xn}^2)",
                   "v + log(1 + x1^2)*v^2/10 + x2*{xn}",
                   "v*pow(1 + x1^2 + {xn}^2, 1.5)"]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("W", W_FUNCTIONS)
    def test_theta_is_the_force_formula_of_probed_partials(self, W, n):
        # F_i = h(W)/W_v p_i/v - sum_k (d_k W/W_v) (2 p_k p_i - v^2 d^k_i)/v
        sysm = build_riemannian_euclidean(W.format(xn=f"x{n}"), "sin(w)/3", n)
        rng = np.random.default_rng(3)
        for _ in range(2):
            x = rng.uniform(-0.6, 0.6, n)
            p = rng.uniform(0.4, 1.2, n) * rng.choice([-1.0, 1.0], n)
            v = np.linalg.norm(p)
            at = list(x) + [v]
            dW = np.array([finite_difference_probe(sysm.W, at, unit, 1e-5)
                           for unit in np.eye(n + 1, dtype=int)])
            hw = evaluate(sysm.h, [evaluate(sysm.W, at)])
            quad = 2.0 * np.outer(p, p) - v * v * np.eye(n)
            force = hw / dW[n] * p / v - (dW[:n] / dW[n]) @ quad / v
            V, T = sysm.rhs(x, p)
            assert np.array_equal(V, p)
            assert T == pytest.approx(force, rel=1e-6)

    def test_geodesic_case(self):
        sysm = build_riemannian_euclidean("v", "0", 2)
        V, T = sysm.rhs(np.array([0.4, -0.2]), np.array([3.0, 4.0]))
        assert np.allclose(V, [3, 4])
        assert np.allclose(T, 0.0)

    def test_identity_force(self):
        sysm = build_riemannian_euclidean("v", "w", 2)
        _, T = sysm.rhs(np.zeros(2), np.array([3.0, 4.0]))
        assert np.allclose(T, [3, 4], atol=1e-13)

    def test_velocity_independent_w(self):
        sysm = build_riemannian_euclidean("x1", "0", 2)
        with pytest.raises(ZeroWv):
            sysm.rhs(np.zeros(2), np.array([1.0, 0.0]))

    def test_w_v_cutoff_is_scale_free(self):
        # |W_v| = 1e-13 sits below an absolute cutoff of 1e-12, but it is
        # the size of d_x W; only the ratio may decide
        sampler = PointSampler(n=2, count=5, seed=0)
        for scale in ("1", "1e-13"):
            sysm = build_riemannian_euclidean(f"{scale}*(v + x1)", "w", 2)
            report = normality_report(sysm, ZeroConnection(2), sampler, 1e-7)
            assert report.verdict == "PASS", [r.error for r in report.rows]

    def test_trajectories_match_rescaled_hamiltonian(self):
        # h = 0 member versus the rescaled Hamiltonian flow of the same W;
        # the fibers are related by momentum inversion p -> p/|p|^2
        from nslab import ExtendedState, IntegratorConfig, integrate_family
        from nslab.expressions import parse, phase_variables, substitute

        n = 2
        flat = build_riemannian_euclidean("v + x1*v^2/10", "0", n)
        inv = parse("1/sqrt(p1^2+p2^2)", phase_variables(n))
        W = parse("v + x1*v^2/10", ("x1", "x2", "v"))
        twin = build_modified_hamiltonian(substitute(W, "v", inv), n)
        zc = ZeroConnection(n)
        cfg = IntegratorConfig(t_end=1.0, step=2e-3)
        rng = np.random.default_rng(9)
        x0, p0, inverted = np.empty((3, 4, n))
        for b in range(4):
            x0[b] = rng.uniform(-0.3, 0.3, n)
            p0[b] = rng.normal(size=n)
            p0[b] *= rng.uniform(0.6, 1.2) / np.linalg.norm(p0[b])
            inverted[b] = p0[b] / float(p0[b] @ p0[b])
        ta = integrate_family(flat, zc, ExtendedState(0, PhasePoint(x0, p0)), cfg)
        tb = integrate_family(twin, zc, ExtendedState(0, PhasePoint(x0, inverted)), cfg)
        assert ta.x.shape == (4, cfg.steps + 1, n)
        assert np.max(np.abs(ta.x - tb.x)) < 1e-6


class TestPhiPullback:
    def test_identity_zero(self, sys_id2):
        assert np.allclose(frame(sys_id2, q([0.3, 0.1], [1, 2])).phi, 0.0)

    def test_geodesic_zero(self, sys_geo2):
        assert np.allclose(frame(sys_geo2, q([0.3, 0.1], [1, 2])).phi, 0.0,
                           atol=1e-14)

    def test_constant_force(self):
        sysm = ExplicitSystem(2, ["p1", "p2"], ["1", "0"])
        assert np.allclose(frame(sysm, q([0.5, 0.5], [0.7, 0.2])).phi, [1, 0])


class TestRegularity:
    def test_geodesic_passes(self, sys_geo2):
        report = check_regularity(sys_geo2, PointSampler(2, 100, seed=4))
        assert report.verdict
        assert "local" in report.note

    def test_identity_passes(self, sys_id2):
        report = check_regularity(sys_id2, PointSampler(2, 50, seed=5))
        assert report.verdict
        for s in report.samples:
            assert s.omega > 0

    def test_degenerate_map_fails(self):
        sysm = ExplicitSystem(2, ["p1", "p1"], ["0", "0"])
        report = check_regularity(sysm, PointSampler(2, 10, seed=6))
        assert not report.verdict
        assert all("singular" in s.failure for s in report.failures)

    def test_evaluation_errors_become_entries(self):
        # sqrt(x1) leaves its domain at the samples with x1 < 0
        sysm = ExplicitSystem(2, ["sqrt(x1)*p1", "p2"], ["0", "0"])
        report = check_regularity(sysm, PointSampler(n=2, count=10, seed=0))
        assert not report.verdict
        assert report.failures
        for s in report.failures:
            assert s.q.x[0] < 0
            assert s.failure.startswith("EvaluationDomainError: ")
        assert all(s.ok for s in report.samples if s.q.x[0] > 0)


def _regularity_reference(sysm, point):
    """(det, v_norm, omega, ok, failure) of one point, evaluated on its own.

    det, v_norm and omega are reported whichever check fails; they are NaN
    only when the point cannot be evaluated.
    """
    det = v_norm = omega = np.nan
    ok, failure = True, ""
    try:
        calc = frame(sysm, point)
        det = float(np.linalg.det(taylor.read_values(calc.Vp_s)))
        v_norm = float(np.linalg.norm(calc.V))
        omega = point.p @ calc.W
        calc.g_up, calc.Omega
        if v_norm <= SINGULAR_RATIO * np.linalg.norm(calc.g_up) * np.linalg.norm(point.p):
            ok, failure = False, "velocity field vanished at nonzero momentum"
    except SingularMetric as err:
        ok, failure = False, f"singular metric: {err}"
    except DegenerateOmega as err:
        ok, failure = False, f"degenerate Omega: {err}"
    except NslabError as err:
        ok, failure = False, f"{type(err).__name__}: {err}"
    return det, v_norm, omega, ok, failure


class TestBatchedRegularity:
    # g = diag(x1, sqrt(x2)) and Omega = x1 p1^2 + sqrt(x2) p2^2
    SYSTEM = ExplicitSystem(2, ["x1*p1", "sqrt(x2)*p2"], ["0", "0"])

    @staticmethod
    def points(count):
        rng = np.random.default_rng(3)
        return [q(rng.uniform(0.5, 2.0, 2), rng.uniform(-2.0, 2.0, 2)) for _ in range(count)]

    @pytest.fixture()
    def calcs(self, monkeypatch):
        built = []
        init = PointCalculus.__init__

        def counted(self, sys, conn, point, *args, **kwargs):
            built.append(point.x.shape[:-1])
            init(self, sys, conn, point, *args, **kwargs)

        monkeypatch.setattr(PointCalculus, "__init__", counted)
        return built

    def test_samples_match_point_by_point(self, calcs):
        # 20 points: a batch of 16 with a singular metric at 5 and a
        # degenerate Omega at 9 in its middle, and a batch of 4 that leaves
        # the domain of sqrt at 17
        points = self.points(20)
        points[5] = q([0.0, 1.0], [1.0, 1.0])
        points[9] = q([-1.0, 1.0], [1.0, 1.0])
        points[17] = q([1.0, -1.0], [1.0, 1.0])
        report = check_regularity(self.SYSTEM, SimpleNamespace(points=lambda: points))
        # the failed checks are read from the batch; only the domain error
        # makes its batch evaluate again, in halves: 16-17 (16, 17), 18-19
        assert calcs == [(16,), (4,), (2,), (1,), (1,), (2,)]
        assert [i for i, s in enumerate(report.samples) if not s.ok] == [5, 9, 17]
        assert report.samples[5].failure.startswith("singular metric: ")
        assert report.samples[9].failure.startswith("degenerate Omega: ")
        assert report.samples[17].failure.startswith("EvaluationDomainError: ")
        for point, s in zip(points, report.samples):
            det, v_norm, omega, ok, failure = _regularity_reference(self.SYSTEM, point)
            assert s.q is point
            assert np.array_equal([s.det_g, s.v_norm, s.omega], [det, v_norm, omega],
                                  equal_nan=True)
            assert (s.ok, s.failure) == (ok, failure)

    def test_one_calc_per_batch(self, calcs):
        points = self.points(20)
        assert check_regularity(self.SYSTEM, SimpleNamespace(points=lambda: points)).verdict
        assert calcs == [(16,), (4,)]


class TestConfig:
    def test_explicit(self):
        sysm = system_from_config(
            {"n": 2, "kind": "explicit", "V": ["p1", "p2"], "Theta": ["0", "0"]})
        assert isinstance(sysm, ExplicitSystem)

    def test_missing_field(self):
        with pytest.raises(ConfigError):
            system_from_config({"n": 2, "kind": "modified_hamiltonian"})

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            system_from_config({"n": 2, "kind": "nope"})

    def test_wrong_component_count(self):
        with pytest.raises(ConfigError):
            ExplicitSystem(2, ["p1"], ["0", "0"])
