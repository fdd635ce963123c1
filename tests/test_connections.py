import numpy as np
import pytest

import nslab
from nslab import (
    AsymmetricGauge,
    ConfigError,
    ExplicitConnection,
    ExplicitSystem,
    GaugedConnection,
    GaugeTensor,
    PhasePoint,
    ZeroConnection,
    canonical_connection,
    parse_expression,
    random_gauge_tensor,
)
from nslab import connections, taylor
from nslab.engine import PointCalculus
from nslab.expressions import evaluate_series
from nslab.oracles import canonical_connection_oracle
from nslab.systems import phase_env


def q(x, p):
    return PhasePoint(np.asarray(x, float), np.asarray(p, float))


QQ = q([0.3, -0.2], [1.1, 0.7])


class TestCovariantDerivative:
    def test_constant_scalar(self, sys_id2):
        conn = ExplicitConnection(2, {"1,1,2": "x1*p2", "2,2,2": "p1"})
        calc = PointCalculus(sys_id2, conn, QQ)
        assert np.allclose(calc.nabla(calc.ctx.constant(4.25)), 0.0)

    def test_momentum_field_is_parallel(self, sys_id2):
        # nabla_i p_j = 0 identically, whatever the symmetric connection
        conn = ExplicitConnection(2, {"1,1,1": "p1+x2", "1,2,2": "sin(x1)",
                                      "2,1,2": "p2^2"})
        calc = PointCalculus(sys_id2, conn, QQ)
        cd = calc.nabla(calc.ps, "d")
        assert np.allclose(cd, 0.0, atol=1e-15)

    def test_identity_velocity_flat(self, sys_id2):
        cd = PointCalculus(sys_id2, ZeroConnection(2), QQ).nabla_V
        assert np.allclose(cd, 0.0)

    def test_mgrad_is_plain_partial(self, sys_id2):
        calc = PointCalculus(sys_id2, ZeroConnection(2), QQ)
        env = phase_env(calc.xs, calc.ps)
        field = taylor.stack([evaluate_series(parse_expression(e, 2), env)
                              for e in ("p1^2", "x1")])
        mg = calc.mgrad(field)
        assert mg[0, 0] == pytest.approx(2 * QQ.p[0])
        assert np.allclose(mg[:, 1], 0.0)


def gamma_at(sys, conn, point):
    """The connection's coefficients at a point, from a depth-0 calc."""
    return PointCalculus(sys, conn, point, depth=0).gamma


class TestCurvatures:
    # R and D of an explicit connection do not read the system's metric
    def test_zero_connection(self, sys_id2):
        calc = PointCalculus(sys_id2, ZeroConnection(2), QQ)
        R, D = calc.R, calc.D
        assert np.allclose(R, 0) and np.allclose(D, 0)

    def test_flat_plane_polar(self, sys_id2):
        # Christoffel symbols of the flat plane in polar coordinates;
        # flatness of the plane is the oracle
        conn = ExplicitConnection(2, {"1,2,2": "-x1", "2,1,2": "1/x1"})
        point = q([2.0, 0.7], [0.4, -1.1])
        calc = PointCalculus(sys_id2, conn, point)
        R, D = calc.R, calc.D
        assert np.max(np.abs(R)) < 1e-10
        assert np.allclose(D, 0)

    def test_dynamic_curvature_entry(self, sys_id2):
        conn = ExplicitConnection(2, {"1,1,1": "p1"})
        D = PointCalculus(sys_id2, conn, QQ).D
        assert D[0, 0, 0, 0] == -1.0
        D[0, 0, 0, 0] = 0.0
        assert np.allclose(D, 0)

    def test_r_antisymmetry(self, sys_geox2, conn_geox2):
        R = PointCalculus(sys_geox2, conn_geox2, QQ).R
        assert np.max(np.abs(R + np.transpose(R, (0, 1, 3, 2)))) < 1e-10

    def test_d_matches_finite_difference(self, sys_geox2, conn_geox2):
        D = PointCalculus(sys_geox2, conn_geox2, QQ).D
        h = 1e-6
        for r in range(2):
            dp = np.zeros(2)
            dp[r] = h
            gp = gamma_at(sys_geox2, conn_geox2, q(QQ.x, QQ.p + dp))
            gm = gamma_at(sys_geox2, conn_geox2, q(QQ.x, QQ.p - dp))
            fd = -(gp - gm) / (2 * h)
            assert np.max(np.abs(fd - D[:, r])) < 1e-5

    def test_identity_canonical_curvature_zero(self, sys_id2):
        calc = PointCalculus(sys_id2, canonical_connection(sys_id2), QQ)
        R, D = calc.R, calc.D
        assert np.max(np.abs(R)) == 0.0
        assert np.max(np.abs(D)) == 0.0


class TestCanonicalConnection:
    def test_identity_zero(self, sys_id2):
        assert np.allclose(gamma_at(sys_id2, canonical_connection(sys_id2), QQ), 0.0)

    def test_geodesic_zero_and_symmetric(self, sys_geo2, conn_geo2):
        g = gamma_at(sys_geo2, conn_geo2, q([0, 0], [1, 0]))
        assert np.allclose(g, np.transpose(g, (0, 2, 1)), atol=1e-12)
        assert np.allclose(g, 0.0, atol=1e-14)

    def test_symmetry_random(self, sys_geox2, conn_geox2):
        rng = np.random.default_rng(3)
        for _ in range(5):
            point = q(rng.uniform(-1, 1, 2), rng.uniform(0.3, 2, 2))
            g = gamma_at(sys_geox2, conn_geox2, point)
            assert np.max(np.abs(g - np.transpose(g, (0, 2, 1)))) <= 1e-12

    @pytest.mark.parametrize("builder", ["geo", "riem"])
    def test_matches_velocity_space_oracle(self, builder, sys_geox2):
        from nslab import build_riemannian_euclidean

        if builder == "geo":
            sysm = sys_geox2
            pmax = 3.0
        else:
            sysm = build_riemannian_euclidean("v + x1*v^2/10", "w/5", 3)
            pmax = 2.0
        conn = canonical_connection(sysm)
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = sysm.n
            p = rng.normal(size=n)
            p *= rng.uniform(0.3, pmax) / np.linalg.norm(p)
            point = q(rng.uniform(-1, 1, n), p)
            direct = gamma_at(sysm, conn, point)
            oracle = canonical_connection_oracle(sysm, point)
            assert np.max(np.abs(direct - oracle)) < 1e-8


class TestForceCovector:
    def test_zero_connection_gives_theta(self, sys_bad2):
        Q = PointCalculus(sys_bad2, ZeroConnection(2), q([0, 0], [1, 2]), depth=0).Q
        assert np.allclose(Q, [4, 0])

    def test_hand_example(self):
        sysm = ExplicitSystem(2, ["3", "0"], ["0", "0"])
        conn = ExplicitConnection(2, {"1,1,1": "2"})
        Q = PointCalculus(sysm, conn, q([0, 0], [1, 0]), depth=0).Q
        assert np.allclose(Q, [-6, 0])

    def test_theta_reconstruction(self, sys_geox2, conn_geox2):
        rng = np.random.default_rng(8)
        for _ in range(10):
            point = q(rng.uniform(-1, 1, 2), rng.uniform(0.3, 2, 2))
            calc = PointCalculus(sys_geox2, conn_geox2, point, depth=0)
            Q, gamma = calc.Q, calc.gamma
            V, Theta = sys_geox2.rhs(point.x, point.p)
            rebuilt = Q + np.einsum("kij,k,j->i", gamma, point.p, V)
            assert np.max(np.abs(rebuilt - Theta)) < 1e-12


class TestGauge:
    def test_identity_gauge(self, sys_geox2, conn_geox2):
        T = GaugeTensor(2, {})
        gauged = PointCalculus(sys_geox2, GaugedConnection(conn_geox2, T), QQ, depth=0)
        base = PointCalculus(sys_geox2, conn_geox2, QQ, depth=0)
        assert np.allclose(gauged.gamma, base.gamma)
        assert np.allclose(gauged.Q, base.Q)

    def test_zero_base(self, sys_id2):
        T = GaugeTensor(2, {"1,1,2": "p1", "2,2,2": "x1"})
        gauged = GaugedConnection(ZeroConnection(2), T)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 1] = expected[0, 1, 0] = QQ.p[0]
        expected[1, 1, 1] = QQ.x[0]
        assert np.allclose(gamma_at(sys_id2, gauged, QQ), expected)

    def test_force_shift(self):
        sysm = ExplicitSystem(2, ["3", "0"], ["0", "0"])
        T = GaugeTensor(2, {"1,1,1": "1"})
        gauged = GaugedConnection(ZeroConnection(2), T)
        assert np.allclose(PointCalculus(sysm, gauged, q([0, 0], [2, 0]), depth=0).Q, [-6, 0])

    def test_inconsistent_entries_rejected(self):
        with pytest.raises(AsymmetricGauge):
            GaugeTensor(2, {"1,1,2": "p1", "1,2,1": "p2"})

    def test_bad_index_is_a_plain_config_error(self):
        with pytest.raises(ConfigError, match="bad gauge tensor index") as err:
            GaugeTensor(2, {"1,1,9": "p1"})
        assert not isinstance(err.value, AsymmetricGauge)

    def test_theta_invariance_random(self, sys_geox2, conn_geox2, sys_bad2, conn_bad2):
        rng = np.random.default_rng(21)
        cases = [(sys_geox2, conn_geox2), (sys_bad2, conn_bad2)]
        for sysm, conn in cases:
            for _ in range(25):
                T = random_gauge_tensor(2, rng)
                gauged = GaugedConnection(conn, T)
                point = q(rng.uniform(-1, 1, 2), rng.uniform(0.3, 2, 2))
                calc = PointCalculus(sysm, gauged, point, depth=0)
                V, Theta = sysm.rhs(point.x, point.p)
                rebuilt = calc.Q + np.einsum("kij,k,j->i", calc.gamma, point.p, V)
                assert np.max(np.abs(rebuilt - Theta)) < 1e-10

    def test_alpha_gauge_invariant(self, sys_geox2, conn_geox2):
        rng = np.random.default_rng(22)
        base = PointCalculus(sys_geox2, conn_geox2, QQ).alpha
        for _ in range(5):
            T = random_gauge_tensor(2, rng)
            gauged = GaugedConnection(conn_geox2, T)
            alpha = PointCalculus(sys_geox2, gauged, QQ).alpha
            assert np.max(np.abs(alpha - base)) < 1e-8

    def test_eta_conditional_covariance(self, sys_geox2, conn_geox2):
        # where the first weak residual vanishes, eta itself is invariant
        calc = PointCalculus(sys_geox2, conn_geox2, QQ)
        assert np.max(np.abs(calc.P @ calc.alpha)) < 1e-10
        rng = np.random.default_rng(23)
        for _ in range(5):
            T = random_gauge_tensor(2, rng)
            gauged = GaugedConnection(conn_geox2, T)
            eta = PointCalculus(sys_geox2, gauged, QQ).eta
            assert np.max(np.abs(eta - calc.eta)) < 1e-8


class TestExplicitConnectionConfig:
    def test_triangle_completion(self, sys_id2):
        conn = ExplicitConnection(2, {"1,1,2": "p1"})
        g = gamma_at(sys_id2, conn, QQ)
        assert g[0, 0, 1] == g[0, 1, 0] == QQ.p[0]

    def test_inconsistent_pair(self):
        with pytest.raises(ConfigError):
            ExplicitConnection(2, {"1,1,2": "p1", "1,2,1": "x1"})

    def test_bad_index(self):
        with pytest.raises(ConfigError):
            ExplicitConnection(2, {"3,1,1": "p1"})


def test_public_names_match_the_package_exports():
    # every name in __all__ exists and is re-exported by nslab, and nslab
    # re-exports nothing else of this module
    assert all(getattr(nslab, name) is getattr(connections, name)
               for name in connections.__all__)
    exported = {name for name, obj in vars(nslab).items()
                if getattr(obj, "__module__", None) == connections.__name__}
    assert exported == set(connections.__all__)
