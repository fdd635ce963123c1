"""Batched evaluation agrees with the point-by-point evaluation it replaces."""

import numpy as np
import pytest

from nslab import (
    DegenerateOmega,
    ExplicitConnection,
    ExplicitSystem,
    GaugedConnection,
    Hypersurface,
    NuVanished,
    PhasePoint,
    PointSampler,
    RankDeficientTangents,
    SingularMetric,
    ZeroConnection,
    build_modified_hamiltonian,
    canonical_connection,
    pfaff_rhs,
    random_gauge_tensor,
    solve_nu,
)
from nslab.engine import PointCalculus

FIELDS = ["V", "Theta", "phi", "g_up", "g_down", "W", "Omega", "P", "gamma", "glow",
          "Q", "U", "R", "D", "nabla_V", "nabla_W", "mgrad_W", "nabla_Q", "mgrad_Q",
          "nabla_U", "mgrad_U", "alpha", "beta", "eta", "ode_coefficients",
          "A_tensor", "B_tensor", "C_tensor", "lam"]

SPHERE = Hypersurface(3, ["sin(y1)*cos(y2)", "sin(y1)*sin(y2)", "cos(y1)"],
                      [[0.3, 1.2], [-0.6, 0.6]])


def _connections(n):
    """(label, system, connection) with canonical, gauged and explicit connections."""
    geox = build_modified_hamiltonian(
        "(p1^2 + 2*p2^2)/2 + x1" if n == 2 else "(p1^2 + p2^2 + p3^2)/2 + x1*p2^2/5", n)
    bad = ExplicitSystem(n, [f"p{i+1}" for i in range(n)],
                         ["p2^2"] + ["0"] * (n - 1))
    canonical = canonical_connection(geox)
    gauge = random_gauge_tensor(n, np.random.default_rng(n))
    explicit = ExplicitConnection(n, {"1,1,2": "x1*p2", f"{n},{n},{n}": "sin(p1)",
                                      "2,1,1": "0.5"})
    return [("canonical", geox, canonical),
            ("gauged", geox, GaugedConnection(canonical, gauge)),
            ("explicit", bad, explicit),
            ("zero", bad, ZeroConnection(n))]


CASES = [(n, label) for n in (2, 3) for label in ("canonical", "gauged", "explicit", "zero")]


def _stack(points, shape):
    x = np.stack([q.x for q in points]).reshape(shape + (-1,))
    p = np.stack([q.p for q in points]).reshape(shape + (-1,))
    return PhasePoint(x, p)


def _assert_stacked(batched, scalars, scale=None, rel=1e-14):
    """batched equals the stacked scalars to rel times scale (default: their size, at least 1)."""
    stacked = np.stack([np.asarray(s) for s in scalars]).reshape(np.shape(batched))
    if scale is None:
        scale = max(1.0, float(np.max(np.abs(stacked))))
    assert np.max(np.abs(batched - stacked), initial=0.0) <= rel * scale


class TestBatchedFields:
    @pytest.mark.parametrize("n,label", CASES)
    def test_fields_match_stacked_points(self, n, label):
        _, sysm, conn = next(c for c in _connections(n) if c[0] == label)
        points = PointSampler(n, 6, seed=10 + n).points()
        batch = PointCalculus(sysm, conn, _stack(points, (2, 3)), depth=1)
        singles = [PointCalculus(sysm, conn, q, depth=1) for q in points]
        pairs = []
        for name in FIELDS:
            got, scalar = getattr(batch, name), [getattr(s, name) for s in singles]
            if name == "ode_coefficients":
                pairs += [(name, got[j], [s[j] for s in scalar]) for j in range(2)]
            else:
                pairs.append((name, got, scalar))
        # fields that vanish for a compliant system are rounding left over from
        # cancelling terms, so the tolerance is relative to the largest field
        scale = max(1.0, max(float(np.max(np.abs(s))) for *_, ss in pairs for s in ss))
        for name, got, scalar in pairs:
            assert got.shape == (2, 3) + np.shape(scalar[0]), name
            _assert_stacked(got, scalar, scale)

    def test_connection_gamma_on_a_batch(self):
        for _, sysm, conn in _connections(3):
            points = PointSampler(3, 4, seed=5).points()
            _assert_stacked(conn.gamma(_stack(points, (4,))),
                            [conn.gamma(q) for q in points])

    def test_indexing_a_batched_point(self):
        points = PointSampler(2, 3, seed=1).points()
        batch = _stack(points, (3,))
        assert batch.n == 2
        assert repr(batch[1]) == repr(points[1])


class TestBatchedGeometry:
    @pytest.mark.parametrize("scale", [1.0, -2.5])
    def test_circle_signs(self, scale):
        # the first non-negligible component of the raw normal switches
        # between x1 and x2 across +-pi/2, and its sign with it
        circle = Hypersurface(2, ["cos(y1)", "sin(y1)"], [[-3.0, 3.0]], normal_scale=scale)
        ys = np.array([-3.0, -np.pi / 2, -0.4, 0.0, 1.0, np.pi / 2, 2.5])[:, None]
        batched = circle.geometry(ys)
        singles = [circle.geometry(y) for y in ys]
        for j in range(4):
            stacked = np.stack([s[j] for s in singles])
            assert batched[j].shape == stacked.shape
            assert np.max(np.abs(batched[j] - stacked)) <= 1e-15
        assert np.array_equal(np.sign(batched[2]), np.sign(np.stack([s[2] for s in singles])))

    def test_sphere_grid_batch(self):
        rng = np.random.default_rng(3)
        ys = np.stack([rng.uniform(0.3, 1.2, (2, 5)), rng.uniform(-0.6, 0.6, (2, 5))], -1)
        batched = SPHERE.geometry(ys)
        for idx in np.ndindex(2, 5):
            for got, want in zip(batched, SPHERE.geometry(ys[idx])):
                assert np.max(np.abs(got[idx] - want)) <= 1e-15


class TestBatchedDegeneracy:
    """One bad point in a batch raises what the scalar call raises there."""

    def _both(self, error, call, good, bad):
        with pytest.raises(error) as scalar:
            call(bad)
        with pytest.raises(error) as batched:
            call(np.stack([good[0], bad, good[1]]))
        assert str(batched.value) == str(scalar.value)

    def test_singular_metric(self):
        sysm = ExplicitSystem(2, ["p1^2", "p2"], ["0", "0"])
        good = [[0.2, 0.3, 1.0, 1.0], [0.1, -0.1, 2.0, 0.5]]

        def call(rows):
            rows = np.asarray(rows)
            q = PhasePoint(rows[..., :2], rows[..., 2:])
            return PointCalculus(sysm, ZeroConnection(2), q, depth=0).g_up

        self._both(SingularMetric, call, good, np.array([0.4, 0.1, 0.0, 1.0]))

    def test_degenerate_omega(self, sys_id2, zero2):
        good = [[0.2, 0.3, 1.0, 1.0], [0.1, -0.1, 2.0, 0.5]]

        def call(rows):
            rows = np.asarray(rows)
            q = PhasePoint(rows[..., :2], rows[..., 2:])
            return PointCalculus(sys_id2, zero2, q, depth=0).Omega

        self._both(DegenerateOmega, call, good, np.array([0.4, 0.1, 0.0, 0.0]))

    def test_hamiltonian_denominator(self):
        sysm = build_modified_hamiltonian("(p1^2 + p2^2)/2", 2)
        good = [[0.2, 0.3, 1.0, 1.0], [0.1, -0.1, 2.0, 0.5]]

        def call(rows):
            rows = np.asarray(rows)
            return sysm.rhs(rows[..., :2], rows[..., 2:])

        self._both(DegenerateOmega, call, good, np.array([0.4, 0.1, 0.0, 0.0]))

    def test_rank_deficient_tangents(self):
        cusp = Hypersurface(2, ["y1^3", "y1^2"], [[-1.0, 1.0]])
        self._both(RankDeficientTangents, cusp.geometry, [[0.5], [-0.3]], np.array([0.0]))


class TestBatchedPfaff:
    @pytest.fixture
    def widths(self, monkeypatch):
        built = []
        init = PointCalculus.__init__

        def counted(self, *args, **kwargs):
            built.append(args[2].x.shape[:-1])
            init(self, *args, **kwargs)

        monkeypatch.setattr(PointCalculus, "__init__", counted)
        return built

    def test_matches_stacked_points(self, sys_geox3, conn_geox3):
        rng = np.random.default_rng(8)
        ys = np.stack([rng.uniform(0.3, 1.2, 20), rng.uniform(-0.6, 0.6, 20)], -1)
        nus = rng.uniform(0.5, 2.0, 20)
        batched = pfaff_rhs(sys_geox3, conn_geox3, SPHERE, ys, nus)
        assert batched.shape == (20, 2)
        _assert_stacked(batched, [pfaff_rhs(sys_geox3, conn_geox3, SPHERE, y, nu)
                                  for y, nu in zip(ys, nus)])
        # a scalar speed broadcasts over the batch; a scalar call keeps shape (m,)
        common = pfaff_rhs(sys_geox3, conn_geox3, SPHERE, ys[:3], 1.5)
        _assert_stacked(common, [pfaff_rhs(sys_geox3, conn_geox3, SPHERE, y, 1.5)
                                 for y in ys[:3]])
        assert pfaff_rhs(sys_geox3, conn_geox3, SPHERE, ys[0], 1.5).shape == (2,)

    def test_at_most_16_points_per_calc(self, sys_geox3, conn_geox3, widths):
        ys = np.tile([0.7, 0.1], (40, 1))
        pfaff_rhs(sys_geox3, conn_geox3, SPHERE, ys, 1.0)
        assert widths == [(16,), (16,), (8,)]
        widths.clear()
        solve_nu(sys_geox3, conn_geox3, SPHERE, [0.75, 0.0], 1.0, [5, 5], substeps=1)
        assert max(w[0] for w in widths) == 16
        # four stages per lockstep edge step: 2 + 2 sweep steps, 2 cell batches of 32
        assert len(widths) == 4 * (2 + 2) + 4 * 2 * 2


def _scalar_solve(sys, conn, surf, y0, nu0, grid, substeps):
    """The sequential, one-point-at-a-time solver that the lockstep one replaced."""
    axes = surf.grid_axes(grid)
    m = surf.m
    base = tuple(int(np.argmin(np.abs(ax - y0[d]))) for d, ax in enumerate(axes))
    shape = tuple(len(ax) for ax in axes)
    values = np.full(shape, np.nan)
    values[base] = nu0

    def node(idx):
        return np.array([ax[i] for ax, i in zip(axes, idx)])

    def edge(a, b, v):
        ya, delta, h = node(a), node(b) - node(a), 1.0 / substeps

        def f(s, v):
            return float(pfaff_rhs(sys, conn, surf, ya + s * delta, v) @ delta)

        for k in range(substeps):
            s = k * h
            k1 = f(s, v)
            k2 = f(s + 0.5 * h, v + 0.5 * h * k1)
            k3 = f(s + 0.5 * h, v + 0.5 * h * k2)
            k4 = f(s + h, v + h * k3)
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return v

    filled = [base]
    for d in range(m):
        new_filled = []
        for idx in filled:
            new_filled.append(idx)
            for direction in (1, -1):
                cur = idx
                while 0 <= cur[d] + direction < shape[d]:
                    nxt = list(cur)
                    nxt[d] += direction
                    nxt = tuple(nxt)
                    values[nxt] = edge(cur, nxt, values[cur])
                    new_filled.append(nxt)
                    cur = nxt
        filled = new_filled
    residual = 0.0
    for a in range(m):
        for b in range(a + 1, m):
            for idx in np.ndindex(shape):
                if idx[a] + 1 >= shape[a] or idx[b] + 1 >= shape[b]:
                    continue
                sa, sb, far = list(idx), list(idx), list(idx)
                sa[a] += 1
                sb[b] += 1
                far[a] += 1
                far[b] += 1
                va = edge(tuple(sa), tuple(far), edge(idx, tuple(sa), values[idx]))
                vb = edge(tuple(sb), tuple(far), edge(idx, tuple(sb), values[idx]))
                residual = max(residual, abs(va - vb))
    return values, residual


class TestLockstepSolver:
    @pytest.mark.parametrize("which", ["geox3", "bad3"])
    def test_matches_sequential_solver(self, which, sys_geox3, conn_geox3,
                                       sys_bad3, conn_bad3):
        sysm, conn = (sys_geox3, conn_geox3) if which == "geox3" else (sys_bad3, conn_bad3)
        grid = solve_nu(sysm, conn, SPHERE, [0.75, 0.0], 1.1, [4, 3], substeps=2)
        values, residual = _scalar_solve(sysm, conn, SPHERE, [0.75, 0.0], 1.1, [4, 3], 2)
        assert np.max(np.abs(grid.values - values)) <= 1e-14
        assert abs(grid.residual - residual) <= 1e-14

    def test_vanishing_edge_is_named(self):
        sysm = build_modified_hamiltonian("(p1^2 + p2^2)/2 + x1", 2)
        circle = Hypersurface(2, ["cos(y1)", "sin(y1)"], [[-1.2, 1.2]])
        # the sequential solver stopped on the same edge with the same value
        with pytest.raises(NuVanished, match=r"nu reached -7\.731e-02 integrating from "
                           r"y=\[-0\.6\] toward y=\[-0\.30000000000000004\]"):
            solve_nu(sysm, canonical_connection(sysm), circle, [-1.2], 1.0, [9])
