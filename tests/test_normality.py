import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from nslab import (
    DegenerateOmega,
    ExplicitSystem,
    NonFiniteResidual,
    PhasePoint,
    PointSampler,
    ZeroConnection,
    build_modified_hamiltonian,
    canonical_connection,
    gauge_transform,
    normality_report,
    random_gauge_tensor,
    residual_at,
)
from nslab.engine import PointCalculus

# frozen regression baselines, computed once with this implementation and
# stored to six significant digits (the source theory provides no
# counterexample values of its own)
BAD2_WEAK_MAX = 11.2000
BAD2_WEAK1_MAX = 4.80000
BAD3_ADD_B = 0.798186
BAD3_ADD_C = 0.181406
BAD3_POINT = ([0.0, 0.0, 0.0], [1.0, 2.0, 0.5])


def q(x, p):
    return PhasePoint(np.asarray(x, float), np.asarray(p, float))


class TestAbcTensors:
    def test_identity_values(self, sys_id2, zero2):
        calc = PointCalculus(sys_id2, zero2, q([0.3, 0.4], [1.5, -0.7]))
        assert np.allclose(calc.A_tensor, np.eye(2))
        assert np.allclose(calc.B_tensor, 0) and np.allclose(calc.C_tensor, 0)
        assert calc.lam == 0.0

    def test_lambda_trace_identity(self, sys_bad3, conn_bad3):
        point = q([0.1, -0.2, 0.3], [1.0, 2.0, 0.5])
        calc = PointCalculus(sys_bad3, conn_bad3, point)
        assert calc.lam * 2 == np.einsum("rs,sr->", calc.B_tensor, calc.P)

    def test_geodesic_projected_antisymmetry(self, sys_geo2, conn_geo2):
        point = q([0, 0], [1, 0])
        calc = PointCalculus(sys_geo2, conn_geo2, point)
        A = calc.A_tensor
        proj = np.einsum("ir,rs,js->ij", calc.P, A - A.T, calc.P)
        assert np.max(np.abs(proj)) < 1e-8

    def test_a_matches_finite_difference(self, sys_geo2, conn_geo2):
        rng = np.random.default_rng(31)
        h = 1e-6
        for _ in range(20):
            point = q(rng.uniform(-1, 1, 2), rng.uniform(0.3, 3, 2))
            A = PointCalculus(sys_geo2, conn_geo2, point).A_tensor
            for r in range(2):
                dp = np.zeros(2)
                dp[r] = h
                wp = PointCalculus(sys_geo2, conn_geo2, q(point.x, point.p + dp),
                                   depth=0).W
                wm = PointCalculus(sys_geo2, conn_geo2, q(point.x, point.p - dp),
                                   depth=0).W
                assert np.max(np.abs((wp - wm) / (2 * h) - A[r])) < 1e-5


class TestWeakResiduals:
    def test_identity_exactly_zero(self, sys_id2, zero2):
        r = residual_at(sys_id2, zero2, q([0.5, -0.5], [2.0, 1.0]))
        assert np.max(np.abs(r.weak1)) == 0.0
        assert np.max(np.abs(r.weak2)) == 0.0

    def test_geodesic_family(self, sys_geo2, conn_geo2):
        for point in PointSampler(2, 100, seed=42).points():
            r = residual_at(sys_geo2, conn_geo2, point)
            assert max(np.max(np.abs(r.weak1)), np.max(np.abs(r.weak2))) <= 1e-8

    def test_bad_system_baseline(self, sys_bad2, conn_bad2):
        r = residual_at(sys_bad2, conn_bad2, q([0, 0], [1, 2]))
        value = max(np.max(np.abs(r.weak1)), np.max(np.abs(r.weak2)))
        assert value > 1e-3
        assert value == pytest.approx(BAD2_WEAK_MAX, rel=1e-5)
        assert np.max(np.abs(r.weak1)) == pytest.approx(BAD2_WEAK1_MAX, rel=1e-5)

    def test_degenerate_omega_raises(self, sys_bad2, conn_bad2):
        # Omega = |p|^2 vanishes only at p = 0, which PhasePoint allows
        with pytest.raises(DegenerateOmega):
            residual_at(sys_bad2, conn_bad2, q([0, 0], [0, 0]))


class TestAdditionalResiduals:
    def test_identity_n3_zero(self, sys_id3, zero3):
        r = residual_at(sys_id3, zero3, q([0, 0, 0], [1, 2, 3]))
        assert np.allclose(r.addA, 0) and np.allclose(r.addB, 0) and np.allclose(r.addC, 0)

    def test_vacuous_for_n2(self, sys_geo2, conn_geo2):
        r = residual_at(sys_geo2, conn_geo2, q([0, 0], [1, 0]))
        assert r.addA.shape == r.addB.shape == r.addC.shape == (0, 0)

    def test_geodesic_n3_family(self, sys_geo3, conn_geo3):
        for point in PointSampler(3, 100, seed=42).points():
            r = residual_at(sys_geo3, conn_geo3, point)
            worst = max(np.max(np.abs(r.addA)), np.max(np.abs(r.addB)), np.max(np.abs(r.addC)))
            assert worst <= 1e-8

    def test_bad_system_baseline(self, sys_bad3, conn_bad3):
        r = residual_at(sys_bad3, conn_bad3, q(*BAD3_POINT))
        worst = max(np.max(np.abs(r.addA)), np.max(np.abs(r.addB)), np.max(np.abs(r.addC)))
        assert worst > 1e-4
        assert np.max(np.abs(r.addB)) == pytest.approx(BAD3_ADD_B, rel=1e-4)
        assert np.max(np.abs(r.addC)) == pytest.approx(BAD3_ADD_C, rel=1e-4)

    def test_addb_trace_vanishes(self, sys_bad3, conn_bad3, sys_geox3, conn_geox3):
        rng = np.random.default_rng(40)
        for sysm, conn in [(sys_bad3, conn_bad3), (sys_geox3, conn_geox3)]:
            for _ in range(6):
                point = q(rng.uniform(-1, 1, 3), rng.uniform(0.3, 3, 3))
                r = residual_at(sysm, conn, point)
                assert abs(np.trace(r.addB)) < 1e-10


class TestReport:
    def test_geodesic_passes(self, sys_geo2, conn_geo2):
        report = normality_report(sys_geo2, conn_geo2,
                                  PointSampler(2, 100, seed=42), 1e-7)
        assert report.verdict == "PASS"
        assert not report.additional_applicable

    def test_bad_fails_with_violations(self, sys_bad2, conn_bad2):
        report = normality_report(sys_bad2, conn_bad2,
                                  PointSampler(2, 100, seed=42), 1e-7)
        assert report.verdict == "FAIL"
        assert len(report.violations) >= 1

    def test_empty_sampler_guard(self, sys_geo2, conn_geo2):
        with pytest.raises(ValueError, match="no points"):
            normality_report(sys_geo2, conn_geo2, PointSampler(2, 0, seed=1), 1e-7)

    def test_csv(self, sys_geo2, conn_geo2, tmp_path):
        report = normality_report(sys_geo2, conn_geo2,
                                  PointSampler(2, 5, seed=42), 1e-7)
        path = tmp_path / "res.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].endswith("verdict")
        assert len(lines) == 6

    def test_scale_robustness(self, sys_geox2, conn_geox2):
        # residuals stay at roundoff across three decades of |p|
        report = normality_report(
            sys_geox2, conn_geox2,
            PointSampler(2, 60, seed=7, pmin=0.1, pmax=100.0), 1e-8)
        assert report.verdict == "PASS"


BLOCKS = ("weak1", "weak2", "addA", "addB", "addC")


def _assert_rows_match(rows, points, sysm, conn):
    """Sweep rows equal per-point residual_at bit for bit."""
    for row, point in zip(rows, points, strict=True):
        ref = residual_at(sysm, conn, point)
        assert np.array_equal(row.q.x, point.x) and np.array_equal(row.q.p, point.p)
        for name in BLOCKS:
            assert np.array_equal(getattr(row, name), getattr(ref, name))


@pytest.fixture()
def calcs(monkeypatch):
    """The batch shape of every PointCalculus built, in order."""
    built = []
    init = PointCalculus.__init__

    def counted(self, sys, conn, point, *args, **kwargs):
        built.append(point.x.shape[:-1])
        init(self, sys, conn, point, *args, **kwargs)

    monkeypatch.setattr(PointCalculus, "__init__", counted)
    return built


class TestChunkedSweep:
    def test_rows_match_point_by_point(self, calcs, sys_geox3, conn_geox3, sys_bad3,
                                       conn_bad3):
        for sysm, conn in ((sys_geox3, conn_geox3), (sys_bad3, conn_bad3)):
            sampler = PointSampler(3, 20, seed=8)
            calcs.clear()
            report = normality_report(sysm, conn, sampler, 1e-7)
            # 16 points per calc
            assert calcs == [(16,), (4,)]
            _assert_rows_match(report.rows, sampler.points(), sysm, conn)
            assert not any(r.error for r in report.rows)

    @pytest.mark.parametrize("n,count,shapes", [(2, 20, [(16,), (4,)]),
                                                (3, 20, [(16,), (4,)]),
                                                (4, 6, [(4,), (2,)])])
    def test_points_per_calc_follow_the_taylor_context(self, calcs, n, count, shapes):
        # the canonical connection needs V to trust 4: n^2 coefficients of
        # 70, 210 and 495 monomials per point, 16 points at n = 2, 3 and 4 at n = 4
        H = " + ".join(f"p{i}^2" for i in range(1, n + 1)) + " + x1*p2^2/5"
        sysm = build_modified_hamiltonian(H, n)
        normality_report(sysm, canonical_connection(sysm), PointSampler(n, count, seed=4), 1e-7)
        assert calcs == shapes

    def test_failing_point_is_one_error_row(self, calcs):
        # Omega = x1 p1^2 + p2^2 vanishes at point 3 only
        sysm, conn = ExplicitSystem(2, ["x1*p1", "p2"], ["0", "0"]), ZeroConnection(2)
        rng = np.random.default_rng(9)
        points = [q(rng.uniform(0.5, 2.0, 2), rng.uniform(-2.0, 2.0, 2)) for _ in range(10)]
        points[3] = q([-1.0, 0.0], [1.0, 1.0])
        report = normality_report(sysm, conn, SimpleNamespace(points=lambda: points), 1e-7)
        # the one chunk fails as a batch and is split in halves until point 3
        # is alone: 0-4 (0-1, 2-4 (2, 3-4 (3, 4))), 5-9
        assert calcs == [(10,), (5,), (2,), (3,), (1,), (2,), (1,), (1,), (5,)]
        assert [i for i, r in enumerate(report.rows) if r.error] == [3]
        with pytest.raises(DegenerateOmega) as err:
            residual_at(sysm, conn, points[3])
        bad = report.rows[3]
        assert bad.q is points[3]
        assert bad.error == f"DegenerateOmega: {err.value}"
        others = [i for i in range(10) if i != 3]
        _assert_rows_match([report.rows[i] for i in others], [points[i] for i in others],
                           sysm, conn)


class TestGaugeInvariance:
    def test_residuals_stable_under_random_gauges(self, sys_geox3, conn_geox3):
        rng = np.random.default_rng(50)
        points = PointSampler(3, 3, seed=51).points()
        base = [residual_at(sys_geox3, conn_geox3, point) for point in points]
        for _ in range(10):
            T = random_gauge_tensor(3, rng)
            gauged, _ = gauge_transform(sys_geox3, conn_geox3, T)
            for point, b in zip(points, base):
                r = residual_at(sys_geox3, gauged, point)
                for attr in ("weak1", "weak2", "addA", "addB", "addC"):
                    delta = np.max(np.abs(getattr(r, attr) - getattr(b, attr)))
                    assert delta <= 1e-7


class TestNonFiniteResiduals:
    # exp(exp(p1^2)) overflows for |p1| >~ 2.6, so Theta1 = inf - inf = NaN
    # at some points although it is identically zero where it is finite
    @pytest.fixture()
    def overflow3(self):
        from nslab import ExplicitSystem, canonical_connection
        sys = ExplicitSystem(3, ["p1", "p2", "p3"],
                             ["exp(exp(p1^2)) - exp(exp(p1^2))", "0", "0"])
        return sys, canonical_connection(sys)

    def test_nan_rows_fail_the_report(self, overflow3):
        sys, conn = overflow3
        with np.errstate(all="ignore"):
            report = normality_report(sys, conn, PointSampler(n=3, count=30, seed=0), 1e-7)
        errors = [r for r in report.rows if r.error]
        assert len(errors) == 7
        assert all("NonFiniteResidual" in r.error for r in errors)
        assert report.verdict == "FAIL"
        assert len(report.violations) == 7
        assert report.max_abs == 0.0

    def test_sweep_raises_no_floating_point_warning(self, overflow3):
        sys, conn = overflow3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = normality_report(sys, conn, PointSampler(n=3, count=100, seed=42), 1e-7)
        errors = [r.error for r in report.rows if r.error]
        assert len(errors) == 12
        assert all(e == "NonFiniteResidual: non-finite normality residual" for e in errors)

    def test_non_finite_rows_come_from_the_batch(self, overflow3, calcs):
        # 12 of 100 points overflow: their rows are read from their chunk's
        # batch, and no point is evaluated again
        sys, conn = overflow3
        points = PointSampler(n=3, count=100, seed=42).points()
        report = normality_report(sys, conn, SimpleNamespace(points=lambda: points), 1e-7)
        assert calcs == [(16,)] * 6 + [(4,)]
        errors = [i for i, r in enumerate(report.rows) if r.error]
        assert len(errors) == 12
        for i, (row, point) in enumerate(zip(report.rows, points, strict=True)):
            if i in errors:
                assert row.q is point
                with np.errstate(all="ignore"), pytest.raises(NonFiniteResidual) as err:
                    residual_at(sys, conn, point)
                assert row.error == f"NonFiniteResidual: {err.value}"
            else:
                _assert_rows_match([row], [point], sys, conn)

    def test_residual_at_raises(self, overflow3):
        from nslab import NonFiniteResidual
        sys, conn = overflow3
        with np.errstate(all="ignore"), pytest.raises(NonFiniteResidual):
            residual_at(sys, conn, q([0.0, 0.0, 0.0], [5.0, 1.0, 1.0]))

    def test_nan_row_is_not_dropped_by_reductions(self):
        from nslab.normality import BatchReport, NormalityResidual
        empty = np.zeros((0, 0))

        def row(v):
            return NormalityResidual(q=q([0.0, 0.0], [1.0, 0.0]),
                                     weak1=np.array([v]), weak2=np.zeros(1),
                                     addA=empty, addB=empty, addC=empty)

        for rows in ([row(np.nan), row(0.0)], [row(0.0), row(np.nan)]):
            report = BatchReport(rows=rows, tolerance=1e-7, n=2,
                                 additional_applicable=False)
            assert np.isnan(report.max_abs)
            assert report.verdict == "FAIL"
            assert len(report.violations) == 1


class TestProgrammingErrors:
    def test_bug_in_a_connection_propagates(self, sys_id3):
        # only NslabError becomes a report row; a bug must not read as FAIL
        from nslab import ZeroConnection

        class Broken(ZeroConnection):
            def gamma_series(self, calc):
                return calc.no_such_field

        with pytest.raises(AttributeError):
            normality_report(sys_id3, Broken(3), PointSampler(n=3, count=3, seed=0), 1e-7)
