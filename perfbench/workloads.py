"""The benchmark's workloads: seeded inputs, one timed task each, and its gates.

A workload builds its systems, connections and surfaces once, makes one
warm-up call on a single tiny input (which triggers nslab's lazy Taylor
table builds), then repeats a task made only of public nslab calls.  The
inputs of iteration i come from (seed, i); nslab only ever receives the
generated points and speeds.  Fresh inputs per iteration keep a result
cache from passing for a faster program.

Gates recompute every verdict from raw outputs (residual rows, nu values,
phi profiles) instead of trusting nslab's own summary verdicts.
"""

from __future__ import annotations

import numpy as np

import nslab

# rescaled Hamiltonian with position dependence: admits the normal shift
H_X = "(p1^2 + p2^2 + p3^2)/2 + x1*p2^2/5"
H_FREE = "(p1^2 + p2^2 + p3^2)/2"
SPHERE_EMBEDDING = ["sin(y1)*cos(y2)", "sin(y1)*sin(y2)", "cos(y1)"]
SPHERE_PATCH = [[0.3, 1.2], [-0.6, 0.6]]
SPHERE_CENTRE = [0.75, 0.0]
NU0_RANGE = (0.8, 1.25)


class GateFailure(Exception):
    """An output of the program failed its correctness gate."""


def _rng(seed, i):
    return np.random.default_rng([seed, i])


def _sphere(patch=SPHERE_PATCH):
    return nslab.Hypersurface(3, SPHERE_EMBEDDING, patch)


def _require(ok, message):
    if not ok:
        raise GateFailure(message)


def _row_values(row):
    return np.concatenate([np.ravel(np.abs(b))
                           for b in (row.weak1, row.weak2, row.addA, row.addB, row.addC)])


def _sweep_evidence(report, label):
    """Error rows, finiteness and the nan-aware max, read from the raw rows."""
    errors = sum(1 for r in report.rows if r.error)
    values = [_row_values(r) for r in report.rows if not r.error]
    values = np.concatenate(values) if values else np.full(1, np.nan)
    return {f"{label}_error_rows": errors,
            f"{label}_all_finite": bool(np.all(np.isfinite(values))),
            f"{label}_max": float(np.nanmax(values)) if np.any(~np.isnan(values)) else None}


class SweepN3:
    """Residual sweeps at n = 3: the scalar, high-order jet path."""

    name = "sweep-n3"

    def __init__(self, seed, smoke):
        self.seed = seed
        self.count, self.control_count = (3, 5) if smoke else (100, 25)
        self.items = self.count + self.control_count  # residual points
        self.geo = nslab.build_modified_hamiltonian(H_X, 3)
        self.geo_conn = nslab.canonical_connection(self.geo)
        # perturbed control: violates the normality equations by O(1) and more
        self.bad = nslab.ExplicitSystem(3, ["p1", "p2", "p3"], ["p2^2", "0", "0"])
        self.bad_conn = nslab.canonical_connection(self.bad)

    def _sweeps(self, seed_a, seed_b, count, control_count):
        return (nslab.normality_report(self.geo, self.geo_conn,
                                       nslab.PointSampler(n=3, count=count, seed=seed_a),
                                       tolerance=1e-7),
                nslab.normality_report(self.bad, self.bad_conn,
                                       nslab.PointSampler(n=3, count=control_count,
                                                          seed=seed_b),
                                       tolerance=1e-7))

    def warm_up(self):
        self._sweeps(self.seed, self.seed, 1, 1)

    def run(self, i):
        seed_a, seed_b = (int(s) for s in _rng(self.seed, i).integers(2**31, size=2))
        return self._sweeps(seed_a, seed_b, self.count, self.control_count)

    def rates(self, solve_s):
        return {"points_per_s": self.items / solve_s}

    def check(self, out):
        report, control = out
        ev = _sweep_evidence(report, "compliant") | _sweep_evidence(control, "control")
        ev["error_rows"] = ev["compliant_error_rows"] + ev["control_error_rows"]
        _require(ev["compliant_error_rows"] == 0,
                 f"compliant sweep has {ev['compliant_error_rows']} error rows")
        _require(ev["compliant_all_finite"], "compliant sweep has non-finite residuals")
        _require(ev["compliant_max"] <= 1e-7,
                 f"compliant sweep max residual {ev['compliant_max']:.3e} > 1e-7")
        _require(ev["control_error_rows"] == 0,
                 f"control sweep has {ev['control_error_rows']} error rows")
        _require(ev["control_max"] is not None and ev["control_max"] >= 1e-3,
                 f"control sweep max residual {ev['control_max']} < 1e-3")
        return ev


class PfaffSphere:
    """solve_nu on a sphere patch: many small, serially dependent evaluations."""

    name = "pfaff-sphere"

    def __init__(self, seed, smoke):
        self.seed = seed
        if smoke:
            # 3x3 sub-grid around the centre with the full grid's spacing,
            # so the two-path residual keeps its size
            self.surf, self.grid = _sphere([[0.525, 0.975], [-0.3, 0.3]]), [3, 3]
        else:
            self.surf, self.grid = _sphere(), [5, 5]
        self.items = int(np.prod(self.grid))  # grid nodes
        self.geo = nslab.build_modified_hamiltonian(H_X, 3)
        self.conn = nslab.canonical_connection(self.geo)

    def warm_up(self):
        nslab.pfaff_rhs(self.geo, self.conn, self.surf, SPHERE_CENTRE, 1.0)

    def run(self, i):
        nu0 = float(_rng(self.seed, i).uniform(*NU0_RANGE))
        return nslab.solve_nu(self.geo, self.conn, self.surf, SPHERE_CENTRE, nu0,
                              self.grid, substeps=1)

    def rates(self, solve_s):
        return {"nodes_per_s": self.items / solve_s}

    def check(self, out):
        values = np.asarray(out.values, dtype=float)
        ev = {"nu0": out.nu0,
              "all_finite": bool(np.all(np.isfinite(values))),
              "one_sign": bool(np.all(values > 0) or np.all(values < 0)),
              "residual": float(out.residual)}
        _require(ev["all_finite"], "nu grid has non-finite nodes")
        _require(ev["one_sign"], "nu changes sign on the grid")
        _require(np.isfinite(ev["residual"]) and ev["residual"] <= 1e-5,
                 f"two-path residual {ev['residual']:.3e} > 1e-5")
        return ev


class ShiftSphere:
    """simulate_shift + verify_orthogonality: batched order-1 jets per RK4 stage."""

    name = "shift-sphere"
    verify_tol = 1e-6

    def __init__(self, seed, smoke):
        self.seed = seed
        self.surf = _sphere()
        self.grid = [2, 2] if smoke else [8, 8]
        self.cfg = nslab.IntegratorConfig(t_end=0.5, step=1e-2 if smoke else 1e-3)
        self.systems = []
        for label, H in (("free", H_FREE), ("xdep", H_X)):
            sysm = nslab.build_modified_hamiltonian(H, 3)
            self.systems.append((label, sysm, nslab.canonical_connection(sysm)))
        self.items = len(self.systems) * int(np.prod(self.grid))  # launched nodes

    def _shift(self, nu0, grid, cfg):
        out = []
        for label, sysm, conn in self.systems:
            run = nslab.simulate_shift(sysm, conn, self.surf, nu0, cfg, grid=grid)
            out.append((label, run, nslab.verify_orthogonality(run, self.verify_tol)))
        return out

    def warm_up(self):
        self._shift(1.0, [1, 1], nslab.IntegratorConfig(t_end=self.cfg.step,
                                                        step=self.cfg.step))

    def run(self, i):
        return self._shift(float(_rng(self.seed, i).uniform(*NU0_RANGE)),
                           self.grid, self.cfg)

    def rates(self, solve_s):
        # simulate_shift plus verify_orthogonality, both systems
        return {"node_steps_per_s": self.items * self.cfg.steps / solve_s}

    def check(self, out):
        ev = {}
        for label, run, report in out:
            phi = np.asarray(run.phi_matrix(), dtype=float)
            ev[f"{label}_verdict"] = report.verdict
            ev[f"{label}_all_finite"] = bool(np.all(np.isfinite(phi)))
            ev[f"{label}_max_phi"] = float(np.nanmax(phi))
        for label in ("free", "xdep"):
            _require(ev[f"{label}_all_finite"], f"{label} shift has non-finite phi")
        _require(ev["free_verdict"] == "NORMAL" and ev["free_max_phi"] <= 1e-10,
                 f"free shift reads {ev['free_verdict']} with max|phi| "
                 f"{ev['free_max_phi']:.3e} (want NORMAL, <= 1e-10)")
        _require(ev["xdep_verdict"] == "VIOLATED" and ev["xdep_max_phi"] >= 1e-2,
                 f"x-dependent shift reads {ev['xdep_verdict']} with max|phi| "
                 f"{ev['xdep_max_phi']:.3e} (want VIOLATED, >= 1e-2)")
        return ev


WORKLOADS = {w.name: w for w in (SweepN3, PfaffSphere, ShiftSphere)}

# Which per-layer metric should move which end-to-end metric on each
# workload; a change to one layer names a workload that exercises it and
# one that bypasses it (prediction there: no change).
PREDICTIONS = {
    "sweep-n3": [
        "taylor.mul_* -> solve_s (trusted pair share ~7.5%: most product work is untrusted)",
        "taylor.context_s -> setup_s",
        "expressions.eval_series_* -> solve_s (control sweep)",
        "systems.series_at_* -> solve_s",
        "connections.gamma_series_* -> solve_s",
        "engine.calcs, engine.calcs_per_item -> solve_s, peak_rss_mb",
        "normality.residual_*, normality.error_rows -> solve_s",
        "systems.rhs_jac_*, surfaces.*, dynamics.* -> none (not exercised)",
    ],
    "pfaff-sphere": [
        "taylor.mul_* -> solve_s (trusted pair share ~6%)",
        "taylor.context_s -> setup_s",
        "expressions.eval_series_* -> solve_s (surface geometry)",
        "systems.series_at_*, connections.gamma_series_* -> solve_s",
        "engine.calcs, engine.calcs_per_item -> solve_s, peak_rss_mb",
        "surfaces.geometry_*, surfaces.pfaff_* -> solve_s (~1 in 5 geometry calls sees a new y)",
        "systems.rhs_jac_*, normality.*, dynamics.* -> none (not exercised)",
    ],
    "shift-sphere": [
        "systems.rhs_jac_* -> solve_s (dominant: batched order-1 jets per RK4 stage)",
        "dynamics.integrate_*, dynamics.rk4_stages -> solve_s",
        "taylor.mul_*, expressions.eval_series_* -> solve_s inside rhs_jac "
        "(batched path, trusted pair share ~50%)",
        "taylor.context_s -> setup_s",
        "connections.gamma_series_*, systems.series_at_*, engine.calcs -> "
        "launch only (2 calcs per node)",
        "normality.*, surfaces.pfaff_* -> none (not exercised)",
    ],
}
