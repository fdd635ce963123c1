"""Pointwise residuals of the weak and additional normality equations.

The weak residuals project the deviation-equation fields alpha and eta
onto the null space of the momentum covector; the additional residuals
test projected antisymmetry of A and C and proportionality of the
projected B to the projector itself.  A system admits the normal shift
of arbitrary hypersurfaces exactly when all of them vanish wherever
p != 0, so the sweep report's verdict is the operational form of that
condition.

`residual_from_calc` is the one assembly of the residuals, for a calc at a
point or a batch; `residual_at` builds that calc, and `normality_report`
sweeps a point cloud with it, as many points per calc as the calc's
Taylor context allows (`engine.points_per_calc`).  A non-finite row of a
batch is its point's error row, read from the batch.  `check_regularity`
sweeps the kinematic frame the same way.  Both go through
`engine.chunked`: a chunk that raises is evaluated again in halves, so an
error row names its own point and exception.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import taylor
from .connections import ZeroConnection
from .engine import (
    PointCalculus,
    chunked,
    degeneracy,
    degenerate_omega,
    points_per_calc,
    singular_metric,
    stack_points,
)
from .errors import DegenerateOmega, NonFiniteResidual, SingularMetric
from .systems import SINGULAR_RATIO, PhasePoint

@dataclass
class NormalityResidual:
    """Raw residuals at a point or a batch of points.

    Each array leads with the batch axes of `q`; `max_abs` is the largest
    entry over all of them, the raw form the acceptance thresholds apply
    to, and `r[i]` is the residual of the point at batch index i.  An
    error row of a sweep has empty arrays and `error` reads "Class: message".
    """

    q: object
    weak1: np.ndarray
    weak2: np.ndarray
    addA: np.ndarray
    addB: np.ndarray
    addC: np.ndarray
    error: str = ""

    @property
    def max_abs(self):
        parts = [self.weak1, self.weak2, self.addA, self.addB, self.addC]
        vals = [np.max(np.abs(p)) for p in parts if p.size]
        return float(np.max(vals)) if vals else float("nan")

    @property
    def finite(self):
        """Whether every residual is finite, per point: an array of q's batch shape."""
        batch = self.weak1.ndim - 1
        parts = [self.weak1, self.weak2, self.addA, self.addB, self.addC]
        return np.logical_and.reduce(
            [np.isfinite(p).all(axis=tuple(range(batch, p.ndim))) for p in parts])

    def __getitem__(self, index):
        return NormalityResidual(self.q[index], self.weak1[index], self.weak2[index],
                                 self.addA[index], self.addB[index], self.addC[index])


def residual_from_calc(calc):
    """Weak and additional residuals of a calc at a point or a batch.

    weak1 = P alpha and weak2 = eta P; addA and addC are the projected
    antisymmetric parts of A and C, addB = P B P - lam P.  The additional
    residuals are empty (0 x 0 per point) for n = 2, where they are vacuous.
    Raises NonFiniteResidual, carrying the residual, when any residual is
    NaN or infinite, so overflow can never read as agreement.
    """
    P = calc.P
    weak1 = np.matmul(P, calc.alpha[..., None])[..., 0]
    weak2 = np.matmul(calc.eta[..., None, :], P)[..., 0, :]
    if calc.n == 2:
        addA = addB = addC = np.zeros(P.shape[:-2] + (0, 0))
    else:
        A, B, C = calc.A_tensor, calc.B_tensor, calc.C_tensor
        addA = np.einsum("...ir,...rs,...js->...ij", P, A - np.swapaxes(A, -2, -1), P)
        addC = np.einsum("...ri,...rs,...sj->...ij", P, C - np.swapaxes(C, -2, -1), P)
        addB = np.matmul(np.matmul(P, B), P) - calc.lam[..., None, None] * P
    r = NormalityResidual(q=calc.q, weak1=weak1, weak2=weak2, addA=addA, addB=addB, addC=addC)
    if not np.all(r.finite):
        raise NonFiniteResidual("non-finite normality residual", r)
    return r


def residual_at(sys, conn, q):
    """All residuals at q (a point or a batch) from one depth-1 PointCalculus."""
    return residual_from_calc(PointCalculus(sys, conn, q, depth=1))


@dataclass
class BatchReport:
    rows: list
    tolerance: float
    n: int
    additional_applicable: bool

    @property
    def evaluated(self):
        return [r for r in self.rows if not r.error]

    @property
    def max_abs(self):
        # np.max propagates NaN, so a NaN row cannot hide behind the others
        vals = [r.max_abs for r in self.evaluated]
        return float(np.max(vals)) if vals else float("nan")

    @property
    def median_abs(self):
        vals = [r.max_abs for r in self.evaluated]
        return float(np.median(vals)) if vals else float("nan")

    @property
    def verdict(self):
        if not self.evaluated or len(self.evaluated) < len(self.rows):
            return "FAIL"
        return "PASS" if self.max_abs <= self.tolerance else "FAIL"

    @property
    def violations(self):
        return [r for r in self.rows if r.error or not r.max_abs <= self.tolerance]

    def write_csv(self, path):
        cols = ([f"x{i+1}" for i in range(self.n)]
                + [f"p{i+1}" for i in range(self.n)]
                + ["weak1_max", "weak2_max", "addA_max", "addB_max",
                   "addC_max", "verdict"])
        def block(arr):
            return f"{np.max(np.abs(arr)):.17g}" if arr.size else "n/a"
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for r in self.rows:
                point = [f"{v:.17g}" for v in (*r.q.x, *r.q.p)]
                if r.error:
                    fh.write(",".join(point + ["error"] * 5 + [r.error]) + "\n")
                    continue
                verdict = "pass" if r.max_abs <= self.tolerance else "FAIL"
                fh.write(",".join(
                    point + [block(r.weak1), block(r.weak2), block(r.addA),
                             block(r.addB), block(r.addC), verdict]) + "\n")


def normality_report(sys, conn, sampler, tolerance):
    """Residual sweep over a point cloud with a PASS/FAIL verdict.

    The points are evaluated `engine.points_per_calc` at a time, in one
    depth-1 calc each.
    Point-level evaluation failures (singular metric, degenerate Omega,
    non-finite residuals: any NslabError) become report rows of the points
    that raise them, and a chunk's non-finite rows are read from its
    batch; other exceptions are programming errors and propagate.  For
    n = 2 the additional equations are marked not applicable rather than
    trivially passed.
    """
    points = list(sampler.points())
    if not points:
        raise ValueError("sampler produced no points")

    def batched(part):
        try:
            r = residual_at(sys, conn, stack_points(part))
        except NonFiniteResidual as err:
            r = err.residual
            return [r[i] if ok else failed(q, err)
                    for i, (q, ok) in enumerate(zip(part, r.finite))]
        return [r[i] for i in range(len(part))]

    def failed(q, err):
        empty = np.zeros((0, 0))
        return NormalityResidual(q=q, weak1=np.zeros(0), weak2=np.zeros(0),
                                 addA=empty, addB=empty, addC=empty,
                                 error=f"{type(err).__name__}: {err}")

    rows = chunked(points, batched, failed, points_per_calc(sys, conn, 1))
    return BatchReport(rows=rows, tolerance=tolerance, n=sys.n,
                       additional_applicable=sys.n >= 3)


# ----------------------------------------------------------------------
# regularity sampling
# ----------------------------------------------------------------------

@dataclass
class RegularitySample:
    q: PhasePoint
    det_g: float
    v_norm: float
    omega: float
    ok: bool
    failure: str


@dataclass
class RegularityReport:
    samples: list
    verdict: bool
    note: str = (
        "diffeomorphism check is local evidence only: nonvanishing det dV/dp "
        "at sampled points cannot establish global injectivity"
    )

    @property
    def failures(self):
        return [s for s in self.samples if not s.ok]


# failure labels of the two degeneracies; any other error is named by its class
_LABELS = {SingularMetric: "singular metric", DegenerateOmega: "degenerate Omega"}


def _failure_text(err):
    return f"{_LABELS.get(type(err), type(err).__name__)}: {err}"


def check_regularity(sys, sampler):
    """Sample-based regularity screen for the Legendre map of a system.

    Checks, per sample: det dV/dp != 0 (local diffeomorphism proxy),
    |V| > 0 away from p = 0, and Omega != 0, with the cutoffs the field
    stack raises on.  A sample reports det, |V| and Omega whichever check
    it fails.  Failures, and any NslabError the evaluation of a sample
    raises, become report entries rather than exceptions; `failure` names
    the error's class.  The samples are evaluated `engine.points_per_calc`
    at a time, in one depth-0 calc each with the zero connection.
    """
    conn = ZeroConnection(sys.n)

    def batched(part):
        batch = stack_points(part)
        calc = PointCalculus(sys, conn, batch, depth=0)
        g, V = taylor.read_values(calc.Vp_s), calc.V
        det, singular = singular_metric(g)
        omega, degenerate = degenerate_omega(batch.p, calc.W)
        samples = []
        for i, q in enumerate(part):
            # the first check a sample fails names it
            v_norm = float(np.linalg.norm(V[i]))
            if singular[i]:
                failure = _failure_text(degeneracy(SingularMetric, det[i], q))
            elif degenerate[i]:
                failure = _failure_text(degeneracy(DegenerateOmega, omega[i], q))
            elif v_norm <= SINGULAR_RATIO * np.linalg.norm(g[i]) * np.linalg.norm(q.p):
                failure = "velocity field vanished at nonzero momentum"
            else:
                failure = ""
            samples.append(RegularitySample(q, float(det[i]), v_norm, omega[i],
                                            not failure, failure))
        return samples

    def failed(q, err):
        return RegularitySample(q, np.nan, np.nan, np.nan, False, _failure_text(err))

    samples = chunked(list(sampler.points()), batched, failed,
                      points_per_calc(sys, conn, 0))
    return RegularityReport(samples=samples, verdict=all(s.ok for s in samples))
