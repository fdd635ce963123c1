"""Trajectory integration and the variational flow along it.

The integrator advances the phase point together with any number of
variation pairs (tau, dp), both in the chart the stepper uses:
tau^i = dx^i/dy and dp_i = dp_i/dy for a one-parameter family of
trajectories.  The covariant variation covector of the theory,

    xi_i = dp_i - sum_{j,k} gamma[k,i,j] p_k tau^j,

is the covariant derivative of p along the family parameter.  It is
formed only where it is read (`variational_rhs`, `Trajectory.xis`), so
stepping needs only the Jacobian of (V, Theta) and never the connection.

The phase and variation flow is error-controlled: each trajectory
chooses its own steps with the embedded Dormand-Prince 5(4) pair, and
the records on the grid of `IntegratorConfig.step` come from the dense
output of the accepted steps, so `step` is the recording interval, not
a step the stepper takes.  The records are trajectory-major,
(trajectories, records, width), and each accepted step writes the
records it covers with one product; one `Trajectory`, batched like the
state it starts from, holds views of that buffer.  `rk4_step`, classical
RK4 at a fixed step, serves the Pfaff edges of `surfaces.solve_nu`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import PointCalculus, chunked, point_chunks, points_per_calc
from .errors import NonFiniteState, NslabError
from .systems import PhasePoint

# Local error allowed per step, |dy| / (1 + |y|) in each component, unless
# the estimate of a step of the recording interval is larger at the start
STEP_TOL = 1e-11
# A row whose step falls below this fraction of the recording interval
# (more than 10^4 steps per record) has stalled
STEP_FLOOR = 1e-4


@dataclass
class IntegratorConfig:
    """Span and recording interval of an error-controlled integration.

    `t_end` is the span integrated from the start time t0 of the states,
    so a trajectory records t0 + [0, t_end]; it may be negative, but not
    zero, which would record no evolution to verify.  `step` is the
    recording interval: the records lie at t0 + linspace(0, t_end,
    steps + 1).  The stepper chooses its own steps: each has an
    estimated local error within `STEP_TOL`, or within the estimated
    error of one step of `step` at the start where that is larger.
    """

    t_end: float
    step: float = 1e-3

    def __post_init__(self):
        if not (self.step > 0 and np.isfinite(self.step)):
            raise ValueError("step must be positive and finite")
        if not (self.t_end != 0 and np.isfinite(self.t_end)):
            raise ValueError("t_end must be nonzero and finite")

    @property
    def steps(self):
        return max(1, int(round(abs(self.t_end) / self.step)))


class ExtendedState:
    """Phase point plus m variation pairs (tau, dp) in the integrator's chart.

    taus and dps are (..., m, n), q's batch axes first: taus[..., i, :] =
    dx/dy^i and dps[..., i, :] = dp/dy^i, all at the one start time t.
    The default () carries no variations; any other shape raises
    ValueError.
    """

    def __init__(self, t, q, taus=(), dps=()):
        self.t = float(t)
        self.q = q
        self.taus = _variations(taus, q)
        self.dps = _variations(dps, q)
        if self.taus.shape != self.dps.shape:
            raise ValueError("taus and dps must pair up")
        if not (np.all(np.isfinite(self.taus)) and np.all(np.isfinite(self.dps))):
            raise ValueError("variation data must be finite")

    @property
    def m(self):
        return self.taus.shape[-2]


def _variations(a, q):
    """a as (..., m, n) with q's batch axes, m = 0 for an empty sequence."""
    a = np.asarray(a, dtype=float)
    batch = q.x.shape[:-1]
    if a.shape == (0,):
        return a.reshape(batch + (0, q.n))
    if a.ndim != len(batch) + 2 or a.shape[:-2] != batch or a.shape[-1] != q.n:
        raise ValueError(f"variations of shape {a.shape} do not match the phase "
                         f"point's batch {batch} + (m, {q.n})")
    return a


def deviation(state):
    """phi_i = <p | tau_i> for each variation carried by the state, (..., m)."""
    return (state.taus @ state.q.p[..., None])[..., 0]


def _dp_to_xi(gamma, p, taus, dps):
    """Covariant xi_i = dp_i - sum_{j,k} gamma[k,i,j] p_k tau^j, per variation."""
    return dps - np.einsum("...kij,...k,...mj->...mi", gamma, p, taus)


def variational_rhs(sys, conn, state):
    """Time derivatives of (q, taus, xis) from the covariant variational system.

    xi is formed from the state's (tau, dp) with the connection at q; the
    covariant equations are

        nabla_t tau^i = sum_k nabla_k V^i tau^k + sum_k dV^i/dp_k xi_k
        nabla_t xi_i  = - sum_k (R^s_{ijk} p_s V^j - D^{sj}_{ik} p_s Q_j) tau^k
                        - sum_{k,j,s} D^{sk}_{ij} p_s V^j xi_k
                        + sum_k nabla_k Q_i tau^k + sum_k dQ_i/dp_k xi_k

    and are unpacked to plain time derivatives with the same connection
    pattern that defines xi itself:

        nabla_t tau^i = dtau^i/dt + sum_{j,k} gamma[i,j,k] V^j tau^k
        nabla_t xi_i  = dxi_i/dt  - sum_{j,b} gamma[b,j,i] xi_b V^j
    """
    calc = PointCalculus(sys, conn, state.q, depth=1)
    p = state.q.p
    V, Theta, Q = calc.V, calc.Theta, calc.Q
    R, D = calc.R, calc.D
    taus = state.taus
    xis = _dp_to_xi(calc.gamma, p, taus, state.dps)

    cov_tau = (np.einsum("ki,mk->mi", calc.nabla_V, taus)
               + np.einsum("ik,mk->mi", calc.g_up, xis))
    dtaus = cov_tau - np.einsum("ijk,j,mk->mi", calc.gamma, V, taus)

    force = (np.einsum("sijk,s,j->ik", R, p, V)
             - np.einsum("sjik,s,j->ik", D, p, Q))
    cov_xi = (-np.einsum("ik,mk->mi", force, taus)
              - np.einsum("skij,s,j,mk->mi", D, p, V, xis)
              + np.einsum("ki,mk->mi", calc.nabla_Q, taus)
              + np.einsum("ki,mk->mi", calc.mgrad_Q, xis))
    dxis = cov_xi + np.einsum("bji,mb,j->mi", calc.gamma, xis, V)

    return V, Theta, dtaus, dxis


# ----------------------------------------------------------------------
# integration
# ----------------------------------------------------------------------

class Trajectory:
    """Recorded history of extended trajectories on the recording grid.

    Positions, momenta, tau and the plain momentum variation are stored
    per recorded time, every `IntegratorConfig.step`, interpolated from
    the error-controlled steps; xi is reconstructed through the
    connection on demand.  It has the batch axes of its start state: `x`
    is (..., records, n), `t` (records,), and `traj[i]` is batch row i.
    """

    def __init__(self, sys, conn, t, x, p, taus, dps):
        self.sys = sys
        self.conn = conn
        self.t = t
        self.x = x
        self.p = p
        self.taus = taus
        self.dps = dps

    def __len__(self):
        if self.x.ndim < 3:
            raise TypeError("an unbatched Trajectory has no batch axis")
        return len(self.x)

    def __getitem__(self, i):
        len(self)   # only a batch is indexed
        return Trajectory(self.sys, self.conn, self.t, self.x[i], self.p[i],
                          self.taus[i], self.dps[i])

    @property
    def m(self):
        return self.taus.shape[-2]

    def point(self, k):
        return PhasePoint(self.x[..., k, :], self.p[..., k, :])

    @property
    def phis(self):
        """Deviation functions phi_i(t), (..., records, m), one row per record."""
        return np.einsum("...tmi,...ti->...tm", self.taus, self.p)

    def xis(self, k):
        """xi at record k; a slice of records evaluates the connection as one batch."""
        gamma = PointCalculus(self.sys, self.conn, self.point(k), depth=0).gamma
        return _dp_to_xi(gamma, self.p[..., k, :], self.taus[..., k, :, :],
                         self.dps[..., k, :, :])

    def state(self, k):
        return ExtendedState(self.t[k], self.point(k), self.taus[..., k, :, :],
                             self.dps[..., k, :, :])

    def write_csv(self, path):
        """An unbatched trajectory, one row per recorded time."""
        n, m = self.x.shape[1], self.m
        cols = (["t"]
                + [f"x{i+1}" for i in range(n)]
                + [f"p{i+1}" for i in range(n)]
                + [f"tau{j+1}_{i+1}" for j in range(m) for i in range(n)]
                + [f"xi{j+1}_{i+1}" for j in range(m) for i in range(n)]
                + [f"phi_{j+1}" for j in range(m)])
        size = points_per_calc(self.sys, self.conn, 0)
        xis = np.concatenate([self.xis(c) for c in point_chunks(len(self.t), size)])
        table = np.column_stack([self.t, self.x, self.p, self.taus.reshape(len(self.t), -1),
                                 xis.reshape(len(self.t), -1), self.phis])
        np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(cols),
                   comments="")


def rk4_step(f, t, y, h):
    """One classical RK4 step of y' = f(t, y) from t to t + h; y may be a batch."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# The Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6,
# 1980; HNW Table II.5.2).  Row i of _DP_A forms stage i + 2 from stages
# 1 .. i + 1; its last row is b, the weights of the 5th-order y1, so stage 7
# is the slope at y1 and the next step's stage 1 (FSAL)
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# e = b - b_hat over the 7 stages: h sum e_i k_i estimates the local error
# of the embedded 4th-order solution
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# h sum d_i k_i is the last coefficient of the 4th-order continuous
# extension (Hairer's dopri5, CONTD5)
_DP_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
         -10690763975 / 1880347072, 701980252875 / 199316789632,
         -1453857185 / 822651844, 69997945 / 29380423)


def _combine(weights, ks):
    """sum w_i k_i over the nonzero weights."""
    return sum(w * k for w, k in zip(weights, ks) if w)


def _dp_attempt(f, y, k1, h):
    """One Dormand-Prince 5(4) attempt at y' = f(y) from y, whose slope is k1.

    y is a batch of rows and h a column of their steps.  Returns the
    5th-order y1, the seven stages, whose last is f(y1), and the error
    estimate h sum e_i k_i.
    """
    ks = [k1]
    for a in _DP_A:
        y1 = y + h * _combine(a, ks)
        ks.append(f(y1))
    return y1, ks, h * _combine(_DP_E, ks)


def _fill_records(hist, grid, rows, s0, s1, y0, f0, y1, f1, d):
    """Write the records in (s0, s1] of each row from its accepted step's dense output.

    Over theta in [0, 1] across the step h = s1 - s0, with F = h f,
    dy = y1 - y0 and d = sum d_i k_i over the step's stages, the
    4th-order continuous extension of the Dormand-Prince pair (HNW
    §II.6; Hairer's dopri5, CONTD5) is

        y(theta) = y0 + dy theta + r3 theta (1 - theta)
                   + r4 theta^2 (1 - theta) + r5 theta^2 (1 - theta)^2,

    r3 = F0 - dy, r4 = dy - F1 - r3, r5 = h d.  It meets y0 and y1 and
    their slopes.  `hist` is (rows, records, width), so the records a step
    covers are one contiguous block of its row: one product of that
    block's basis values, (count, 5), with the row's coefficients,
    (5, width), writes them.
    """
    sign = np.sign(grid[-1])
    lo = np.searchsorted(sign * grid, sign * s0, side="right")
    hi = np.searchsorted(sign * grid, sign * s1, side="right")
    h = s1 - s0
    dy = y1 - y0
    r3 = h[:, None] * f0 - dy
    coef = np.stack([y0, dy, r3, dy - h[:, None] * f1 - r3, h[:, None] * d], axis=1)
    for i in np.flatnonzero(hi > lo).tolist():
        a, b = lo[i], hi[i]
        th = (grid[a:b] - s0[i]) / h[i]
        basis = np.empty((b - a, 5))
        basis[:, 0] = 1.0
        basis[:, 1] = th
        u = np.multiply(th, 1.0 - th, out=basis[:, 2])
        np.multiply(u, th, out=basis[:, 3])
        np.multiply(u, u, out=basis[:, 4])
        np.matmul(basis, coef[i], out=hist[rows[i], a:b])


def _component_names(n, m):
    """Names of the stepper's state components, in their order: x, p, then (tau, dp) pairs."""
    return ([f"x{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
            + [f"{name}{j+1}_{i+1}" for j in range(m) for name in ("tau", "dp")
               for i in range(n)])


def _integrate_arrays(sys, t0, x0, p0, taus0, dps0, cfg):
    """Error-controlled Dormand-Prince 5(4) on (x, p, tau, dp) from t0; per-record arrays.

    Each batch row steps on its own.  An attempt of h takes seven stages
    (`_dp_attempt`); the seventh is the slope at y1 and the next step's
    first (FSAL), so an attempt costs six evaluations.  It keeps the
    5th-order y1 and estimates the local error as h sum e_i k_i, e = b -
    b_hat (HNW §II.4-II.5), per component over 1 + max(|y0|, |y1|).  A
    row's first attempt spans one recording interval, and its tolerance
    is the larger of `STEP_TOL` and that attempt's estimate, so a coarse
    grid asks for no more accuracy than one step of that length gives.
    After each attempt the next h is h max(0.2, 0.9 (tol/err)^(1/5)): it
    follows the estimate with no upper clip, and only the span left caps
    it.  An attempt over the tolerance, or one with a stage that is
    non-finite or leaves the system's domain, is rejected for that row
    only.  So a row's step sequence depends on that row alone, and a
    batched row steps exactly as it does alone.  A row that reaches
    t_end leaves the batch; one whose step falls below `STEP_FLOOR`
    times the recording interval raises `NonFiniteState` at the first
    recorded time it did not reach, naming the component whose scaled
    error estimate was largest in its last attempt.  The records on
    t0 + linspace(0, t_end, steps + 1) come from each accepted step's
    continuous extension (`_fill_records`), into one (rows, records,
    width) array, so each row's records are contiguous and the
    per-record arrays returned are (rows, records, ...) views of it.
    The variation block evolves by the exact Jacobian of (V, Theta), so
    one Jacobian evaluation per stage serves every variation pair.
    """
    B, n = x0.shape
    m = taus0.shape[1]
    span = cfg.t_end
    grid = np.linspace(0.0, span, cfg.steps + 1)
    width = 2 * n + 2 * m * n
    y = np.empty((B, width))
    y[:, :n] = x0
    y[:, n:2 * n] = p0
    y[:, 2 * n:] = np.concatenate([taus0, dps0], axis=2).reshape(B, -1)

    def flow(y):
        V, T, J = sys.rhs_jacobian_batch(y[:, :n], y[:, n:2 * n])
        out = np.empty_like(y)
        out[:, :n] = V
        out[:, n:2 * n] = T
        if m:
            z = y[:, 2 * n:].reshape(len(y), m, 2 * n)
            out[:, 2 * n:] = np.einsum("bij,bmj->bmi", J, z).reshape(len(y), -1)
        return out

    def f(y):
        # NaN where a row's stage is non-finite or outside the system's
        # domain, which rejects its attempt.  A batch that raises is split
        # by `chunked` down to the rows that raise; a row gets the same
        # bits in any batch.
        out = np.full_like(y, np.nan)
        rows = np.flatnonzero(np.all(np.isfinite(y), axis=1))
        if not rows.size:
            return out
        try:
            out[rows] = flow(y[rows])
        except NslabError:
            out[rows] = chunked(y[rows], lambda part: list(flow(part)),
                                lambda row, err: np.full_like(row, np.nan), len(rows))
        return out

    hist = np.empty((B, len(grid), width))         # each row's records contiguous
    hist[:, 0] = y
    s = np.zeros(B)                                 # time each row has reached, from t0
    h = np.full(B, np.copysign(cfg.step, span))     # each row's next step
    tol = None                                      # each row's, set by its first attempt
    live = np.arange(B)
    # overflow inside an attempt only rejects it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fy = flow(y)    # a start outside the system's domain raises
        while live.size:
            rem = span - s[live]
            last = np.abs(rem) <= np.abs(h[live])   # this attempt ends at t_end
            h[live[last]] = rem[last]
            yl = y[live]
            y1, ks, est = _dp_attempt(f, yl, fy[live], h[live, None])
            # a non-finite stage makes the estimate NaN or infinite
            scaled = np.abs(est) / (1.0 + np.maximum(np.abs(yl), np.abs(y1)))
            err = np.max(scaled, axis=1)
            if tol is None:
                tol = np.where(np.isfinite(err), np.maximum(STEP_TOL, err), STEP_TOL)
            tol_l = tol[live]
            ok = err <= tol_l
            if ok.any():
                rows = live[ok]
                s1 = np.where(last[ok], span, s[rows] + h[rows])
                _fill_records(hist, grid, rows, s[rows], s1, yl[ok], ks[0][ok],
                              y1[ok], ks[-1][ok], _combine(_DP_D, ks)[ok])
                y[rows], fy[rows], s[rows] = y1[ok], ks[-1][ok], s1

            # the next step follows the error estimate, and a NaN estimate (a
            # non-finite attempt) shrinks it the most; `last` caps it at the span
            h[live] *= np.fmax(0.9 * (tol_l / err) ** 0.2, 0.2)
            going = ~(ok & last)
            stalled = np.flatnonzero(going & (np.abs(h[live]) < STEP_FLOOR * cfg.step))
            if stalled.size:
                sign = np.sign(span)
                j = stalled[np.argmin(sign * s[live[stalled]])]
                k = np.searchsorted(sign * grid, sign * s[live[j]], side="right")
                # a NaN estimate counts as the largest
                raise NonFiniteState(float(t0 + grid[k]),
                                     _component_names(n, m)[np.argmax(scaled[j])])
            live = live[going]
    xs = hist[:, :, :n]
    ps = hist[:, :, n:2 * n]
    zs = hist[:, :, 2 * n:].reshape(B, len(grid), m, 2 * n)
    return t0 + grid, xs, ps, zs[..., :n], zs[..., n:]


def integrate_family(sys, conn, state, cfg):
    """Integrate an extended state, batched or not; records it every `cfg.step`.

    Returns one `Trajectory` with the state's batch axes.  Each batch
    row chooses its own steps, so its trajectory equals the one it gets
    alone, as an unbatched state.
    """
    batch = state.q.x.shape[:-1]
    rows = [a.reshape(int(np.prod(batch)), *a.shape[len(batch):])
            for a in (state.q.x, state.q.p, state.taus, state.dps)]
    ts, *records = _integrate_arrays(sys, state.t, *rows, cfg)
    return Trajectory(sys, conn, ts, *(a.reshape(*batch, *a.shape[1:]) for a in records))
