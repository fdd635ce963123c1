"""Trajectory integration and the variational flow along it.

The integrator advances the phase point together with any number of
variation pairs (tau, dp), both in the chart the stepper uses:
tau^i = dx^i/dy and dp_i = dp_i/dy for a one-parameter family of
trajectories.  The covariant variation covector of the theory,

    xi_i = dp_i - sum_{j,k} gamma[k,i,j] p_k tau^j,

is the covariant derivative of p along the family parameter.  It is
formed only where it is read (`variational_rhs`, `Trajectory.xis`), so
stepping needs only the Jacobian of (V, Theta) and never the connection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import PointCalculus, point_chunks
from .errors import NonFiniteState
from .systems import DEFAULT_TOL, PhasePoint


@dataclass
class IntegratorConfig:
    """Classical fixed-step fourth-order Runge-Kutta configuration."""

    t_end: float
    step: float = 1e-3

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if not np.isfinite(self.t_end):
            raise ValueError("t_end must be finite")

    @property
    def steps(self):
        return max(1, int(round(abs(self.t_end) / self.step)))


class ExtendedState:
    """Phase point plus m variation pairs (tau, dp) in the integrator's chart.

    taus[i] = dx/dy^i and dps[i] = dp/dy^i; the covariant xi follows from
    them and the connection through `_dp_to_xi`.
    """

    def __init__(self, t, q, taus=(), dps=()):
        self.t = float(t)
        self.q = q
        self.taus = np.asarray(taus, dtype=float).reshape(-1, q.n)
        self.dps = np.asarray(dps, dtype=float).reshape(-1, q.n)
        if self.taus.shape != self.dps.shape:
            raise ValueError("taus and dps must pair up")
        if not (np.all(np.isfinite(self.taus)) and np.all(np.isfinite(self.dps))):
            raise ValueError("variation data must be finite")

    @property
    def m(self):
        return self.taus.shape[0]


def phase_rhs(sys, q):
    """Right-hand side of the phase flow: (dx/dt, dp/dt) = (V, Theta)."""
    return sys.rhs(q.x, q.p)


def deviation(state):
    """phi_i = <p | tau_i> for each variation carried by the state."""
    return state.taus @ state.q.p


def _dp_to_xi(gamma, p, taus, dps):
    """Covariant xi_i = dp_i - sum_{j,k} gamma[k,i,j] p_k tau^j, per variation."""
    return dps - np.einsum("...kij,...k,...mj->...mi", gamma, p, taus)


def variational_rhs(sys, conn, state, tol=DEFAULT_TOL):
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
    calc = PointCalculus(sys, conn, state.q, depth=1, tol=tol)
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


@dataclass
class WeakFieldBundle:
    """Pointwise data entering the deviation equation and its residuals.

    A and B are the coefficients of phi'' = A phi' + B phi; they satisfy
    A Omega = <p|alpha> and B Omega = <eta|W> exactly as computed.
    """

    U: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    eta: np.ndarray
    A: float
    B: float


def weak_fields(sys, conn, q, tol=DEFAULT_TOL):
    calc = PointCalculus(sys, conn, q, depth=1, tol=tol)
    A, B = calc.ode_coefficients
    return WeakFieldBundle(U=calc.U, alpha=calc.alpha, beta=calc.beta,
                           eta=calc.eta, A=A, B=B)


# ----------------------------------------------------------------------
# integration
# ----------------------------------------------------------------------

class Trajectory:
    """Recorded fixed-step history of one extended trajectory.

    Positions, momenta, tau and the plain momentum variation are stored
    per step; xi is reconstructed through the connection on demand.
    """

    def __init__(self, sys, conn, t, x, p, taus, dps):
        self.sys = sys
        self.conn = conn
        self.t = t
        self.x = x
        self.p = p
        self.taus = taus
        self.dps = dps

    @property
    def m(self):
        return self.taus.shape[1]

    def point(self, k):
        return PhasePoint(self.x[k], self.p[k])

    @property
    def phis(self):
        """Deviation functions phi_i(t), shape (steps+1, m)."""
        return np.einsum("tmi,ti->tm", self.taus, self.p)

    def xis(self, k):
        """xi at step k; a slice of steps evaluates the connection as one batch."""
        gamma = self.conn.gamma(self.point(k))
        return _dp_to_xi(gamma, self.p[k], self.taus[k], self.dps[k])

    def state(self, k):
        return ExtendedState(self.t[k], self.point(k), self.taus[k], self.dps[k])

    def states(self):
        return [self.state(k) for k in range(len(self.t))]

    def write_csv(self, path):
        n, m = self.x.shape[1], self.m
        cols = (["t"]
                + [f"x{i+1}" for i in range(n)]
                + [f"p{i+1}" for i in range(n)]
                + [f"tau{j+1}_{i+1}" for j in range(m) for i in range(n)]
                + [f"xi{j+1}_{i+1}" for j in range(m) for i in range(n)]
                + [f"phi_{j+1}" for j in range(m)])
        phis = self.phis
        xis = np.concatenate([self.xis(c) for c in point_chunks(len(self.t))])
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for k in range(len(self.t)):
                row = [self.t[k], *self.x[k], *self.p[k], *self.taus[k].ravel(),
                       *xis[k].ravel(), *phis[k]]
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _check_finite(y, t):
    if not np.all(np.isfinite(y)):
        raise NonFiniteState(t)


def _integrate_arrays(sys, x0, p0, taus0, dps0, cfg):
    """Batched RK4 on (x, p, tau, dp); returns per-step arrays.

    The variation block evolves by the exact Jacobian of (V, Theta), so
    one Jacobian evaluation per stage serves every variation pair.
    """
    B, n = x0.shape
    m = taus0.shape[1]
    steps = cfg.steps
    h = cfg.t_end / steps
    width = 2 * n + 2 * m * n
    y = np.empty((B, width))
    y[:, :n] = x0
    y[:, n:2 * n] = p0
    y[:, 2 * n:] = np.concatenate([taus0, dps0], axis=2).reshape(B, -1)

    def f(y):
        x = y[:, :n]
        p = y[:, n:2 * n]
        V, T, J = sys.rhs_jacobian_batch(x, p)
        out = np.empty_like(y)
        out[:, :n] = V
        out[:, n:2 * n] = T
        if m:
            z = y[:, 2 * n:].reshape(B, m, 2 * n)
            out[:, 2 * n:] = np.einsum("bij,bmj->bmi", J, z).reshape(B, -1)
        return out

    hist = np.empty((steps + 1, B, width))
    hist[0] = y
    t = 0.0
    # overflow inside a step is reported through NonFiniteState, not numpy
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            k1 = f(y)
            k2 = f(y + 0.5 * h * k1)
            k3 = f(y + 0.5 * h * k2)
            k4 = f(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
            _check_finite(y, t)
            hist[k + 1] = y
    ts = np.linspace(0.0, cfg.t_end, steps + 1)
    xs = hist[:, :, :n]
    ps = hist[:, :, n:2 * n]
    zs = hist[:, :, 2 * n:].reshape(steps + 1, B, m, 2 * n)
    return ts, xs, ps, zs[..., :n], zs[..., n:]


def integrate(sys, conn, state0, cfg):
    """Advance one extended state; records every accepted step."""
    q0 = state0.q
    ts, xs, ps, taus, dps = _integrate_arrays(
        sys, q0.x[None, :], q0.p[None, :], state0.taus[None], state0.dps[None], cfg
    )
    return Trajectory(sys, conn, ts, xs[:, 0], ps[:, 0], taus[:, 0], dps[:, 0])


def integrate_family(sys, conn, states, cfg):
    """Integrate a family of extended states together (shared time grid)."""
    x0 = np.stack([s.q.x for s in states])
    p0 = np.stack([s.q.p for s in states])
    taus0 = np.stack([s.taus for s in states])
    dps0 = np.stack([s.dps for s in states])
    ts, xs, ps, taus, dps = _integrate_arrays(sys, x0, p0, taus0, dps0, cfg)
    return [Trajectory(sys, conn, ts, xs[:, b], ps[:, b], taus[:, b], dps[:, b])
            for b in range(len(states))]
