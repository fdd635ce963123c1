"""Series-backed evaluation of the derived field stack at a phase point or a batch.

Everything the residual and variational layers need (metric pair, W,
Omega, projector, acceleration field phi, force covector, U, curvatures,
the deviation-equation fields alpha/beta/eta and the compatibility
tensors A/B/C) is computed here from a single truncated-Taylor pipeline,
so all derivatives are exact to machine precision and no quantity is ever
finite-differenced internally.  Each `*_s` field is one tensor series
(see `taylor`), and series become numbers only through
`taylor.read_values` and `taylor.read_jet1`.

Index conventions used throughout (all arrays are plain numpy at the
point, series only while building).  The point may be a batch (see
`PhasePoint`): every field then carries the point's batch axes in front
of the indices below, and each check raises if it fails at any point of
the batch.

    gamma[k, i, j]        connection, symmetric in (i, j)
    glow[m, b]            sum_c p_c gamma[c, m, b]
    R[k, r, i, j]         curvature, antisymmetric in (i, j)
    D[k, r, i, j]         dynamic curvature -d gamma[k, i, j] / dp_r
    nabla_<f>[m, ...]     horizontal covariant derivative, first index m:
                          dX/dx^m + sum_b glow[m, b] dX/dp_b, plus
                          + gamma[i, m, a] X^a for an upper index or
                          - gamma[b, m, i] X_b for a lower one; every
                          field has no index or one (`PointCalculus.nabla`)
    mgrad_<f>[m, ...]     momentum gradient d/dp_m, first index m
                          (`PointCalculus.mgrad`)
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import taylor
from .errors import DegenerateOmega, NslabError, SingularMetric
from .systems import OMEGA_RATIO, SINGULAR_RATIO, PhasePoint

# Points per batched evaluation.  On the pfaff-sphere benchmark (2-core
# x86-64, numpy 2.4, medians of 5 runs), against one point at a time
# (39.1 MB peak RSS, 0.90 s), chunks of 8 / 16 / 32 points cost +0.3 / +0.5 /
# +1.5 MB and solved in 0.20 / 0.19 / 0.18 s.  The 200-point regularity
# screen of demos/02 (same machine, BLAS at one thread, two runs of 5
# alternating) takes 16-21 ms in chunks of 16 against 91-115 ms with one
# calc per point.
MAX_POINTS = 16

# Matrix-series coefficients per calc: a calc holds the most points, at
# most MAX_POINTS, whose n x n series at its V trust fit this budget (see
# `points_per_calc`).  With the canonical connection (V trust 4 at depth
# 1) that is 16 points at n = 2 and n = 3 and 4 at n = 4.  A 48-point
# n = 4 residual sweep (2-core x86-64, numpy 2.4) read a max RSS of
# 44.1 MB at 16 points per calc against 40.0 MB at 4.
_CALC_COEFFICIENTS = 32768


def point_chunks(count, size):
    """Slices that split `count` points into batches of at most `size`."""
    return [slice(i, i + size) for i in range(0, count, size)]


def stack_points(points):
    """One batched PhasePoint from a list of points, in list order."""
    return PhasePoint(np.stack([q.x for q in points]), np.stack([q.p for q in points]))


def chunked(points, batched, failed, size):
    """One result per point of a list, from batched evaluations of `size` points.

    `batched(part)` evaluates the points of one chunk together and returns
    their results in order.  A part where it raises an NslabError is split
    in halves, each evaluated again the same way, so a failure is reported
    by, and only by, the point that has it: `failed(q, err)` gives the
    result of a one-point part that raises `err`, and no point is
    evaluated alone twice.  Overflow and invalid operations evaluate
    without warnings; the non-finite values they leave are for `batched`
    to report.  A `batched` that builds one PointCalculus per part takes
    `size` from `points_per_calc`.
    """
    def evaluate(part):
        try:
            return batched(part)
        except NslabError as err:
            if len(part) == 1:
                return [failed(part[0], err)]
            half = len(part) // 2
            return evaluate(part[:half]) + evaluate(part[half:])

    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in point_chunks(len(points), size):
            out += evaluate(points[chunk])
    return out


def v_trust(conn, depth):
    """The order to which a calc of `depth` with connection `conn` needs V exact."""
    return max(depth + 1, conn.v_trust_needed(depth))


def points_per_calc(sys, conn, depth):
    """Points per depth-`depth` PointCalculus of `sys` with `conn`, in a loop over many.

    The most points, at most MAX_POINTS, whose n x n series at the calc's
    V trust t fit _CALC_COEFFICIENTS; each series holds the comb(2n + t, t)
    Taylor coefficients of degree <= t in the 2n phase variables.
    """
    trust = v_trust(conn, depth)
    size = math.comb(2 * sys.n + trust, trust)
    return max(1, min(MAX_POINTS, _CALC_COEFFICIENTS // (sys.n ** 2 * size)))


def _dot(a, b):
    """a @ b over the last axes, batch axes broadcast; rounds exactly as `a @ b`."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def singular_metric(g):
    """(det g, where the metric pair g is singular); g may be a batch.

    The metric is singular when |det g| <= SINGULAR_RATIO * ||g||_F^n with
    ||g||_F the Frobenius norm.  By Hadamard's inequality the ratio
    |det g| / ||g||_F^n is at most 1, and it does not change when V is
    rescaled.
    """
    det = np.linalg.det(g)
    return det, np.abs(det) <= SINGULAR_RATIO * np.linalg.norm(g, axis=(-2, -1)) ** g.shape[-1]


def degenerate_omega(p, W):
    """(<p|W>, where it is degenerate); p and W may be a batch.

    Omega = <p|W> is degenerate when |<p|W>| <= OMEGA_RATIO * |p| * |W|, so
    at p = 0 too.
    """
    omega = _dot(p, W)
    bound = OMEGA_RATIO * np.linalg.norm(p, axis=-1) * np.linalg.norm(W, axis=-1)
    return omega, np.abs(omega) <= bound


# the value each degeneracy error reports
_REPORTED = {SingularMetric: "det dV/dp", DegenerateOmega: "<p|W>"}


def degeneracy(error, value, q):
    """The SingularMetric or DegenerateOmega `error` for `value` at the point q."""
    return error(f"{_REPORTED[error]} = {value:.3e} at {q!r}")


class PointCalculus:
    """Lazy evaluation of all derived fields at a point or a batch of points.

    `depth` is the number of exact derivative levels required of the
    top-level fields (1 suffices for every residual; 0 is enough for the
    Pfaff right-hand side).  The Taylor order of the underlying V series
    is depth + 1 plus whatever the connection itself consumes.  With a
    batched `q` every field leads with q's batch axes.
    """

    def __init__(self, sys, conn, q, depth=1):
        self.sys = sys
        self.conn = conn
        self.q = q
        self.depth = depth
        self.n = sys.n
        self.batch_ndim = q.x.ndim - 1
        self.v_trust = v_trust(conn, depth)
        self._phase = sys.phase_at(q, self.v_trust)
        self.ctx, xs, ps = self._phase
        self.xs, self.ps = xs.truncate(self.v_trust), ps.truncate(self.v_trust)
        # first-order jets by series object (see `_jet1`)
        self._jets = {}

    # -- base fields ----------------------------------------------------

    @cached_property
    def _v_theta(self):
        """(V_s, T_s), formed on first read.

        A calc that reads neither, such as a depth-0 calc with the zero
        connection that only reads gamma, never pays for them.
        """
        return self.sys.series_at(self.q, self.v_trust, self._phase)[3:]

    @cached_property
    def V_s(self):
        return self._v_theta[0]

    @cached_property
    def T_s(self):
        """Theta_s, exact to `sys.theta_trust(v_trust)`."""
        return self._v_theta[1]

    @cached_property
    def V(self):
        return taylor.read_values(self.V_s)

    @cached_property
    def Theta(self):
        return taylor.read_values(self.T_s)

    @cached_property
    def dV_s(self):
        """dV_s[i, v] = dV^i/dz^v over the phase variables z = (x, p)."""
        return self.V_s.partials(0, 2 * self.n)

    @cached_property
    def Vp_s(self):
        """Series matrix dV^i/dp_r; the metric pair comes from its values."""
        return self.dV_s[..., self.n:]

    @cached_property
    def phi_s(self):
        """Acceleration field pulled back to momentum variables.

        phi^k = sum_m dV^k/dx^m V^m + dV^k/dp_m Theta_m, the total time
        derivative of the velocity field along the flow.
        """
        n = self.n
        return (self.dV_s[..., :n] * self.V_s[..., None, :]
                + self.Vp_s * self.T_s[..., None, :]).sum(-1)

    @cached_property
    def phi(self):
        return taylor.read_values(self.phi_s)

    def _jet1(self, series):
        """Values, x-partials and p-partials of a phase-space series, read once and kept.

        The derivative index follows the batch axes:
        ddx[..., m, ...] = d/dx^m and ddp[..., m, ...] = d/dp_m of the values.
        """
        jet = self._jets.get(series)
        if jet is None:
            vals, grad = taylor.read_jet1(series)
            n, b = self.n, self.batch_ndim
            jet = self._jets[series] = (vals, np.moveaxis(grad[:n], 0, b),
                                        np.moveaxis(grad[n:], 0, b))
        return jet

    def _check(self, bad, error, value):
        """Raise the degeneracy `error` at the first point of the batch where `bad` holds."""
        if np.any(bad):
            i = np.unravel_index(np.argmax(bad), np.shape(bad))
            raise degeneracy(error, value[i], self.q[i])

    @cached_property
    def g_up(self):
        """g_up[i, r] = dV^i/dp_r; raises SingularMetric where it is singular."""
        g = taylor.read_values(self.Vp_s)
        det, singular = singular_metric(g)
        self._check(singular, SingularMetric, det)
        return g

    @cached_property
    def g_down(self):
        return np.linalg.inv(self.g_up)

    @cached_property
    def W_s(self):
        """W^s = sum_r dV^r/dp_s p_r, exact to `depth`.

        Its readers take W's values and, at depth 1, its first partials.
        """
        return (self.Vp_s.truncate(self.depth) * self.ps[..., :, None]).sum(-2)

    @cached_property
    def W(self):
        return taylor.read_values(self.W_s)

    @cached_property
    def Omega(self):
        """<p|W>; raises DegenerateOmega where it is degenerate."""
        omega, degenerate = degenerate_omega(self.q.p, self.W)
        self._check(degenerate, DegenerateOmega, omega)
        return omega

    @cached_property
    def P(self):
        return (np.eye(self.n)
                - self.W[..., :, None] * self.q.p[..., None, :] / self.Omega[..., None, None])

    # -- connection-dependent fields -------------------------------------

    @cached_property
    def gamma_s(self):
        return self.conn.gamma_series(self)

    @cached_property
    def gamma(self):
        return taylor.read_values(self.gamma_s)

    @cached_property
    def glow(self):
        return np.einsum("...c,...cmb->...mb", self.q.p, self.gamma)

    @cached_property
    def curvatures(self):
        """(R, D) from the connection's first-order jet."""
        gamma, dgdx, dgdp = self._jet1(self.gamma_s)
        # R[k,r,i,j]: horizontal x-derivatives plus quadratic terms
        hderiv = dgdx + np.einsum("...mi,...mkjr->...ikjr", self.glow, dgdp)
        R = (np.einsum("...ikjr->...krij", hderiv)
             - np.einsum("...jkir->...krij", hderiv)
             + np.einsum("...kim,...mjr->...krij", gamma, gamma)
             - np.einsum("...kjm,...mir->...krij", gamma, gamma))
        D = -np.swapaxes(dgdp, -4, -3)
        return R, D

    @cached_property
    def R(self):
        return self.curvatures[0]

    @cached_property
    def D(self):
        return self.curvatures[1]

    @cached_property
    def glow_s(self):
        """glow_s[m, b] = sum_c p_c gamma[c, m, b]."""
        return (self.ps[..., :, None, None] * self.gamma_s).sum(-3)

    @cached_property
    def Q_s(self):
        """Force covector Q_i = Theta_i - sum_j glow[i, j] V^j."""
        return self.T_s - (self.glow_s * self.V_s[..., None, :]).sum(-1)

    @cached_property
    def Q(self):
        return taylor.read_values(self.Q_s)

    @cached_property
    def U_s(self):
        """U_s = sum_r (nabla_s V^r) p_r + Q_s, kept as series for one more level."""
        n = self.n
        # cov[r, s] = nabla_s V^r
        cov = (self.dV_s[..., :n]
               + (self.glow_s[..., None, :, :] * self.Vp_s[..., :, None, :]).sum(-1)
               + (self.gamma_s * self.V_s[..., None, None, :]).sum(-1))
        return self.Q_s + (cov * self.ps[..., :, None]).sum(-2)

    @cached_property
    def U(self):
        return taylor.read_values(self.U_s)

    # -- first covariant / momentum derivatives --------------------------

    def nabla(self, series, index=None):
        """Horizontal covariant derivative [m, ...] = nabla_m of a scalar or one-index field.

        nabla_m X = dX/dx^m + sum_b glow[m, b] dX/dp_b, plus
        + sum_a gamma[i, m, a] X^a for an upper index ("u") or
        - sum_b gamma[b, m, i] X_b for a lower index ("d").
        """
        vals, ddx, ddp = self._jet1(series)
        if index is None:
            return ddx + np.einsum("...mb,...b->...m", self.glow, ddp)
        hor = ddx + np.einsum("...mb,...bi->...mi", self.glow, ddp)
        if index == "u":
            return hor + np.einsum("...ima,...a->...mi", self.gamma, vals)
        if index == "d":
            return hor - np.einsum("...bmi,...b->...mi", self.gamma, vals)
        raise ValueError(f"index must be None, 'u' or 'd', not {index!r}")

    def mgrad(self, series):
        """Momentum gradient [m, ...] = d/dp_m of a field series."""
        return self._jet1(series)[2]

    @cached_property
    def nabla_V(self):
        """nabla_V[m, i] = nabla_m V^i."""
        return self.nabla(self.V_s, "u")

    @cached_property
    def nabla_W(self):
        """nabla_W[m, s] = nabla_m W^s."""
        return self.nabla(self.W_s, "u")

    @cached_property
    def mgrad_W(self):
        """mgrad_W[r, s] = dW^s/dp_r; this is the compatibility tensor A."""
        return self.mgrad(self.W_s)

    @cached_property
    def nabla_Q(self):
        """nabla_Q[m, i] = nabla_m Q_i."""
        return self.nabla(self.Q_s, "d")

    @cached_property
    def mgrad_Q(self):
        return self.mgrad(self.Q_s)

    @cached_property
    def nabla_U(self):
        return self.nabla(self.U_s, "d")

    @cached_property
    def mgrad_U(self):
        return self.mgrad(self.U_s)

    # -- deviation-equation fields ---------------------------------------

    @cached_property
    def alpha(self):
        """Coefficient vector of the momentum-variation part of phi-ddot."""
        p, W, V, Q = self.q.p, self.W, self.V, self.Q
        term1 = np.einsum("...rk,...r->...k", self.g_up, self.U)    # dV^r/dp_k U_r
        term2 = np.einsum("...rk,...r->...k", self.nabla_W, V)      # nabla_r W^k V^r
        term3 = np.einsum("...rk,...r->...k", self.mgrad_W, Q)      # dW^k/dp_r Q_r
        term4 = np.einsum("...r,...kr->...k", W, self.mgrad_Q)      # W^r dQ_r/dp_k
        term5 = np.einsum("...s,...skrq,...r,...q->...k", p, self.D, W, V)
        return term1 + term2 + term3 + term4 - term5

    @cached_property
    def beta(self):
        p, W, V, Q = self.q.p, self.W, self.V, self.Q
        b = (np.einsum("...rk,...r->...k", self.nabla_U, V)
             + np.einsum("...rk,...r->...k", self.mgrad_U, Q)
             + np.einsum("...kr,...r->...k", self.nabla_V, self.U)
             + np.einsum("...kr,...r->...k", self.nabla_Q, W))
        b = b - np.einsum("...srmk,...m,...r,...s->...k", self.R, V, W, p)
        b = b + np.einsum("...smrk,...m,...r,...s->...k", self.D, Q, W, p)
        return b

    @cached_property
    def eta(self):
        s = _dot(self.q.p, self.alpha)[..., None]
        return self.beta - self.U * s / self.Omega[..., None]

    @cached_property
    def ode_coefficients(self):
        """(A, B) of the second-order deviation equation phi'' = A phi' + B phi."""
        return (_dot(self.q.p, self.alpha) / self.Omega,
                _dot(self.eta, self.W) / self.Omega)

    # -- compatibility tensors -------------------------------------------

    @cached_property
    def A_tensor(self):
        return self.mgrad_W

    @cached_property
    def B_tensor(self):
        p, W, O = self.q.p, self.W, self.Omega[..., None, None]
        anti = self.mgrad_W - np.swapaxes(self.mgrad_W, -2, -1)
        return (self.mgrad_U
                + np.einsum("...k,...m,...mrks->...rs", W, p, self.D)
                - np.swapaxes(self.nabla_W, -2, -1)
                + np.einsum("...mr,...m->...r", anti, p)[..., :, None] * self.U[..., None, :] / O)

    @cached_property
    def C_tensor(self):
        p, W, O, U = self.q.p, self.W, self.Omega[..., None, None], self.U
        c = self.nabla_U
        c = c - (U[..., :, None] * np.einsum("...m,...ms->...s", p, self.mgrad_U)[..., None, :]
                 + np.einsum("...rm,...m->...r", self.nabla_W, p)[..., :, None]
                 * U[..., None, :]) / O
        c = c - (np.einsum("...mqks,...m,...k,...q->...s", self.D, p, W, p)[..., None, :]
                 * U[..., :, None] / O)
        c = c - 0.5 * np.einsum("...qkrs,...k,...q->...rs", self.R, W, p)
        return c

    @cached_property
    def lam(self):
        return np.einsum("...rs,...sr->...", self.B_tensor, self.P) / (self.n - 1)
