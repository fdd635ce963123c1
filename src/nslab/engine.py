"""Series-backed evaluation of the derived field stack at one phase point.

Everything the residual and variational layers need (metric pair, W,
Omega, projector, acceleration field phi, force covector, U, curvatures,
the deviation-equation fields alpha/beta/eta and the compatibility
tensors A/B/C) is computed here from a single truncated-Taylor pipeline,
so all derivatives are exact to machine precision and no quantity is ever
finite-differenced internally.  Series become numbers only through
`taylor.read_values` and `taylor.read_jet1`.

Index conventions used throughout (all arrays are plain numpy at the
point, series only while building):

    gamma[k, i, j]        connection, symmetric in (i, j)
    glow[m, b]            sum_c p_c gamma[c, m, b]
    R[k, r, i, j]         curvature, antisymmetric in (i, j)
    D[k, r, i, j]         dynamic curvature -d gamma[k, i, j] / dp_r
    nabla_<f>[m, ...]     horizontal covariant derivative, leading axis m
    mgrad_<f>[m, ...]     momentum gradient d/dp_m, leading axis m
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import taylor
from .errors import DegenerateOmega, SingularMetric
from .systems import DEFAULT_TOL


def phase_jet1(tree):
    """Values, x-partials and p-partials of nested phase-space series.

    The partials lead with the derivative index: ddx[m] = d/dx^m and
    ddp[m] = d/dp_m, each shaped like the values.
    """
    vals, grad = taylor.read_jet1(tree)
    n = len(grad) // 2
    return vals, grad[:n], grad[n:]


def curvature_tensors(p, gamma, dgdx, dgdp):
    """Assemble R and D from the connection's first-order jet.

    dgdx[m] and dgdp[m] are d gamma / dx^m and d gamma / dp_m.
    """
    glow = np.einsum("c,cmb->mb", p, gamma)
    # R[k,r,i,j]: horizontal x-derivatives plus quadratic terms
    hderiv = dgdx + np.einsum("mi,mkjr->ikjr", glow, dgdp)
    R = (np.einsum("ikjr->krij", hderiv)
         - np.einsum("jkir->krij", hderiv)
         + np.einsum("kim,mjr->krij", gamma, gamma)
         - np.einsum("kjm,mir->krij", gamma, gamma))
    D = -np.transpose(dgdp, (1, 0, 2, 3))
    return R, D


class PointCalculus:
    """Lazy evaluation of all derived fields at one point.

    `depth` is the number of exact derivative levels required of the
    top-level fields (1 suffices for every residual; 0 is enough for the
    Pfaff right-hand side).  The Taylor order of the underlying V series
    is depth + 1 plus whatever the connection itself consumes.
    """

    def __init__(self, sys, conn, q, depth=1, tol=DEFAULT_TOL):
        self.sys = sys
        self.conn = conn
        self.q = q
        self.depth = depth
        self.tol = tol
        self.n = sys.n
        v_trust = max(depth + 1, conn.v_trust_needed(depth))
        self.ctx, self.xs, self.ps, self.V_s, self.T_s = sys.series_at(q, v_trust)

    # -- base fields ----------------------------------------------------

    @cached_property
    def V(self):
        return taylor.read_values(self.V_s)

    @cached_property
    def Theta(self):
        return taylor.read_values(self.T_s)

    @cached_property
    def Vp_s(self):
        """Series matrix dV^i/dp_r; the metric pair comes from its values."""
        return [[self.V_s[i].partial_series(self.n + r) for r in range(self.n)]
                for i in range(self.n)]

    @cached_property
    def phi_s(self):
        """Acceleration field pulled back to momentum variables.

        phi^k = sum_m dV^k/dx^m V^m + dV^k/dp_m Theta_m, the total time
        derivative of the velocity field along the flow.
        """
        n = self.n
        out = []
        for k in range(n):
            acc = self.V_s[k].partial_series(0) * self.V_s[0]
            acc = acc + self.Vp_s[k][0] * self.T_s[0]
            for m in range(1, n):
                acc = acc + self.V_s[k].partial_series(m) * self.V_s[m]
                acc = acc + self.Vp_s[k][m] * self.T_s[m]
            out.append(acc)
        return out

    @cached_property
    def phi(self):
        return taylor.read_values(self.phi_s)

    @cached_property
    def g_up(self):
        """g_up[i, r] = dV^i/dp_r, checked for singularity relative to its size.

        The metric is singular when |det g| <= tol.singular * ||g||_F^n with
        ||g||_F the Frobenius norm.  By Hadamard's inequality the ratio
        |det g| / ||g||_F^n is at most 1, and it does not change when V is
        rescaled.
        """
        g = taylor.read_values(self.Vp_s)
        det = np.linalg.det(g)
        if abs(det) <= self.tol.singular * np.linalg.norm(g) ** self.n:
            raise SingularMetric(f"det dV/dp = {det:.3e} at {self.q!r}")
        return g

    @cached_property
    def g_down(self):
        return np.linalg.inv(self.g_up)

    @cached_property
    def W_s(self):
        out = []
        for s in range(self.n):
            acc = self.Vp_s[0][s] * self.ps[0]
            for r in range(1, self.n):
                acc = acc + self.Vp_s[r][s] * self.ps[r]
            out.append(acc)
        return out

    @cached_property
    def W(self):
        return taylor.read_values(self.W_s)

    @cached_property
    def Omega(self):
        """<p|W>; degenerate when |<p|W>| <= tol.omega * |p| * |W|, so at p = 0 too."""
        W = self.W
        omega = float(self.q.p @ W)
        if abs(omega) <= self.tol.omega * np.linalg.norm(self.q.p) * np.linalg.norm(W):
            raise DegenerateOmega(f"<p|W> = {omega:.3e} at {self.q!r}")
        return omega

    @cached_property
    def P(self):
        return np.eye(self.n) - np.outer(self.W, self.q.p) / self.Omega

    # -- connection-dependent fields -------------------------------------

    @cached_property
    def gamma_s(self):
        return self.conn.gamma_series(self)

    @cached_property
    def gamma(self):
        return taylor.read_values(self.gamma_s)

    @cached_property
    def glow(self):
        return np.einsum("c,cmb->mb", self.q.p, self.gamma)

    @cached_property
    def gamma_jet(self):
        """(gamma, d gamma/dx^m, d gamma/dp_m) with leading m axes on the jets."""
        return phase_jet1(self.gamma_s)

    @cached_property
    def curvatures(self):
        gamma, dgdx, dgdp = self.gamma_jet
        return curvature_tensors(self.q.p, gamma, dgdx, dgdp)

    @cached_property
    def R(self):
        return self.curvatures[0]

    @cached_property
    def D(self):
        return self.curvatures[1]

    @cached_property
    def glow_s(self):
        n = self.n
        out = [[None] * n for _ in range(n)]
        for m in range(n):
            for b in range(n):
                acc = self.ps[0] * self.gamma_s[0][m][b]
                for c in range(1, n):
                    acc = acc + self.ps[c] * self.gamma_s[c][m][b]
                out[m][b] = acc
        return out

    @cached_property
    def Q_s(self):
        """Force covector: Theta minus the connection's contribution."""
        n = self.n
        out = []
        for i in range(n):
            acc = self.T_s[i]
            for j in range(n):
                for k in range(n):
                    acc = acc - self.gamma_s[k][i][j] * (self.ps[k] * self.V_s[j])
            out.append(acc)
        return out

    @cached_property
    def Q(self):
        return taylor.read_values(self.Q_s)

    @cached_property
    def U_s(self):
        """U_s = sum_r (nabla_s V^r) p_r + Q_s, kept as series for one more level."""
        n = self.n
        out = []
        for s in range(n):
            acc = self.Q_s[s]
            for r in range(n):
                cov = self.V_s[r].partial_series(s)
                for b in range(n):
                    cov = cov + self.glow_s[s][b] * self.Vp_s[r][b]
                for a in range(n):
                    cov = cov + self.gamma_s[r][s][a] * self.V_s[a]
                acc = acc + cov * self.ps[r]
            out.append(acc)
        return out

    @cached_property
    def U(self):
        return taylor.read_values(self.U_s)

    # -- first covariant / momentum derivatives --------------------------

    @cached_property
    def nabla_V(self):
        """nabla_V[m, i] = nabla_m V^i."""
        vals, ddx, ddp = phase_jet1(self.V_s)
        return (ddx + np.einsum("mb,ib->mi", self.glow, self.g_up)
                + np.einsum("ima,a->mi", self.gamma, vals))

    @cached_property
    def nabla_W(self):
        """nabla_W[m, s] = nabla_m W^s."""
        vals, ddx, ddp = phase_jet1(self.W_s)
        return (ddx + np.einsum("mb,bs->ms", self.glow, ddp)
                + np.einsum("sma,a->ms", self.gamma, vals))

    @cached_property
    def mgrad_W(self):
        """mgrad_W[r, s] = dW^s/dp_r; this is the compatibility tensor A."""
        return phase_jet1(self.W_s)[2]

    @cached_property
    def nabla_Q(self):
        """nabla_Q[m, i] = nabla_m Q_i."""
        vals, ddx, ddp = phase_jet1(self.Q_s)
        return (ddx + np.einsum("mb,bi->mi", self.glow, ddp)
                - np.einsum("bmi,b->mi", self.gamma, vals))

    @cached_property
    def mgrad_Q(self):
        return phase_jet1(self.Q_s)[2]

    @cached_property
    def nabla_U(self):
        vals, ddx, ddp = phase_jet1(self.U_s)
        return (ddx + np.einsum("mb,bi->mi", self.glow, ddp)
                - np.einsum("bmi,b->mi", self.gamma, vals))

    @cached_property
    def mgrad_U(self):
        return phase_jet1(self.U_s)[2]

    # -- deviation-equation fields ---------------------------------------

    @cached_property
    def alpha(self):
        """Coefficient vector of the momentum-variation part of phi-ddot."""
        p, W, V, Q = self.q.p, self.W, self.V, self.Q
        term1 = np.einsum("rk,r->k", self.g_up, self.U)        # dV^r/dp_k U_r
        term2 = np.einsum("rk,r->k", self.nabla_W, V)          # nabla_r W^k V^r
        term3 = np.einsum("rk,r->k", self.mgrad_W, Q)          # dW^k/dp_r Q_r
        term4 = np.einsum("r,kr->k", W, self.mgrad_Q)          # W^r dQ_r/dp_k
        term5 = np.einsum("s,skrq,r,q->k", p, self.D, W, V)
        return term1 + term2 + term3 + term4 - term5

    @cached_property
    def beta(self):
        p, W, V, Q = self.q.p, self.W, self.V, self.Q
        b = (np.einsum("rk,r->k", self.nabla_U, V)
             + np.einsum("rk,r->k", self.mgrad_U, Q)
             + np.einsum("kr,r->k", self.nabla_V, self.U)
             + np.einsum("kr,r->k", self.nabla_Q, W))
        b = b - np.einsum("srmk,m,r,s->k", self.R, V, W, p)
        b = b + np.einsum("smrk,m,r,s->k", self.D, Q, W, p)
        return b

    @cached_property
    def eta(self):
        return self.beta - self.U * float(self.q.p @ self.alpha) / self.Omega

    @cached_property
    def ode_coefficients(self):
        """(A, B) of the second-order deviation equation phi'' = A phi' + B phi."""
        return (float(self.q.p @ self.alpha) / self.Omega,
                float(self.eta @ self.W) / self.Omega)

    # -- compatibility tensors -------------------------------------------

    @cached_property
    def A_tensor(self):
        return self.mgrad_W

    @cached_property
    def B_tensor(self):
        p, W, O = self.q.p, self.W, self.Omega
        anti = self.mgrad_W - self.mgrad_W.T
        return (self.mgrad_U
                + np.einsum("k,m,mrks->rs", W, p, self.D)
                - self.nabla_W.T
                + np.einsum("mr,m->r", anti, p)[:, None] * self.U[None, :] / O)

    @cached_property
    def C_tensor(self):
        p, W, O, U = self.q.p, self.W, self.Omega, self.U
        c = self.nabla_U
        c = c - (np.outer(U, np.einsum("m,ms->s", p, self.mgrad_U))
                 + np.einsum("rm,m->r", self.nabla_W, p)[:, None] * U[None, :]) / O
        c = c - np.einsum("mqks,m,k,q->s", self.D, p, W, p)[None, :] * U[:, None] / O
        c = c - 0.5 * np.einsum("qkrs,k,q->rs", self.R, W, p)
        return c

    @cached_property
    def lam(self):
        return float(np.einsum("rs,sr->", self.B_tensor, self.P)) / (self.n - 1)
