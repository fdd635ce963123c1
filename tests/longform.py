"""Long, unsimplified forms of the deviation-equation fields.

The production code computes alpha, beta and eta from compact closed
forms.  These expansions keep every term of the original derivation,
including second covariant derivatives of V, and act as an equality
oracle for the compact path.
"""

import numpy as np

from nslab.engine import PointCalculus


def _val(s):
    return float(s.value())


def _d(s, slot):
    """First partial along phase variable `slot` (x^m is m, p_m is n + m),
    read with partial() so the oracle stays apart from the engine's reader."""
    mi = [0] * s.ctx.nvars
    mi[slot] = 1
    return float(s.partial(tuple(mi)))


def _second_derivatives(calc):
    """Covariant derivative tables for dV/dp (X) and nabla V (Y)."""
    n = calc.n
    # X^{k i} = dV^i/dp_k as series
    X = [[calc.Vp_s[i][k] for i in range(n)] for k in range(n)]
    # Y^i_k = nabla_k V^i as series
    Y = [[None] * n for _ in range(n)]
    for k in range(n):
        for i in range(n):
            acc = calc.V_s[i].partial_series(k)
            for b in range(n):
                acc = acc + calc.glow_s[k][b] * calc.Vp_s[i][b]
            for a in range(n):
                acc = acc + calc.gamma_s[i][k][a] * calc.V_s[a]
            Y[k][i] = acc

    gamma, glow = calc.gamma, calc.glow
    nab_X = np.zeros((n, n, n))   # [r, k, i] = nabla_r (dV^i/dp_k)
    for r in range(n):
        for k in range(n):
            for i in range(n):
                val = _d(X[k][i], r)
                for b in range(n):
                    val += glow[r, b] * _d(X[k][i], n + b)
                for a in range(n):
                    val += gamma[k, r, a] * _val(X[a][i])
                    val += gamma[i, r, a] * _val(X[k][a])
                nab_X[r, k, i] = val
    mgrad_X = np.zeros((n, n, n))  # [r, k, i] = d^2 V^i / dp_r dp_k
    for r in range(n):
        for k in range(n):
            for i in range(n):
                mgrad_X[r, k, i] = _d(X[k][i], n + r)
    nab_Y = np.zeros((n, n, n))   # [r, k, i] = nabla_r nabla_k V^i
    mgrad_Y = np.zeros((n, n, n))  # [r, k, i] = d(nabla_k V^i)/dp_r
    for r in range(n):
        for k in range(n):
            for i in range(n):
                val = _d(Y[k][i], r)
                for b in range(n):
                    val += glow[r, b] * _d(Y[k][i], n + b)
                for a in range(n):
                    val += gamma[i, r, a] * _val(Y[k][a])
                    val -= gamma[a, r, k] * _val(Y[a][i])
                nab_Y[r, k, i] = val
                mgrad_Y[r, k, i] = _d(Y[k][i], n + r)
    return nab_X, mgrad_X, nab_Y, mgrad_Y


def long_form_fields(sys, conn, q):
    """(alpha, beta, eta) from the fully expanded derivation."""
    calc = PointCalculus(sys, conn, q, depth=1)
    n = calc.n
    p, V, Q, W = q.p, calc.V, calc.Q, calc.W
    g_up = calc.g_up                          # g_up[i,r] = dV^i/dp_r
    nabV, mgradQ, nabQ = calc.nabla_V, calc.mgrad_Q, calc.nabla_Q
    D, R = calc.D, calc.R
    nab_X, mgrad_X, nab_Y, mgrad_Y = _second_derivatives(calc)

    mgradV = g_up.T                           # mgradV[k,i] = dV^i/dp_k

    alpha = (np.einsum("ki,i->k", mgradV, Q)
             + np.einsum("rki,i,r->k", nab_X, p, V)
             + np.einsum("rki,i,r->k", mgrad_X, p, Q)
             + np.einsum("ri,i,kr->k", mgradV, p, mgradQ)
             - np.einsum("skrj,ri,i,s,j->k", D, mgradV, p, p, V)
             + np.einsum("ri,i,kr->k", nabV, p, mgradV)
             + np.einsum("kr,r->k", mgradV, Q))

    beta = (np.einsum("rki,i,r->k", nab_Y, p, V)
            + np.einsum("r,rk->k", V, nabQ)
            + np.einsum("ki,i->k", nabV, Q)
            + np.einsum("rki,i,r->k", mgrad_Y, p, Q)
            + np.einsum("rk,r->k", mgradQ, Q)
            + np.einsum("kr,r->k", nabV, Q)
            + np.einsum("ri,i,kr->k", nabV, p, nabV)
            + np.einsum("ri,i,kr->k", mgradV, p, nabQ)
            - np.einsum("srjk,ri,i,s,j->k", R, mgradV, p, p, V)
            + np.einsum("sjrk,ri,i,s,j->k", D, mgradV, p, p, Q))

    scalar = float(p @ alpha) / calc.Omega
    eta = (beta
           - np.einsum("ki,i->k", nabV, p) * scalar
           - Q * scalar)
    return alpha, beta, eta
