"""Independent cross-check constructions used by the CLI and the tests.

The canonical connection admits two routes: the production pipeline in
`connections` contracts a rearranged double momentum derivative through
the inverse metric pair inside the series ring, while the oracle here
rebuilds -1/2 of the second velocity derivative of the acceleration
field by explicit nested chain rules on plain jet data, including the
derivative-of-inverse-matrix step.  Agreement of the two is one of the
acceptance gates.
"""

from __future__ import annotations

import itertools

import numpy as np


def canonical_connection_oracle(sys, q):
    """gamma[k,i,j] from the velocity-space generator, via plain jets."""
    n = sys.n
    # V and Theta exact to order 3 (Theta needs 2)
    _, _, _, Vs, Ts = sys.series_at(q, 3)

    def table(series, *starts):
        """t[k, a, b, ...] = d series^k / dz^(starts[0] + a) dz^(starts[1] + b) ..."""
        entries = []
        for idx in itertools.product(range(n), repeat=len(starts)):
            mi = [0] * (2 * n)
            for start, i in zip(starts, idx):
                mi[start + i] += 1
            entries.append(series.partial(tuple(mi)))
        return np.ascontiguousarray(np.moveaxis(np.reshape(entries, (n,) * (len(starts) + 1)),
                                                -1, 0))

    V, T = table(Vs), table(Ts)
    Vx, Vp = table(Vs, 0), table(Vs, n)
    Vxp, Vpp = table(Vs, 0, n), table(Vs, n, n)
    Vxpp, Vppp = table(Vs, 0, n, n), table(Vs, n, n, n)
    Tp, Tpp = table(Ts, n), table(Ts, n, n)

    # acceleration field and its first two momentum derivatives by Leibniz
    dphi = (np.einsum("kmr,m->kr", Vxp, V) + np.einsum("km,mr->kr", Vx, Vp)
            + np.einsum("kmr,m->kr", Vpp, T) + np.einsum("km,mr->kr", Vp, Tp))
    d2phi = (np.einsum("kmrs,m->krs", Vxpp, V)
             + np.einsum("kmr,ms->krs", Vxp, Vp)
             + np.einsum("kms,mr->krs", Vxp, Vp)
             + np.einsum("km,mrs->krs", Vx, Vpp)
             + np.einsum("kmrs,m->krs", Vppp, T)
             + np.einsum("kmr,ms->krs", Vpp, Tp)
             + np.einsum("kms,mr->krs", Vpp, Tp)
             + np.einsum("km,mrs->krs", Vp, Tpp))

    g_down = np.linalg.inv(Vp)
    # d g_down / dp_s = -g_down (d g_up / dp_s) g_down
    dg_down = -np.einsum("ra,abs,bi->sri", g_down, Vpp, g_down)

    # first velocity derivative of the acceleration, then the second
    psi1 = np.einsum("ri,kr->ki", g_down, dphi)
    dpsi1 = (np.einsum("sri,kr->kis", dg_down, dphi)
             + np.einsum("ri,krs->kis", g_down, d2phi))
    second = np.einsum("sj,kis->kij", g_down, dpsi1)
    return -0.5 * second
