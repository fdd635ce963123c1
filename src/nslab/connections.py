"""Symmetric extended connections, their curvatures, and gauge moves.

Connection coefficients here depend on momentum as well as position.
Every connection knows how to render itself as Taylor series inside a
PointCalculus, which is what makes the curvature tensors exact: the
series of the canonical connection are assembled from the system's own
V and Theta series, never from numerical differentiation.
"""

from __future__ import annotations

import numpy as np

from . import taylor
from .engine import PointCalculus, curvature_tensors, phase_jet1
from .errors import AsymmetricGauge, ConfigError
from .expressions import Expression, evaluate_series, parse, phase_variables
from .systems import DEFAULT_TOL, seed_phase

__all__ = [
    "ConnectionField",
    "ZeroConnection",
    "ExplicitConnection",
    "CanonicalConnection",
    "GaugedConnection",
    "GaugeTensor",
    "canonical_connection",
    "covariant_derivative",
    "momentum_gradient",
    "curvatures",
    "CurvaturePair",
    "force_covector",
    "gauge_transform",
    "random_gauge_tensor",
    "TensorField",
]


class _PhaseSeeds:
    """Phase variables seeded at a point, to Taylor order `order`.

    This is all that `gamma_series` of a connection without a system reads
    of its `calc` argument.
    """

    def __init__(self, q, order):
        self.ctx = taylor.context(2 * q.n, order)
        self.xs, self.ps = seed_phase(self.ctx, q.x, q.p)


def _zero(calc):
    """The zero series with the batch shape of the point `calc` was built for."""
    return calc.ctx.constant(np.zeros(calc.xs[0].coef.shape[:-1]))


class ConnectionField:
    source = "abstract"

    def __init__(self, n):
        self.n = n

    def v_trust_needed(self, depth):
        """Extra exactness the connection demands of the V series."""
        return 0

    def gamma_series(self, calc):
        """gamma[k][i][j] as series at the point `calc` was built for.

        `calc` is a PointCalculus, or for a connection without a system the
        phase variables seeded at the point (see `_series_point`).
        """
        raise NotImplementedError

    def gamma(self, q):
        """Connection coefficients gamma[k, i, j] at a point; a batch leads with its axes."""
        return taylor.read_values(self.gamma_series(self._series_point(q, 0)))

    def _series_point(self, q, depth):
        """What `gamma_series` reads at q for `depth` derivative levels of gamma."""
        return _PhaseSeeds(q, depth)


class ZeroConnection(ConnectionField):
    source = "zero"

    def gamma_series(self, calc):
        n = self.n
        zero = _zero(calc)
        return [[[zero] * n for _ in range(n)] for _ in range(n)]


class _ExpressionTable:
    """Symmetric (k, i, j) table of expressions with triangle completion."""

    def __init__(self, n, entries, label):
        self.n = n
        pv = phase_variables(n)
        table = {}
        for key, text in entries.items():
            if isinstance(key, str):
                parts = tuple(int(s) for s in key.split(","))
            else:
                parts = tuple(key)
            if len(parts) != 3 or not all(1 <= v <= n for v in parts):
                raise ConfigError(f"bad {label} index {key!r}")
            k, i, j = (v - 1 for v in parts)
            expr = text if isinstance(text, Expression) else parse(str(text), pv)
            mirror = table.get((k, j, i))
            if mirror is not None and mirror.text != expr.text:
                raise ConfigError(
                    f"{label} entries ({k+1},{i+1},{j+1}) and ({k+1},{j+1},{i+1}) "
                    "are both given and differ"
                )
            table[(k, i, j)] = expr
            table[(k, j, i)] = expr
        self.table = table

    def series(self, calc):
        n = self.n
        env = calc.xs + calc.ps
        zero = _zero(calc)
        out = [[[zero] * n for _ in range(n)] for _ in range(n)]
        for (k, i, j), expr in self.table.items():
            out[k][i][j] = evaluate_series(expr, env)
        return out


class ExplicitConnection(ConnectionField):
    """Connection given by expressions; omitted entries are zero.

    Only one of the (i, j) / (j, i) entries needs to be supplied; the
    symmetric partner is filled in automatically.
    """

    source = "explicit"

    def __init__(self, n, entries):
        super().__init__(n)
        self._table = _ExpressionTable(n, entries, "connection")

    def gamma_series(self, calc):
        return self._table.series(calc)


class CanonicalConnection(ConnectionField):
    """The symmetric connection generated by the dynamical system itself.

    Built as -1/2 of the second velocity-derivative of the acceleration
    field, transported to momentum variables through the inverse metric
    pair.  Its Taylor form consumes three derivative levels of V (and two
    of Theta), which fixes the jet orders requested from the system.
    """

    source = "canonical"

    def __init__(self, sys, tol=DEFAULT_TOL):
        super().__init__(sys.n)
        self.sys = sys
        self.tol = tol

    def v_trust_needed(self, depth):
        return depth + 3

    def gamma_series(self, calc):
        if calc.sys is not self.sys:
            raise ValueError("canonical connection evaluated against a foreign system")
        n = self.n
        calc.g_up  # raises SingularMetric early if dV/dp degenerates
        g_down = taylor.series_matrix_inverse(calc.Vp_s)
        phi = calc.phi_s
        dphi = [[phi[k].partial_series(n + r) for r in range(n)] for k in range(n)]
        d2phi = [[[None] * n for _ in range(n)] for _ in range(n)]
        vpp = [[[None] * n for _ in range(n)] for _ in range(n)]
        for r in range(n):
            for s in range(r, n):
                for k in range(n):
                    d2 = dphi[k][r].partial_series(n + s)
                    d2phi[k][r][s] = d2
                    d2phi[k][s][r] = d2
                    v2 = calc.Vp_s[k][r].partial_series(n + s)
                    vpp[k][r][s] = v2
                    vpp[k][s][r] = v2
        # psi[k][a]: first velocity-derivative of the acceleration field
        psi = [[None] * n for _ in range(n)]
        for k in range(n):
            for a in range(n):
                acc = g_down[0][a] * dphi[k][0]
                for m in range(1, n):
                    acc = acc + g_down[m][a] * dphi[k][m]
                psi[k][a] = acc
        inner = [[[None] * n for _ in range(n)] for _ in range(n)]
        for k in range(n):
            for r in range(n):
                for s in range(r, n):
                    acc = d2phi[k][r][s]
                    for a in range(n):
                        acc = acc - vpp[a][r][s] * psi[k][a]
                    inner[k][r][s] = acc
                    inner[k][s][r] = acc
        gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
        for k in range(n):
            tmp = [[None] * n for _ in range(n)]
            for r in range(n):
                for j in range(n):
                    acc = inner[k][r][0] * g_down[0][j]
                    for s in range(1, n):
                        acc = acc + inner[k][r][s] * g_down[s][j]
                    tmp[r][j] = acc
            for i in range(n):
                for j in range(i, n):
                    acc = g_down[0][i] * tmp[0][j]
                    for r in range(1, n):
                        acc = acc + g_down[r][i] * tmp[r][j]
                    acc = acc * (-0.5)
                    gamma[k][i][j] = acc
                    gamma[k][j][i] = acc
        return gamma

    def _series_point(self, q, depth):
        return PointCalculus(self.sys, self, q, depth=depth, tol=self.tol)


class GaugeTensor:
    """Symmetric (1,2) tensor used to move between connections."""

    def __init__(self, n, entries):
        self.n = n
        try:
            self._table = _ExpressionTable(n, entries, "gauge tensor")
        except ConfigError as err:
            raise AsymmetricGauge(str(err)) from None

    def series(self, calc):
        return self._table.series(calc)


class GaugedConnection(ConnectionField):
    source = "gauged"

    def __init__(self, base, T):
        super().__init__(base.n)
        self.base = base
        self.T = T

    def v_trust_needed(self, depth):
        return self.base.v_trust_needed(depth)

    def gamma_series(self, calc):
        n = self.n
        base = self.base.gamma_series(calc)
        tser = self.T.series(calc)
        return [[[base[k][i][j] + tser[k][i][j] for j in range(n)]
                 for i in range(n)] for k in range(n)]

    def _series_point(self, q, depth):
        return self.base._series_point(q, depth)


def canonical_connection(sys, tol=DEFAULT_TOL):
    """The canonical connection of a system."""
    return CanonicalConnection(sys, tol)


def connection_from_config(cfg, sys):
    """Connection for a loaded system config.

    An optional "Gamma" block ({"k,i,j": expr, ...}, 1-based indices,
    omitted entries zero, symmetric completion) selects an explicit
    connection; otherwise the system's canonical connection is used.
    """
    block = cfg.get("Gamma") if isinstance(cfg, dict) else None
    if block is not None:
        return ExplicitConnection(sys.n, block)
    return CanonicalConnection(sys)


# ----------------------------------------------------------------------
# curvature and covariant differentiation
# ----------------------------------------------------------------------

class CurvaturePair(tuple):
    """(R, D); R[k,r,i,j] antisymmetric in (i,j), D = -d gamma/dp."""

    __slots__ = ()

    def __new__(cls, R, D):
        return super().__new__(cls, (R, D))

    @property
    def R(self):
        return self[0]

    @property
    def D(self):
        return self[1]


def curvatures(conn, q):
    gamma, dgdx, dgdp = phase_jet1(conn.gamma_series(conn._series_point(q, 1)))
    return CurvaturePair(*curvature_tensors(q.p, gamma, dgdx, dgdp))


class TensorField:
    """Extended tensor field given componentwise by expressions.

    `index_types` is a string of 'u'/'d' characters, one per axis, e.g.
    'u' for a vector field, 'd' for a covector, '' for a scalar.
    """

    def __init__(self, n, index_types, components):
        self.n = n
        self.index_types = index_types
        comps = np.empty((n,) * len(index_types), dtype=object)
        pv = phase_variables(n)
        for idx in np.ndindex(comps.shape):
            entry = components[idx] if comps.ndim else components
            comps[idx] = entry if isinstance(entry, Expression) else parse(str(entry), pv)
        self.components = comps

    def jet(self, q):
        """(values, d/dx^m, d/dp_m) at q with leading m axes on the partials."""
        seeds = _PhaseSeeds(q, 1)
        env = seeds.xs + seeds.ps
        series = np.empty(self.components.shape, dtype=object)
        for idx in np.ndindex(series.shape):
            series[idx] = evaluate_series(self.components[idx], env)
        return phase_jet1(series.tolist())


def covariant_derivative(conn, field, q):
    """Horizontal covariant derivative of an extended tensor field.

    Returns an array with a new leading axis m:

        nabla_m X = dX/dx^m + sum_b Gamma_{mb} dX/dp_b
                    + (one connection term per upper index)
                    - (one connection term per lower index),

    with Gamma_{mb} = sum_c p_c gamma[c, m, b].  The companion momentum
    gradient is the plain dX/dp_m (see momentum_gradient).
    """
    n = conn.n
    gamma = conn.gamma(q)
    glow = np.einsum("c,cmb->mb", q.p, gamma)
    vals, ddx, ddp = field.jet(q)
    out = ddx + np.einsum("mb,b...->m...", glow, ddp)
    for axis, kind in enumerate(field.index_types):
        moved = np.moveaxis(vals, axis, 0)  # contracted index first
        if kind == "u":
            corr = np.einsum("ima,a...->mi...", gamma, moved)
        else:
            corr = -np.einsum("bmi,b...->mi...", gamma, moved)
        out = out + np.moveaxis(corr, 1, axis + 1)
    return out


def momentum_gradient(field, q):
    _, _, ddp = field.jet(q)
    return ddp


def force_covector(sys, conn, q):
    """Q_i = Theta_i - sum_{j,k} gamma[k,i,j] p_k V^j."""
    return PointCalculus(sys, conn, q, depth=0).Q


# ----------------------------------------------------------------------
# gauge transformations
# ----------------------------------------------------------------------

def gauge_transform(sys, conn, T):
    """Shift the connection by a symmetric tensor and compensate the force.

    Returns (conn', Q') with gamma' = gamma + T and

        Q'_i(q) = Q_i(q) - sum_{k,s} T^k_{is} p_k V^s,

    so the connection-free dynamics (V, Theta) is untouched.
    """
    gauged = GaugedConnection(conn, T)

    def q_field(q):
        return force_covector(sys, gauged, q)

    return gauged, q_field


def random_gauge_tensor(n, rng, degree=2, scale=1.0):
    """Random symmetric gauge tensor, polynomial in x and p.

    Coefficients are uniform in [-scale, scale]; each entry is a sum of
    monomials of degree <= `degree` in every variable separately.
    """
    pv = phase_variables(n)
    names = list(pv)
    entries = {}
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                terms = []
                for _ in range(3):
                    c = rng.uniform(-scale, scale)
                    a = names[rng.integers(0, len(names))]
                    b = names[rng.integers(0, len(names))]
                    da = int(rng.integers(0, degree + 1))
                    db = int(rng.integers(0, degree + 1 - min(da, degree)))
                    term = f"{c:.6f}"
                    if da:
                        term += f"*{a}^{da}"
                    if db:
                        term += f"*{b}^{db}"
                    terms.append(term)
                entries[f"{k+1},{i+1},{j+1}"] = " + ".join(terms)
    return GaugeTensor(n, entries)
