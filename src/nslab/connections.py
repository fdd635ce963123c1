"""Symmetric extended connections and gauge moves.

Connection coefficients here depend on momentum as well as position.
Every connection knows how to render itself as Taylor series inside a
PointCalculus, and is evaluated only there: its gamma, its curvatures
R and D and the force covector Q are fields of the calc.  That is what
makes the curvature tensors exact: the series of the canonical
connection are assembled from the system's own V and Theta series,
never from numerical differentiation.
"""

from __future__ import annotations

import numpy as np

from . import taylor
from .errors import AsymmetricGauge, ConfigError
from .expressions import Expression, evaluate_series, parse, phase_variables
from .systems import phase_env

__all__ = [
    "ConnectionField",
    "ZeroConnection",
    "ExplicitConnection",
    "CanonicalConnection",
    "GaugedConnection",
    "GaugeTensor",
    "canonical_connection",
    "connection_from_config",
    "random_gauge_tensor",
]


class ConnectionField:
    def __init__(self, n):
        self.n = n

    def v_trust_needed(self, depth):
        """Extra exactness the connection demands of the V series."""
        return 0

    def gamma_series(self, calc):
        """gamma[..., k, i, j] as one series at the point of the PointCalculus `calc`.

        The calc is the only caller: gamma's values and derivatives are its
        fields `gamma`, `R` and `D`.
        """
        raise NotImplementedError


class ZeroConnection(ConnectionField):
    def gamma_series(self, calc):
        return calc.ctx.constant(np.zeros(calc.xs.shape[:-1] + (self.n,) * 3))


class _ExpressionTable:
    """Symmetric (k, i, j) table of expressions with triangle completion.

    `exprs` holds the distinct entries and `slots[k, i, j]` the position of
    entry (k, i, j) among them, offset by one: slot 0 is an omitted entry.
    Mirrored entries (k, i, j) and (k, j, i) that differ raise `mismatch`.
    """

    def __init__(self, n, entries, label, mismatch=ConfigError):
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
                raise mismatch(
                    f"{label} entries ({k+1},{i+1},{j+1}) and ({k+1},{j+1},{i+1}) "
                    "are both given and differ"
                )
            table[(k, i, j)] = expr
            table[(k, j, i)] = expr
        self.exprs = list(dict.fromkeys(table.values()))
        self.slots = np.zeros((n, n, n), dtype=np.int64)
        for key, expr in table.items():
            self.slots[key] = 1 + self.exprs.index(expr)

    def series(self, calc):
        env = phase_env(calc.xs, calc.ps)
        zero = calc.ctx.constant(np.zeros(calc.xs.shape[:-1]))
        entries = taylor.stack([zero] + [evaluate_series(e, env) for e in self.exprs])
        return entries[..., self.slots]


class ExplicitConnection(ConnectionField):
    """Connection given by expressions; omitted entries are zero.

    Only one of the (i, j) / (j, i) entries needs to be supplied; the
    symmetric partner is filled in automatically.
    """

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

    def __init__(self, sys):
        super().__init__(sys.n)
        self.sys = sys

    def v_trust_needed(self, depth):
        return depth + 3

    def gamma_series(self, calc):
        if calc.sys is not self.sys:
            raise ValueError("canonical connection evaluated against a foreign system")
        n = self.n
        calc.g_up  # raises SingularMetric early if dV/dp degenerates
        dphi = calc.phi_s.partials(n, 2 * n)                     # [k, r] = dphi^k/dp_r
        # gamma is exact as far as d2phi, one level below dphi; every other
        # operand is formed only that far, or one level more before a partial
        t = dphi.trust - 1
        g_down = taylor.series_matrix_inverse(calc.Vp_s.truncate(t))     # [m, a]
        # psi[k, a]: first velocity-derivative of the acceleration field
        psi = (g_down[..., None, :, :] * dphi[..., :, :, None]).sum(-2)
        # second p-derivatives and gamma are symmetric in their last two
        # indices; [r, s] reads [min(r, s), max(r, s)], so they are exactly so
        r = np.arange(n)
        lo, hi = np.minimum.outer(r, r), np.maximum.outer(r, r)
        vpp = calc.Vp_s.truncate(t + 1).partials(n, 2 * n)[..., lo, hi]  # [a, r, s]
        d2phi = dphi.partials(n, 2 * n)[..., lo, hi]             # [k, r, s]
        # inner[k, r, s]: second velocity-derivative of the acceleration field
        inner = d2phi - (vpp[..., None, :, :, :] * psi[..., :, :, None, None]).sum(-3)
        # gamma[k, i, j] = -1/2 sum_{r,s} g_down[r, i] inner[k, r, s] g_down[s, j]
        tmp = (inner[..., :, :, :, None] * g_down[..., None, None, :, :]).sum(-2)
        gamma = (g_down[..., None, :, :, None] * tmp[..., :, :, None, :]).sum(-3)
        return gamma[..., lo, hi] * (-0.5)


class GaugeTensor:
    """Symmetric (1,2) tensor used to move between connections."""

    def __init__(self, n, entries):
        self.n = n
        self._table = _ExpressionTable(n, entries, "gauge tensor", AsymmetricGauge)

    def series(self, calc):
        return self._table.series(calc)


class GaugedConnection(ConnectionField):
    """The connection `base` shifted by a symmetric gauge tensor: gamma' = gamma + T.

    The force covector of a calc with this connection is the compensated one,

        Q'_i = Q_i - sum_{k,s} T^k_{is} p_k V^s,

    so the connection-free dynamics (V, Theta) is untouched.
    """

    def __init__(self, base, T):
        super().__init__(base.n)
        self.base = base
        self.T = T

    def v_trust_needed(self, depth):
        return self.base.v_trust_needed(depth)

    def gamma_series(self, calc):
        return self.base.gamma_series(calc) + self.T.series(calc)


def canonical_connection(sys):
    """The canonical connection of a system."""
    return CanonicalConnection(sys)


def connection_from_config(cfg, sys):
    """Connection for a loaded system config.

    An optional "Gamma" block ({"k,i,j": expr, ...}, 1-based indices,
    omitted entries zero, symmetric completion) selects an explicit
    connection; otherwise the system's canonical connection is used.
    """
    block = cfg.get("Gamma") if isinstance(cfg, dict) else None
    if block is None:
        return CanonicalConnection(sys)
    if not isinstance(block, dict):
        raise ConfigError("system config field 'Gamma' must be a mapping of 'k,i,j' "
                          f"to expressions, got {block!r}")
    return ExplicitConnection(sys.n, block)


def random_gauge_tensor(n, rng):
    """Random symmetric gauge tensor, polynomial in x and p.

    Each entry is a sum of three terms c * a^i * b^j with c uniform in
    [-1, 1], a and b phase variables and i + j <= 2.
    """
    pv = phase_variables(n)
    names = list(pv)
    entries = {}
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                terms = []
                for _ in range(3):
                    c = rng.uniform(-1.0, 1.0)
                    a = names[rng.integers(0, len(names))]
                    b = names[rng.integers(0, len(names))]
                    da = int(rng.integers(0, 3))
                    db = int(rng.integers(0, 3 - da))
                    term = f"{c:.6f}"
                    if da:
                        term += f"*{a}^{da}"
                    if db:
                        term += f"*{b}^{db}"
                    terms.append(term)
                entries[f"{k+1},{i+1},{j+1}"] = " + ".join(terms)
    return GaugeTensor(n, entries)
