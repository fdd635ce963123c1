"""Newtonian systems in momentum representation.

A system is the pair of fields (V, Theta) driving

    dx/dt = V(x, p),        dp/dt = Theta(x, p).

V encodes the inverse of a generalized Legendre map (velocity as a
function of momentum); Theta is the dynamical part.  Systems are either
given explicitly as expressions or produced by the builders below, which
back V and Theta by exact jet arithmetic so that derivative information
survives the chain rule without truncation error.
"""

from __future__ import annotations

import json

import numpy as np

from . import taylor
from .errors import ConfigError, DegenerateOmega, ZeroWv
from .expressions import Expression, evaluate_series, parse, phase_variables


# Degeneracy cutoffs, fixed for the whole package.  The first three are
# ratios, free of the scale of V, p, W and the surface:
#   - the metric g = dV/dp is singular when |det g| <= SINGULAR_RATIO *
#     ||g||_F^n (Hadamard: |det g| / ||g||_F^n is at most 1 and does not
#     change when V is rescaled), and the velocity vanishes when |V| <=
#     SINGULAR_RATIO * ||g||_F * |p|; surface tangents are dependent when
#     the volume they span is at most SINGULAR_RATIO times the product of
#     their lengths, the same Hadamard bound;
#   - Omega = <p|W> is degenerate when |Omega| <= OMEGA_RATIO * |p| * |W|,
#     and the Hamiltonian denominator sum_s p_s dH/dp_s when it is at most
#     OMEGA_RATIO * |p| * |dH/dp|;
#   - dW/dv of a two-function force family vanishes when |W_v| <=
#     W_V_RATIO * |(d_x W, W_v)|.
# NU_FLOOR is absolute: the Pfaff right-hand side grows like 1/nu^3, so an
# integrated |nu| below it has reached the singular set where the shift
# construction ends.
SINGULAR_RATIO = 1e-12
OMEGA_RATIO = 1e-12
W_V_RATIO = 1e-12
NU_FLOOR = 1e-10


class PhasePoint:
    """A point of phase space: chart coordinates x and momentum components p.

    x and p may carry equal leading batch axes, the component axis last; such
    a point is a batch of points, and `point[i]` is the point at batch index i.
    """

    __slots__ = ("x", "p")

    def __init__(self, x, p):
        x = np.array(x, dtype=float)  # own copies; instances are immutable
        p = np.array(p, dtype=float)
        if x.shape != p.shape or x.ndim < 1:
            raise ValueError("x and p must be arrays of equal shape, components last")
        if x.shape[-1] < 2:
            raise ValueError("dimension must be at least 2")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
            raise ValueError("phase point entries must be finite")
        self.x = x
        self.p = p
        self.x.setflags(write=False)
        self.p.setflags(write=False)

    @property
    def n(self):
        return self.x.shape[-1]

    def __getitem__(self, index):
        return PhasePoint(self.x[index], self.p[index])

    def __repr__(self):
        return f"PhasePoint(x={self.x.tolist()}, p={self.p.tolist()})"


def _as_expression(obj, variables):
    if isinstance(obj, Expression):
        if obj.variables != tuple(variables):
            raise ConfigError(
                f"expression {obj.text!r} uses variables {obj.variables}, "
                f"expected {tuple(variables)}"
            )
        return obj
    return parse(str(obj), variables)


def seed_phase(ctx, x, p):
    """Phase variables (xs, ps) at x and p: variable i is x^i, variable n + i is p_i.

    x and p may carry leading batch axes; the last axis is the component,
    and xs and ps are each one series of shape (..., n), trusted to the
    context's order.  Both are C-contiguous halves of one zero array:
    value in the constant column and 1.0 in the column of the variable's
    unit monomial (an order-0 context has none).
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    shape = np.broadcast_shapes(x.shape, p.shape)
    n = shape[-1]
    coef = np.zeros((2,) + shape + (ctx.size,))
    coef[0, ..., 0] = x
    coef[1, ..., 0] = p
    if ctx.order:
        # component i of half k is variable k * n + i
        coef[np.arange(2)[:, None], ..., np.arange(n), ctx.units.reshape(2, n)] = 1.0
    return (taylor.TaylorSeries(ctx, coef[0], ctx.order),
            taylor.TaylorSeries(ctx, coef[1], ctx.order))


def phase_env(xs, ps):
    """The phase variables one by one, in the order `evaluate_series` reads them."""
    n = xs.shape[-1]
    return [xs[..., i] for i in range(n)] + [ps[..., i] for i in range(n)]


class SystemDefinition:
    """Base class; concrete systems implement the series builders."""

    def __init__(self, n):
        if n < 2:
            raise ConfigError("dimension must be at least 2")
        self.n = n

    # order the Taylor context must have so V comes out exact to `v_trust`
    # and Theta to `theta_trust(v_trust)`
    def ctx_order(self, v_trust):
        return v_trust

    @staticmethod
    def theta_trust(v_trust):
        """The order to which Theta is formed next to V exact to `v_trust`.

        One below V from v_trust 2 up, since a calc reads Theta only in
        phi, which pairs it with dV; V's own order at 0 and 1, where `rhs`
        reads Theta's values and `rhs_jacobian_batch` its first partials.
        """
        return v_trust - 1 if v_trust >= 2 else v_trust

    def v_theta_series(self, xs, ps, v_trust):
        """(V, Theta) from phase variables trusted to `ctx_order(v_trust)`.

        V is trusted to at least `v_trust` and Theta to `theta_trust(v_trust)`.
        """
        raise NotImplementedError

    def phase_at(self, q, v_trust):
        """(ctx, xs, ps): the context for V exact to `v_trust` and the phase variables at q.

        xs and ps are trusted to the context's order, as `v_theta_series`
        reads them.
        """
        ctx = taylor.context(2 * self.n, self.ctx_order(v_trust))
        return (ctx,) + seed_phase(ctx, q.x, q.p)

    # ------------------------------------------------------------------
    # convenience evaluation paths
    # ------------------------------------------------------------------

    def rhs(self, x, p):
        """Plain (V, Theta) values at one point: those of `series_at` at trust 0."""
        V, T = self.series_at(PhasePoint(x, p), 0)[3:]
        return taylor.read_values(V), taylor.read_values(T)

    def rhs_jacobian_batch(self, X, P):
        """(V, Theta) plus the full phase-space Jacobian, batched.

        Returns V (..., n), T (..., n), J (..., 2n, 2n) where J rows are
        (V, Theta) components and columns are (x, p) directions.  J is
        read straight from the unit-monomial columns of V and Theta (their
        first partials) into a fresh C-contiguous array: the integrator's
        einsum sums in an order that follows its operands' layout, so a
        batch row then steps exactly as the point does alone.
        """
        n = self.n
        ctx = taylor.context(2 * n, self.ctx_order(1))
        V, T = self.v_theta_series(*seed_phase(ctx, X, P), 1)
        J = np.empty(V.shape[:-1] + (2 * n, 2 * n))
        J[..., :n, :] = V.coef[..., ctx.units]
        J[..., n:, :] = T.coef[..., ctx.units]
        return taylor.read_values(V), taylor.read_values(T), J

    def series_at(self, q, v_trust, phase=None):
        """(ctx, xs, ps, V, Theta) at a point, with V exact to order `v_trust`.

        V, Theta, xs and ps are each (..., n); Theta is exact to
        `theta_trust(v_trust)`.  `phase` is the `phase_at(q, v_trust)` of a
        caller that has seeded it already.
        """
        ctx, xs, ps = phase or self.phase_at(q, v_trust)
        V, T = self.v_theta_series(xs, ps, v_trust)
        # a calc reads the phase variables and V no further, whatever the context's order
        return ctx, xs.truncate(v_trust), ps.truncate(v_trust), V.truncate(v_trust), T


class ExplicitSystem(SystemDefinition):
    """System given componentwise by expressions in x1..xn, p1..pn."""

    def __init__(self, n, v_exprs, theta_exprs):
        super().__init__(n)
        pv = phase_variables(n)
        if len(v_exprs) != n or len(theta_exprs) != n:
            raise ConfigError("V and Theta must each have exactly n components")
        self.v_exprs = [_as_expression(e, pv) for e in v_exprs]
        self.theta_exprs = [_as_expression(e, pv) for e in theta_exprs]

    def v_theta_series(self, xs, ps, v_trust):
        t = self.theta_trust(v_trust)
        env = phase_env(xs, ps)
        theta_env = phase_env(xs.truncate(t), ps.truncate(t))
        return (taylor.stack([evaluate_series(e, env) for e in self.v_exprs]),
                taylor.stack([evaluate_series(e, theta_env) for e in self.theta_exprs]))


class ModifiedHamiltonianSystem(SystemDefinition):
    """Hamilton's equations rescaled so that the phase function is the time.

    V and Theta are the momentum gradient and the negative position
    gradient of H, both divided by sum_s p_s dH/dp_s.  The fields are
    evaluated by jet arithmetic on H, never through generated expression
    text, so all orders of derivatives are exact.
    """

    def __init__(self, H, n):
        super().__init__(n)
        self.H = _as_expression(H, phase_variables(n))

    def ctx_order(self, v_trust):
        return v_trust + 1

    def v_theta_series(self, xs, ps, v_trust):
        n = self.n
        grad = evaluate_series(self.H, phase_env(xs, ps)).partials(0, 2 * n)
        hp = grad[..., n:]
        denom = (ps * hp).sum(-1)
        # relative to |p| |dH/dp|, so the cutoff ignores the scale of H
        p0, hp0 = ps.coef[..., 0], hp.coef[..., 0]
        bound = OMEGA_RATIO * np.sqrt((p0 * p0).sum(-1)) * np.sqrt((hp0 * hp0).sum(-1))
        if np.any(np.abs(denom.value()) <= bound):
            raise DegenerateOmega(
                "sum_s p_s dH/dp_s vanished; the rescaled Hamiltonian flow is undefined"
            )
        recip = denom._reciprocal()[..., None]
        t = self.theta_trust(v_trust)
        if t == v_trust:
            # one product divides the whole gradient: (dH/dx, dH/dp) / denom
            quotient = grad * recip
            return quotient[..., n:], -quotient[..., :n]
        # Theta one order below V: its half of the quotient is formed only that far
        return hp * recip, -(grad[..., :n] * recip.truncate(t))


class EuclideanNewtonianSystem(SystemDefinition):
    """Flat-space Newtonian system from the two-function force family.

    The chart is Cartesian and the metric Euclidean, so momentum equals
    velocity (V^i = p_i) and the force covector is, with v = |p|,

        F_i = h(W)/W_v * p_i/v - sum_k (d_k W / W_v) (2 p_k p_i - v^2 d^k_i)/v,

    where W = W(x1..xn, v) with dW/dv != 0 and h is a function of one
    variable.  W is evaluated once, as a series in the phase variables,
    and its partials give the rest: d_k W = dW/dx^k, since v does not
    depend on x, and W_v = sum_j p_j dW/dp_j / v.  Theta, built from
    first partials, is exact one order below V; only W and v are formed at
    the context's order, the force formula at Theta's.
    """

    def __init__(self, W, h, n):
        super().__init__(n)
        wvars = tuple(f"x{i+1}" for i in range(n)) + ("v",)
        self.W = _as_expression(W, wvars)
        self.h = _as_expression(h, ("w",))

    # Theta comes from W's first partials, one order below the context, so
    # below v_trust 2 the context carries one order more than V needs
    def ctx_order(self, v_trust):
        return self.theta_trust(v_trust) + 1

    def v_theta_series(self, xs, ps, v_trust):
        n = self.n
        vsq = (ps * ps).sum(-1)
        v = vsq.sqrt()
        w = evaluate_series(self.W, [xs[..., i] for i in range(n)] + [v])
        dW = w.partials(0, 2 * n)
        # Theta is exact only as far as dW, so the force formula stops there
        ps_t, vsq, v, w = (s.truncate(dW.trust) for s in (ps, vsq, v, w))
        grad = dW[..., :n]
        # sum_j p_j dW/dp_j = W_v v
        wv = (dW[..., n:] * ps_t).sum(-1) / v
        # relative to |(d_x W, W_v)|, so the cutoff ignores the scale of W
        scale = np.hypot(np.linalg.norm(taylor.read_values(grad), axis=-1), wv.value())
        if np.any(np.abs(wv.value()) <= W_V_RATIO * scale):
            raise ZeroWv("dW/dv vanished at an evaluation point")
        hw = evaluate_series(self.h, [w])
        # quad[k, i] = 2 p_k p_i - delta_ki v^2
        quad = (2.0 * ps_t)[..., :, None] * ps_t[..., None, :] - vsq[..., None, None] * np.eye(n)
        drift = (grad / wv[..., None])[..., :, None] * quad / v[..., None, None]
        return ps, (hw / wv)[..., None] * ps_t / v[..., None] - drift.sum(-2)


def build_modified_hamiltonian(H, n):
    return ModifiedHamiltonianSystem(H, n)


def build_riemannian_euclidean(W, h, n):
    return EuclideanNewtonianSystem(W, h, n)


# ----------------------------------------------------------------------
# configuration loading
# ----------------------------------------------------------------------

def system_from_config(cfg):
    """Build a system from a config mapping (see README for the schema)."""
    try:
        n = config_int(cfg, "n", "system")
        kind = cfg["kind"]
        if kind == "explicit":
            return ExplicitSystem(n, config_list(cfg, "V", "system"),
                                  config_list(cfg, "Theta", "system"))
        if kind == "modified_hamiltonian":
            return ModifiedHamiltonianSystem(cfg["H"], n)
        if kind == "riemannian_euclidean":
            return EuclideanNewtonianSystem(cfg["W"], cfg["h"], n)
    except KeyError as err:
        raise ConfigError(f"missing system config field: {err}") from None
    raise ConfigError(f"unknown system kind {cfg.get('kind')!r}")


def config_int(cfg, key, label):
    """cfg[key] as an int; a ConfigError names the field when it is no number."""
    return config_number(cfg[key], int, f"{label} config field {key!r}")


def config_number(value, kind, field):
    """value as `kind`, int or float; a ConfigError names `field` when it is no number."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{field} must be {noun}, got {value!r}") from None


def config_list(cfg, key, label):
    """cfg[key], which must be a list; a ConfigError names the field otherwise."""
    value = cfg[key]
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{label} config field {key!r} must be a list, got {value!r}")
    return value


def load_config(path, label="system"):
    """The JSON object of a config file; ConfigError when it cannot be read or is no object."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read {label} config: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON in {label} config: {err}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{label} config must be a JSON object, got {cfg!r}")
    return cfg
