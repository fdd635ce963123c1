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
from dataclasses import dataclass

import numpy as np

from . import taylor
from .errors import ConfigError, DegenerateOmega, SingularMetric, ZeroWv
from .expressions import (
    Expression,
    derivative,
    evaluate_series,
    jet_from_series,
    parse,
    phase_variables,
)


@dataclass(frozen=True)
class Tolerances:
    """Cutoffs shared by the geometric layer; override per call if needed.

    `singular` and `omega` are ratios, free of the scale of V and p: the
    metric is singular when |det g| <= singular * ||g||_F^n, the velocity
    vanishes when |V| <= singular * ||g||_F * |p|, and Omega = <p|W> is
    degenerate when |Omega| <= omega * |p| * |W|.
    """

    singular: float = 1e-12
    omega: float = 1e-12
    w_v: float = 1e-12
    nu_floor: float = 1e-10


DEFAULT_TOL = Tolerances()


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

    x and p may carry leading batch axes; the last axis is the component.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    n = x.shape[-1]
    return ([ctx.variable(i, x[..., i]) for i in range(n)],
            [ctx.variable(n + i, p[..., i]) for i in range(n)])


class SystemDefinition:
    """Base class; concrete systems implement the series builders."""

    kind = "abstract"

    def __init__(self, n):
        if n < 2:
            raise ConfigError("dimension must be at least 2")
        self.n = n

    # order the Taylor context must have so V comes out exact to `v_trust`
    def ctx_order(self, v_trust):
        return v_trust

    def v_theta_series(self, ctx, xs, ps):
        raise NotImplementedError

    # ------------------------------------------------------------------
    # convenience evaluation paths
    # ------------------------------------------------------------------

    def rhs(self, x, p):
        """Plain (V, Theta) values at one point."""
        ctx = taylor.context(2 * self.n, self.ctx_order(0))
        V, T = self.v_theta_series(ctx, *seed_phase(ctx, x, p))
        return taylor.read_values(V), taylor.read_values(T)

    def rhs_jacobian_batch(self, X, P):
        """(V, Theta) plus the full phase-space Jacobian, batched.

        Returns V (..., n), T (..., n), J (..., 2n, 2n) where J rows are
        (V, Theta) components and columns are (x, p) directions.
        """
        n = self.n
        ctx = taylor.context(2 * n, self.ctx_order(1))
        V, T = self.v_theta_series(ctx, *seed_phase(ctx, X, P))
        vals, grad = taylor.read_jet1(V + T)
        return vals[..., :n], vals[..., n:], np.ascontiguousarray(np.moveaxis(grad, 0, -1))

    def series_at(self, q, v_trust):
        """V and Theta series at a point with V exact to order `v_trust`."""
        ctx = taylor.context(2 * self.n, self.ctx_order(v_trust))
        xs, ps = seed_phase(ctx, q.x, q.p)
        V, T = self.v_theta_series(ctx, xs, ps)
        return ctx, xs, ps, V, T

    def component_jet(self, which, i, q, order):
        """Jet of V^i or Theta_i at q; the test suites build oracles from these."""
        ctx, _, _, V, T = self.series_at(q, order if which == "V" else order + 1)
        series = V[i] if which == "V" else T[i]
        return jet_from_series(series, phase_variables(self.n))


class ExplicitSystem(SystemDefinition):
    """System given componentwise by expressions in x1..xn, p1..pn."""

    kind = "explicit"

    def __init__(self, n, v_exprs, theta_exprs):
        super().__init__(n)
        pv = phase_variables(n)
        if len(v_exprs) != n or len(theta_exprs) != n:
            raise ConfigError("V and Theta must each have exactly n components")
        self.v_exprs = [_as_expression(e, pv) for e in v_exprs]
        self.theta_exprs = [_as_expression(e, pv) for e in theta_exprs]

    def v_theta_series(self, ctx, xs, ps):
        env = xs + ps
        return ([evaluate_series(e, env) for e in self.v_exprs],
                [evaluate_series(e, env) for e in self.theta_exprs])


class ModifiedHamiltonianSystem(SystemDefinition):
    """Hamilton's equations rescaled so that the phase function is the time.

    V and Theta are the momentum gradient and the negative position
    gradient of H, both divided by sum_s p_s dH/dp_s.  The fields are
    evaluated by jet arithmetic on H, never through generated expression
    text, so all orders of derivatives are exact.
    """

    kind = "modified_hamiltonian"

    def __init__(self, H, n):
        super().__init__(n)
        self.H = _as_expression(H, phase_variables(n))

    def ctx_order(self, v_trust):
        return v_trust + 1

    def v_theta_series(self, ctx, xs, ps):
        n = self.n
        h = evaluate_series(self.H, xs + ps)
        hx = [h.partial_series(i) for i in range(n)]
        hp = [h.partial_series(n + i) for i in range(n)]
        denom = ps[0] * hp[0]
        for i in range(1, n):
            denom = denom + ps[i] * hp[i]
        # relative to |p| |dH/dp|, so the cutoff ignores the scale of H
        bound = (DEFAULT_TOL.omega * np.linalg.norm(taylor.read_values(ps), axis=-1)
                 * np.linalg.norm(taylor.read_values(hp), axis=-1))
        if np.any(np.abs(denom.value()) <= bound):
            raise DegenerateOmega(
                "sum_s p_s dH/dp_s vanished; the rescaled Hamiltonian flow is undefined"
            )
        inv = denom._reciprocal()
        V = [hp[i] * inv for i in range(n)]
        T = [-(hx[i] * inv) for i in range(n)]
        return V, T


class EuclideanNewtonianSystem(SystemDefinition):
    """Flat-space Newtonian system from the two-function force family.

    The chart is Cartesian and the metric Euclidean, so momentum equals
    velocity (V^i = p_i) and the force covector is, with v = |p|,

        F_i = h(W)/W_v * p_i/v - sum_k (d_k W / W_v) (2 p_k p_i - v^2 d^k_i)/v,

    where W = W(x1..xn, v) with dW/dv != 0 and h is a function of one
    variable.  Derivatives of W are taken symbolically once and evaluated
    with the same jet arithmetic as everything else.
    """

    kind = "riemannian_euclidean"

    def __init__(self, W, h, n):
        super().__init__(n)
        wvars = tuple(f"x{i+1}" for i in range(n)) + ("v",)
        self.W = _as_expression(W, wvars)
        self.h = _as_expression(h, ("w",))
        self.W_v = derivative(self.W, "v")
        self.W_x = [derivative(self.W, f"x{i+1}") for i in range(n)]

    def v_theta_series(self, ctx, xs, ps):
        n = self.n
        vsq = ps[0] * ps[0]
        for i in range(1, n):
            vsq = vsq + ps[i] * ps[i]
        v = vsq.sqrt()
        env = xs + [v]
        wv = evaluate_series(self.W_v, env)
        if np.any(np.abs(wv.value()) < DEFAULT_TOL.w_v):
            raise ZeroWv("dW/dv vanished at an evaluation point")
        hw = evaluate_series(self.h, [evaluate_series(self.W, env)])
        grad = [evaluate_series(e, env) for e in self.W_x]
        T = []
        for i in range(n):
            f = hw / wv * ps[i] / v
            for k in range(n):
                quad = 2.0 * ps[k] * ps[i]
                if k == i:
                    quad = quad - vsq
                f = f - grad[k] / wv * quad / v
            T.append(f)
        return list(ps), T


def build_modified_hamiltonian(H, n):
    return ModifiedHamiltonianSystem(H, n)


def build_riemannian_euclidean(W, h, n):
    return EuclideanNewtonianSystem(W, h, n)


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


def check_regularity(sys, sampler, tol=DEFAULT_TOL):
    """Sample-based regularity screen for the Legendre map of a system.

    Checks, per sample: det dV/dp != 0 (local diffeomorphism proxy),
    |V| > 0 away from p = 0, and Omega != 0.  Failures become report
    entries rather than exceptions.
    """
    # engine and connections import this module
    from .connections import ZeroConnection
    from .engine import PointCalculus

    conn = ZeroConnection(sys.n)
    samples = []
    for q in sampler.points():
        det = v_norm = omega = np.nan
        ok, failure = True, ""
        try:
            calc = PointCalculus(sys, conn, q, depth=0, tol=tol)
            det = float(np.linalg.det(calc.g_up))
            v_norm = float(np.linalg.norm(calc.V))
            omega = calc.Omega
            if v_norm <= tol.singular * np.linalg.norm(calc.g_up) * np.linalg.norm(q.p):
                ok, failure = False, "velocity field vanished at nonzero momentum"
        except SingularMetric as err:
            ok, failure = False, f"singular metric: {err}"
        except DegenerateOmega as err:
            ok, failure = False, f"degenerate Omega: {err}"
        samples.append(RegularitySample(q, det, v_norm, omega, ok, failure))
    return RegularityReport(samples=samples, verdict=all(s.ok for s in samples))


# ----------------------------------------------------------------------
# configuration loading
# ----------------------------------------------------------------------

def system_from_config(cfg):
    """Build a system from a config mapping (see README for the schema)."""
    try:
        n = int(cfg["n"])
        kind = cfg["kind"]
        if kind == "explicit":
            return ExplicitSystem(n, cfg["V"], cfg["Theta"])
        if kind == "modified_hamiltonian":
            return ModifiedHamiltonianSystem(cfg["H"], n)
        if kind == "riemannian_euclidean":
            return EuclideanNewtonianSystem(cfg["W"], cfg["h"], n)
    except KeyError as err:
        raise ConfigError(f"missing system config field: {err}") from None
    raise ConfigError(f"unknown system kind {cfg.get('kind')!r}")


def load_config(path, label="system"):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read {label} config: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON in {label} config: {err}") from None


def load_system(path):
    return system_from_config(load_config(path))
