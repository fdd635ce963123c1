"""Per-layer spans and counters installed at run time around nslab's layers.

Nothing here edits nslab.  `Tracer.install` replaces class attributes and
module-level names with timing wrappers and `Tracer.uninstall` restores the
originals, so a traced iteration can sit between untraced ones in one
process.  Untraced runs never import this module.

A span's self time is its duration minus the time of the excluded child
spans it contains (only the outermost of nested excluded spans counts).
"""

from __future__ import annotations

import math
import time
from collections import Counter

import numpy as np

from nslab import connections, engine, expressions, normality, surfaces, systems, taylor

perf = time.perf_counter

# span -> child spans whose time its self time excludes
SELF_TIME = {
    "normality.residual": ("systems.series_at", "connections.gamma_series"),
    "surfaces.pfaff_rhs": ("surfaces.geometry", "systems.series_at",
                           "connections.gamma_series"),
    "dynamics.integrate": ("systems.rhs_jac",),
}

# (class hierarchy root, method, span); every class in the hierarchy that
# defines the method itself is wrapped
METHOD_SPANS = [
    (taylor.TaylorContext, "__init__", "taylor.context"),
    (systems.SystemDefinition, "series_at", "systems.series_at"),
    (systems.SystemDefinition, "rhs_jacobian_batch", "systems.rhs_jac"),
    (connections.ConnectionField, "gamma_series", "connections.gamma_series"),
    (surfaces.Hypersurface, "geometry", "surfaces.geometry"),
]

# functions bound by name at their import sites
FUNCTION_SPANS = [
    (expressions, "evaluate_series", "expressions.eval_series"),
    (systems, "evaluate_series", "expressions.eval_series"),
    (connections, "evaluate_series", "expressions.eval_series"),
    (surfaces, "evaluate_series", "expressions.eval_series"),
    (normality, "residual_at", "normality.residual"),
    (surfaces, "pfaff_rhs", "surfaces.pfaff_rhs"),
    (surfaces, "integrate_family", "dynamics.integrate"),
]


def _hierarchy(root):
    out, todo = [], [root]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def _pairs_by_trust(ctx):
    """pairs[t]: monomial pairs of a dense truncated product with degree <= t."""
    per_degree = np.bincount(ctx.degrees, minlength=ctx.order + 1)
    return np.cumsum(np.convolve(per_degree, per_degree)[:ctx.order + 1]).tolist()


class Tracer:
    # counts that must repeat exactly for the same inputs
    COUNT_KEYS = (
        "taylor.mul_calls", "taylor.mul_pairs", "taylor.mul_trusted_pairs",
        "taylor.mul_zero_skips", "expressions.eval_series_calls",
        "systems.series_at_calls", "systems.rhs_jac_calls",
        "connections.gamma_series_calls", "engine.calcs", "normality.error_rows",
        "surfaces.geometry_calls", "surfaces.geometry_distinct",
        "surfaces.pfaff_rhs_calls", "dynamics.rk4_stages",
    )

    def __init__(self):
        self._saved = []
        self._pair_tables = {}
        self.context_s = 0.0
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.seconds = Counter()
        self.excluded = Counter()
        self.nested = Counter()
        self.stack = []
        self.pairs = self.trusted_pairs = self.zero_skips = 0
        self.geometry_ys = set()

    def finish_setup(self):
        """Keep the Taylor table build time of set-up; drop its other counts."""
        self.context_s = self.seconds["taylor.context"]
        self.reset()

    # -- installation ----------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for root, attr, name in METHOD_SPANS:
            for cls in _hierarchy(root):
                if attr in cls.__dict__:
                    self._replace(cls, attr, self._span(name, cls.__dict__[attr]))
        for module, attr, name in FUNCTION_SPANS:
            self._replace(module, attr, self._span(name, module.__dict__[attr]))
        self._replace(taylor.TaylorSeries, "__mul__",
                      self._product(taylor.TaylorSeries.__dict__["__mul__"]))
        self._replace(engine.PointCalculus, "__init__",
                      self._count("engine.calcs", engine.PointCalculus.__dict__["__init__"]))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        tracer = self
        geometry = name == "surfaces.geometry"

        def wrapper(*args, **kwargs):
            if geometry:
                tracer.geometry_ys.add(tuple(np.asarray(args[1], dtype=float).ravel()))
            tracer.stack.append(name)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                tracer.stack.pop()
                tracer.calls[name] += 1
                tracer.seconds[name] += dt
                tracer._exclude(name, dt)

        wrapper.__wrapped__ = fn
        return wrapper

    def _exclude(self, name, dt):
        for owner, children in SELF_TIME.items():
            if name not in children:
                continue
            for frame in reversed(self.stack):
                if frame == owner:
                    self.excluded[owner] += dt
                    self.nested[owner] += 1
                    break
                if frame in children:
                    break

    def _count(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _product(self, fn):
        """Jet products: calls, time, and the pair work a dense product does.

        A product is trusted to min(a.trust, b.trust); the pairs above that
        degree compute coefficients nobody may read.
        """
        tracer = self
        series = taylor.TaylorSeries

        def __mul__(a, b):
            if not isinstance(b, series):
                return fn(a, b)
            tracer._tally_product(a, b)
            t0 = perf()
            try:
                return fn(a, b)
            finally:
                tracer.seconds["taylor.mul"] += perf() - t0

        __mul__.__wrapped__ = fn
        return __mul__

    def _tally_product(self, a, b):
        self.calls["taylor.mul"] += 1
        if not a.coef.any() or not b.coef.any():
            self.zero_skips += 1
            return
        ctx = a.ctx
        table = self._pair_tables.get(ctx)
        if table is None:
            table = self._pair_tables[ctx] = _pairs_by_trust(ctx)
        batch = math.prod(np.broadcast_shapes(a.coef.shape[:-1], b.coef.shape[:-1]))
        trust = min(a.trust, b.trust, ctx.order)
        self.pairs += table[ctx.order] * batch
        self.trusted_pairs += (table[trust] if trust >= 0 else 0) * batch

    # -- results ---------------------------------------------------------

    def snapshot(self, items, error_rows):
        """Counts and times of everything since the last reset."""
        c, s = self.calls, self.seconds
        geometry_calls = c["surfaces.geometry"]
        out = {
            "taylor.mul_calls": c["taylor.mul"],
            "taylor.mul_s": float(s["taylor.mul"]),
            "taylor.mul_pairs": self.pairs,
            "taylor.mul_trusted_pairs": self.trusted_pairs,
            "taylor.trusted_pair_frac": self.trusted_pairs / self.pairs if self.pairs else 0.0,
            "taylor.mul_zero_skips": self.zero_skips,
            "taylor.context_s": self.context_s,
            "engine.calcs": c["engine.calcs"],
            "engine.calcs_per_item": c["engine.calcs"] / items,
            "normality.error_rows": error_rows,
            "surfaces.geometry_distinct": len(self.geometry_ys),
            "surfaces.geometry_distinct_frac":
                len(self.geometry_ys) / geometry_calls if geometry_calls else 0.0,
            "dynamics.rk4_stages": self.nested["dynamics.integrate"],
        }
        for span in ("expressions.eval_series", "systems.series_at", "systems.rhs_jac",
                     "connections.gamma_series", "surfaces.geometry", "surfaces.pfaff_rhs"):
            out[f"{span}_calls"] = c[span]
            out[f"{span}_s"] = float(s[span])
        out["normality.residual_s"] = float(s["normality.residual"])
        out["dynamics.integrate_s"] = float(s["dynamics.integrate"])
        for span, key in (("normality.residual", "normality.residual_self_s"),
                          ("surfaces.pfaff_rhs", "surfaces.pfaff_self_s"),
                          ("dynamics.integrate", "dynamics.integrate_self_s")):
            out[key] = float(s[span] - self.excluded[span])
        return out
