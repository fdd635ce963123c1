"""Parametric hypersurfaces, the Pfaff system for nu, and the normal shift.

A hypersurface is a single-chart embedding y -> x(y) with n-1 parameters.
Closed surfaces are handled as open parameter boxes that stay clear of
chart singularities and of sign flips of the normal gauge.

The normal covector is the annihilator of the tangent span, normalized to
unit Euclidean norm with its first nonvanishing component positive, then
multiplied by `normal_scale` (default 1).  The scale hook exists because
the normal is only defined up to a factor; rescaling it by c while
rescaling nu0 by 1/c must leave every shift quantity unchanged, and the
test suite holds the code to that.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import taylor
from .dynamics import ExtendedState, integrate_family
from .engine import PointCalculus, point_chunks
from .errors import ConfigError, NuVanished, RankDeficientTangents
from .expressions import Expression, evaluate_series, parse
from .systems import DEFAULT_TOL, PhasePoint


class Hypersurface:
    def __init__(self, n, embedding, domain, normal_scale=1.0):
        self.n = n
        self.m = n - 1
        if len(embedding) != n:
            raise ConfigError("embedding needs one expression per ambient coordinate")
        if len(domain) != self.m:
            raise ConfigError("domain needs one interval per surface parameter")
        yvars = tuple(f"y{i+1}" for i in range(self.m))
        self.embedding = [e if isinstance(e, Expression) else parse(str(e), yvars)
                          for e in embedding]
        for e in self.embedding:
            if e.variables != yvars:
                raise ConfigError("embedding expressions must use y1..y{m}")
        self.domain = [(float(lo), float(hi)) for lo, hi in domain]
        self.normal_scale = float(normal_scale)

    # ------------------------------------------------------------------

    def _series_det(self, rows):
        k = len(rows)
        if k == 1:
            return rows[0][0]
        out = None
        for c in range(k):
            minor = [[row[cc] for cc in range(k) if cc != c] for row in rows[1:]]
            term = rows[0][c] * self._series_det(minor)
            if c % 2:
                term = -term
            out = term if out is None else out + term
        return out

    def geometry(self, y):
        """Embedded point, tangents, gauged normal and its y-derivatives.

        Returns (x, taus, normal, dn_dy) with taus[i, s] = dx^s/dy^i and
        dn_dy[i, s] = dn_s/dy^i, all exact through series arithmetic.  A
        batch of parameter values y[..., i] gives results with the same
        leading batch axes.
        """
        y = np.asarray(y, dtype=float)
        n, m = self.n, self.m
        ctx = taylor.context(m, 2)
        ys = [ctx.variable(i, y[..., i]) for i in range(m)]
        xser = [evaluate_series(e, ys) for e in self.embedding]
        x = taylor.read_values(xser)
        tau_s = [[xser[s].partial_series(i) for s in range(n)] for i in range(m)]
        taus = taylor.read_values(tau_s)
        # annihilator of the tangent span via signed minors
        raw = []
        for s in range(n):
            rows = [[tau_s[i][c] for c in range(n) if c != s] for i in range(m)]
            term = self._series_det(rows) if m else ctx.constant(1.0)
            if s % 2:
                term = -term
            raw.append(term)
        raw_pt = taylor.read_values(raw)
        norm = np.linalg.norm(raw_pt, axis=-1)
        # |raw| is the volume spanned by the tangents, at most the product of
        # their lengths (Hadamard), so the ratio is free of the surface's scale
        bad = norm <= 1e-12 * np.prod(np.linalg.norm(taus, axis=-1), axis=-1)
        if np.any(bad):
            i = np.unravel_index(np.argmax(bad), bad.shape)
            raise RankDeficientTangents(f"tangent vectors are dependent at y={y[i].tolist()}")
        nsq = raw[0] * raw[0]
        for s in range(1, n):
            nsq = nsq + raw[s] * raw[s]
        length = nsq.sqrt()
        # the first component that is not negligible is made positive
        first = np.argmax(np.abs(raw_pt) > 1e-12 * norm[..., None], axis=-1)
        lead = np.take_along_axis(raw_pt, first[..., None], axis=-1)[..., 0]
        sign = self.normal_scale * np.where(lead > 0, 1.0, -1.0)
        nser = [r * sign / length for r in raw]
        normal, dn_dy = taylor.read_jet1(nser)
        return x, taus, normal, np.moveaxis(dn_dy, 0, -2)

    def grid_axes(self, counts):
        counts = [int(c) for c in counts]
        if len(counts) != self.m:
            raise ConfigError("grid needs one node count per surface parameter")
        return [np.linspace(lo, hi, c) for (lo, hi), c in zip(self.domain, counts)]


@dataclass
class SurfaceFrame:
    """Surface data at one parameter value for a given system and nu."""

    y: np.ndarray
    x: np.ndarray
    taus: np.ndarray        # (m, n)
    normal: np.ndarray      # (n,)
    dn: np.ndarray          # (m, n): covariant derivative of n along tau_i
    b: np.ndarray           # (m, m): second fundamental form components


def _dn_covariant(gamma, normal, taus, dn_dy):
    """dn[i, s]: covariant derivative of the normal covector along tau_i."""
    return dn_dy - np.einsum("...ksr,...k,...ir->...is", gamma, normal, taus)


def surface_frame(sys, conn, surf, y, nu, tol=DEFAULT_TOL):
    """Tangents, normal, covariant dn and second fundamental form at y.

    The momentum entering the connection and the projector is p = nu * n.
    b is assembled from the projected dn map; its symmetry is a theorem,
    not an input, and is asserted only by the tests.
    """
    if nu == 0:
        raise ValueError("nu must be nonzero")
    x, taus, normal, dn_dy = surf.geometry(y)
    q = PhasePoint(x, nu * normal)
    calc = PointCalculus(sys, conn, q, depth=0, tol=tol)
    dn = _dn_covariant(calc.gamma, normal, taus, dn_dy)
    b = -np.einsum("ir,qr,jq->ij", taus, calc.P, dn)
    return SurfaceFrame(y=np.asarray(y, float), x=x, taus=taus, normal=normal,
                        dn=dn, b=b)


def pfaff_rhs(sys, conn, surf, y, nu, tol=DEFAULT_TOL):
    """Right-hand side psi_i of dnu/dy^i for the shift-initialization field.

        psi_i = -(nu^2 / Omega) sum_s W^s dn[i, s]
                - (nu / Omega) sum_s U_s tau^s_i,

    evaluated at momentum p = nu * n(y).  y[..., i] and nu broadcast over
    leading batch axes, which lead the result; the points are evaluated in
    batches of at most 16.
    """
    y = np.asarray(y, dtype=float)
    nu = np.asarray(nu, dtype=float)
    batch = np.broadcast_shapes(y.shape[:-1], nu.shape)
    ys = np.broadcast_to(y, batch + (surf.m,)).reshape(-1, surf.m)
    nus = np.broadcast_to(nu, batch).reshape(-1)
    psi = [_pfaff_points(sys, conn, surf, ys[c], nus[c], tol)
           for c in point_chunks(len(nus))]
    return np.concatenate(psi).reshape(batch + (surf.m,))


def _pfaff_points(sys, conn, surf, y, nu, tol):
    """pfaff_rhs on a batch of points y[b] with speeds nu[b] in one PointCalculus."""
    x, taus, normal, dn_dy = surf.geometry(y)
    q = PhasePoint(x, nu[:, None] * normal)
    calc = PointCalculus(sys, conn, q, depth=0, tol=tol)
    dn = _dn_covariant(calc.gamma, normal, taus, dn_dy)
    omega = calc.Omega[:, None, None]
    nu = nu[:, None, None]
    return (np.matmul(-(nu * nu / omega) * dn, calc.W[:, :, None])[:, :, 0]
            - np.matmul((nu / omega) * taus, calc.U[:, :, None])[:, :, 0])


# ----------------------------------------------------------------------
# Pfaff integration over a parameter grid
# ----------------------------------------------------------------------

@dataclass
class NuGrid:
    axes: list
    values: np.ndarray
    base_index: tuple
    nu0: float
    residual: float

    def nodes(self):
        for idx in np.ndindex(self.values.shape):
            y = np.array([ax[i] for ax, i in zip(self.axes, idx)])
            yield idx, y, float(self.values[idx])


def _edge_rk4(sys, conn, surf, y_from, y_to, nu, substeps, tol):
    """RK4 for nu along straight parameter segments, all in lockstep.

    Edge e runs from y_from[e] to y_to[e] starting at nu[e]; each RK4 stage
    is one batched `pfaff_rhs` call over every edge.  The right-hand side
    is singular like 1/nu^3 as nu -> 0, so solutions can reach zero at
    finite parameter values; a sign change between substeps means the
    integration stepped across that singular set and left the sheet on
    which the shift construction exists.  The error names the first edge
    (in the order given) that failed in the earliest failing substep.
    """
    delta = y_to - y_from
    h = 1.0 / substeps

    def f(s, v):
        psi = pfaff_rhs(sys, conn, surf, y_from + s * delta, v, tol)
        return np.matmul(psi[:, None, :], delta[:, :, None])[:, 0, 0]

    v = nu
    for k in range(substeps):
        s = k * h
        k1 = f(s, v)
        k2 = f(s + 0.5 * h, v + 0.5 * h * k1)
        k3 = f(s + 0.5 * h, v + 0.5 * h * k2)
        k4 = f(s + h, v + h * k3)
        prev = v
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        bad = ~np.isfinite(v) | (np.abs(v) < tol.nu_floor) | (v * prev <= 0.0)
        if np.any(bad):
            e = int(np.argmax(bad))
            raise NuVanished(
                f"nu reached {v[e]:.3e} integrating from y={y_from[e].tolist()} "
                f"toward y={y_to[e].tolist()}; the initial-speed field vanishes "
                "inside the patch for this base value"
            )
    return v


def _ray(idx, d, direction, size):
    """Grid indices after idx along axis d in one direction, up to the edge."""
    out = []
    cur = list(idx)
    while 0 <= cur[d] + direction < size:
        cur[d] += direction
        out.append(tuple(cur))
    return out


def solve_nu(sys, conn, surf, y0, nu0, grid, substeps=4, tol=DEFAULT_TOL):
    """Integrate the Pfaff system over an axis-parallel grid.

    nu is propagated from the node nearest to y0 along axis-parallel
    paths in a fixed sweep order (axis by axis), so results are
    deterministic.  The returned residual is the largest two-path
    disagreement over all grid cells: each cell's far corner is reached
    along its two edge orderings from the same base value, and the
    difference measures how far the system is from an integrable one.

    Independent edges advance in lockstep: pass d moves every chain
    leaving the filled slab one edge at a time, and the cells take two
    edge batches, the first and the second edges of both paths of every
    cell.
    """
    if nu0 == 0:
        raise ValueError("nu0 must be nonzero")
    axes = surf.grid_axes(grid)
    m = surf.m
    y0 = np.asarray(y0, dtype=float)
    base = tuple(int(np.argmin(np.abs(ax - y0[d]))) for d, ax in enumerate(axes))
    shape = tuple(len(ax) for ax in axes)
    values = np.full(shape, np.nan)
    values[base] = nu0

    def nodes(idxs):
        return np.array([[ax[i] for ax, i in zip(axes, idx)] for idx in idxs])

    def edges(starts, ends, nu):
        return _edge_rk4(sys, conn, surf, nodes(starts), nodes(ends), nu, substeps, tol)

    def ix(idxs):
        return tuple(np.array(idxs).T)

    # sweep axis by axis: after pass d, the slab spanned by axes 0..d is filled
    filled = [base]
    for d in range(m):
        chains, new_filled = [], []
        for idx in filled:
            rays = [_ray(idx, d, direction, shape[d]) for direction in (1, -1)]
            chains += [[idx] + ray for ray in rays]
            new_filled += [idx] + rays[0] + rays[1]
        for k in range(1, max(len(c) for c in chains)):
            live = [c for c in chains if len(c) > k]
            starts = [c[k - 1] for c in live]
            ends = [c[k] for c in live]
            values[ix(ends)] = edges(starts, ends, values[ix(starts)])
        filled = new_filled

    residual = 0.0
    # (start, corner, far) of both paths of every cell, path a then path b
    paths = []
    for a in range(m):
        for b in range(a + 1, m):
            for idx in np.ndindex(shape):
                if idx[a] + 1 >= shape[a] or idx[b] + 1 >= shape[b]:
                    continue
                far = list(idx)
                far[a] += 1
                far[b] += 1
                for axis in (a, b):
                    corner = list(idx)
                    corner[axis] += 1
                    paths.append((idx, tuple(corner), tuple(far)))
    if paths:
        starts, corners, fars = zip(*paths)
        mid = edges(starts, corners, values[ix(starts)])
        ends = edges(corners, fars, mid)
        residual = float(np.max(np.abs(ends[0::2] - ends[1::2])))
    return NuGrid(axes=axes, values=values, base_index=base, nu0=nu0,
                  residual=residual)


def compatibility_residual(sys, conn, surf, y, nu, tol=DEFAULT_TOL):
    """Antisymmetric mixed-partial defect of the Pfaff system at one point.

    Assembled from the A/B/C tensors and the projected dn map; vanishes
    identically when the additional normality equations hold.  The output
    is exactly antisymmetric by construction.
    """
    x, taus, normal, dn_dy = surf.geometry(y)
    q = PhasePoint(x, nu * normal)
    calc = PointCalculus(sys, conn, q, depth=1, tol=tol)
    dn = _dn_covariant(calc.gamma, normal, taus, dn_dy)
    pdn = np.einsum("qr,iq->ir", calc.P, dn)
    omega = calc.Omega
    xa = np.einsum("rs,ir,js->ij", calc.A_tensor, pdn, pdn)
    xb = np.einsum("rs,ir,js->ij", calc.B_tensor, pdn, taus)
    xc = np.einsum("rs,ir,js->ij", calc.C_tensor, taus, taus)
    return (nu ** 3 / omega * (xa - xa.T)
            + nu ** 2 / omega * (xb - xb.T)
            + nu / omega * (xc - xc.T))


# ----------------------------------------------------------------------
# the shift itself
# ----------------------------------------------------------------------

@dataclass
class ShiftRun:
    surf: Hypersurface
    ys: list
    nus: np.ndarray
    trajectories: list

    @property
    def t(self):
        return self.trajectories[0].t

    def phi_matrix(self):
        """|phi| over (time, node, variation) collapsed to (time,) maxima."""
        phis = np.stack([tr.phis for tr in self.trajectories], axis=1)
        return np.max(np.abs(phis), axis=(1, 2))

    def write_csv(self, path):
        n = self.surf.n
        m = self.surf.m
        cols = ([f"y{i+1}" for i in range(m)] + ["t"]
                + [f"x{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
                + [f"phi_{j+1}" for j in range(m)])
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for y, tr in zip(self.ys, self.trajectories):
                phis = tr.phis
                for k in range(len(tr.t)):
                    row = [*y, tr.t[k], *tr.x[k], *tr.p[k], *phis[k]]
                    fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def simulate_shift(sys, conn, surf, nu_source, cfg, grid=None, tol=DEFAULT_TOL):
    """Shift a gridded surface patch along the system's trajectories.

    Initial data per grid node: x from the embedding, p = nu * n, tau_i
    the embedding tangents, and dp_i = d(nu * n)/dy^i = (dnu/dy^i) n
    + nu * dn/dy^i, the plain derivative of the launch momentum, with
    dnu/dy taken from the Pfaff right-hand side at the solved nu (zero
    for a constant nu source, where the connection is never evaluated).
    The deviation functions phi_i then start at zero and stay zero
    exactly when the shift is normal.
    """
    if isinstance(nu_source, NuGrid):
        items = [(y, val) for _, y, val in nu_source.nodes()]
        solved = True
    else:
        nu0 = float(nu_source)
        if nu0 == 0:
            raise ValueError("nu must be nonzero on the grid")
        if grid is None:
            raise ValueError("a grid spec is required with a constant nu")
        axes = surf.grid_axes(grid)
        items = []
        for idx in np.ndindex(tuple(len(ax) for ax in axes)):
            y = np.array([ax[i] for ax, i in zip(axes, idx)])
            items.append((y, nu0))
        solved = False

    states = []
    ys, nus = [], []
    for y, nu in items:
        if abs(nu) < tol.nu_floor:
            raise NuVanished(f"nu vanished at grid node y={y!r}")
        x, taus, normal, dn_dy = surf.geometry(y)
        dnu = (pfaff_rhs(sys, conn, surf, y, nu, tol) if solved
               else np.zeros(surf.m))
        dps = dnu[:, None] * normal[None, :] + nu * dn_dy
        states.append(ExtendedState(0.0, PhasePoint(x, nu * normal), taus, dps))
        ys.append(y)
        nus.append(nu)
    trajectories = integrate_family(sys, conn, states, cfg)
    return ShiftRun(surf=surf, ys=ys, nus=np.array(nus), trajectories=trajectories)


@dataclass
class OrthogonalityReport:
    tol: float
    max_by_time: np.ndarray
    t: np.ndarray
    verdict: str
    first_violation: float | None

    @property
    def max_abs(self):
        return float(np.max(self.max_by_time))


def verify_orthogonality(run, tol):
    """NORMAL when max_i |phi_i| stays below tol for every recorded time."""
    prof = run.phi_matrix()
    t = run.t
    bad = np.flatnonzero(prof > tol)
    if bad.size:
        return OrthogonalityReport(tol=tol, max_by_time=prof, t=t,
                                   verdict="VIOLATED",
                                   first_violation=float(t[bad[0]]))
    return OrthogonalityReport(tol=tol, max_by_time=prof, t=t,
                               verdict="NORMAL", first_violation=None)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

def surface_from_config(cfg):
    try:
        m = int(cfg["params"])
        embedding = cfg["embedding"]
        domain = cfg["domain"]
    except KeyError as err:
        raise ConfigError(f"missing surface config field: {err}") from None
    surf = Hypersurface(len(embedding), embedding, domain,
                        normal_scale=float(cfg.get("normal_scale", 1.0)))
    if surf.m != m:
        raise ConfigError("params must equal len(embedding) - 1")
    surf.default_grid = [int(c) for c in cfg.get("grid", [9] * m)]
    return surf


def load_surface(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read surface config: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON in surface config: {err}") from None
    return surface_from_config(cfg)
