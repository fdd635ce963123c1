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

import itertools
from dataclasses import dataclass

import numpy as np

from . import taylor
from .dynamics import ExtendedState, Trajectory, integrate_family, rk4_step
from .engine import PointCalculus, point_chunks, points_per_calc
from .errors import ConfigError, NuVanished, RankDeficientTangents
from .expressions import Expression, evaluate_series, parse
from .systems import NU_FLOOR, SINGULAR_RATIO, PhasePoint, load_config


def _levi_civita(n):
    """The permutation symbol eps[c_0, ..., c_{n-1}] as an array."""
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        eps[perm] = -1.0 if inversions % 2 else 1.0
    return eps


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

    def geometry(self, y):
        """Embedded point, tangents, gauged normal and its y-derivatives.

        Returns (x, taus, normal, dn_dy) with taus[i, s] = dx^s/dy^i and
        dn_dy[i, s] = dn_s/dy^i, all exact through series arithmetic.  A
        batch of parameter values y[..., i] gives results with the same
        leading batch axes.
        """
        y = np.asarray(y, dtype=float)
        m = self.m
        ctx = taylor.context(m, 2)
        env = [ctx.variable(i, y[..., i]) for i in range(m)]
        xser = taylor.stack([evaluate_series(e, env) for e in self.embedding])
        x = taylor.read_values(xser)
        tau_s = xser.partials(0, m)                      # [s, i] = dx^s/dy^i
        taus = np.ascontiguousarray(np.swapaxes(taylor.read_values(tau_s), -1, -2))
        # annihilator of the tangent span,
        #     raw_s = sum eps[s, c_0, ..., c_{m-1}] tau_0^c_0 ... tau_{m-1}^c_{m-1},
        # contracted from the last tangent to the first: raw's last axis is
        # c_i, so tau_i gets i + 1 unit axes between the batch and c
        raw = _levi_civita(self.n)
        for i in reversed(range(m)):
            raw = (tau_s[(...,) + (None,) * (i + 1) + (slice(None), i)] * raw).sum(-1)
        raw_pt = taylor.read_values(raw)
        norm = np.linalg.norm(raw_pt, axis=-1)
        # |raw| is the volume spanned by the tangents, at most the product of
        # their lengths (Hadamard), so the ratio is free of the surface's scale
        bad = norm <= SINGULAR_RATIO * np.prod(np.linalg.norm(taus, axis=-1), axis=-1)
        if np.any(bad):
            i = np.unravel_index(np.argmax(bad), bad.shape)
            raise RankDeficientTangents(f"tangent vectors are dependent at y={y[i].tolist()}")
        length = (raw * raw).sum(-1).sqrt()
        # the first component that is not negligible is made positive
        first = np.argmax(np.abs(raw_pt) > 1e-12 * norm[..., None], axis=-1)
        lead = np.take_along_axis(raw_pt, first[..., None], axis=-1)[..., 0]
        sign = self.normal_scale * np.where(lead > 0, 1.0, -1.0)
        normal, dn_dy = taylor.read_jet1(raw * sign[..., None] / length[..., None])
        return x, taus, normal, np.moveaxis(dn_dy, 0, -2)

    def grid_axes(self, counts):
        counts = [int(c) for c in counts]
        if len(counts) != self.m:
            raise ConfigError("grid needs one node count per surface parameter")
        if min(counts) < 1:
            raise ConfigError("grid needs at least one node per surface parameter")
        return [np.linspace(lo, hi, c) for (lo, hi), c in zip(self.domain, counts)]


@dataclass
class SurfaceFrame:
    """Surface data at a parameter value for a given system and nu.

    A batch of parameter values y[..., i] puts its batch axes in front of
    the shapes below.
    """

    y: np.ndarray
    x: np.ndarray
    taus: np.ndarray        # (m, n)
    normal: np.ndarray      # (n,)
    dn: np.ndarray          # (m, n): covariant derivative of n along tau_i
    b: np.ndarray           # (m, m): second fundamental form components


def _require_same_space(sys, surf):
    """A surface must sit in the system's configuration space: one
    embedding coordinate per system dimension."""
    if surf.n != sys.n:
        raise ConfigError(f"the surface has {surf.n} ambient coordinates "
                          f"but the system has dimension {sys.n}")


# Points per `Hypersurface.geometry` call in `_geometry_table`: bounds the
# call's transient series, about 1.4 kB per point at n = 3, where the table
# itself keeps 18 floats per point
GEOMETRY_BLOCK = 512


def _geometry_table(surf, ys):
    """surf.geometry at the points ys[b], evaluated GEOMETRY_BLOCK points at a time."""
    n, m = surf.n, surf.m
    table = (np.empty((len(ys), n)), np.empty((len(ys), m, n)),
             np.empty((len(ys), n)), np.empty((len(ys), m, n)))
    for c in point_chunks(len(ys), GEOMETRY_BLOCK):
        for out, part in zip(table, surf.geometry(ys[c])):
            out[c] = part
    return table


def _surface_points(sys, conn, surf, y, nu, depth, read, geometry=None):
    """The arrays read(calc, dn, geometry, nu) returns, over all surface points.

    y[..., i] and nu broadcast over leading batch axes.  The points are
    flattened into chunks of `engine.points_per_calc` points, one
    depth-`depth` PointCalculus each at momentum p = nu * n.  read gets
    that calc, dn[b, i, s], the covariant derivative of the normal
    covector along tau_i, the chunk's rows of (x, taus, normal, dn_dy) and
    its nu; it returns a tuple of arrays with one row per point, and each
    comes back with the batch axes in front.
    A given geometry is `surf.geometry(y)`, and y then carries every
    batch axis; otherwise it is tabulated here.
    """
    _require_same_space(sys, surf)
    y = np.asarray(y, dtype=float)
    nu = np.asarray(nu, dtype=float)
    batch = np.broadcast_shapes(y.shape[:-1], nu.shape)
    ys = np.broadcast_to(y, batch + (surf.m,)).reshape(-1, surf.m)
    nus = np.broadcast_to(nu, batch).reshape(-1)
    if geometry is None:
        geometry = _geometry_table(surf, ys)
    else:
        geometry = [g.reshape((len(ys),) + g.shape[len(batch):]) for g in geometry]
    parts = []
    for c in point_chunks(len(nus), points_per_calc(sys, conn, depth)):
        x, taus, normal, dn_dy = rows = [g[c] for g in geometry]
        calc = PointCalculus(sys, conn, PhasePoint(x, nus[c, None] * normal), depth=depth)
        dn = dn_dy - np.einsum("...ksr,...k,...ir->...is", calc.gamma, normal, taus)
        parts.append(read(calc, dn, rows, nus[c]))
    return [np.concatenate(p).reshape(batch + p[0].shape[1:]) for p in zip(*parts)]


def surface_frame(sys, conn, surf, y, nu):
    """Tangents, normal, covariant dn and second fundamental form at y.

    The momentum entering the connection and the projector is p = nu * n.
    b is assembled from the projected dn map; its symmetry is a theorem,
    not an input, and is asserted only by the tests.  y[..., i] and nu
    broadcast over leading batch axes; the points are evaluated
    `engine.points_per_calc` at a time, in one depth-0 calc each.
    """
    if np.any(np.asarray(nu) == 0):
        raise ValueError("nu must be nonzero")

    def read(calc, dn, geometry, nu):
        x, taus, normal, _ = geometry
        return x, taus, normal, dn, -np.einsum("...ir,...qr,...jq->...ij", taus, calc.P, dn)

    x, taus, normal, dn, b = _surface_points(sys, conn, surf, y, nu, 0, read)
    return SurfaceFrame(y=np.asarray(y, float), x=x, taus=taus, normal=normal, dn=dn, b=b)


def pfaff_rhs(sys, conn, surf, y, nu, geometry=None):
    """Right-hand side psi_i of dnu/dy^i for the shift-initialization field.

        psi_i = -(nu^2 / Omega) sum_s W^s dn[i, s]
                - (nu / Omega) sum_s U_s tau^s_i,

    evaluated at momentum p = nu * n(y).  y[..., i] and nu broadcast over
    leading batch axes, which lead the result; the points are evaluated
    `engine.points_per_calc` at a time, in one depth-0 calc each.  A
    caller that has already evaluated `surf.geometry(y)` passes it as
    geometry, and y then carries every batch axis; otherwise it is
    evaluated here.
    """

    def read(calc, dn, geometry, nu):
        taus = geometry[1]
        omega = calc.Omega[:, None, None]
        nu = nu[:, None, None]
        return (np.matmul(-(nu * nu / omega) * dn, calc.W[:, :, None])[:, :, 0]
                - np.matmul((nu / omega) * taus, calc.U[:, :, None])[:, :, 0],)

    psi, = _surface_points(sys, conn, surf, y, nu, 0, read, geometry)
    return psi


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

    def write_csv(self, path):
        """One row per node, y1..ym then nu, in the C order of the grid index."""
        table = np.column_stack([grid_nodes(self.axes), self.values.reshape(-1)])
        np.savetxt(path, table, fmt="%.17g", delimiter=",", comments="",
                   header=",".join([f"y{i+1}" for i in range(len(self.axes))] + ["nu"]))


def grid_nodes(axes):
    """The (N, m) nodes of the grid on `axes`, in the C order of the grid index."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(axes))


def _stage_params(substeps):
    """The segment parameters s at which `_edge_rk4` evaluates its stages.

    They are read from the `rk4_step` calls that `_edge_rk4` makes, so
    they are the same floats.
    """
    h = 1.0 / substeps
    params = set()
    for k in range(substeps):
        rk4_step(lambda s, v: params.add(s) or v, k * h, 0.0, h)
    return sorted(params)


def _stage_geometry(surf, segments, substeps):
    """Surface geometry at every stage point of every edge batch, each point once.

    segments lists the (y_from, y_to) of each edge batch; its stage points
    are y_from + s * (y_to - y_from), the arithmetic of `_edge_rk4`'s
    stages.  Most of them recur bit for bit (the cells retrace the grid
    edges, and an edge's end is the next edge's start), so the geometry is
    evaluated only at the distinct points (`_geometry_table`).  Returns
    that table and, per batch, a dict from each stage parameter s to the
    table rows of the batch's points.
    """
    if not segments:
        return None, []
    params = _stage_params(substeps)
    points = np.concatenate([y_from + s * (y_to - y_from)
                             for y_from, y_to in segments for s in params])
    # compared as bit patterns, so that 0.0 and -0.0 stay apart
    distinct, rows = np.unique(points.view(np.int64), axis=0, return_inverse=True)
    table = _geometry_table(surf, distinct.view(float))
    rows = rows.reshape(-1)
    out, start = [], 0
    for y_from, _ in segments:
        out.append({})
        for s in params:
            out[-1][s] = rows[start:start + len(y_from)]
            start += len(y_from)
    return table, out


def _edge_rk4(sys, conn, surf, y_from, y_to, nu, substeps, table, rows):
    """RK4 for nu along straight parameter segments, all in lockstep.

    Edge e runs from y_from[e] to y_to[e] starting at nu[e]; each substep
    is one `rk4_step` in the segment parameter s in [0, 1], each of its
    stages one batched `pfaff_rhs` call over every edge.  The surface
    geometry at the stage points is read from table[rows[s]], which
    `solve_nu` tabulates once per solve (`_stage_geometry`), so a stage
    evaluates only the system and the connection.  The right-hand
    side is singular like 1/nu^3 as nu -> 0, so solutions can reach zero at
    finite parameter values; a sign change between substeps means the
    integration stepped across that singular set and left the sheet on
    which the shift construction exists.  The error names the first edge
    (in the order given) that failed in the earliest failing substep.
    """
    delta = y_to - y_from
    h = 1.0 / substeps

    def f(s, v):
        geometry = [g[rows[s]] for g in table]
        psi = pfaff_rhs(sys, conn, surf, y_from + s * delta, v, geometry)
        return np.matmul(psi[:, None, :], delta[:, :, None])[:, 0, 0]

    v = nu
    for k in range(substeps):
        prev = v
        v = rk4_step(f, k * h, v, h)
        bad = ~np.isfinite(v) | (np.abs(v) < NU_FLOOR) | (v * prev <= 0.0)
        if np.any(bad):
            e = int(np.argmax(bad))
            raise NuVanished(
                f"nu reached {v[e]:.3e} integrating from y={y_from[e].tolist()} "
                f"toward y={y_to[e].tolist()}; the initial-speed field vanishes "
                "inside the patch for this base value"
            )
    return v


def _edge_schedule(shape, base):
    """The edge batches of a solve, (starts, ends) flat node indices each, in order.

    They depend only on the grid: pass d runs along every axis-d line of
    the slab that passes 0..d-1 have filled (axes d+1.. at base), one
    edge outward from base in both directions per batch, so after pass d
    the slab spanned by axes 0..d is filled.  Then, if the grid has
    cells, come two batches over (start, corner, far) of both paths of
    every cell, path a then path b: the first edges, start to corner, and
    the second, corner to far.  Returns the sweep's batches and the
    cells' (none without a cell).
    """
    index = np.arange(int(np.prod(shape))).reshape(shape)
    strides = [s // index.itemsize for s in index.strides]
    sweeps = []
    for d, size in enumerate(shape):
        lines = index[(slice(None),) * (d + 1) + base[d + 1:]].reshape(-1, size)
        b0 = base[d]
        for k in range(1, max(size - b0, b0 + 1)):
            ends = [j for j in (b0 + k, b0 - k) if 0 <= j < size]
            starts = [j - 1 if j > b0 else j + 1 for j in ends]
            sweeps.append((lines[:, starts].reshape(-1), lines[:, ends].reshape(-1)))
    paths = []     # (cell, path, (start, corner, far))
    for a, b in itertools.combinations(range(len(shape)), 2):
        start = index[tuple(slice(-1) if d in (a, b) else slice(None)
                            for d in range(len(shape)))]
        sa, sb = strides[a], strides[b]
        paths.append(start.reshape(-1, 1, 1) + np.array([[0, sa, sa + sb], [0, sb, sa + sb]]))
    if not paths:
        return sweeps, []
    starts, corners, fars = np.concatenate(paths).reshape(-1, 3).T
    return sweeps, [(starts, corners), (corners, fars)]


def solve_nu(sys, conn, surf, y0, nu0, grid, substeps=4):
    """Integrate the Pfaff system over an axis-parallel grid.

    nu is propagated from the node nearest to y0 along axis-parallel
    paths in a fixed sweep order (axis by axis), so results are
    deterministic.  The returned residual is the largest two-path
    disagreement over all grid cells: each cell's far corner is reached
    along its two edge orderings from the same base value, and the
    difference measures how far the system is from an integrable one.
    A one-parameter surface has no cells and no compatibility condition,
    and its residual is 0; a surface of two or more parameters needs at
    least 2 nodes on every axis (ConfigError otherwise), so that its
    residual is read from at least one cell.

    Independent edges advance in lockstep: pass d moves along every
    axis-d line of the filled slab one edge outward from base in both
    directions at a time, and the cells take two edge batches, the first
    and the second edges of both paths of every cell, all as flat node
    indices.  These batches depend only on the grid, so the surface
    geometry at every RK4 stage point of every edge is tabulated once,
    before any edge is integrated, and the stages evaluate only the
    system and the connection.  A point of the schedule where the
    tangents are dependent therefore raises `RankDeficientTangents`
    before any edge is integrated.
    """
    _require_same_space(sys, surf)
    if nu0 == 0:
        raise ValueError("nu0 must be nonzero")
    axes = surf.grid_axes(grid)
    if surf.m >= 2 and min(len(ax) for ax in axes) < 2:
        raise ConfigError("solving nu on a surface of two or more parameters "
                          "needs at least 2 grid nodes per axis")
    y0 = np.asarray(y0, dtype=float)
    base = tuple(int(np.argmin(np.abs(ax - y0[d]))) for d, ax in enumerate(axes))
    shape = tuple(len(ax) for ax in axes)
    values = np.full(shape, np.nan)
    values[base] = nu0
    flat = values.reshape(-1)
    ys = grid_nodes(axes)

    sweeps, cells = _edge_schedule(shape, base)
    segments = [(ys[starts], ys[ends]) for starts, ends in sweeps + cells]
    table, rows = _stage_geometry(surf, segments, substeps)

    def edges(k, nu):
        return _edge_rk4(sys, conn, surf, *segments[k], nu, substeps, table, rows[k])

    for k, (starts, ends) in enumerate(sweeps):
        flat[ends] = edges(k, flat[starts])
    residual = 0.0
    if cells:
        k = len(sweeps)
        ends = edges(k + 1, edges(k, flat[cells[0][0]]))
        residual = float(np.max(np.abs(ends[0::2] - ends[1::2])))
    return NuGrid(axes=axes, values=values, base_index=base, nu0=nu0,
                  residual=residual)


def compatibility_residual(sys, conn, surf, y, nu):
    """Antisymmetric mixed-partial defect of the Pfaff system, (..., m, m).

    Assembled from the A/B/C tensors and the projected dn map; vanishes
    identically when the additional normality equations hold.  The output
    is exactly antisymmetric by construction.  y[..., i] and nu broadcast
    over leading batch axes, and the points are evaluated
    `engine.points_per_calc` at a time, in one depth-1 calc each.
    """

    def read(calc, dn, geometry, nu):
        taus = geometry[1]
        pdn = np.einsum("...qr,...iq->...ir", calc.P, dn)
        omega = calc.Omega[..., None, None]
        nu = nu[..., None, None]
        xa = np.einsum("...rs,...ir,...js->...ij", calc.A_tensor, pdn, pdn)
        xb = np.einsum("...rs,...ir,...js->...ij", calc.B_tensor, pdn, taus)
        xc = np.einsum("...rs,...ir,...js->...ij", calc.C_tensor, taus, taus)
        return (nu ** 3 / omega * (xa - np.swapaxes(xa, -2, -1))
                + nu ** 2 / omega * (xb - np.swapaxes(xb, -2, -1))
                + nu / omega * (xc - np.swapaxes(xc, -2, -1)),)

    defect, = _surface_points(sys, conn, surf, y, nu, 1, read)
    return defect


# ----------------------------------------------------------------------
# the shift itself
# ----------------------------------------------------------------------

@dataclass
class ShiftRun:
    surf: Hypersurface
    ys: np.ndarray          # (N, m): the launch nodes, in the grid index's C order
    nus: np.ndarray
    trajectories: Trajectory    # batched over the N nodes

    @property
    def t(self):
        return self.trajectories.t

    def phi_matrix(self):
        """|phi| over (node, time, variation) collapsed to (time,) maxima."""
        return np.max(np.abs(self.trajectories.phis), axis=(0, 2))

    def write_csv(self, path):
        n = self.surf.n
        m = self.surf.m
        cols = ([f"y{i+1}" for i in range(m)] + ["t"]
                + [f"x{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
                + [f"phi_{j+1}" for j in range(m)])
        tr = self.trajectories      # x: (nodes, records, n)
        table = np.concatenate([np.broadcast_to(self.ys[:, None], (*tr.x.shape[:-1], m)),
                                np.broadcast_to(tr.t[:, None], (*tr.x.shape[:-1], 1)),
                                tr.x, tr.p, tr.phis], axis=-1)
        np.savetxt(path, table.reshape(-1, len(cols)), fmt="%.17g", delimiter=",",
                   header=",".join(cols), comments="")


def simulate_shift(sys, conn, surf, nu_source, cfg, grid=None):
    """Shift a gridded surface patch along the system's trajectories.

    Initial data per grid node: x from the embedding, p = nu * n, tau_i
    the embedding tangents, and dp_i = d(nu * n)/dy^i = (dnu/dy^i) n
    + nu * dn/dy^i, the plain derivative of the launch momentum, with
    dnu/dy taken from the Pfaff right-hand side at the solved nu (zero
    for a constant nu source, where the connection is never evaluated).
    The launch evaluates the surface geometry once, for both.
    The deviation functions phi_i then start at zero and stay zero
    exactly when the shift is normal.
    """
    _require_same_space(sys, surf)
    solved = isinstance(nu_source, NuGrid)
    if solved:
        axes, values = nu_source.axes, nu_source.values
    else:
        nu0 = float(nu_source)
        if nu0 == 0:
            raise ValueError("nu must be nonzero on the grid")
        if grid is None:
            raise ValueError("a grid spec is required with a constant nu")
        axes = surf.grid_axes(grid)
        values = np.full([len(ax) for ax in axes], nu0)
    ys = grid_nodes(axes)
    nus = values.flatten()
    low = np.abs(nus) < NU_FLOOR
    if np.any(low):
        raise NuVanished(f"nu vanished at grid node y={ys[np.argmax(low)]!r}")
    x, taus, normal, dn_dy = geometry = surf.geometry(ys)
    dnu = (pfaff_rhs(sys, conn, surf, ys, nus, geometry) if solved
           else np.zeros((len(ys), surf.m)))
    dps = dnu[:, :, None] * normal[:, None, :] + nus[:, None, None] * dn_dy
    state = ExtendedState(0.0, PhasePoint(x, nus[:, None] * normal), taus, dps)
    return ShiftRun(surf=surf, ys=ys, nus=nus,
                    trajectories=integrate_family(sys, conn, state, cfg))


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
    """NORMAL when max_i |phi_i| <= tol at every recorded time.

    A NaN in the profile, or a NaN tol, flags its time, so with a finite
    tol NORMAL needs every max|phi| to be finite and at most tol.
    """
    prof = run.phi_matrix()
    t = run.t
    bad = np.flatnonzero(~(prof <= tol))
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
    return surface_from_config(load_config(path, "surface"))
