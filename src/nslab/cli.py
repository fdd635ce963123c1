"""Command-line front end.

Subcommands load system/surface configs, run the checks, write CSV
reports and finish with one machine-readable summary line::

    RESULT <command> <PASS|FAIL> max_residual=<r>

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 bad
configuration or arguments (a `ConfigError`, an `ExpressionSyntaxError` or
a `ValueError`), 3 numerical failure: any other `NslabError` (see
`errors`), for example a stalled integration step, a non-finite
residual, a singular metric, a degenerate Omega, a vanishing nu or dW/dv,
an expression evaluated outside its domain or dependent surface tangents.
Each subcommand accepts only the flags it reads.  All floats are printed
with 17 significant digits so reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from .connections import (
    CanonicalConnection,
    GaugedConnection,
    ZeroConnection,
    connection_from_config,
    random_gauge_tensor,
)
from .dynamics import ExtendedState, IntegratorConfig, integrate_family
from .errors import ConfigError, ExpressionSyntaxError, NslabError
from .expressions import (
    evaluate_jet,
    finite_difference_probe,
    parse,
    phase_variables,
    substitute,
)
from .engine import PointCalculus, chunked, points_per_calc, stack_points
from .normality import normality_report, residual_from_calc
from .oracles import canonical_connection_oracle
from .sampling import PointSampler
from .surfaces import (
    compatibility_residual,
    grid_nodes,
    load_surface,
    simulate_shift,
    solve_nu,
    verify_orthogonality,
)
from .systems import (
    EuclideanNewtonianSystem,
    PhasePoint,
    build_modified_hamiltonian,
    load_config,
    system_from_config,
)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _fmt(x):
    return f"{x:.17g}"


def _result(command, passed, max_residual):
    print(f"RESULT {command} {'PASS' if passed else 'FAIL'} "
          f"max_residual={_fmt(max_residual)}")
    return EXIT_PASS if passed else EXIT_CHECK_FAILED


def _default_y0(surf):
    # normalize nu at the patch center; corners sit farthest from it and
    # are the likeliest places for the initial-speed field to degenerate
    return [(lo + hi) / 2.0 for lo, hi in surf.domain]


def _load_system_conn(path):
    cfg = load_config(path)
    sys = system_from_config(cfg)
    return sys, connection_from_config(cfg, sys)


def _surface_grid(args):
    """The surface of --surface, and --grid or else the surface config's grid."""
    surf = load_surface(args.surface)
    return surf, args.grid or surf.default_grid


def _sampler(sys, args):
    return PointSampler(n=sys.n, count=args.points, seed=args.seed,
                        pmin=args.pmin, pmax=args.pmax, xbox=args.xbox)


def _outdir(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_check_normality(args):
    sys, conn = _load_system_conn(args.system)
    report = normality_report(sys, conn, _sampler(sys, args), args.tol)
    out = _outdir(args)
    report.write_csv(out / "residuals.csv")
    extra = "" if report.additional_applicable else " (additional equations n/a for n=2)"
    print(f"checked {len(report.rows)} points, median {_fmt(report.median_abs)}, "
          f"violations {len(report.violations)}{extra}")
    print(f"wrote {out / 'residuals.csv'}")
    return _result("check-normality", report.verdict == "PASS", report.max_abs)


def cmd_solve_nu(args):
    """Solve nu on the grid; PASS when its compatibility defect is within --tol.

    The defect is `compatibility_residual` at every node with its solved
    nu, and max_residual its largest entry.  It vanishes where the system
    admits the shift, whatever the grid; the two-path cell residual is
    printed as a report only, since for an incompatible system it shrinks
    with the cell area.
    """
    sys, conn = _load_system_conn(args.system)
    surf, grid = _surface_grid(args)
    y0 = _default_y0(surf) if args.y0 is None else args.y0
    result = solve_nu(sys, conn, surf, y0, args.nu0, grid)
    out = _outdir(args)
    path = out / "nu_grid.csv"
    result.write_csv(path)
    defect = compatibility_residual(sys, conn, surf, grid_nodes(result.axes),
                                    result.values.reshape(-1))
    # np.max propagates NaN, so a non-finite defect cannot PASS
    worst = float(np.max(np.abs(defect)))
    print(f"solved nu on grid {grid}, base value {_fmt(args.nu0)}")
    print(f"wrote {path}")
    print(f"two-path cell residual {_fmt(result.residual)}")
    return _result("solve-nu", worst <= args.tol, worst)


def cmd_simulate_shift(args):
    sys, conn = _load_system_conn(args.system)
    surf, grid = _surface_grid(args)
    cfg = IntegratorConfig(t_end=args.t_end, step=args.step)
    if args.solve_nu:
        y0 = _default_y0(surf) if args.y0 is None else args.y0
        nu_grid = solve_nu(sys, conn, surf, y0, args.nu0, grid)
        run = simulate_shift(sys, conn, surf, nu_grid, cfg)
    else:
        run = simulate_shift(sys, conn, surf, args.nu0, cfg, grid=grid)
    report = verify_orthogonality(run, args.tol)
    out = _outdir(args)
    run.write_csv(out / "shift.csv")
    if report.verdict == "NORMAL":
        print(f"orthogonality kept over t in [0, {_fmt(args.t_end)}]")
    else:
        print(f"orthogonality violated at t={_fmt(report.first_violation)}")
    print(f"wrote {out / 'shift.csv'}")
    return _result("simulate-shift", report.verdict == "NORMAL", report.max_abs)


def cmd_gauge_test(args):
    if args.count < 1:
        raise ConfigError("--count must be at least 1")
    sys, conn = _load_system_conn(args.system)
    rng = np.random.default_rng(args.seed)
    sampler = PointSampler(n=sys.n, count=3, seed=args.seed + 1,
                           pmin=args.pmin, pmax=args.pmax, xbox=args.xbox)
    points = sampler.points()
    batch = stack_points(points)

    def evaluate(c):
        calc = PointCalculus(sys, c, batch)
        return calc.alpha, residual_from_calc(calc)

    base_alpha, base = evaluate(conn)
    # per gauge and point: the largest change of alpha and of any residual entry
    d_alpha, d_resid = np.empty((2, args.count, len(points)))
    for k in range(args.count):
        alpha, resid = evaluate(GaugedConnection(conn, random_gauge_tensor(sys.n, rng)))
        d_alpha[k] = np.max(np.abs(alpha - base_alpha), axis=-1)
        d_resid[k] = np.max(np.concatenate(
            [np.abs(getattr(resid, name) - getattr(base, name)).reshape(len(points), -1)
             for name in ("weak1", "weak2", "addA", "addB", "addC")], axis=1), axis=1)
    # np.max propagates NaN, so a NaN change cannot hide behind the others
    worst_alpha, worst_resid = float(np.max(d_alpha)), float(np.max(d_resid))
    out = _outdir(args)
    path = out / "gauge.csv"
    with open(path, "w") as fh:
        fh.write("gauge_index,alpha_change,residual_change\n")
        for k in range(args.count):
            for da, dr in zip(d_alpha[k], d_resid[k]):
                fh.write(f"{k},{_fmt(da)},{_fmt(dr)}\n")
    print(f"{args.count} random gauges: max alpha change {_fmt(worst_alpha)}, "
          f"max residual change {_fmt(worst_resid)}")
    print(f"wrote {path}")
    passed = worst_alpha <= 1e-8 and worst_resid <= 1e-7
    return _result("gauge-test", passed, max(worst_alpha, worst_resid))


def cmd_cross_check(args):
    """Oracle, jet and trajectory checks; PASS needs every score finite and within tol.

    A check's score is its residual (the jet probes' relative to the partial's
    size).  A connection-oracle point whose evaluation raises scores NaN.
    """
    sys, _ = _load_system_conn(args.system)
    rng = np.random.default_rng(args.seed)
    scores = []
    rows = []

    # canonical coefficients, one calc per chunk, against the oracle's
    # velocity-space second derivative at each point
    points = PointSampler(n=sys.n, count=20, seed=args.seed,
                          pmin=args.pmin, pmax=args.pmax, xbox=args.xbox).points()
    conn = CanonicalConnection(sys)
    failures = []

    def oracle_residuals(part):
        direct = PointCalculus(sys, conn, stack_points(part), depth=0).gamma
        return [float(np.max(np.abs(d - canonical_connection_oracle(sys, q))))
                for d, q in zip(direct, part)]

    def failed(q, err):
        failures.append(err)
        return float("nan")

    for r in chunked(points, oracle_residuals, failed, points_per_calc(sys, conn, 0)):
        rows.append(("connection_oracle", r))
        scores.append(r)
    if failures:
        first = failures[0]
        print(f"{len(failures)} of {len(points)} oracle points failed to evaluate "
              f"(first {type(first).__name__}: {first}); their rows read nan")

    # jet evaluator against central differences on two fixed probe
    # expressions in the system's phase variables, at random points
    pv = phase_variables(sys.n)
    probes = [parse("p1^2 + x1*p2", pv), parse("sqrt(p1^2 + p2^2)", pv)]
    for expr in probes:
        q = PhasePoint(rng.uniform(-1, 1, sys.n), rng.uniform(0.5, 1.5, sys.n))
        jet = evaluate_jet(expr, q, 2)
        for slot in range(2 * sys.n):
            mi = [0] * (2 * sys.n)
            mi[slot] = 1
            fd = finite_difference_probe(expr, q, mi, 1e-5)
            r = abs(jet.partial(tuple(mi)) - fd)
            rows.append(("jet_vs_fd", r))
            scores.append(r / max(1.0, abs(jet.partial(tuple(mi)))))

    # flat-family (h = 0) versus rescaled-Hamiltonian trajectories: the two
    # flows agree pointwise in time once the momentum fibers are inverted
    if isinstance(sys, EuclideanNewtonianSystem):
        flat = EuclideanNewtonianSystem(sys.W, "0", sys.n)
        inv = parse("1/sqrt(" + "+".join(f"p{i+1}^2" for i in range(sys.n)) + ")",
                    phase_variables(sys.n))
        twin = build_modified_hamiltonian(substitute(sys.W, "v", inv), sys.n)
        zc = ZeroConnection(sys.n)
        cfg = IntegratorConfig(t_end=1.0, step=args.step)
        x0, p0, inverted = np.empty((3, 5, sys.n))
        for k in range(5):
            x0[k] = rng.uniform(-0.3, 0.3, sys.n)
            p0[k] = rng.normal(size=sys.n)
            p0[k] *= rng.uniform(0.6, 1.2) / np.linalg.norm(p0[k])
            inverted[k] = p0[k] / float(p0[k] @ p0[k])
        ta = integrate_family(flat, zc, ExtendedState(0, PhasePoint(x0, p0)), cfg)
        tb = integrate_family(twin, zc, ExtendedState(0, PhasePoint(x0, inverted)), cfg)
        for r in np.max(np.abs(ta.x - tb.x), axis=(1, 2)).tolist():
            rows.append(("trajectory_equivalence", r))
            scores.append(r)

    out = _outdir(args)
    path = out / "crosscheck.csv"
    with open(path, "w") as fh:
        fh.write("check,residual\n")
        for name, r in rows:
            fh.write(f"{name},{_fmt(r)}\n")
    print(f"ran {len(rows)} cross checks")
    if len(failures) == len(points):
        print("no connection-oracle point was evaluated")
    print(f"wrote {path}")
    # np.max propagates NaN, so a non-finite score cannot hide behind the others
    worst = float(np.max(scores))
    return _result("cross-check", worst <= args.tol, worst)


# every flag of the command line; each subcommand registers the ones it reads
_FLAGS = {
    "--system": dict(required=True, help="system config JSON"),
    "--surface": dict(required=True, help="surface config JSON"),
    "--points": dict(type=int, default=100),
    "--seed": dict(type=int, default=42),
    "--tol": dict(type=float, default=1e-7),
    "--step": dict(type=float, default=1e-3,
                   help="recording interval; the stepper chooses its own steps"),
    "--t-end": dict(type=float, default=1.0),
    "--nu0": dict(type=float, default=1.0),
    "--grid": dict(type=lambda s: [int(v) for v in s.split(",")], default=None),
    "--y0": dict(type=lambda s: [float(v) for v in s.split(",")], default=None),
    "--pmin": dict(type=float, default=0.1),
    "--pmax": dict(type=float, default=10.0),
    "--xbox": dict(type=float, default=1.0),
    "--out-dir": dict(default="out"),
    "--solve-nu": dict(action="store_true",
                       help="solve for nu instead of using the constant --nu0"),
    "--count": dict(type=int, default=50),
}

# the sampler's momentum range and position box
_SAMPLER_BOX = ("--pmin", "--pmax", "--xbox")

# (name, help, function, flags)
_COMMANDS = [
    ("check-normality", "residual sweep over a point cloud", cmd_check_normality,
     ("--system", "--points", "--seed", *_SAMPLER_BOX, "--tol", "--out-dir")),
    ("solve-nu", "integrate the Pfaff system over a grid", cmd_solve_nu,
     ("--system", "--surface", "--nu0", "--grid", "--y0", "--tol", "--out-dir")),
    ("simulate-shift", "shift a surface patch and verify orthogonality", cmd_simulate_shift,
     ("--system", "--surface", "--nu0", "--grid", "--y0", "--solve-nu", "--t-end",
      "--step", "--tol", "--out-dir")),
    ("gauge-test", "random gauge invariance suite", cmd_gauge_test,
     ("--system", "--count", "--seed", *_SAMPLER_BOX, "--out-dir")),
    ("cross-check", "internal oracles and equivalences", cmd_cross_check,
     ("--system", "--seed", *_SAMPLER_BOX, "--step", "--tol", "--out-dir")),
]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nslab",
        description="normal-shift laboratory for momentum-space Newtonian systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, fn, flags in _COMMANDS:
        p = sub.add_parser(name, help=text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_CONFIG if err.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ConfigError, ExpressionSyntaxError, ValueError) as err:
        print(f"configuration error: {err}")
        return EXIT_CONFIG
    except NslabError as err:
        print(f"numerical failure: {type(err).__name__}: {err}")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
