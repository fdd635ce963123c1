import argparse
import json
from pathlib import Path

import pytest

from nslab import NslabError, cli
from nslab.cli import build_parser, main
from nslab.engine import PointCalculus


@pytest.fixture()
def configs(tmp_path):
    paths = {}
    specs = {
        "geo": {"n": 2, "kind": "modified_hamiltonian", "H": "(p1^2 + p2^2)/2"},
        "bad": {"n": 2, "kind": "explicit", "V": ["p1", "p2"],
                "Theta": ["p2^2", "0"]},
        "circle": {"params": 1, "embedding": ["cos(y1)", "sin(y1)"],
                   "domain": [[-1.2, 1.2]], "grid": [7]},
        "flat": {"n": 2, "kind": "riemannian_euclidean", "W": "v + x1*v^2/10",
                 "h": "w/5"},
    }
    for name, cfg in specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        paths[name] = str(path)
    paths["out"] = str(tmp_path / "out")
    return paths


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_compliant_system_passes(self, configs, capsys):
        code, out = run(["check-normality", "--system", configs["geo"],
                         "--points", "40", "--seed", "42", "--tol", "1e-7",
                         "--out-dir", configs["out"]], capsys)
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("RESULT check-normality PASS")

    def test_bad_system_fails(self, configs, capsys):
        code, out = run(["check-normality", "--system", configs["bad"],
                         "--points", "20", "--out-dir", configs["out"]], capsys)
        assert code == 1
        last = out.strip().splitlines()[-1]
        assert last.startswith("RESULT check-normality FAIL max_residual=")

    def test_missing_config_is_exit_2(self, configs, capsys):
        code, _ = run(["simulate-shift", "--system", "missing.json",
                       "--surface", configs["circle"]], capsys)
        assert code == 2

    def test_bad_flag_is_exit_2(self, configs, capsys):
        assert main(["check-normality"]) == 2

    def test_invalid_surface_json_is_exit_2(self, tmp_path, configs, capsys):
        surf = tmp_path / "broken.json"
        surf.write_text('{"params": 1,')
        code, out = run(["solve-nu", "--system", configs["geo"], "--surface", str(surf),
                         "--out-dir", configs["out"]], capsys)
        assert code == 2
        assert "invalid JSON in surface config" in out

    def test_simulate_shift(self, configs, capsys):
        code, out = run(["simulate-shift", "--system", configs["geo"],
                         "--surface", configs["circle"], "--solve-nu",
                         "--tol", "1e-6", "--step", "0.002",
                         "--out-dir", configs["out"]], capsys)
        assert code == 0
        assert "RESULT simulate-shift PASS" in out

    def test_solve_nu(self, configs, capsys):
        code, out = run(["solve-nu", "--system", configs["geo"],
                         "--surface", configs["circle"],
                         "--out-dir", configs["out"]], capsys)
        assert code == 0
        assert "RESULT solve-nu PASS" in out

    @pytest.mark.parametrize("command", ["solve-nu", "simulate-shift"])
    def test_dimension_mismatch_is_exit_2(self, command, tmp_path, configs, capsys):
        # an n = 2 system with a surface in three coordinates
        sphere = tmp_path / "sphere.json"
        sphere.write_text(json.dumps({
            "params": 2, "embedding": ["sin(y1)*cos(y2)", "sin(y1)*sin(y2)", "cos(y1)"],
            "domain": [[0.3, 1.2], [-0.6, 0.6]], "grid": [3, 3]}))
        code, out = run([command, "--system", configs["geo"], "--surface", str(sphere),
                         "--out-dir", configs["out"]], capsys)
        assert code == 2
        assert "configuration error" in out
        assert "3 ambient coordinates but the system has dimension 2" in out

    def test_nan_tol_fails_the_shift(self, configs, capsys):
        code, out = run(["simulate-shift", "--system", configs["geo"],
                         "--surface", configs["circle"], "--t-end", "0.1",
                         "--step", "0.01", "--tol", "nan",
                         "--out-dir", configs["out"]], capsys)
        assert code == 1
        assert out.strip().splitlines()[-1].startswith("RESULT simulate-shift FAIL")

    def test_infinite_step_is_exit_2(self, configs, capsys):
        code, out = run(["simulate-shift", "--system", configs["geo"],
                         "--surface", configs["circle"], "--step", "inf",
                         "--out-dir", configs["out"]], capsys)
        assert code == 2
        assert "step must be positive and finite" in out

    def test_runaway_system_is_exit_3(self, tmp_path, configs, capsys):
        import json
        cfg = {"n": 2, "kind": "explicit", "V": ["p1^3", "p2"],
               "Theta": ["p1^3", "0"]}
        path = tmp_path / "runaway.json"
        path.write_text(json.dumps(cfg))
        code, out = run(["simulate-shift", "--system", str(path),
                         "--surface", configs["circle"], "--nu0", "3",
                         "--t-end", "10", "--step", "0.01",
                         "--out-dir", configs["out"]], capsys)
        assert code == 3
        assert "numerical failure" in out

    def test_vanishing_nu_is_exit_3(self, tmp_path, configs, capsys):
        import json
        cfg = {"n": 2, "kind": "modified_hamiltonian", "H": "(p1^2 + p2^2)/2 + x1"}
        path = tmp_path / "xdep.json"
        path.write_text(json.dumps(cfg))
        code, out = run(["solve-nu", "--system", str(path),
                         "--surface", configs["circle"], "--y0", "-1.2",
                         "--out-dir", configs["out"]], capsys)
        assert code == 3
        assert "NuVanished" in out

    def test_nonfinite_residuals_fail(self, tmp_path, configs, capsys):
        cfg = tmp_path / "overflow.json"
        cfg.write_text(json.dumps({
            "n": 3, "kind": "explicit", "V": ["p1", "p2", "p3"],
            "Theta": ["exp(exp(p1^2)) - exp(exp(p1^2))", "0", "0"]}))
        code, out = run(["check-normality", "--system", str(cfg), "--points", "30",
                         "--seed", "0", "--out-dir", configs["out"]], capsys)
        assert code == 1
        assert "violations 7" in out
        assert out.strip().splitlines()[-1].startswith("RESULT check-normality FAIL")

    def test_domain_errors_are_numerical_failures(self, tmp_path, configs, capsys):
        # sqrt(x1) leaves its domain at the samples with x1 < 0
        cfg = tmp_path / "sqrt.json"
        cfg.write_text(json.dumps({"n": 2, "kind": "explicit",
                                   "V": ["sqrt(x1)*p1", "p2"], "Theta": ["0", "0"]}))
        code, out = run(["gauge-test", "--system", str(cfg), "--count", "2",
                         "--out-dir", configs["out"]], capsys)
        assert code == 3
        assert out.strip().splitlines()[-1].startswith(
            "numerical failure: EvaluationDomainError: sqrt of negative value")
        # an oracle point outside the domain is a NaN row, never agreement
        code, out = run(["cross-check", "--system", str(cfg),
                         "--out-dir", configs["out"]], capsys)
        assert ("10 of 20 oracle points failed to evaluate "
                "(first EvaluationDomainError: sqrt of negative value") in out
        rows = (Path(configs["out"]) / "crosscheck.csv").read_text().splitlines()
        assert rows.count("connection_oracle,nan") == 10
        assert code == 1
        assert out.strip().splitlines()[-1] == "RESULT cross-check FAIL max_residual=nan"

    def test_dependent_tangents_are_exit_3(self, tmp_path, configs, capsys):
        # the cusp's tangent vanishes at y1 = 0, the default base point
        cusp = tmp_path / "cusp.json"
        cusp.write_text(json.dumps({"params": 1, "embedding": ["y1^2", "y1^3"],
                                    "domain": [[-1, 1]], "grid": [3]}))
        code, out = run(["solve-nu", "--system", configs["geo"], "--surface", str(cusp),
                         "--out-dir", configs["out"]], capsys)
        assert code == 3
        assert "numerical failure: RankDeficientTangents" in out

    def test_every_error_class_has_its_exit_code(self, configs, capsys, monkeypatch):
        # the configuration family exits 2, every other NslabError 3
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        classes = list(subclasses(NslabError))
        assert len(classes) == 13
        config = {"ConfigError", "AsymmetricGauge", "ExpressionSyntaxError",
                  "UnknownIdentifierError", "VariableIndexError"}
        for cls in classes:
            try:
                err = cls("boom")
            except TypeError:       # a message and one more field
                err = cls("boom", 0)

            def fail(*args, err=err):
                raise err

            monkeypatch.setattr(cli, "normality_report", fail)
            code, out = run(["check-normality", "--system", configs["geo"],
                             "--out-dir", configs["out"]], capsys)
            assert "RESULT" not in out
            if cls.__name__ in config:
                assert code == 2, cls
                assert out.startswith("configuration error: "), cls
            else:
                assert code == 3, cls
                assert out.startswith(f"numerical failure: {cls.__name__}: "), cls

    def test_zero_points_is_exit_2(self, configs, capsys):
        code, out = run(["check-normality", "--system", configs["geo"],
                         "--points", "0", "--out-dir", configs["out"]], capsys)
        assert code == 2
        assert "no points" in out

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_gauge_count_below_one_is_exit_2(self, count, configs, capsys):
        # no gauge tried is no evidence of invariance
        code, out = run(["gauge-test", "--system", configs["geo"], "--count", count,
                         "--out-dir", configs["out"]], capsys)
        assert code == 2
        assert "--count must be at least 1" in out

    def test_bad_momentum_range_is_exit_2(self, configs, capsys):
        code, out = run(["check-normality", "--system", configs["geo"], "--pmin", "0",
                         "--out-dir", configs["out"]], capsys)
        assert code == 2
        assert "configuration error" in out

    @pytest.mark.parametrize("command", ["solve-nu", "simulate-shift"])
    def test_empty_grid_is_exit_2(self, command, configs, capsys):
        code, out = run([command, "--system", configs["geo"], "--surface", configs["circle"],
                         "--grid", "0", "--out-dir", configs["out"]], capsys)
        assert code == 2
        assert "grid needs at least one node per surface parameter" in out

    @pytest.fixture()
    def bad3_sphere(self, tmp_path):
        """(system, surface) paths: bad3, which does not admit the shift, and
        the acceptance sphere patch."""
        bad3 = tmp_path / "bad3.json"
        bad3.write_text(json.dumps({"n": 3, "kind": "explicit", "V": ["p1", "p2", "p3"],
                                    "Theta": ["p2^2", "0", "0"]}))
        sphere = tmp_path / "sphere.json"
        sphere.write_text(json.dumps({
            "params": 2, "embedding": ["sin(y1)*cos(y2)", "sin(y1)*sin(y2)", "cos(y1)"],
            "domain": [[0.3, 1.2], [-0.6, 0.6]]}))
        return str(bad3), str(sphere)

    @pytest.mark.parametrize("grid", ["5,1", "1,5", "1,1"])
    def test_two_parameter_grid_without_a_cell_is_exit_2(self, grid, bad3_sphere, configs,
                                                           capsys):
        # the incompatible control FAILs on a 5 x 5 grid; without a cell it
        # must not PASS on a two-path residual of 0
        bad3, sphere = bad3_sphere
        code, out = run(["solve-nu", "--system", bad3, "--surface", sphere,
                         "--grid", grid, "--out-dir", configs["out"]], capsys)
        assert code == 2
        assert "at least 2 grid nodes per axis" in out
        assert "RESULT" not in out

    def test_incompatible_system_fails_on_every_grid(self, bad3_sphere, configs, capsys):
        # the two-path residual of bad3 reads 6.5e-3 on 9 x 9 and 1.7e-3 on 17 x 17,
        # while its pointwise compatibility defect stays near 0.44 on both
        bad3, sphere = bad3_sphere
        codes = {}
        for grid in ("9,9", "17,17"):
            codes[grid], _ = run(["solve-nu", "--system", bad3, "--surface", sphere,
                                  "--grid", grid, "--y0", "0.75,0", "--tol", "5e-3",
                                  "--out-dir", configs["out"]], capsys)
        assert codes == {"9,9": 1, "17,17": 1}

    def test_compatible_system_passes_on_a_coarse_grid(self, bad3_sphere, tmp_path,
                                                       configs, capsys):
        # H_X's two-path residual on 3 x 3 is RK4 error, 5.4e-7, while its
        # pointwise compatibility defect is rounding
        hx = tmp_path / "hx.json"
        hx.write_text(json.dumps({"n": 3, "kind": "modified_hamiltonian",
                                  "H": "(p1^2 + p2^2 + p3^2)/2 + x1*p2^2/5"}))
        _, sphere = bad3_sphere
        code, out = run(["solve-nu", "--system", str(hx), "--surface", sphere,
                         "--grid", "3,3", "--y0", "0.75,0", "--tol", "1e-7",
                         "--out-dir", configs["out"]], capsys)
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("RESULT solve-nu PASS")
        assert "two-path cell residual" in out

    def test_zero_t_end_is_exit_2(self, configs, capsys):
        code, out = run(["simulate-shift", "--system", configs["geo"],
                         "--surface", configs["circle"], "--t-end", "0",
                         "--out-dir", configs["out"]], capsys)
        assert code == 2
        assert "t_end must be nonzero and finite" in out
        assert "RESULT" not in out

    def test_gauge_test(self, configs, capsys, monkeypatch):
        built = []
        init = PointCalculus.__init__

        def counted(self, *args, **kwargs):
            built.append(args[2].x.shape[:-1])
            init(self, *args, **kwargs)

        monkeypatch.setattr(PointCalculus, "__init__", counted)
        code, out = run(["gauge-test", "--system", configs["geo"],
                         "--count", "5", "--out-dir", configs["out"]], capsys)
        assert code == 0
        assert "RESULT gauge-test PASS" in out
        # one calc over the 3 sample points for the base and one per gauge
        assert built == [(3,)] * 6
        lines = (Path(configs["out"]) / "gauge.csv").read_text().splitlines()
        assert lines[0] == "gauge_index,alpha_change,residual_change"
        assert [line.split(",")[0] for line in lines[1:]] == [str(k) for k in range(5) for _ in range(3)]


class TestOutputContract:
    def test_result_is_last_line(self, configs, capsys):
        _, out = run(["check-normality", "--system", configs["geo"],
                      "--points", "10", "--out-dir", configs["out"]], capsys)
        assert out.strip().splitlines()[-1].split()[0] == "RESULT"

    def test_byte_identical_reruns(self, configs, tmp_path, capsys):
        outs = []
        for sub in ("a", "b"):
            outdir = tmp_path / sub
            run(["check-normality", "--system", configs["geo"],
                 "--points", "25", "--seed", "7", "--out-dir", str(outdir)],
                capsys)
            outs.append((outdir / "residuals.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_csv_written(self, configs, tmp_path, capsys):
        outdir = tmp_path / "files"
        run(["simulate-shift", "--system", configs["bad"],
             "--surface", configs["circle"], "--step", "0.01",
             "--out-dir", str(outdir)], capsys)
        text = (outdir / "shift.csv").read_text()
        assert text.splitlines()[0] == "y1,t,x1,x2,p1,p2,phi_1"


class TestCrossCheck:
    def cross_check(self, tmp_path, capsys, V):
        cfg = tmp_path / "system.json"
        cfg.write_text(json.dumps({"n": 2, "kind": "explicit", "V": V,
                                   "Theta": ["0", "0"]}))
        return run(["cross-check", "--system", str(cfg),
                    "--out-dir", str(tmp_path / "out")], capsys)

    def test_identity_system_passes(self, tmp_path, capsys):
        code, out = self.cross_check(tmp_path, capsys, ["p1", "p2"])
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("RESULT cross-check PASS")

    def test_nan_oracle_rows_fail(self, tmp_path, capsys):
        # exp(exp(p1^2)) overflows, so its cancelling pair leaves NaN
        # coefficients in the canonical connection
        code, out = self.cross_check(
            tmp_path, capsys, ["p1 + exp(exp(p1^2)) - exp(exp(p1^2))", "p2"])
        rows = (tmp_path / "out" / "crosscheck.csv").read_text().splitlines()
        assert "connection_oracle,nan" in rows
        assert code == 1
        assert out.strip().splitlines()[-1] == "RESULT cross-check FAIL max_residual=nan"

    def test_all_oracle_points_skipped_fails(self, tmp_path, capsys):
        code, out = self.cross_check(tmp_path, capsys, ["0*p1", "0*p2"])
        assert "20 of 20 oracle points failed to evaluate (first SingularMetric: " in out
        assert "no connection-oracle point was evaluated" in out
        assert code == 1
        assert out.strip().splitlines()[-1].startswith("RESULT cross-check FAIL")


class _Recorder(argparse.Namespace):
    """A namespace that records the names of the attributes read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestFlags:
    # argv that reaches every flag read of its command
    ARGV = {
        "check-normality": ["--system", "{geo}", "--points", "5"],
        "solve-nu": ["--system", "{geo}", "--surface", "{circle}"],
        "simulate-shift": ["--system", "{geo}", "--surface", "{circle}", "--solve-nu",
                           "--t-end", "0.01", "--step", "0.005"],
        "gauge-test": ["--system", "{geo}", "--count", "1"],
        "cross-check": ["--system", "{flat}", "--step", "0.05"],
    }

    def test_every_command_is_covered(self):
        assert set(_subparsers()) == set(self.ARGV)

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_accepted_flags_are_the_flags_read(self, command, configs, capsys):
        accepted = {a.dest for a in _subparsers()[command]._actions
                    if a.option_strings and a.dest != "help"}
        argv = [command] + [arg.format(**configs) for arg in self.ARGV[command]]
        args = _Recorder(_reads=set())
        build_parser().parse_args(argv + ["--out-dir", configs["out"]], namespace=args)
        fn = args.fn
        args._reads.clear()
        assert fn(args) == 0
        assert args._reads == accepted

    @pytest.mark.parametrize("argv", [["gauge-test", "--tol", "1e-12"],
                                      ["solve-nu", "--surface", "{circle}", "--points", "5"],
                                      ["cross-check", "--points", "500"],
                                      ["check-normality", "--step", "0.1"]])
    def test_a_flag_the_command_does_not_read_is_exit_2(self, argv, configs, capsys):
        argv = argv[:1] + ["--system", configs["geo"]] + [a.format(**configs) for a in argv[1:]]
        assert main(argv + ["--out-dir", configs["out"]]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
