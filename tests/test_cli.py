import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import types
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from expanderlab import cli, dynamics, spectral
from expanderlab.cli import RunConfig, _build_parser, main, resolve_config
from expanderlab.exponents import derived_exponents
from expanderlab.profiles import RadialGrid


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def test_import_leaves_out_scipy_interpolate():
    # every command pays for what importing the CLI loads; the semigroup's
    # spline, the DOP853 tableau and the Sturm counts' stepper are the
    # package's own, so none of these scipy subpackages is loaded
    left_out = ("scipy.interpolate", "scipy.integrate", "scipy.special",
                "scipy.optimize", "scipy.sparse")
    code = ("import sys, expanderlab.cli; print(sorted(m for m in sys.modules"
            f" if m.startswith({left_out!r})))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


class TestExponentsCommand:
    def test_beyond_threshold_example(self, tmp_path):
        code = run(tmp_path, "exponents", "--d", "11", "--p", "7")
        assert code == 0
        doc = json.loads((tmp_path / "exponents.json").read_text())
        assert abs(doc["exponents"]["p_jl"] - 6.92207) < 1e-4
        assert doc["exponents"]["regime"] == "beyond-jl"
        assert doc["config"]["d"] == 11

    def test_infinite_threshold_serialized_as_null(self, tmp_path):
        run(tmp_path, "exponents", "--d", "5", "--p", "3")
        doc = json.loads((tmp_path / "exponents.json").read_text())
        assert doc["exponents"]["p_jl"] is None
        assert doc["exponents"]["p_jl_finite"] is False

    def test_determinism_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["exponents", "--d", "5", "--p", "3", "--out", str(a)])
        main(["exponents", "--d", "5", "--p", "3", "--out", str(b)])
        ja = (a / "exponents.json").read_bytes()
        jb = (b / "exponents.json").read_bytes()
        # byte-identical except the out path inside the echoed config
        assert ja.replace(str(a).encode(), b"X") == jb.replace(
            str(b).encode(), b"X")
        # timestamps live in the separate metadata file
        meta = json.loads((a / "run_meta.json").read_text())
        assert "timestamp" in meta
        assert b"timestamp" not in ja

    def test_domain_error_exit_65(self, tmp_path, capsys):
        assert run(tmp_path, "exponents", "--d", "2", "--p", "3") == 65
        assert run(tmp_path, "exponents", "--d", "5", "--p", "0.5") == 65

    def test_non_finite_alpha_exit_65(self, tmp_path):
        assert run(tmp_path, "alpha-star", "--d", "5", "--p", "3",
                   "--alpha-min", "nan") == 65
        assert run(tmp_path, "spectrum", "--d", "5", "--p", "3",
                   "--alpha", "inf") == 65

    def test_usage_error_exit_64(self):
        with pytest.raises(SystemExit) as exc:
            main(["not-a-command"])
        assert exc.value.code == 64

    def test_module_runs_unregistered(self, monkeypatch):
        # `python -m trace --module expanderlab.cli` runs the file as
        # __main__ while sys.modules["__main__"] is trace itself
        name = "expanderlab.stand_in_main"
        monkeypatch.setitem(sys.modules, name, types.ModuleType(name))
        path = Path(cli.__file__)
        namespace = {"__name__": name, "__package__": "expanderlab"}
        exec(compile(path.read_text(), str(path), "exec"), namespace)
        assert namespace["_FIELD_TYPES"] == cli._FIELD_TYPES


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("d = 4\np = 2.0\n# comment\nrho-max = 20\n")
        code = main(["exponents", "--config", str(cfgfile), "--p", "2.5",
                     "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "exponents.json").read_text())
        assert doc["config"]["d"] == 4          # from file
        assert doc["config"]["p"] == 2.5        # flag wins
        assert doc["config"]["rho_max"] == 20.0
        assert doc["exponents"]["d"] == 4

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(RunConfig)[1:]])
    def test_every_field_by_flag_and_by_key(self, tmp_path, name):
        kind = {"d": int, "alpha_steps": int, "seed": int,
                "out": str, "format": str}.get(name, float)
        text = {int: "7", float: "1.5", str: "csv"}[kind]
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{name} = {text}\n")
        parser = _build_parser()
        for argv in (["--" + name.replace("_", "-"), text],
                     ["--config", str(cfgfile)]):
            cfg = resolve_config(parser.parse_args(["exponents", *argv]))
            value = getattr(cfg, name)
            assert type(value) is kind and value == kind(text)

    def test_command_is_not_a_config_key(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("command = demo\n")
        assert main(["exponents", "--config", str(cfgfile),
                     "--out", str(tmp_path)]) == 65

    @pytest.mark.parametrize("line", ["d = 5.5", "d = abc", "p = abc",
                                      "alpha_steps = 2.0"])
    def test_unparsable_value_is_usage_error(self, tmp_path, capsys, line):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(line + "\n")
        assert main(["exponents", "--config", str(cfgfile),
                     "--out", str(tmp_path)]) == 64
        assert "config key" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("nope = 1\n")
        assert main(["exponents", "--config", str(cfgfile),
                     "--out", str(tmp_path)]) == 65


class TestProfileCommands:
    def test_profile_artifacts(self, tmp_path):
        code = run(tmp_path, "profile", "--d", "5", "--p", "3",
                   "--alpha", "1.0")
        assert code == 0
        lines = (tmp_path / "profile.csv").read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert any("alpha=1.0" in c for c in comments)  # config echo
        assert data[0] == "rho,u,du"
        assert len(data) == 1602
        first = data[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 1.0
        doc = json.loads((tmp_path / "profile.json").read_text())
        assert doc["ell"] > 0
        assert doc["residual_max"] < 1e-7

    def test_profile_requires_alpha(self, tmp_path):
        assert run(tmp_path, "profile", "--d", "5", "--p", "3") == 65

    def test_ell_sweep(self, tmp_path):
        code = run(tmp_path, "ell-sweep", "--d", "5", "--p", "3",
                   "--alpha-min", "0.5", "--alpha-max", "2.0",
                   "--alpha-steps", "3")
        assert code == 0
        doc = json.loads((tmp_path / "ell_sweep.json").read_text())
        assert len(doc["rows"]) == 3
        assert all(row["error"] is None for row in doc["rows"])

    @pytest.mark.parametrize("argv", [
        ("profile", "--alpha", "1", "--drho", "nan"),
        ("profile", "--alpha", "1", "--rho-max", "inf"),
        ("profile", "--alpha", "nan"),
        ("ell-sweep", "--alpha-min", "0.5", "--alpha-max", "2.0",
         "--alpha-steps", "-3"),
        # rho_max / drho overflows to inf
        ("profile", "--alpha", "1", "--rho-max", "1e308"),
        # finite node count far past the grid's node ceiling
        ("profile", "--alpha", "1", "--rho-max", "1e300", "--drho", "1"),
        # dtau > 0 but (tau1 - tau0) / dtau far past the step ceiling
        ("evolve", "--alpha", "1", "--tau0", "0", "--tau1", "1",
         "--dtau", "1e-300"),
        ("demo", "--dtau", "1e-300"),
        # 2e6 steps, but 1e10 + 5e-7 == 1e10: tau would never move
        ("evolve", "--alpha", "1", "--tau0", "1e10", "--tau1", "10000000001",
         "--dtau", "5e-7"),
        ("semigroup-check", "--seed", "-1"),
        # alpha^(2p-1) in the Taylor start overflows
        ("profile", "--alpha", "1e200"),
        # initial data past the blow-up threshold
        ("evolve", "--alpha", "1", "--scale", "1e300"),
        ("demo", "--eps", "0"),
        ("demo", "--eps", "-1"),
        # L^0.5 is a quasi-norm
        ("evolve", "--alpha", "1", "--q", "0.5"),
        ("evolve", "--alpha", "1", "--r", "0.5"),
        ("alpha-star", "--alpha-min", "0.2", "--alpha-max", "0.1"),
    ], ids=["drho-nan", "rho-max-inf", "alpha-nan", "alpha-steps-negative",
            "rho-max-overflow", "rho-max-huge", "evolve-dtau-tiny",
            "demo-dtau-tiny", "evolve-dtau-below-spacing", "seed-negative",
            "alpha-overflow", "scale-overflow", "demo-eps-zero",
            "demo-eps-negative", "evolve-q-below-one",
            "evolve-r-below-one", "alpha-min-above-max"])
    def test_invalid_flag_exit_65(self, tmp_path, argv):
        assert run(tmp_path, *argv, "--d", "5", "--p", "3") == 65


class TestSpectrumCommands:
    def test_alpha_star_found(self, tmp_path):
        code = run(tmp_path, "alpha-star", "--d", "5", "--p", "3",
                   "--tol", "1e-4")
        assert code == 0
        doc = json.loads((tmp_path / "alpha_star.json").read_text())
        assert doc["found"] is True
        assert abs(doc["alpha_star"] - 1.71624) < 1e-3

    def test_alpha_star_absent_exit_2(self, tmp_path):
        code = run(tmp_path, "alpha-star", "--d", "11", "--p", "7")
        assert code == 2
        doc = json.loads((tmp_path / "alpha_star.json").read_text())
        assert doc["found"] is False
        assert "no alpha* in bracket" in doc["diagnostic"]

    @pytest.mark.parametrize("argv", [
        ("alpha-star", "--d", "5", "--p", "3", "--alpha-min", "5"),
        # below Fujita the count at alpha = 0.1 is already nonzero
        ("alpha-star", "--d", "3", "--p", "1.5"),
        ("spectrum", "--d", "5", "--p", "3", "--alpha", "1", "--drho", "0.1"),
        # the growth probe's (4 pi v)^(d/2) leaves the double range
        ("semigroup-check", "--d", "64", "--p", "3"),
        # alpha^(p-2) on the axis overflows at a subnormal alpha
        ("spectrum", "--d", "3", "--p", "1.01", "--alpha", "5e-324"),
    ], ids=["alpha-min-counted", "below-fujita", "matrix-grid-coarse",
            "semigroup-d64", "alpha-subnormal"])
    def test_input_fault_exit_65(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == 65
        assert capsys.readouterr().err.startswith("invalid domain: ")

    def test_spectrum_csv_schema(self, tmp_path):
        code = run(tmp_path, "spectrum", "--d", "5", "--p", "3",
                   "--alpha", "2.5")
        assert code == 0
        lines = [ln for ln in (tmp_path / "spectrum.csv").read_text()
                 .splitlines() if not ln.startswith("#")]
        assert lines[0] == "alpha,lambda,zero_count,method"
        methods = {ln.split(",")[3] for ln in lines[1:]}
        assert {"shooting", "matrix"} <= methods

    def test_spectrum_alpha_range(self, tmp_path):
        code = run(tmp_path, "spectrum", "--d", "5", "--p", "3",
                   "--alpha-min", "2.0", "--alpha-max", "3.0",
                   "--alpha-steps", "2")
        assert code == 0
        lines = [ln for ln in (tmp_path / "spectrum.csv").read_text()
                 .splitlines() if not ln.startswith("#")]
        alphas = {ln.split(",")[0] for ln in lines[1:]}
        assert alphas == {"2.0", "3.0"}

    def test_spectrum_integrates_once_per_alpha(self, tmp_path, monkeypatch):
        # the matrix check reads the profile the shooting integrated
        integrate_profile = spectral.integrate_profile
        integrations = []

        def counted_profile(*args, **kwargs):
            integrations.append(args)
            return integrate_profile(*args, **kwargs)

        monkeypatch.setattr(spectral, "integrate_profile", counted_profile)
        assert run(tmp_path, "spectrum", "--d", "5", "--p", "3",
                   "--alpha", "5") == 0
        assert len(integrations) == 1

    def test_spectrum_matrix_rows_resolved(self, tmp_path):
        # at alpha = 40 the default grid puts 1-2 cells across the axis
        # spike of V; the matrix rows are those of a grid that resolves it
        assert run(tmp_path, "spectrum", "--d", "5", "--p", "3",
                   "--alpha", "40") == 0
        rows = [ln.split(",") for ln in (tmp_path / "spectrum.csv")
                .read_text().splitlines() if not ln.startswith("#")][1:]
        shooting = [float(r[1]) for r in rows if r[3] == "shooting"]
        matrix = [float(r[1]) for r in rows if r[3] == "matrix"]
        params = derived_exponents(5, 3.0)
        resolved = RadialGrid.uniform(16.0, 0.5 / math.sqrt(4800.0))
        assert matrix == spectral.matrix_spectrum(40.0, params, resolved,
                                                  cutoff=0.0)
        assert len(matrix) == len(shooting) == 2
        for lam, ref in zip(matrix, shooting):
            assert abs(lam - ref) <= max(1e-4 * abs(ref), 1e-6)

    def test_spectrum_eigenfunction_export(self, tmp_path):
        code = run(tmp_path, "spectrum", "--d", "5", "--p", "3",
                   "--alpha", "2.5", "--eigenfunctions")
        assert code == 0
        files = list(Path(tmp_path).glob("eigenfunction_*.csv"))
        assert files
        assert (tmp_path / "eigenfunction_2.5_0.csv").exists()
        lines = [ln for ln in files[0].read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "rho,f"

    def test_eigenfunction_files_one_per_pair(self, tmp_path):
        # three alphas that print alike under %g
        code = run(tmp_path, "spectrum", "--d", "5", "--p", "3",
                   "--alpha-min", "5", "--alpha-max", "5.000001",
                   "--alpha-steps", "3", "--eigenfunctions")
        assert code == 0
        rows = json.loads((tmp_path / "spectrum.json").read_text())["rows"]
        names = {f"eigenfunction_{r['alpha']!r}_0.csv" for r in rows}
        assert len(names) == 3
        files = {f.name for f in tmp_path.glob("eigenfunction_*.csv")}
        assert names <= files and len(files) == len(rows)
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert len(set(meta["artifacts"])) == len(meta["artifacts"])

    @pytest.mark.parametrize("p, n_pairs", [("3", 0), ("1.3", 1)])
    def test_spectrum_alpha_zero(self, tmp_path, p, n_pairs):
        # alpha = 0 is the zero profile; its top eigenvalue is
        # 1/(p-1) - d/2, positive only below p = 1 + 2/d
        assert run(tmp_path, "spectrum", "--d", "5", "--p", p,
                   "--alpha", "0") == 0
        rows = json.loads((tmp_path / "spectrum.json").read_text())["rows"]
        assert len(rows) == n_pairs


class TestDynamicsCommands:
    def test_semigroup_check(self, tmp_path):
        code = run(tmp_path, "semigroup-check", "--d", "5", "--p", "3")
        assert code == 0
        doc = json.loads((tmp_path / "semigroup_check.json").read_text())
        assert doc["pass"] is True
        assert doc["smoothing"]["pass"] is True

    def test_semigroup_check_below_fujita(self, tmp_path):
        # q_c = d (p - 1) / 2 = 0.75 < 1: the growth probe leaves out
        # L^q_c and keeps L^1, L^2 and L^(2 q_c)
        assert run(tmp_path, "semigroup-check", "--d", "3", "--p", "1.5") == 0
        doc = json.loads((tmp_path / "semigroup_check.json").read_text())
        assert set(doc["growth_rates"]) == {"eta=1", "eta=2", "eta=1.5"}
        assert doc["pass"] is True

    def test_evolve_static_profile(self, tmp_path):
        code = run(tmp_path, "evolve", "--d", "5", "--p", "3",
                   "--alpha", "1.0", "--tau0", "0", "--tau1", "1",
                   "--dtau", "0.01")
        assert code == 0
        doc = json.loads((tmp_path / "evolve.json").read_text())
        assert doc["static_check"]["pass"] is True
        lines = [ln for ln in (tmp_path / "trajectory.csv").read_text()
                 .splitlines() if not ln.startswith("#")]
        assert lines[0] == "tau,t,l1,lq,lr,lpr,l2w,dist_ref"

    def test_evolve_large_p_stops_before_overflow(self, tmp_path):
        # |v|^60 overflows once max|v| > 1.4e5, below the 1e6 threshold;
        # the run stops at 2^(1000/60) instead
        code = run(tmp_path, "evolve", "--d", "5", "--p", "60",
                   "--alpha", "1", "--tau0", "0", "--tau1", "1",
                   "--scale", "1.5")
        assert code == 0
        doc = json.loads((tmp_path / "evolve.json").read_text())
        assert doc["blown_up"] is True

    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(p=st.floats(1.5, 80.0), scale=st.floats(0.5, 1e3))
    def test_evolve_exit_code_is_documented(self, p, scale):
        with tempfile.TemporaryDirectory() as out:
            code = main(["evolve", "--d", "5", "--p", repr(p),
                         "--alpha", "1", "--tau0", "0", "--tau1", "0.05",
                         "--scale", repr(scale), "--out", out])
        assert code in (0, 64, 65)

    @pytest.mark.parametrize("data", [
        ("--alpha", "1e-200"), ("--alpha", "1e-300"), ("--alpha", "5e-324"),
        ("--alpha", "1", "--scale", "1e-200"),
        ("--alpha", "1", "--scale", "5e-324")])
    def test_evolve_tiny_data_exit_0(self, tmp_path, data):
        # p max|v|^(p-1) underflows to 0: the run steps without a cap
        assert run(tmp_path, "evolve", "--d", "5", "--p", "3", *data,
                   "--tau0", "0", "--tau1", "0.05") == 0
        doc = json.loads((tmp_path / "evolve.json").read_text())
        assert doc["tau1"] == pytest.approx(0.05)
        assert doc["blown_up"] is False

    def test_demo_end_to_end(self, tmp_path):
        code = run(tmp_path, "demo", "--d", "5", "--p", "3",
                   "--q", "2", "--r", "10")
        assert code == 0
        doc = json.loads((tmp_path / "demo.json").read_text())
        assert doc["pass"] is True
        assert (tmp_path / "demo_trajectory.csv").exists()

    def test_demo_failure_names_its_checks(self, tmp_path, capsys):
        # tau in [-12, -8] spans 4 / ln 10 = 1.74 decades, too few for the
        # blow-up fit, which needs 2; every other check holds
        assert run(tmp_path, "demo", "--d", "5", "--p", "3",
                   "--tau1", "-8") == 2
        out = capsys.readouterr().out
        assert out.startswith("demo FAIL")
        assert "failed checks: blowup_fit_quality\n" in out

    def test_demo_oversized_seed_exit_2(self, tmp_path, capsys):
        # the branch blows up before the delta fit window opens: a failed
        # check, not a runtime error
        assert run(tmp_path, "demo", "--d", "5", "--p", "3",
                   "--eps", "1") == 2
        out = capsys.readouterr().out
        assert out.startswith("demo FAIL")
        assert "ancient_delta" in out.splitlines()[1]

    def test_demo_huge_r_passes(self, tmp_path, capsys):
        # at r = 1e300 the cut of the L^(pr) norms leaves only the top
        # mode's axis node, of weight 0; the norm is then summed over the
        # nodes of positive weight, and is their maximum
        assert run(tmp_path, "demo", "--d", "5", "--p", "3",
                   "--r", "1e300") == 0
        assert capsys.readouterr().out.startswith(
            "demo PASS: lambda_bar=0.097089")

    def test_demo_window_where_exp_tau_underflows(self, tmp_path, capsys):
        # e^tau is 0.0 below tau ~ -745: the slope is fitted on
        # log ||.||_r - growth_exponent(r) tau, never on t itself
        assert run(tmp_path, "demo", "--d", "5", "--p", "3", "--tau0",
                   "-800", "--tau1", "-790", "--dtau", "0.05") == 0
        assert capsys.readouterr().out.startswith("demo PASS")
        # nor does the t column read 0.0 there: below the normal floats it
        # is a 17-digit decimal e^tau
        rows = [ln.split(",") for ln in (tmp_path / "demo_trajectory.csv")
                .read_text().splitlines() if not ln.startswith("#")]
        assert rows[0][:2] == ["tau", "t"]
        assert rows[1][:2] == ["-800.0", "3.6678745841776872E-348"]
        assert all(Decimal(row[1]) > 0 for row in rows[1:])

    @pytest.mark.parametrize("argv, message", [
        (("--tau0", "-2", "--tau1", "-12"), "need tau1 > tau0"),
        (("--dtau", "1e-9"), "from tau0=-12.0 to tau1=-2.0"),
    ], ids=["tau-order", "dtau-steps"])
    def test_demo_window_refused_before_selection(self, tmp_path, capsys,
                                                  monkeypatch, argv, message):
        def select(*args, **kwargs):
            raise AssertionError("selection ran")

        monkeypatch.setattr(dynamics, "select_unstable_expander", select)
        assert run(tmp_path, "demo", "--d", "5", "--p", "3", *argv) == 65
        assert message in capsys.readouterr().err

    def test_demo_beyond_threshold_exit_65(self, tmp_path):
        assert run(tmp_path, "demo", "--d", "11", "--p", "7",
                   "--q", "2", "--r", "40") == 65

    # the demo across the unstable regime at its default grid; (5,3) is
    # test_demo_end_to_end.  At (3,3) and (4,2) the profile has not yet
    # reached its rho^(-2/(p-1)) tail on the last decade [1.6, 16].
    @pytest.mark.parametrize("d, p", [
        ("3", "3"), ("4", "2"),
        *(pytest.param(d, p, marks=pytest.mark.slow) for d, p in (
            ("3", "7"), ("4", "4"), ("5", "2"), ("5", "5"), ("6", "2"),
            ("6", "3"), ("8", "2"), ("10", "2")))])
    def test_demo_passes_across_regime(self, tmp_path, capsys, d, p):
        assert run(tmp_path, "demo", "--d", d, "--p", p) == 0
        assert capsys.readouterr().out.startswith("demo PASS")
