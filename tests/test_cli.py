import json
from pathlib import Path

import pytest

from expanderlab.cli import main


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


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

    def test_spectrum_eigenfunction_export(self, tmp_path):
        code = run(tmp_path, "spectrum", "--d", "5", "--p", "3",
                   "--alpha", "2.5", "--eigenfunctions")
        assert code == 0
        files = list(Path(tmp_path).glob("eigenfunction_*.csv"))
        assert files
        lines = [ln for ln in files[0].read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "rho,f"


class TestDynamicsCommands:
    def test_semigroup_check(self, tmp_path):
        code = run(tmp_path, "semigroup-check", "--d", "5", "--p", "3")
        assert code == 0
        doc = json.loads((tmp_path / "semigroup_check.json").read_text())
        assert doc["pass"] is True
        assert doc["smoothing"]["pass"] is True

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

    def test_demo_end_to_end(self, tmp_path):
        code = run(tmp_path, "demo", "--d", "5", "--p", "3",
                   "--q", "2", "--r", "10")
        assert code == 0
        doc = json.loads((tmp_path / "demo.json").read_text())
        assert doc["pass"] is True
        assert (tmp_path / "demo_trajectory.csv").exists()

    def test_demo_beyond_threshold_exit_65(self, tmp_path):
        assert run(tmp_path, "demo", "--d", "11", "--p", "7",
                   "--q", "2", "--r", "40") == 65
