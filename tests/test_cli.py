import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rfcpca
from rfcpca.cli import main
from rfcpca.dataset import dataset_digest, read_csv_dir


def run(*argv):
    return main([str(a) for a in argv])


def run_process(*argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    env = dict(os.environ, PYTHONPATH=str(Path(rfcpca.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "rfcpca.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)


def assert_clean_exit(proc, code):
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.fixture
def burst_config(tmp_path):
    cfg = {
        "kind": "burst",
        "n_per_group": 3,
        "channels": 8,
        "length": 150,
        "rho": 0.34,
        "seed": 1,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def simulated(tmp_path, burst_config):
    out = tmp_path / "data"
    assert run("simulate", "--config", burst_config, "--out", out) == 0
    return out


class TestSimulate:
    def test_writes_trials_and_manifest(self, simulated):
        trials = sorted(simulated.glob("trial_*.csv"))
        assert len(trials) == 6
        manifest = json.loads((simulated / "manifest.json").read_text())
        assert manifest["dataset_sha256"] == dataset_digest(simulated)
        assert len(manifest["contaminated"]) == 4  # ceil(0.34 * 3) = 2 per group

    def test_idempotent(self, tmp_path, burst_config):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run("simulate", "--config", burst_config, "--out", out1) == 0
        assert run("simulate", "--config", burst_config, "--out", out2) == 0
        for f1, f2 in zip(sorted(out1.glob("*.csv")), sorted(out2.glob("*.csv"))):
            assert f1.read_bytes() == f2.read_bytes()

    def test_zero_rho_has_no_contamination(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "none", "n_per_group": 2, "channels": 4,
                                   "length": 100, "seed": 3}))
        out = tmp_path / "clean"
        assert run("simulate", "--config", cfg, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["contaminated"] == []

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "none", "n_per_group": 2, "channels": 4,
                                   "length": 100, "seed": 3, "typo_key": 1}))
        assert run("simulate", "--config", cfg, "--out", tmp_path / "x") == 2

    def test_missing_config_is_config_error(self, tmp_path):
        assert run("simulate", "--config", tmp_path / "nope.json", "--out", tmp_path / "x") == 2

    def test_roundtrip_read(self, simulated):
        dataset = read_csv_dir(simulated)
        assert dataset.n_series == 6
        assert dataset.n_channels == 8


class TestFit:
    def test_fcpca_single_cluster_all_ones(self, simulated, tmp_path):
        out = tmp_path / "fit.json"
        assert run("fit", "--data", simulated, "--variant", "fcpca", "-S", "1",
                   "--out", out) == 0
        doc = json.loads(out.read_text())
        u = np.asarray(doc["memberships"])
        assert np.all(u == 1.0)
        assert doc["provenance"]["dataset_sha256"] == dataset_digest(simulated)
        assert out.with_suffix(".memberships.csv").exists()

    def test_noise_variant_auto_lambda_embeds_curve(self, simulated, tmp_path):
        out = tmp_path / "fit_n.json"
        assert run("fit", "--data", simulated, "--variant", "n", "-S", "2",
                   "--lambda", "auto", "--seed", "2", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert "elbow_curve" in doc
        assert len(doc["elbow_curve"]) == 20

    def test_auto_grid_search_reports_selection(self, simulated, tmp_path):
        out = tmp_path / "fit_auto.json"
        assert run("fit", "--data", simulated, "--variant", "t", "--auto",
                   "-S", "2", "--v", "0.99", "--seed", "3", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert "selection" in doc
        assert doc["variant_params"]["alpha"] is not None

    def test_missing_data_dir_is_config_error(self, tmp_path):
        assert run("fit", "--data", tmp_path / "missing", "--variant", "fcpca",
                   "--out", tmp_path / "f.json") == 2


class TestEvaluate:
    def test_end_to_end(self, simulated, tmp_path):
        fit_path = tmp_path / "fit.json"
        assert run("fit", "--data", simulated, "--variant", "t", "-S", "2",
                   "--alpha", "0.34", "--v", "0.99", "--seed", "5", "--out", fit_path) == 0
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "per_object.csv"
        assert run("evaluate", "--fit", fit_path, "--manifest", simulated / "manifest.json",
                   "--out", report_path, "--csv", csv_path) == 0
        doc = json.loads(report_path.read_text())
        assert 0.0 <= doc["outlier_recall"] <= 1.0
        assert csv_path.exists()
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 6

    def test_hash_mismatch_exits_5(self, simulated, tmp_path):
        fit_path = tmp_path / "fit.json"
        run("fit", "--data", simulated, "--variant", "fcpca", "-S", "2", "--out", fit_path)
        manifest = json.loads((simulated / "manifest.json").read_text())
        manifest["dataset_sha256"] = "0" * 64
        other = tmp_path / "manifest_tampered.json"
        other.write_text(json.dumps(manifest))
        assert run("evaluate", "--fit", fit_path, "--manifest", other,
                   "--out", tmp_path / "r.json") == 5

    def test_missing_manifest_exits_2(self, simulated, tmp_path):
        fit_path = tmp_path / "fit.json"
        run("fit", "--data", simulated, "--variant", "fcpca", "-S", "2", "--out", fit_path)
        assert run("evaluate", "--fit", fit_path, "--manifest", tmp_path / "nope.json",
                   "--out", tmp_path / "r.json") == 2


class TestAnalyze:
    def test_emits_angles_and_contributions(self, simulated, tmp_path):
        fit_path = tmp_path / "fit.json"
        assert run("fit", "--data", simulated, "--variant", "fcpca", "-S", "2",
                   "--seed", "4", "--out", fit_path) == 0
        prefix = tmp_path / "diag"
        assert run("analyze", "--fit", fit_path, "--out-prefix", prefix) == 0
        angles = (tmp_path / "diag_angles.csv").read_text().splitlines()
        contribs = (tmp_path / "diag_contributions.csv").read_text().splitlines()
        assert angles[0] == "subspace_a,subspace_b,lag,angle_index,angle_rad"
        assert len(angles) > 1
        # contributions: header + 2 clusters x 2 lags x 8 channels
        assert len(contribs) == 1 + 2 * 2 * 8

    def test_noise_variant_includes_noise_subspace(self, simulated, tmp_path):
        fit_path = tmp_path / "fit_n.json"
        assert run("fit", "--data", simulated, "--variant", "n", "-S", "2",
                   "--lambda", "0.05", "--seed", "6", "--out", fit_path) == 0
        prefix = tmp_path / "noise_diag"
        assert run("analyze", "--fit", fit_path, "--data", simulated,
                   "--out-prefix", prefix) == 0
        text = (tmp_path / "noise_diag_contributions.csv").read_text()
        assert "noise" in text


class TestExitCodes:
    def test_malformed_fit_json_exits_2(self, simulated, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_process("evaluate", "--fit", bad, "--manifest", simulated / "manifest.json",
                           "--out", tmp_path / "r.json")
        assert_clean_exit(proc, 2)

    def test_analyze_failed_fit_exits_2(self, tmp_path):
        failed = tmp_path / "failed.json"
        failed.write_text(json.dumps({"error": "EmptyClusterError", "message": "cluster 0"}))
        proc = run_process("analyze", "--fit", failed, "--out-prefix", tmp_path / "diag")
        assert_clean_exit(proc, 2)

    def test_non_finite_csv_exits_2(self, simulated, tmp_path):
        trial = simulated / "trial_000.csv"
        lines = trial.read_text().splitlines()
        cells = lines[1].split(",")
        cells[0] = "nan"
        lines[1] = ",".join(cells)
        trial.write_text("\n".join(lines) + "\n")
        proc = run_process("fit", "--data", simulated, "--variant", "fcpca",
                           "--out", tmp_path / "f.json")
        assert_clean_exit(proc, 2)

    @pytest.mark.parametrize("cell", ["nan", "abc"])
    def test_bad_trial_parsed_on_pool_exits_2(self, simulated, tmp_path, monkeypatch,
                                              capsys, cell):
        import rfcpca.dataset as dataset_mod

        monkeypatch.setattr(dataset_mod, "_PARALLEL_MIN_BYTES", 0)
        monkeypatch.setattr(dataset_mod, "_usable_cpus", lambda: 2)
        trial = simulated / "trial_003.csv"
        lines = trial.read_text().splitlines()
        lines[5] = cell + lines[5][lines[5].index(","):]
        trial.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("fit", "--data", simulated, "--variant", "fcpca",
                   "--out", tmp_path / "f.json") == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "f.json").exists()

    @pytest.mark.parametrize("options", [
        ["--v", "1.5"],
        ["-m", "1.0"],
        ["--lambda", "abc"],
        ["--alpha", "1.5", "--variant", "t"],
        ["--max-lag", "0"],
    ], ids=["v", "m", "lambda", "alpha", "max_lag"])
    def test_invalid_fit_option_exits_2(self, simulated, tmp_path, options):
        proc = run_process("fit", "--data", simulated, "--out", tmp_path / "f.json", *options)
        assert_clean_exit(proc, 2)

    def test_manifest_with_unknown_key_exits_2(self, simulated, tmp_path):
        fit_path = tmp_path / "f.json"
        assert run("fit", "--data", simulated, "--out", fit_path) == 0
        manifest = json.loads((simulated / "manifest.json").read_text())
        manifest["unexpected"] = 1
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(manifest))
        proc = run_process("evaluate", "--fit", fit_path, "--manifest", bad,
                           "--out", tmp_path / "r.json")
        assert_clean_exit(proc, 2)

    def test_more_clusters_than_series_is_invalid_shape(self, simulated, tmp_path):
        proc = run_process("fit", "--data", simulated, "--variant", "fcpca", "-S", "50",
                           "--out", tmp_path / "f.json")
        assert_clean_exit(proc, 4)
        assert "InvalidShape" in proc.stderr


class TestReproduce:
    def test_unknown_experiment_exits_2(self, tmp_path):
        # argparse rejects the invalid choice with the usage exit code
        with pytest.raises(SystemExit) as exc:
            run("reproduce", "table9", "--out", tmp_path)
        assert exc.value.code == 2

    def test_tiny_run_writes_summary(self, tmp_path, monkeypatch):
        import rfcpca.cli as cli_mod

        def tiny_run_benchmark(kind, p_values, t_spec, replications, seed, rho=None,
                               progress=None, **kwargs):
            from rfcpca.experiments import run_benchmark as real
            return real(kind, [8], 150, 1, seed, n_per_group=3, rho=rho,
                        progress=progress, workers=1)

        monkeypatch.setattr(cli_mod, "run_benchmark", tiny_run_benchmark)
        out = tmp_path / "rep"
        assert run("reproduce", "table1", "-R", "1", "--seed", "3", "--out", out) == 0
        assert (out / "table1_replications.csv").exists()
        summary = (out / "table1_summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 4  # header + one row per variant
        meta = json.loads((out / "table1_meta.json").read_text())
        assert meta["provenance"]["tool"] == "rfcpca"
