import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import rfcpca
import rfcpca.dataset as dataset_mod
from conftest import SIDECAR_SPOILS, spoil_entry, summaries_entry
from rfcpca.cli import main
from rfcpca.core import fit_fcpca
from rfcpca.dataset import dataset_digest, read_csv_dir
from rfcpca.robust import fit_rfcpca_e, fit_rfcpca_n, fit_rfcpca_t, select_lambda_elbow


def run(*argv):
    return main([str(a) for a in argv])


# the CLI with every trial directory parsed on a pool of two workers
_CLI_ON_POOL = ("import sys, rfcpca.dataset as d; d._PARALLEL_MIN_BYTES = 0; "
                "d._usable_cpus = lambda: 2; from rfcpca.cli import main; "
                "sys.exit(main(sys.argv[1:]))")


def run_process(*argv, pool=False):
    """Run the CLI in a fresh interpreter, as a user would; with ``pool``,
    every trial directory is parsed on a process pool."""
    env = dict(os.environ, PYTHONPATH=str(Path(rfcpca.__file__).parents[1]))
    cli = ["-c", _CLI_ON_POOL] if pool else ["-m", "rfcpca.cli"]
    return subprocess.run([sys.executable, *cli, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)


def parse_on_pool(monkeypatch):
    monkeypatch.setattr(dataset_mod, "_PARALLEL_MIN_BYTES", 0)
    monkeypatch.setattr(dataset_mod, "_usable_cpus", lambda: 2)


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

    @pytest.mark.parametrize("options, library_fit", [
        (["--variant", "fcpca"], lambda d, seed: fit_fcpca(d, 2, seed=seed)),
        (["--variant", "e"], lambda d, seed: fit_rfcpca_e(d, 2, seed=seed)),
        (["--variant", "n", "--lambda", "0.05"],
         lambda d, seed: fit_rfcpca_n(d, 2, lam=0.05, seed=seed)),
        (["--variant", "n", "--lambda", "auto"],
         lambda d, seed: fit_rfcpca_n(d, 2, lam=select_lambda_elbow(d, 2, seed=seed).lambda_star,
                                      seed=seed)),
        (["--variant", "t", "--alpha", "0.25"],
         lambda d, seed: fit_rfcpca_t(d, 2, alpha=0.25, seed=seed)),
        (["--variant", "t"], lambda d, seed: fit_rfcpca_t(d, 2, seed=seed)),
    ], ids=["fcpca", "e", "n_lambda", "n_auto", "t_alpha", "t_default"])
    def test_cli_fit_equals_library_fit(self, simulated, tmp_path, options, library_fit):
        out = tmp_path / "fit.json"
        assert run("fit", "--data", simulated, *options, "--seed", "5", "--out", out) == 0
        doc = json.loads(out.read_text())
        fit = library_fit(read_csv_dir(simulated), 5)
        params = dict(fit.variant_params)
        if "retained" in params:
            params["retained"] = params["retained"].tolist()
        assert doc["memberships"] == fit.memberships.u.tolist()
        assert doc["objective_trace"] == fit.objective_trace
        assert doc["flagged"] == fit.flagged.tolist()
        assert doc["variant_params"] == params


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


class TestSimulateIntoUsedDirectory:
    @staticmethod
    def simulate(tmp_path, out, n_per_group):
        config = tmp_path / f"config{n_per_group}.json"
        config.write_text(json.dumps({"kind": "burst", "n_per_group": n_per_group,
                                      "channels": 4, "length": 120, "seed": 1}))
        return run("simulate", "--config", config, "--out", out)

    def test_trials_of_another_dataset_are_refused(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert self.simulate(tmp_path, out, 6) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        # three per group would leave trials 6-11 of the first dataset
        assert self.simulate(tmp_path, out, 3) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "trial_006.csv" in err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_a_dataset_that_overwrites_every_trial_may_reuse_it(self, tmp_path):
        out = tmp_path / "data"
        assert self.simulate(tmp_path, out, 3) == 0
        assert self.simulate(tmp_path, out, 6) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(list(out.glob("trial_*.csv"))) == len(manifest["group_labels"]) == 12
        assert manifest["dataset_sha256"] == dataset_digest(out)


class TestSidecar:
    """A fit gives the same bytes whether or not its summaries were kept."""

    @staticmethod
    def fit_bytes(data_dir, out):
        code = run("fit", "--data", data_dir, "--variant", "n", "-S", "2",
                   "--lambda", "0.05", "--seed", "6", "--out", out)
        return code, out.read_bytes()

    @pytest.fixture
    def reference(self, simulated, tmp_path):
        """The fit of a copy of ``simulated`` that has never been read."""
        shutil.copytree(simulated, tmp_path / "pristine")
        code, doc = self.fit_bytes(tmp_path / "pristine", tmp_path / "reference.json")
        assert code == 0
        return code, doc

    @pytest.mark.parametrize("pool", [False, True], ids=["serial", "pool"])
    def test_miss_then_hits(self, simulated, tmp_path, reference, monkeypatch, pool):
        if pool:
            parse_on_pool(monkeypatch)
        for k in range(3):
            assert self.fit_bytes(simulated, tmp_path / f"fit{k}.json") == reference
        assert summaries_entry(simulated).is_dir()

    def test_read_only_directory(self, simulated, tmp_path, reference, read_only,
                                 monkeypatch):
        # the parse needs no temporary directory: any use of one fails here
        (tmp_path / "file").write_text("not a directory")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "file" / "tmp"))
        read_only(simulated)
        for k in range(2):
            assert self.fit_bytes(simulated, tmp_path / f"fit{k}.json") == reference
        assert not (simulated / dataset_mod.SIDECAR_DIR).exists()

    @pytest.mark.parametrize("how", SIDECAR_SPOILS)
    def test_spoiled_entry(self, simulated, tmp_path, reference, how):
        assert self.fit_bytes(simulated, tmp_path / "first.json") == reference
        spoil_entry(summaries_entry(simulated), how)
        assert self.fit_bytes(simulated, tmp_path / "spoiled.json") == reference

    def test_trial_edited_after_the_first_fit(self, simulated, tmp_path):
        self.fit_bytes(simulated, tmp_path / "before.json")
        trial = simulated / "trial_002.csv"
        lines = trial.read_text().splitlines()
        trial.write_text("\n".join(lines[:-1]) + "\n")
        shutil.copytree(simulated, tmp_path / "pristine",
                        ignore=shutil.ignore_patterns(dataset_mod.SIDECAR_DIR))
        assert (self.fit_bytes(simulated, tmp_path / "after.json")
                == self.fit_bytes(tmp_path / "pristine", tmp_path / "pristine.json"))
        doc = json.loads((tmp_path / "after.json").read_text())
        assert doc["provenance"]["dataset_sha256"] == dataset_digest(simulated)


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
        parse_on_pool(monkeypatch)
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
        # trials that do not load leave no entry behind
        assert list((simulated / dataset_mod.SIDECAR_DIR).iterdir()) == []

    @pytest.mark.parametrize("pool", [False, True], ids=["serial", "pool"])
    @pytest.mark.parametrize("empty", [0, 3])
    def test_a_header_only_trial_exits_2_naming_it(self, simulated, tmp_path, pool, empty):
        trial = simulated / f"trial_{empty:03d}.csv"
        trial.write_text(trial.read_text().splitlines()[0] + "\n")
        proc = run_process("fit", "--data", simulated, "--variant", "fcpca",
                           "--out", tmp_path / "f.json", pool=pool)
        assert_clean_exit(proc, 2)
        assert proc.stderr == (f"error: cannot load {simulated}: "
                               f"ValueError: {trial} holds no data rows\n")

    # faults by trial: a number of data rows to keep, or a cell that
    # replaces the first cell of the fifth data row
    @pytest.mark.parametrize("faults, code, message", [
        ({1: "nan", 4: "abc"}, 2, "error: cannot load {data}: ValueError: could not convert "
                                  "string 'abc' to float64 at row 4, column 1."),
        ({1: 2, 3: "nan"}, 2, "error: cannot load {data}: NonFiniteInput: series 3 contains "
                              "non-finite entries"),
        ({0: 2, 2: "inf", 4: "abc"}, 2, "error: cannot load {data}: ValueError: could not "
                                        "convert string 'abc' to float64 at row 4, column 1."),
        ({1: 2, 4: 2}, 4, "fit error: LagTooLarge: series 1 has length 2 <= max lag 2"),
    ], ids=["nan_then_unparsable", "short_then_nan", "short_inf_unparsable", "two_short"])
    @pytest.mark.parametrize("pool", [False, True], ids=["serial", "pool"])
    def test_the_first_fault_of_the_first_kind_wins(self, simulated, tmp_path, monkeypatch,
                                                    capsys, pool, faults, code, message):
        # a trial that does not parse, then one of the wrong shape or not
        # finite, then one too short for the lags, each at its lowest index
        if pool:
            parse_on_pool(monkeypatch)
        for i, fault in faults.items():
            trial = simulated / f"trial_{i:03d}.csv"
            lines = trial.read_text().splitlines()
            if isinstance(fault, int):
                lines = lines[:1 + fault]
            else:
                lines[5] = fault + lines[5][lines[5].index(","):]
            trial.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("fit", "--data", simulated, "--out", tmp_path / "f.json") == code
        assert capsys.readouterr().err == message.format(data=simulated) + "\n"
        # no entry kept, no scratch directory left
        sidecar = simulated / dataset_mod.SIDECAR_DIR
        assert not sidecar.exists() or list(sidecar.iterdir()) == []

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

    def test_noise_variant_without_regular_clusters_is_invalid_shape(self, simulated,
                                                                      tmp_path):
        proc = run_process("fit", "--data", simulated, "--variant", "n", "-S", "0",
                           "--lambda", "0.5", "--out", tmp_path / "f.json")
        assert_clean_exit(proc, 4)
        assert "InvalidShape" in proc.stderr

    def test_more_clusters_than_series_is_invalid_shape(self, simulated, tmp_path):
        proc = run_process("fit", "--data", simulated, "--variant", "fcpca", "-S", "50",
                           "--out", tmp_path / "f.json")
        assert_clean_exit(proc, 4)
        assert "InvalidShape" in proc.stderr

    @pytest.mark.parametrize("command", ["fit", "evaluate", "simulate"])
    def test_output_under_a_regular_file_exits_3(self, simulated, burst_config, tmp_path,
                                                 capsys, command):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        fit_path = tmp_path / "f.json"
        assert run("fit", "--data", simulated, "--out", fit_path) == 0
        argv = {
            "fit": ["fit", "--data", simulated, "--out", blocker / "f.json"],
            "evaluate": ["evaluate", "--fit", fit_path, "--manifest",
                         simulated / "manifest.json", "--out", blocker / "r.json"],
            "simulate": ["simulate", "--config", burst_config, "--out", blocker / "data"],
        }[command]
        capsys.readouterr()
        assert run(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


class TestReproduce:
    def test_unknown_experiment_exits_2(self, tmp_path):
        # argparse rejects the invalid choice with the usage exit code
        with pytest.raises(SystemExit) as exc:
            run("reproduce", "table9", "--out", tmp_path)
        assert exc.value.code == 2

    def test_tiny_run_writes_summary(self, tmp_path, monkeypatch):
        import rfcpca.cli as cli_mod

        def tiny_run_benchmark(kind, p_values, t_spec, replications, seed, progress=None):
            from rfcpca.experiments import run_benchmark as real
            return real(kind, [8], 150, 1, seed, n_per_group=3, progress=progress, workers=1)

        monkeypatch.setattr(cli_mod, "run_benchmark", tiny_run_benchmark)
        out = tmp_path / "rep"
        assert run("reproduce", "table1", "-R", "1", "--seed", "3", "--out", out) == 0
        assert (out / "table1_replications.csv").exists()
        summary = (out / "table1_summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 4  # header + one row per variant
        meta = json.loads((out / "table1_meta.json").read_text())
        assert meta["provenance"]["tool"] == "rfcpca"
