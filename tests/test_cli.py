import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest

import rfcpca
import rfcpca.cli as cli_mod
import rfcpca.core as core
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


# faults by trial: a number of data rows to keep, or a cell that replaces
# the first cell of the fifth data row; with the exit code and the message
# of a fit of those trials
_FIRST_FAULTS = [
    ({1: "nan", 4: "abc"}, 2, "error: cannot load {data}: ValueError: could not convert "
                              "string 'abc' to float64 at row 4, column 1."),
    ({1: 2, 3: "nan"}, 2, "error: cannot load {data}: NonFiniteInput: series 3 contains "
                          "non-finite entries"),
    ({0: 2, 2: "inf", 4: "abc"}, 2, "error: cannot load {data}: ValueError: could not "
                                    "convert string 'abc' to float64 at row 4, column 1."),
    ({1: 2, 4: 2}, 4, "fit error: LagTooLarge: series 1 has length 2 <= max lag 2"),
    # 1e200 is finite, but its square overflows the trial's summaries
    ({1: "nan", 3: "1e200"}, 2, "error: cannot load {data}: NonFiniteInput: series 1 contains "
                                "non-finite entries"),
    ({1: 2, 3: "1e200"}, 4, "fit error: LagTooLarge: series 1 has length 2 <= max lag 2"),
]
_FIRST_FAULT_IDS = ["nan_then_unparsable", "short_then_nan", "short_inf_unparsable", "two_short",
                    "nan_then_overflow", "short_then_overflow"]
# a fit summarises each trial as it parses it, so a trial whose summaries
# overflow ranks with a non-finite trial; read_csv_dir checks the entries of
# every trial before any is summarised
_FIT_FAULTS = _FIRST_FAULTS + [
    ({1: "1e200", 3: "nan"}, 2, "error: cannot load {data}: NonFiniteInput: series 1 has "
                                "lag summaries that overflow"),
]
_FIT_FAULT_IDS = _FIRST_FAULT_IDS + ["overflow_then_nan"]


def write_faults(data_dir, faults):
    for i, fault in faults.items():
        trial = data_dir / f"trial_{i:03d}.csv"
        lines = trial.read_text().splitlines()
        if isinstance(fault, int):
            lines = lines[:1 + fault]
        else:
            lines[5] = fault + lines[5][lines[5].index(","):]
        trial.write_text("\n".join(lines) + "\n")


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

    @pytest.mark.parametrize("key", ["length", "channels", "n_per_group"])
    def test_a_config_too_large_to_allocate_is_a_config_error(self, tmp_path, capsys, key):
        # about 35 PiB, past any 64-bit address space: no page is touched
        config = {"kind": "burst", "n_per_group": 2, "channels": 4, "length": 100, "seed": 3}
        config[key] = 10**15
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        assert run("simulate", "--config", cfg, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot simulate {cfg}: MemoryError")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("fault", ["no_noise_weight", "lag_too_large"])
    def test_a_noise_subspace_that_cannot_be_made_exits_4(self, tmp_path, fault):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": "burst", "n_per_group": 4, "channels": 4,
                                      "length": 300, "seed": 3}))
        data = tmp_path / "data"
        assert run("simulate", "--config", config, "--out", data) == 0
        fit_path = tmp_path / "fit_n.json"
        # a noise multiplier this large leaves the noise column no weight
        lam = "1000000" if fault == "no_noise_weight" else "0.05"
        assert run("fit", "--data", data, "--variant", "n", "--lambda", lam, "-m", "1.2",
                   "--out", fit_path) == 0
        if fault == "lag_too_large":
            # axes for as many lags as the series have samples
            doc = json.loads(fit_path.read_text())
            doc["axes"] = [per_lag * 150 for per_lag in doc["axes"]]
            fit_path.write_text(json.dumps(doc))
        proc = run_process("analyze", "--fit", fit_path, "--data", data,
                           "--out-prefix", tmp_path / "diag")
        assert_clean_exit(proc, 4)
        assert proc.stderr == {
            "no_noise_weight": "fit error: EmptyClusterError: the noise cluster has no "
                               "effective members\n",
            "lag_too_large": "fit error: LagTooLarge: series 0 has length 300 <= max lag 300\n",
        }[fault]


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

    def test_an_entry_named_for_other_trials_is_not_published(self, simulated, tmp_path,
                                                             reference, monkeypatch):
        # a repeat fit fits the sidecar's one entry while the trials are
        # hashed; when they hash to another digest, that fit is dropped
        assert self.fit_bytes(simulated, tmp_path / "first.json") == reference
        entry = summaries_entry(simulated)
        wrong = entry.with_name("0" * 64 + entry.name[64:])
        entry.rename(wrong)
        fits = []
        fit_candidate = cli_mod._fit_candidate
        monkeypatch.setattr(cli_mod, "_fit_candidate",
                            lambda *a: fits.append(a[0]) or fit_candidate(*a))
        assert self.fit_bytes(simulated, tmp_path / "renamed.json") == reference
        assert len(fits) == 2
        doc = json.loads((tmp_path / "renamed.json").read_text())
        assert doc["provenance"]["dataset_sha256"] == dataset_digest(simulated)
        assert not wrong.exists() and entry.is_dir()


class TestHashThread:
    """A fit hashes its trials on a thread, which has ended when the fit
    returns; an error of the hash wins over any other."""

    @pytest.fixture
    def warm(self, simulated, tmp_path):
        assert run("fit", "--data", simulated, "--out", tmp_path / "first.json") == 0
        (tmp_path / "blocker").write_text("")
        return simulated

    @pytest.mark.parametrize("code, case", [
        (0, "fits"), (2, "unparsable_trial"), (3, "out_blocked"), (4, "fit_error"),
    ])
    def test_no_thread_outlives_the_fit(self, warm, tmp_path, code, case):
        if case == "unparsable_trial":
            write_faults(warm, {1: "abc"})
        out = tmp_path / ("blocker" if case == "out_blocked" else "fits") / "f.json"
        options = ["-S", "50"] if case == "fit_error" else []
        before = threading.active_count()
        assert run("fit", "--data", warm, *options, "--out", out) == code
        assert threading.active_count() == before

    @pytest.mark.parametrize("out", ["usable", "blocked"])
    @pytest.mark.parametrize("options", [[], ["-S", "50"]], ids=["fits", "fit_error"])
    def test_an_unreadable_trial_wins(self, warm, tmp_path, monkeypatch, capsys, out,
                                      options):
        trial = warm / "trial_000.csv"

        def unreadable(data_dir):
            raise PermissionError(13, "Permission denied", str(trial))

        monkeypatch.setattr(cli_mod, "dataset_digest", unreadable)
        out = tmp_path / ("blocker" if out == "blocked" else "fits") / "f.json"
        capsys.readouterr()
        assert run("fit", "--data", warm, *options, "--out", out) == 3
        assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{trial}'\n"
        assert not out.exists() and not out.with_suffix(".memberships.csv").exists()

    def test_no_trials_wins(self, tmp_path, capsys):
        (tmp_path / "blocker").write_text("")
        (tmp_path / "empty").mkdir()
        capsys.readouterr()
        assert run("fit", "--data", tmp_path / "empty", "-S", "50",
                   "--out", tmp_path / "blocker" / "f.json") == 2
        err = capsys.readouterr().err
        assert err == f"error: no trial_*.csv files under {tmp_path / 'empty'}\n"


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

    @pytest.mark.parametrize("command", ["fit", "analyze"])
    def test_a_trial_whose_summaries_overflow_exits_2_and_keeps_nothing(
            self, simulated, tmp_path, command):
        fit_path = tmp_path / "f.json"
        if command == "analyze":
            assert run("fit", "--data", simulated, "--variant", "n", "--lambda", "0.05",
                       "--out", fit_path) == 0
        write_faults(simulated, {2: "1e200"})
        if command == "analyze":
            # a fit document that names the overflowing trials
            doc = json.loads(fit_path.read_text())
            doc["provenance"]["dataset_sha256"] = dataset_digest(simulated)
            fit_path.write_text(json.dumps(doc))
            argv = ["analyze", "--fit", fit_path, "--data", simulated,
                    "--out-prefix", tmp_path / "diag"]
        else:
            argv = ["fit", "--data", simulated, "--out", fit_path]
        shutil.rmtree(simulated / dataset_mod.SIDECAR_DIR, ignore_errors=True)
        proc = run_process(*argv)
        assert_clean_exit(proc, 2)
        assert proc.stderr == (f"error: cannot load {simulated}: NonFiniteInput: series 2 "
                               "has lag summaries that overflow\n")
        assert command == "analyze" or not fit_path.exists()
        sidecar = simulated / dataset_mod.SIDECAR_DIR
        assert not sidecar.exists() or list(sidecar.iterdir()) == []

    def test_a_noise_distance_that_overflows_exits_4(self, simulated, tmp_path):
        out = tmp_path / "f.json"
        proc = run_process("fit", "--data", simulated, "--variant", "n", "--lambda", "1e308",
                           "--out", out)
        assert_clean_exit(proc, 4)
        assert proc.stderr.startswith("fit error: DegenerateScale: noise distance overflows")

        def no_constant(name):
            raise AssertionError(f"{name} is not valid JSON")

        doc = json.loads(out.read_text(), parse_constant=no_constant)
        assert doc["error"] == "DegenerateScale"

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

    @pytest.mark.parametrize("faults, code, message", _FIT_FAULTS, ids=_FIT_FAULT_IDS)
    @pytest.mark.parametrize("pool", [False, True], ids=["serial", "pool"])
    def test_the_first_fault_of_the_first_kind_wins(self, simulated, tmp_path, monkeypatch,
                                                    capsys, pool, faults, code, message):
        # a trial that does not parse, then one of the wrong shape or not
        # finite, then one too short for the lags, each at its lowest index
        if pool:
            parse_on_pool(monkeypatch)
        write_faults(simulated, faults)
        capsys.readouterr()
        assert run("fit", "--data", simulated, "--out", tmp_path / "f.json") == code
        assert capsys.readouterr().err == message.format(data=simulated) + "\n"
        # no entry kept, no scratch directory left
        sidecar = simulated / dataset_mod.SIDECAR_DIR
        assert not sidecar.exists() or list(sidecar.iterdir()) == []

    @pytest.mark.parametrize("faults, code, message", _FIRST_FAULTS, ids=_FIRST_FAULT_IDS)
    @pytest.mark.parametrize("pool", [False, True], ids=["serial", "pool"])
    def test_the_library_reader_raises_what_the_fit_stream_raises(
            self, simulated, monkeypatch, pool, faults, code, message):
        if pool:
            parse_on_pool(monkeypatch)
        write_faults(simulated, faults)
        raised = []
        for load in (lambda: core._Prepared(read_csv_dir(simulated), 2),
                     lambda: core._load_prepared(simulated, dataset_digest(simulated), 2)):
            with pytest.raises(Exception) as exc:
                load()
            raised.append((type(exc.value), str(exc.value)))
        assert raised[0] == raised[1]
        assert message.endswith(f"{raised[0][0].__name__}: {raised[0][1]}")

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

    def test_fit_output_under_a_regular_file_exits_3_before_loading(self, simulated,
                                                                    tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        capsys.readouterr()
        assert run("fit", "--data", simulated, "--auto", "--out", blocker / "f.json") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        # no trial was summarised, so no entry was kept
        assert not (simulated / dataset_mod.SIDECAR_DIR).exists()


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

    def test_output_under_a_regular_file_exits_3_before_any_replication(
            self, tmp_path, monkeypatch, capsys):
        import rfcpca.cli as cli_mod

        calls = []
        monkeypatch.setattr(cli_mod, "run_benchmark", lambda *a, **k: calls.append(a))
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert run("reproduce", "table1", "-R", "1", "--out", blocker / "rep") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert calls == []


def test_importing_the_cli_loads_no_pool_machinery_and_no_signal_processing():
    # each is loaded on first use; at import they would cost every command,
    # `rfcpca --help` included, their import time
    lazy = ("concurrent.futures", "multiprocessing", "scipy.signal")
    env = dict(os.environ, PYTHONPATH=str(Path(rfcpca.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", "import sys, rfcpca.cli; "
                           f"print([m for m in {lazy!r} if m in sys.modules])"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
