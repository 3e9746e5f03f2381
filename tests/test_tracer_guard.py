"""The benchmark's tracer still binds every layer it times.

``perfbench/tracing.py`` rebinds the library's layer functions in every
module that holds them and raises ``MissedBinding`` on any reference it
could not rebind, such as a function kept in a default argument, a table or
a ``partial``; every benchmark run would then fail.  This runs the tracer
over one fit of each variant and a grid search, over three ``rfcpca fit``
runs of one directory, the later two of which map the summaries the first
kept, the last at fewer lags, and over an ``rfcpca fit`` of each variant, in
a fresh interpreter as the benchmark does, without changing anything under
``perfbench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import rfcpca

ROOT = Path(__file__).resolve().parents[1]

_TRACED_RUN = """
import importlib.util
import json
import sys

spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

import rfcpca.cli  # loads every module of the package
from rfcpca import core, dataset, robust, selection, simulate

# the search runs in this process, where the tracer sees its fits
dataset._usable_cpus = lambda: 1
tracer = tracing.Tracer()
tracer.install()
clean, manifest = simulate.generate_clean_dataset(4, 4, 200, seed=1)
data, _ = simulate.inject_bursts(clean, manifest, rho=0.25, seed=2)
core.fit_fcpca(data, 2, seed=1)
robust.fit_rfcpca_e(data, 2, seed=1)
robust.fit_rfcpca_n(data, 2, lam=0.5, seed=1)
robust.fit_rfcpca_t(data, 2, alpha=0.25, seed=1)
grid = selection.SearchGrid(variant="fcpca", s_values=(2,), m_values=(1.6, 2.0))
selection.grid_search(data, grid, seed=1)
tracer.uninstall()
print(json.dumps({"problems": tracer.check_identities(), "stats": tracer.stats}))
"""


def test_tracer_binds_every_layer_of_the_fits_and_the_grid_search():
    env = dict(os.environ, PYTHONPATH=str(Path(rfcpca.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN,
                           str(ROOT / "perfbench" / "tracing.py")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "MissedBinding" not in proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["problems"] == []
    stats = doc["stats"]
    # four fits, then two candidates of three restarts each
    assert stats["selection.grid_search.calls"] == 1
    assert stats["selection._fit_candidate.calls"] == 6
    assert stats["core.fits"] == 4 + 6
    for layer in ("core.fit_fcpca", "robust.fit_rfcpca_e", "robust.fit_rfcpca_n",
                  "robust.fit_rfcpca_t", "selection.cvi", "core._Prepared",
                  "simulate.generate_clean_dataset", "simulate.inject_bursts"):
        assert stats[layer + ".calls"] >= 1, layer
        assert stats.get(layer + ".failed", 0) == 0, layer
    # every weighted covariance reads the (N, p, 2p) upper block rows of one
    # lag of the N = 8 series of p = 4 channels, 8 bytes an entry
    calls = stats["covariance.weighted_common_covariance.calls"]
    assert calls >= 1
    assert stats["covariance.weighted_common_covariance.computed_bytes_read"] == (
        calls * 8 * 4 * (2 * 4) * 8)


_TRACED_CLI = """
import contextlib
import importlib.util
import io
import json
import sys

spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

import rfcpca.cli  # loads every module of the package
from rfcpca import dataset, simulate

clean, manifest = simulate.generate_clean_dataset(4, 4, 200, seed=1)
data, _ = simulate.inject_bursts(clean, manifest, rho=0.25, seed=2)
dataset.write_csv_dir(data, sys.argv[2] + "/data")
tracer = tracing.Tracer()
per_fit = []
for k, max_lag in enumerate(["2", "2", "1"]):
    tracer.install()
    before = dict(tracer.stats)
    argv = ["fit", "--data", sys.argv[2] + "/data", "--variant", "t", "--alpha", "0.25",
            "--max-lag", max_lag, "--seed", "1", "--out", sys.argv[2] + f"/fit{k}.json"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = rfcpca.cli.main(argv)
    tracer.uninstall()
    per_fit.append({"code": code, **{key: tracer.stats.get(key, 0.0) - before.get(key, 0.0)
                                     for key in ("core._Prepared.calls",
                                                 "dataset.dataset_digest.calls",
                                                 "core.fits")}})
print(json.dumps({"problems": tracer.check_identities(), "per_fit": per_fit}))
"""


def test_tracer_binds_a_fit_that_maps_its_kept_summaries(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(rfcpca.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _TRACED_CLI,
                           str(ROOT / "perfbench" / "tracing.py"), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "MissedBinding" not in proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["problems"] == []
    first, second, fewer_lags = doc["per_fit"]
    assert first["code"] == second["code"] == fewer_lags["code"] == 0
    assert (tmp_path / "fit0.json").read_bytes() == (tmp_path / "fit1.json").read_bytes()
    # the first fit computes the summaries and keeps them; the second maps
    # them, and the third maps the first of their two lags
    assert first["core._Prepared.calls"] == 1
    assert second["core._Prepared.calls"] == 0
    assert fewer_lags["core._Prepared.calls"] == 0
    for fit in (first, second, fewer_lags):
        assert fit["dataset.dataset_digest.calls"] >= 1
        assert fit["core.fits"] == 1


_TRACED_CLI_VARIANTS = """
import contextlib
import importlib.util
import io
import json
import sys

spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

import rfcpca.cli  # loads every module of the package
from rfcpca import dataset, simulate

clean, manifest = simulate.generate_clean_dataset(4, 4, 200, seed=1)
data, _ = simulate.inject_bursts(clean, manifest, rho=0.25, seed=2)
dataset.write_csv_dir(data, sys.argv[2] + "/data")
tracer = tracing.Tracer()
tracer.install()
per_fit = {}
for name, options in [("fcpca", []), ("e", []), ("n", ["--lambda", "0.5"]),
                      ("t", ["--alpha", "0.25"]), ("n_auto", ["--lambda", "auto"])]:
    before = dict(tracer.stats)
    argv = ["fit", "--data", sys.argv[2] + "/data", "--variant", name.split("_")[0],
            *options, "--seed", "1", "--out", sys.argv[2] + f"/fit_{name}.json"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = rfcpca.cli.main(argv)
    per_fit[name] = {"code": code, **{key: tracer.stats.get(key, 0.0) - before.get(key, 0.0)
                                      for key in ("selection._fit_candidate.calls",
                                                  "robust.select_lambda_elbow.calls")}}
tracer.uninstall()
print(json.dumps({"problems": tracer.check_identities(), "per_fit": per_fit}))
"""


def test_tracer_binds_the_cli_fit_of_every_variant(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(rfcpca.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _TRACED_CLI_VARIANTS,
                           str(ROOT / "perfbench" / "tracing.py"), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "MissedBinding" not in proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["problems"] == []
    # every CLI fit goes through the one variant dispatch once; only the
    # noise variant without a fixed lambda sweeps the elbow first
    for name, fit in doc["per_fit"].items():
        assert fit["code"] == 0, name
        assert fit["selection._fit_candidate.calls"] == 1, name
        assert fit["robust.select_lambda_elbow.calls"] == (name == "n_auto"), name
