"""Fuzzed command lines and input files through the in-process CLI.

Every run must end with a documented exit code, and every failure with one
stderr line and no traceback.  Each example draws every option and input
from its usual values except at most one, which is drawn from anything of
its type (a JSON file may also be garbled, missing or another document).
Option values are always of the type argparse expects and are given as
``--option=value``, so the fuzzing reaches the program's own checks rather
than argparse's usage errors.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rfcpca.cli as cli_mod
from conftest import SIDECAR_SPOILS, spoil_entry
from rfcpca.cli import main
from rfcpca.dataset import SIDECAR_DIR, dataset_digest

EXIT_CODES = {0, 2, 3, 4, 5}

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

numbers = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, 0.5, 1.0, -1.0, 1e300])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6,
)

# option: (its usual values, anything of its type or None)
FIT_OPTIONS = {
    # "spoiled": the trials of "good" with their parsed copies spoiled
    "--data": (["good", "spoiled"], st.sampled_from(["missing", "empty", "nan", "text",
                                                     "short"])),
    "--variant": (["fcpca", "e", "n", "t"], None),
    "--clusters": ([2, 3], st.integers(-1, 8)),
    "-m": ([1.2, 2.0], numbers),
    "--v": ([0.95, 0.99], numbers),
    "--alpha": ([None, 0.2], numbers),
    "--lambda": ([None, "auto", "0.05"], st.sampled_from(["0", "-1", "abc", "nan", "inf"])),
    "--max-lag": ([1, 2], st.sampled_from([-1, 0, 3, 150, 1000])),
    "--seed": ([0, 7], st.integers(-3, 2**64)),
    "--auto": ([False, True], None),
    "--out": (["ok"], st.sampled_from(["dir", "under_file"])),
}
REPRODUCE_OPTIONS = {
    "experiment": (["table1", "table4"], None),
    "--replications": ([None, 1, 2], st.integers(-3, 3)),
    "--seed": ([1], st.integers(-3, 2**64)),
    "--full": ([False, True], None),
    "--out": (["ok"], st.sampled_from(["dir", "under_file"])),
}
# simulate config key: (its usual values, None to leave it out; anything of its type)
SIMULATE_CONFIG = {
    "kind": (["none", "burst", "eyeblink"], st.text(max_size=8)),
    "n_per_group": ([2, 3], st.integers(-3, 4)),
    "channels": ([4, 8], st.integers(-3, 10)),
    "length": ([150, [140, 170]], st.integers(-3, 300) | st.lists(st.integers(-3, 300),
                                                                  max_size=3)),
    "fs": ([None, 100.0], numbers),
    "rho": ([None, 0.34], numbers),
    "eta": ([None, 5.0], numbers),
    "seed": ([0, 7], st.integers(-3, 2**64)),
}
# how one JSON input file is spoiled
SPOILS = ("drop", "replace", "whole", "garbled", "missing")
FIT_DOC_KEYS = sorted(cli_mod._FIT_KEYS) + ["provenance", "error"]
MANIFEST_KEYS = ["group_labels", "contaminated", "dataset_sha256", "lengths", "seed"]


def _draw_options(draw, options):
    """Usual values for every option but at most one, drawn from anything."""
    odd = draw(st.sampled_from([None] + [option for option, (_, other) in options.items()
                                         if other is not None]))
    return {option: draw(other if option == odd else st.sampled_from(usual))
            for option, (usual, other) in options.items()}


def _simulate(out, **overrides):
    cfg = {"kind": "burst", "n_per_group": 3, "channels": 8, "length": 150, "rho": 0.34,
           "seed": 2}
    cfg.update(overrides)
    path = out.parent / f"{out.name}.config.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Data directories, fit documents and a manifest shared by every example."""
    root = tmp_path_factory.mktemp("fuzz")
    good = _simulate(root / "good")
    data = {"good": good, "missing": root / "missing", "empty": root / "empty",
            "other": _simulate(root / "other", channels=6, seed=5)}
    data["empty"].mkdir()
    for name, cell in (("nan", "nan"), ("text", "abc")):
        bad = data[name] = root / name
        shutil.copytree(good, bad)
        trial = bad / "trial_002.csv"
        lines = trial.read_text().splitlines()
        lines[3] = cell + lines[3][lines[3].index(","):]
        trial.write_text("\n".join(lines) + "\n")
    short = data["short"] = root / "short"
    shutil.copytree(good, short)
    trial = short / "trial_001.csv"
    trial.write_text("\n".join(trial.read_text().splitlines()[:3]) + "\n")
    fits = {}
    for variant in ("fcpca", "n", "t"):
        path = root / f"fit_{variant}.json"
        assert main(["fit", "--data", str(good), "--variant", variant,
                     "--seed", "1", "--out", str(path)]) == 0
        fits[variant] = json.loads(path.read_text())
    manifest = json.loads((good / "manifest.json").read_text())
    return {"data": data, "fits": fits, "manifest": manifest}


@contextlib.contextmanager
def _scratch():
    with tempfile.TemporaryDirectory() as name:
        yield Path(name)


def _run(argv):
    """Exit code of one in-process run; asserts the exit contract."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    stderr = err.getvalue()
    assert code in EXIT_CODES, (argv, code, stderr)
    assert "Traceback" not in stderr, (argv, stderr)
    if code != 0:
        assert len(stderr.strip().splitlines()) == 1, (argv, stderr)
    return code


def _out_path(scratch, kind, name):
    """An output path that is writable, an existing directory, or under a file."""
    if kind == "dir":
        (scratch / name).mkdir()
        return scratch / name
    if kind == "under_file":
        (scratch / "file").write_text("x")
        return scratch / "file" / name
    return scratch / "sub" / name


def _argv(command, options, scratch):
    """Command line of ``options``: None leaves an option out, a bool is a flag."""
    argv = [command]
    for option, value in options.items():
        if option in ("--out", "--out-prefix"):
            value = _out_path(scratch, value, "out")
        if not option.startswith("-"):
            argv.append(value)
        elif value is True:
            argv.append(option)
        elif value is not None and value is not False:
            argv.append(f"{option}={value}")
    return argv


def _json_input(draw, scratch, name, doc, keys, spoiled):
    """Path of ``doc`` written to ``scratch``, spoiled one way when asked."""
    path = scratch / name
    spoil = draw(st.sampled_from(SPOILS)) if spoiled else None
    if spoil == "missing":
        return path
    if spoil == "garbled":
        path.write_text("{not json")
        return path
    if spoil == "whole":
        doc = draw(json_values)
    elif spoil is not None:
        doc = dict(doc)
        key = draw(st.sampled_from(keys))
        doc.pop(key, None)
        if spoil == "replace":
            doc[key] = draw(json_values)
    path.write_text(json.dumps(doc))
    return path


def _spoiled_copy(good, scratch, how):
    """A copy of the trial directory ``good`` whose parsed trials are spoiled."""
    copy = shutil.copytree(good, scratch / "spoiled")
    spoil_entry(copy / SIDECAR_DIR / dataset_digest(copy), how)
    return copy


@FUZZ
@given(st.data())
def test_fit(inputs, data):
    options = _draw_options(data.draw, FIT_OPTIONS)
    # two-point grids keep an --auto search as quick as a few plain fits
    with _scratch() as scratch, mock.patch.object(cli_mod, "DEFAULT_M_GRID", (1.2, 2.0)), \
            mock.patch.object(cli_mod, "DEFAULT_ALPHA_GRID", (0.1, 0.3)):
        if options["--data"] == "spoiled":
            options["--data"] = _spoiled_copy(inputs["data"]["good"], scratch,
                                              data.draw(st.sampled_from(SIDECAR_SPOILS)))
        else:
            options["--data"] = inputs["data"][options["--data"]]
        _run(_argv("fit", options, scratch))


@FUZZ
@given(st.data())
def test_evaluate(inputs, data):
    odd = data.draw(st.sampled_from([None, "fit", "manifest", "out"]))
    variant = data.draw(st.sampled_from(sorted(inputs["fits"])))
    with _scratch() as scratch:
        fit = _json_input(data.draw, scratch, "fit.json", inputs["fits"][variant],
                          FIT_DOC_KEYS, odd == "fit")
        manifest = _json_input(data.draw, scratch, "manifest.json", inputs["manifest"],
                               MANIFEST_KEYS, odd == "manifest")
        options = {"--fit": fit, "--manifest": manifest,
                   "--out": data.draw(st.sampled_from(["dir", "under_file"]))
                   if odd == "out" else "ok",
                   "--csv": scratch / "objects.csv" if data.draw(st.booleans()) else None}
        _run(_argv("evaluate", options, scratch))


@FUZZ
@given(st.data())
def test_analyze(inputs, data):
    odd = data.draw(st.sampled_from([None, "fit", "data", "out"]))
    variant = data.draw(st.sampled_from(sorted(inputs["fits"])))
    data_dir = data.draw(st.sampled_from(["other", "missing", "nan", "short"] if odd == "data"
                                         else [None, "good"]))
    with _scratch() as scratch:
        fit = _json_input(data.draw, scratch, "fit.json", inputs["fits"][variant],
                          FIT_DOC_KEYS, odd == "fit")
        options = {"--fit": fit, "--data": data_dir and inputs["data"][data_dir],
                   "--out-prefix": "under_file" if odd == "out" else "ok"}
        _run(_argv("analyze", options, scratch))


@FUZZ
@given(st.data())
def test_simulate(data):
    odd = data.draw(st.sampled_from([None, "value", "config", "out"]))
    config = _draw_options(data.draw, {key: (usual, other if odd == "value" else None)
                                       for key, (usual, other) in SIMULATE_CONFIG.items()})
    config = {key: value for key, value in config.items() if value is not None}
    with _scratch() as scratch:
        path = _json_input(data.draw, scratch, "config.json", config, sorted(SIMULATE_CONFIG),
                           odd == "config")
        options = {"--config": path,
                   "--out": data.draw(st.sampled_from(["dir", "under_file"]))
                   if odd == "out" else "ok"}
        code = _run(_argv("simulate", options, scratch))
    if odd == "value" and config["seed"] < 0:
        assert code == 2


def _instant_benchmark(kind, p_values, t_spec, replications, seed, rho=None,
                       progress=None, **kwargs):
    """Stands in for run_benchmark: rows of the right shape at no cost."""
    rows = []
    for p in p_values:
        for r in range(replications):
            row = {"kind": kind, "p": p, "seed": seed + r, "variant": "fcpca",
                   "out_recall": 1.0}
            rows.append(row)
            if progress is not None:
                progress(p, seed + r, [row])
    return rows, [{"kind": kind, "p": p, "acc_mean": 1.0} for p in p_values]


@FUZZ
@given(st.data())
def test_reproduce(data):
    options = _draw_options(data.draw, REPRODUCE_OPTIONS)
    with _scratch() as scratch, mock.patch.object(cli_mod, "run_benchmark",
                                                  _instant_benchmark):
        code = _run(_argv("reproduce", options, scratch))
    replications = options["--replications"]
    if replications is not None and replications < 1:
        assert code == 2
