"""Command-line surface: simulate, fit, evaluate, analyze, reproduce.

Every command is a pure function of its inputs and --seed; output JSON
documents embed the tool version, a config hash, the dataset hash, and the
seed, so results always trace back to exactly what produced them.

Exit codes: 0 success, 2 config/usage error or unusable input file, 3 I/O
error, 4 fit error, 5 dataset-hash mismatch.  Every failure prints one
line to stderr.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import threading
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import _check_orthonormal, channel_contributions, noise_subspace, principal_angles
from .dataset import TRIAL_PATTERN, _listed_trials, _trial_paths, dataset_digest, write_csv_dir
from .evaluation import EvalReport, evaluate_fit, harden, regular_memberships
from .exceptions import LagTooLarge, LagTooSmall, RFCPCAError
from .experiments import BENCHMARK_V, run_benchmark, write_rows_csv
from .core import FitResult, MembershipMatrix, _kept_prepared, _load_prepared
from .covariance import ClusterSubspaces
from .robust import select_lambda_elbow
from .selection import VARIANTS, SearchGrid, _fit_candidate, cvi, grid_search
from .simulate import SimManifest, generate_clean_dataset, inject_bursts, inject_eyeblinks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_FIT = 4
EXIT_HASH = 5

SIMULATE_KEYS = {
    "kind": str,            # none | burst | eyeblink
    "n_per_group": int,
    "channels": int,
    "length": None,         # int or [lo, hi]
    "fs": float,
    "rho": float,
    "eta": float,           # burst amplitude multiplier
    "seed": int,
}
SIMULATE_REQUIRED = ("kind", "n_per_group", "channels", "length", "seed")


class ConfigError(Exception):
    pass


def _report(message: str) -> None:
    """Print a failure to stderr on one line, whatever line breaks it holds."""
    print(" ".join(message.splitlines()), file=sys.stderr)


def _config_hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _provenance(config, data_hash, seed):
    return {
        "tool": "rfcpca",
        "version": __version__,
        "config_sha256": _config_hash(config),
        "dataset_sha256": data_hash,
        "seed": seed,
    }


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _read_fit(path):
    """The fit document at ``path`` and the model it holds, as (doc, fit)."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} is not a fit document: a JSON object is expected")
    if "error" in doc:
        raise ConfigError(f"{path} records a failed fit ({doc['error']})")
    provenance = doc.get("provenance")
    if not isinstance(provenance, dict):
        provenance = {}
    missing = [key for key in _FIT_KEYS if key not in doc]
    missing += [f"provenance.{key}" for key in _PROVENANCE_KEYS if key not in provenance]
    if missing:
        raise ConfigError(f"{path} is not a fit document: missing {missing}")
    try:
        fit = _fit_from_json(doc)
        _check_model(fit)
    except (RFCPCAError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path} is not a fit document: {type(exc).__name__}: {exc}") from exc
    return doc, fit


def _check_model(fit: FitResult) -> None:
    """Raise ValueError unless the parts of a fit read from a document agree:
    one list of orthonormal 2p x k axes per substantive cluster, the same lags
    for every cluster, and a retained set of series for the trimmed variant."""
    n, k = fit.memberships.u.shape
    axes = fit.subspaces.axes
    if fit.variant not in VARIANTS:
        raise ValueError(f"unknown variant {fit.variant!r}")
    if not 0.0 < fit.subspaces.variance_fraction <= 1.0:
        raise ValueError("variance_fraction must lie in (0, 1]")
    if not axes or len(axes) != k - (fit.variant == "n"):
        raise ValueError(f"expected axes for {k - (fit.variant == 'n')} clusters")
    if not axes[0] or any(len(per_lag) != len(axes[0]) for per_lag in axes):
        raise ValueError("every cluster needs axes for the same lags")
    rows = axes[0][0].shape[0] if axes[0][0].ndim == 2 else 0
    for c in (c for per_lag in axes for c in per_lag):
        if c.ndim != 2 or c.shape[0] != rows or rows % 2 or not 0 < c.shape[1] <= rows:
            raise ValueError("axes must be 2p x k matrices with the same 2p")
        _check_orthonormal(c)
    if fit.variant == "t" and not np.isin(fit.variant_params.get("retained"),
                                          np.arange(n)).all():
        raise ValueError("the retained set must hold series indices")


def _read_manifest(path) -> SimManifest:
    doc = _read_json(path)
    try:
        return SimManifest(**doc)
    except TypeError as exc:
        raise ConfigError(f"{path} is not a dataset manifest: {exc}") from exc


def _check_ground_truth(manifest: SimManifest, path, n: int) -> None:
    """Reject a manifest without one group label per fitted series and
    contaminated-trial indices among them."""
    def int_list(value):
        return isinstance(value, list) and all(
            isinstance(i, int) and not isinstance(i, bool) for i in value)

    if not (int_list(manifest.group_labels) and len(manifest.group_labels) == n
            and int_list(manifest.contaminated)
            and all(0 <= i < n for i in manifest.contaminated)):
        raise ConfigError(f"{path} does not hold {n} integer group labels and the "
                          "indices of the contaminated trials")


def _start_digest(data_dir):
    """Start hashing a trial directory (``dataset_digest``) on a thread.

    Returns a function that waits for the thread to end, then returns the
    digest or raises the error of the hash.  A directory without trials is a
    usage error, raised before any thread starts.
    """
    try:
        _listed_trials(Path(data_dir))
    except FileNotFoundError as exc:
        raise ConfigError(str(exc)) from exc
    hashed = []

    def run():
        try:
            hashed.append(dataset_digest(data_dir))
        except BaseException as exc:  # raised again by the waiting thread
            hashed.append(exc)

    thread = threading.Thread(target=run)
    thread.start()

    def wait() -> str:
        thread.join()
        if isinstance(hashed[0], BaseException):
            raise hashed[0]
        return hashed[0]

    return wait


def _read_prepared(data_dir, digest: str, max_lag: int):
    """The summaries at ``max_lag`` of a trial directory whose trials hashed
    to ``digest``, and the digest of the trials they summarise (see
    ``core._load_prepared``).  Unreadable or invalid trials are a usage
    error; a lag the series cannot take is a fit error and raises as is."""
    try:
        return _load_prepared(data_dir, digest, max_lag)
    except (LagTooSmall, LagTooLarge):
        raise
    except FileNotFoundError as exc:
        raise ConfigError(str(exc)) from exc
    except (RFCPCAError, ValueError) as exc:
        raise ConfigError(f"cannot load {data_dir}: {type(exc).__name__}: {exc}") from exc


def _has_config_type(value, declared) -> bool:
    """Whether ``value`` has the type SIMULATE_KEYS declares: a bool is no
    number, a float key takes any finite number, and ``None`` is a length,
    an int or an [lo, hi] pair of ints."""
    if declared is None:
        return _has_config_type(value, int) or (
            isinstance(value, list) and len(value) == 2
            and all(_has_config_type(v, int) for v in value))
    if isinstance(value, bool):
        return False
    if declared is float:
        return isinstance(value, int) or isinstance(value, float) and np.isfinite(value)
    return isinstance(value, declared)


def _load_simulate_config(path) -> dict:
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} is not a simulate config: a JSON object is expected")
    unknown = set(raw) - set(SIMULATE_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in SIMULATE_REQUIRED if k not in raw]
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    for key, value in raw.items():
        declared = SIMULATE_KEYS[key]
        if not _has_config_type(value, declared):
            expected = declared.__name__ if declared else "an int or [lo, hi]"
            raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}")
    if raw["kind"] not in ("none", "burst", "eyeblink"):
        raise ConfigError(f"unknown kind {raw['kind']!r}")
    if raw["seed"] < 0:
        raise ConfigError(f"config key 'seed' must be nonnegative, got {raw['seed']}")
    return raw


def cmd_simulate(args) -> int:
    config = _load_simulate_config(args.config)
    out_dir = Path(args.out)
    t_spec = config["length"]
    if isinstance(t_spec, list):
        t_spec = tuple(t_spec)
    kind = config["kind"]
    try:
        clean, manifest = generate_clean_dataset(
            config["n_per_group"], config["channels"], t_spec,
            fs=config.get("fs", 100.0), seed=config["seed"])
        if kind == "burst":
            dataset, manifest = inject_bursts(clean, manifest,
                                              rho=config.get("rho", 0.20),
                                              eta=config.get("eta", 5.0),
                                              seed=config["seed"] + 1)
        elif kind == "eyeblink":
            dataset, manifest = inject_eyeblinks(clean, manifest,
                                                 rho=config.get("rho", 0.40),
                                                 seed=config["seed"] + 1)
        else:
            dataset = clean
    except (RFCPCAError, ValueError, OverflowError, MemoryError) as exc:
        raise ConfigError(f"cannot simulate {args.config}: {type(exc).__name__}: {exc}") from exc
    # a trial the new dataset does not overwrite would be read as part of it
    ours = {TRIAL_PATTERN.format(i) for i in range(dataset.n_series)}
    others = [path.name for path in _trial_paths(out_dir) if path.name not in ours]
    if others:
        raise ConfigError(f"{out_dir} holds {len(others)} trial files of another dataset "
                          f"(from {others[0]}); simulate into a new directory")
    write_csv_dir(dataset, out_dir)
    manifest.dataset_sha256 = dataset_digest(out_dir)
    (out_dir / "manifest.json").write_text(manifest.to_json(indent=2))
    print(f"wrote {dataset.n_series} trials and manifest.json to {out_dir}")
    return EXIT_OK


def _axes_to_json(subspaces: ClusterSubspaces):
    return [[c.tolist() for c in per_lag] for per_lag in subspaces.axes]


def _fit_to_json(fit: FitResult, extra: dict) -> dict:
    params = dict(fit.variant_params)
    if "retained" in params:
        params["retained"] = np.asarray(params["retained"]).tolist()
    doc = {
        "variant": fit.variant,
        "n_series": fit.n_series,
        "n_clusters": fit.memberships.n_clusters,
        "m": fit.memberships.m,
        "variance_fraction": fit.subspaces.variance_fraction,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "objective_trace": fit.objective_trace,
        "variant_params": params,
        "flagged": fit.flagged.tolist(),
        "memberships": fit.memberships.u.tolist(),
        "errors": fit.errors.tolist(),
        "axes": _axes_to_json(fit.subspaces),
    }
    doc.update(extra)
    return doc


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"--seed must be a nonnegative integer, got {seed}")


def _check_fit_options(args) -> float | None:
    """Reject out-of-range fit options; returns the fixed --lambda, or None
    when the noise multiplier is selected at the elbow (absent or 'auto')."""
    if not 0.0 < args.v <= 1.0:
        raise ConfigError(f"--v must lie in (0, 1], got {args.v}")
    if not 1.0 < args.m < np.inf:
        raise ConfigError(f"-m must be a finite number above 1, got {args.m}")
    if args.alpha is not None and not 0.0 <= args.alpha < 1.0:
        raise ConfigError(f"--alpha must lie in [0, 1), got {args.alpha}")
    if args.max_lag < 1:
        raise ConfigError(f"--max-lag must be at least 1, got {args.max_lag}")
    _check_seed(args.seed)
    if args.lam in (None, "auto"):
        return None
    message = f"--lambda must be a positive number or 'auto', got {args.lam!r}"
    try:
        lam = float(args.lam)
    except ValueError:
        raise ConfigError(message) from None
    if not 0.0 < lam < np.inf:
        raise ConfigError(message)
    return lam


def _fit_prepared(prep, args, lam):
    """The fit of the summaries ``prep`` that the options ``args`` ask for,
    as ``(fit, selection report, λ elbow)``, the last two None where they
    did not run; or the fit error it raised."""
    report = elbow = None
    try:
        if args.auto:
            grid = SearchGrid(variant=args.variant, s_values=(args.clusters,),
                              lam="elbow" if lam is None else lam)
            fit, report = grid_search(prep, grid, seed=args.seed, v=args.v)
        else:
            if args.variant == "n" and lam is None:
                elbow = select_lambda_elbow(prep, args.clusters, m=args.m,
                                            v=args.v, seed=args.seed)
                lam = elbow.lambda_star
            cand = {"s": args.clusters, "m": args.m,
                    "alpha": 0.2 if args.alpha is None else args.alpha}
            fit = _fit_candidate(prep, args.variant, cand, args.seed, lam, args.v)
    except RFCPCAError as exc:
        return exc
    return fit, report, elbow


def cmd_fit(args) -> int:
    """Fit the trials of ``--data``; write the fit document ``--out`` and its
    ``.memberships.csv``, or on a fit error a document of the error.

    A thread hashes the trials.  Meanwhile a fit without ``--auto`` fits the
    summaries of the sidecar's one entry (``core._kept_prepared``) and keeps
    that fit only when the trials hash to the entry's digest, so a repeat fit
    does not wait for the hash.  Otherwise the summaries are loaded by the
    digest once the thread has ended (``core._load_prepared``): the parse
    pool and the grid pool of ``--auto`` fork, which is safe only from a
    process that runs one thread (see ``dataset._fork_pool_workers``).
    Nothing is written before the digest is known, and an error of the hash
    wins over any other.
    """
    lam = _check_fit_options(args)
    config = {
        "variant": args.variant, "s": args.clusters, "m": args.m, "v": args.v,
        "alpha": args.alpha, "lambda": args.lam, "auto": args.auto,
        "max_lag": args.max_lag, "seed": args.seed,
    }
    out = Path(args.out)
    digest = _start_digest(args.data)
    guess = outcome = None  # guess: the digest of the entry fitted
    try:
        # an output path that cannot be written fails before the fit, not after
        out.parent.mkdir(parents=True, exist_ok=True)
        kept = None if args.auto else _kept_prepared(args.data, args.max_lag)
        if kept is not None:
            guess, prep = kept
            outcome = _fit_prepared(prep, args, lam)
    finally:
        # raised here, an error of the hash replaces any raised above
        data_hash = digest()
    if guess != data_hash:
        try:
            prep, data_hash = _read_prepared(args.data, data_hash, args.max_lag)
        except RFCPCAError as exc:  # a lag the series cannot take
            outcome = exc
        else:
            outcome = _fit_prepared(prep, args, lam)
    if isinstance(outcome, RFCPCAError):
        doc = {"error": type(outcome).__name__, "message": str(outcome),
               "provenance": _provenance(config, data_hash, args.seed)}
        out.write_text(json.dumps(doc, indent=2))
        _report(f"fit error: {type(outcome).__name__}: {outcome}")
        return EXIT_FIT
    fit, report, elbow = outcome

    extra = {"provenance": _provenance(config, data_hash, args.seed)}
    try:
        extra["cvi"] = cvi(fit)
    except RFCPCAError:
        extra["cvi"] = None
    if report is not None:
        extra["selection"] = json.loads(report.to_json())
    if elbow is not None:
        extra["elbow_curve"] = elbow.curve
        extra["elbow_no_elbow"] = elbow.no_elbow
    doc = _fit_to_json(fit, extra)
    out.write_text(json.dumps(doc, indent=2))
    np.savetxt(out.with_suffix(".memberships.csv"), fit.memberships.u, delimiter=",",
               header=",".join(f"cluster_{s}" for s in range(fit.memberships.n_clusters)),
               comments="")
    print(f"fit written to {out} (variant={fit.variant}, converged={fit.converged})")
    return EXIT_OK


# the keys of a fit document that _fit_from_json and cmd_evaluate read
_FIT_KEYS = ("variant", "m", "variance_fraction", "converged", "iterations",
             "objective_trace", "variant_params", "flagged", "memberships", "errors",
             "axes")
_PROVENANCE_KEYS = ("seed", "dataset_sha256")


def _fit_from_json(doc) -> FitResult:
    u = np.asarray(doc["memberships"], dtype=float)
    axes = [[np.asarray(c, dtype=float) for c in per_lag] for per_lag in doc["axes"]]
    params = dict(doc["variant_params"])
    if "retained" in params:
        params["retained"] = np.asarray(params["retained"], dtype=int)
    return FitResult(
        memberships=MembershipMatrix(u, doc["m"]),
        subspaces=ClusterSubspaces(axes=axes, variance_fraction=doc["variance_fraction"]),
        errors=np.asarray(doc["errors"], dtype=float),
        objective_trace=list(doc["objective_trace"]),
        iterations=doc["iterations"],
        converged=doc["converged"],
        variant=doc["variant"],
        variant_params=params,
        flagged=np.asarray(doc["flagged"], dtype=int),
        seed=doc["provenance"]["seed"],
    )


def cmd_evaluate(args) -> int:
    fit_doc, fit = _read_fit(args.fit)
    manifest = _read_manifest(args.manifest)
    fit_hash = fit_doc["provenance"]["dataset_sha256"]
    if manifest.dataset_sha256 != fit_hash:
        _report("error: fit and manifest reference different datasets")
        return EXIT_HASH
    _check_ground_truth(manifest, args.manifest, fit.n_series)
    report = evaluate_fit(fit, np.asarray(manifest.group_labels),
                          manifest.contaminated)
    doc = json.loads(report.to_json())
    doc["provenance"] = _provenance({"fit": str(args.fit)}, fit_hash,
                                    fit_doc["provenance"]["seed"])
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2))
    if args.csv:
        _write_per_object_csv(args.csv, fit, manifest, report)
    print(f"evaluation written to {out}")
    return EXIT_OK


def _write_per_object_csv(path, fit: FitResult, manifest: SimManifest,
                          report: EvalReport) -> None:
    u = fit.memberships.u
    hard = harden(regular_memberships(fit))
    flagged = set(report.flagged)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "true_label", "hard_label", "max_membership", "flagged"])
        for i in range(fit.n_series):
            writer.writerow([i, manifest.group_labels[i], int(hard[i]),
                             f"{u[i].max():.6f}", int(i in flagged)])


def cmd_analyze(args) -> int:
    fit_doc, fit = _read_fit(args.fit)
    subs = fit.subspaces
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    extra_axes = []
    extra_names = []
    if fit.variant == "n" and args.data:
        data_hash = _start_digest(args.data)()
        if data_hash != fit_doc["provenance"]["dataset_sha256"]:
            _report("error: fit and --data reference different datasets")
            return EXIT_HASH
        try:
            prep, _ = _read_prepared(args.data, data_hash, subs.n_lags)
            noise = noise_subspace(prep, fit, max_lag=subs.n_lags)
        except RFCPCAError as exc:  # a lag the series cannot take, or no noise weight
            _report(f"fit error: {type(exc).__name__}: {exc}")
            return EXIT_FIT
        extra_axes = [noise.axes[0]]
        extra_names = ["noise"]
    names = [f"cluster_{s}" for s in range(subs.n_clusters)] + extra_names
    all_axes = [subs.axes[s] for s in range(subs.n_clusters)] + extra_axes

    angle_path = Path(f"{prefix}_angles.csv")
    with angle_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subspace_a", "subspace_b", "lag", "angle_index", "angle_rad"])
        for a in range(len(all_axes)):
            for b in range(a + 1, len(all_axes)):
                for lag_idx in range(subs.n_lags):
                    angles = principal_angles(all_axes[a][lag_idx], all_axes[b][lag_idx])
                    for j, angle in enumerate(angles):
                        writer.writerow([names[a], names[b], lag_idx + 1, j, f"{angle:.10f}"])

    p = all_axes[0][0].shape[0] // 2
    contrib_path = Path(f"{prefix}_contributions.csv")
    with contrib_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subspace", "lag", "channel", "contribution"])
        for name, per_lag in zip(names, all_axes):
            for lag_idx, c in enumerate(per_lag):
                contrib = channel_contributions(c, p)
                for j, value in enumerate(contrib):
                    writer.writerow([name, lag_idx + 1, j + 1, f"{value:.10f}"])
    print(f"wrote {angle_path} and {contrib_path}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    # argparse admits only these two
    kind, t_spec = ("burst", 400) if args.experiment == "table1" else ("eyeblink", (400, 2000))
    if args.replications is not None and args.replications < 1:
        raise ConfigError(f"-R/--replications must be at least 1, got {args.replications}")
    _check_seed(args.seed)
    p_values = (32, 64, 128) if args.full else (32, 64)
    replications = args.replications or (50 if args.full else 10)
    out_dir = Path(args.out)
    # made before the replications run, so an unusable path fails at once
    out_dir.mkdir(parents=True, exist_ok=True)

    def progress(p, rep_seed, rows):
        done = [f"{row['variant']}={row['out_recall']}" for row in rows]
        print(f"p={p} seed={rep_seed}: " + " ".join(done))

    rows, summary = run_benchmark(kind, p_values, t_spec, replications,
                                  seed=args.seed, progress=progress)
    write_rows_csv(rows, out_dir / f"{args.experiment}_replications.csv")
    write_rows_csv(summary, out_dir / f"{args.experiment}_summary.csv")
    meta = {
        "provenance": _provenance(
            {"experiment": args.experiment, "p_values": list(p_values),
             "replications": replications, "v": BENCHMARK_V},
            None, args.seed),
    }
    (out_dir / f"{args.experiment}_meta.json").write_text(json.dumps(meta, indent=2))
    print(f"summary written to {out_dir}")
    for s in summary:
        print({k: (round(v, 3) if isinstance(v, float) else v) for k, v in s.items()})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rfcpca",
                                     description="Robust fuzzy subspace clustering of multivariate time series")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic benchmark dataset")
    p_sim.add_argument("--config", required=True, help="JSON config file")
    p_sim.add_argument("--out", required=True, help="output directory")

    p_fit = sub.add_parser("fit", help="fit a clustering model to a dataset directory")
    p_fit.add_argument("--data", required=True, help="directory of trial_*.csv files")
    p_fit.add_argument("--variant", choices=VARIANTS, default="fcpca")
    p_fit.add_argument("-S", "--clusters", type=int, default=2,
                       help="substantive clusters (the noise variant adds one)")
    p_fit.add_argument("-m", type=float, default=2.0, help="fuzziness exponent")
    p_fit.add_argument("--v", type=float, default=0.95,
                       help="variance fraction the cluster axes keep (default 0.95, the "
                       "library's; `reproduce` uses 0.99, set for the simulated trials' "
                       "exact low-rank mixtures: see README)")
    p_fit.add_argument("--alpha", type=float, default=None, help="trimming proportion")
    p_fit.add_argument("--lambda", dest="lam", default=None,
                       help="noise multiplier or 'auto' for elbow selection")
    p_fit.add_argument("--auto", action="store_true",
                       help="grid-search m (and alpha) by the validity index")
    p_fit.add_argument("--max-lag", type=int, default=2)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out", required=True, help="output JSON path")

    p_eval = sub.add_parser("evaluate", help="score a fit against a manifest")
    p_eval.add_argument("--fit", required=True)
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--csv", default=None, help="optional per-object CSV path")

    p_an = sub.add_parser("analyze", help="principal angles and channel contributions")
    p_an.add_argument("--fit", required=True)
    p_an.add_argument("--data", default=None,
                      help="dataset directory (for the noise-variant noise subspace)")
    p_an.add_argument("--out-prefix", required=True)

    p_rep = sub.add_parser("reproduce", help="rerun a benchmark table at desk scale")
    p_rep.add_argument("experiment", choices=("table1", "table4"))
    p_rep.add_argument("-R", "--replications", type=int, default=None)
    p_rep.add_argument("--seed", type=int, default=1)
    p_rep.add_argument("--full", action="store_true",
                       help="full scale: p up to 128 and 50 replications")
    p_rep.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "fit": cmd_fit,
        "evaluate": cmd_evaluate,
        "analyze": cmd_analyze,
        "reproduce": cmd_reproduce,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        _report(f"error: {exc}")
        return EXIT_CONFIG
    except OSError as exc:
        _report(f"error: {exc}")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
