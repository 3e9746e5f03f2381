"""Deterministic synthetic-EEG benchmark generator.

Clean trials mix five latent band-limited oscillators (AR(2) processes at
the classic EEG bands) through a group-specific nonnegative mixing matrix.
Two artifact injectors contaminate a fixed share of trials: short
high-frequency tone bursts with a Hann envelope, and large half-sine
deflections confined to frontal channels.  Everything is driven by derived
PCG64 streams and recorded in a manifest, so a (config, seed) pair always
reproduces the same dataset bit for bit and the manifest alone suffices to
re-apply the contamination to the clean data.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from math import ceil, cos, exp, floor, pi

import numpy as np

from .dataset import MtsDataset
from .exceptions import BlinkTooLong, BurstTooLong, InvalidBand
from .rng import RNG_NAME, derive_seed, make_rng

SCHEMA_VERSION = 1
DEFAULT_FS = 100.0

# derived-seed stream tags
_MIXING_STREAM = 1
_LATENT_STREAM = 2
_LENGTH_STREAM = 3


@dataclass(frozen=True)
class BandSpec:
    """One oscillator band: spectral peak and sharpness of the AR(2) poles."""

    name: str
    peak_hz: float
    sharpness: float


DEFAULT_BANDS = (
    BandSpec("delta", 2.0, 0.05),
    BandSpec("theta", 6.0, 0.05),
    BandSpec("alpha", 10.0, 0.05),
    BandSpec("beta", 22.5, 0.08),
    BandSpec("gamma", 37.5, 0.10),
)

# which latent rows dominate each group's mixing columns; theta is shared so
# the two groups overlap softly.  Channel counts per band follow the weights
# below: the gamma band decorrelates within one sample at 100 Hz, so giving
# it fewer channels keeps the clean per-group spectra compact.
GROUP_DOMINANT_ROWS = {
    1: (0, 1, 2, 4),  # delta, theta, alpha, gamma
    2: (1, 3),        # theta, beta
}
GROUP_BAND_WEIGHTS = {
    1: (0.3, 0.3, 0.3, 0.1),
    2: (0.5, 0.5),
}

# band-pass edges relative to the band peak, clamped to the usable range
_EDGE_LO_FACTOR = 0.6
_EDGE_HI_FACTOR = 1.4
_MIN_EDGE_HZ = 0.5
_MAX_EDGE_FRACTION = 0.95  # of the Nyquist frequency
_FILTER_ORDER = 2          # per pass; applied forward and backward
_BURN_IN = 200


def ar2_coefficients(peak_hz: float, sharpness: float, fs: float) -> tuple[float, float]:
    """AR(2) coefficients for a resonance at ``peak_hz``.

    With M = exp(sharpness) > 1 the characteristic roots have modulus M, so
    the process is stationary for any positive sharpness.
    """
    if not 0.0 < peak_hz < fs / 2.0:
        raise InvalidBand(f"peak {peak_hz} Hz outside (0, {fs / 2}) at fs={fs}")
    if sharpness <= 0.0:
        raise InvalidBand("sharpness must be positive")
    m = exp(sharpness)
    phi1 = 2.0 / m * cos(2.0 * pi * peak_hz / fs)
    phi2 = -1.0 / (m * m)
    return phi1, phi2


def _band_edges(peak_hz: float, fs: float) -> tuple[float, float]:
    lo = max(peak_hz * _EDGE_LO_FACTOR, _MIN_EDGE_HZ)
    hi = min(peak_hz * _EDGE_HI_FACTOR, _MAX_EDGE_FRACTION * fs / 2.0)
    return lo, hi


def _standardize(z: np.ndarray) -> np.ndarray:
    return (z - z.mean()) / z.std()


@lru_cache(maxsize=64)
def _bandpass_sos(peak_hz: float, fs: float) -> np.ndarray:
    """Butterworth band-pass around one peak, designed once per (peak, fs).

    scipy.signal is imported here and in simulate_latents rather than at
    module level: it takes about a second to import, which every CLI command
    that never simulates would otherwise pay at start-up.
    """
    from scipy import signal

    lo, hi = _band_edges(peak_hz, fs)
    return signal.butter(_FILTER_ORDER, [lo, hi], btype="bandpass", fs=fs, output="sos")


def simulate_latents(t: int, fs: float = DEFAULT_FS, bands=DEFAULT_BANDS,
                     seed: int = 0) -> np.ndarray:
    """T x 5 matrix of standardized, band-passed AR(2) latents.

    Each column runs its own AR(2) recursion on unit-variance Gaussian
    innovations with a 200-sample burn-in, is standardized to sample
    variance 1, zero-phase band-pass filtered around its peak, and
    standardized again.
    """
    if t < 64:
        raise ValueError("latents need at least 64 samples")
    from scipy import signal  # see _bandpass_sos

    rng = make_rng(seed)
    out = np.empty((t, len(bands)))
    for j, band in enumerate(bands):
        phi1, phi2 = ar2_coefficients(band.peak_hz, band.sharpness, fs)
        eps = rng.standard_normal(t + _BURN_IN)
        z = signal.lfilter([1.0], [1.0, -phi1, -phi2], eps)[_BURN_IN:]
        z = _standardize(z)
        # a copy, so that no caller can alter the cached design
        z = signal.sosfiltfilt(_bandpass_sos(band.peak_hz, fs).copy(), z)
        out[:, j] = _standardize(z)
    return out


def mixing_matrix(group: int, p: int, seed: int) -> np.ndarray:
    """5 x p nonnegative mixing matrix whose columns sum to one.

    Every channel is dominated by one of the group's bands: that row gets a
    mass of at least 80% and the remainder is spread uniformly over the
    other four rows.  Concentrating each band on its own channel subset
    keeps the per-band spatial patterns close to orthogonal, the way scalp
    rhythms localise to different electrode neighbourhoods; dense mixing
    rows would make the two groups' subspaces nearly collinear.
    """
    if group not in GROUP_DOMINANT_ROWS:
        raise ValueError(f"group must be 1 or 2, got {group}")
    if p < 2:
        raise ValueError("need at least 2 channels")
    rng = make_rng(seed)
    dominant = list(GROUP_DOMINANT_ROWS[group])
    a = np.empty((5, p))
    mass = rng.uniform(0.88, 0.95, size=p)
    lead = rng.choice(dominant, size=p, p=GROUP_BAND_WEIGHTS[group])
    for j in range(p):
        a[:, j] = (1.0 - mass[j]) / 4.0
        a[lead[j], j] = mass[j]
    return a


@dataclass
class SimManifest:
    """Generator config, seeds, and full ground truth for one dataset."""

    seed: int
    fs: float
    n_per_group: int
    n_channels: int
    lengths: list
    group_labels: list
    mixing: list                      # one 5 x p matrix per group, as nested lists
    bands: list = field(default_factory=lambda: [asdict(b) for b in DEFAULT_BANDS])
    bandpass: dict = field(default_factory=lambda: {
        "family": "butterworth-sos",
        "order_per_pass": _FILTER_ORDER,
        "zero_phase": True,
        "edge_factors": [_EDGE_LO_FACTOR, _EDGE_HI_FACTOR],
        "edge_clamp_hz": [_MIN_EDGE_HZ, None],
    })
    contamination: str = "none"       # none | burst | eyeblink
    contamination_seed: int | None = None
    contamination_params: dict = field(default_factory=dict)
    contaminated: list = field(default_factory=list)
    events: list = field(default_factory=list)
    rng: str = RNG_NAME
    schema_version: int = SCHEMA_VERSION
    dataset_sha256: str | None = None

    @property
    def n_series(self) -> int:
        return 2 * self.n_per_group

    def to_json(self, **kwargs) -> str:
        return json.dumps(asdict(self), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "SimManifest":
        return cls(**json.loads(text))


def generate_clean_dataset(n_per_group: int, p: int, t_spec, fs: float = DEFAULT_FS,
                           seed: int = 0, bands=DEFAULT_BANDS):
    """Two groups of clean trials; returns (dataset, manifest).

    ``t_spec`` is either a fixed length or a (lo, hi) range from which each
    trial's length is drawn uniformly.  Group 1 trials come first.
    """
    if n_per_group < 1:
        raise ValueError("need at least one trial per group")
    n = 2 * n_per_group
    if np.isscalar(t_spec):
        lengths = [int(t_spec)] * n
    else:
        lo, hi = int(t_spec[0]), int(t_spec[1])
        rng = make_rng(derive_seed(seed, _LENGTH_STREAM))
        lengths = [int(v) for v in rng.integers(lo, hi + 1, size=n)]
    labels = np.repeat([0, 1], n_per_group)
    mixing = [mixing_matrix(g, p, derive_seed(seed, _MIXING_STREAM, g)) for g in (1, 2)]
    series = []
    for i in range(n):
        latents = simulate_latents(lengths[i], fs, bands, derive_seed(seed, _LATENT_STREAM, i))
        series.append(latents @ mixing[labels[i]])
    dataset = MtsDataset(series=series, labels=labels, contaminated=np.zeros(n, dtype=bool))
    manifest = SimManifest(
        seed=seed,
        fs=fs,
        n_per_group=n_per_group,
        n_channels=p,
        lengths=lengths,
        group_labels=labels.tolist(),
        mixing=[a.tolist() for a in mixing],
        bands=[asdict(b) for b in bands],
    )
    return dataset, manifest


def _burst_waveform(tau: int, freq: float, fs: float) -> np.ndarray:
    q = np.arange(tau)
    hann = 0.5 * (1.0 - np.cos(2.0 * np.pi * q / (tau - 1)))
    return np.sin(2.0 * np.pi * freq * q / fs) * hann


def _blink_waveform(tau: int) -> np.ndarray:
    q = np.arange(tau)
    return np.sin(np.pi * q / (tau - 1))


def apply_event(x: np.ndarray, event: dict, sigma: np.ndarray, fs: float) -> None:
    """Add one recorded artifact event to a trial, in place.

    ``sigma`` must be the per-channel standard deviations of the clean
    trial, so multi-event replays are order-independent.
    """
    t0 = int(event["t0"])
    tau = int(event["tau"])
    channels = np.asarray(event["channels"], dtype=int)
    if event["kind"] == "burst":
        wave = event["amplitude"] * _burst_waveform(tau, event["freq_hz"], fs)
    elif event["kind"] == "eyeblink":
        wave = event["polarity"] * event["amplitude"] * _blink_waveform(tau)
    else:
        raise ValueError(f"unknown event kind {event['kind']!r}")
    x[t0:t0 + tau, channels] += sigma[channels] * wave[:, None]


def _pick_contaminated(labels: np.ndarray, rho: float, rng: np.random.Generator) -> np.ndarray:
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"contaminated share rho must lie in [0, 1], got {rho}")
    chosen = []
    for g in np.unique(labels):
        members = np.flatnonzero(labels == g)
        k = ceil(rho * len(members))
        chosen.extend(rng.choice(members, size=k, replace=False))
    return np.array(sorted(chosen), dtype=int)


def inject_bursts(dataset: MtsDataset, manifest: SimManifest, rho: float = 0.20,
                  eta: float = 5.0, seed: int = 0):
    """Contaminate a share of trials per group with Hann-windowed tone bursts.

    Per contaminated trial: 1-3 bursts, each 250 ms long, at a uniform
    30-80 Hz carrier, added to a random 10% of channels and scaled to
    ``eta`` clean per-channel standard deviations.
    """
    labels = np.asarray(manifest.group_labels)
    fs = manifest.fs
    tau = floor(0.25 * fs)
    if tau >= min(dataset.lengths):
        raise BurstTooLong(f"burst of {tau} samples exceeds the shortest trial")
    rng = make_rng(seed)
    chosen = _pick_contaminated(labels, rho, rng)
    p = dataset.n_channels
    n_chan = ceil(0.10 * p)
    out = dataset.copy()
    events = []
    for i in chosen:
        x = out.series[i]
        sigma = x.std(axis=0)
        n_burst = int(rng.integers(1, 4))
        for _ in range(n_burst):
            event = {
                "kind": "burst",
                "trial": int(i),
                "t0": int(rng.integers(0, x.shape[0] - tau)),
                "tau": int(tau),
                "freq_hz": float(rng.uniform(30.0, 80.0)),
                "channels": sorted(int(c) for c in rng.choice(p, size=n_chan, replace=False)),
                "amplitude": float(eta),
            }
            apply_event(x, event, sigma, fs)
            events.append(event)
    out.contaminated = np.zeros(out.n_series, dtype=bool)
    out.contaminated[chosen] = True
    new_manifest = SimManifest(**{**asdict(manifest),
                                  "contamination": "burst",
                                  "contamination_seed": seed,
                                  "contamination_params": {"rho": rho, "eta": eta},
                                  "contaminated": chosen.tolist(),
                                  "events": events})
    return out, new_manifest


def inject_eyeblinks(dataset: MtsDataset, manifest: SimManifest, rho: float = 0.40,
                     seed: int = 0, frontal_fraction: float = 0.25,
                     channel_fraction: float = 0.50):
    """Contaminate a share of trials per group with frontal half-sine blinks.

    The frontal set defaults to the first 25% of channels; each blink hits
    half of them, lasts 200-400 ms, and deflects by 4-8 clean standard
    deviations with random polarity.
    """
    labels = np.asarray(manifest.group_labels)
    fs = manifest.fs
    max_tau = floor(0.40 * fs)
    if max_tau >= min(dataset.lengths):
        raise BlinkTooLong(f"blink of up to {max_tau} samples exceeds the shortest trial")
    rng = make_rng(seed)
    chosen = _pick_contaminated(labels, rho, rng)
    p = dataset.n_channels
    frontal = np.arange(ceil(frontal_fraction * p))
    n_chan = ceil(channel_fraction * len(frontal))
    out = dataset.copy()
    events = []
    for i in chosen:
        x = out.series[i]
        sigma = x.std(axis=0)
        n_blink = int(rng.integers(1, 3))
        for _ in range(n_blink):
            tau = int(floor(rng.uniform(0.20, 0.40) * fs))
            event = {
                "kind": "eyeblink",
                "trial": int(i),
                "t0": int(rng.integers(0, x.shape[0] - tau)),
                "tau": tau,
                "channels": sorted(int(c) for c in rng.choice(frontal, size=n_chan, replace=False)),
                "amplitude": float(rng.uniform(4.0, 8.0)),
                "polarity": int(rng.choice([-1, 1])),
            }
            apply_event(x, event, sigma, fs)
            events.append(event)
    out.contaminated = np.zeros(out.n_series, dtype=bool)
    out.contaminated[chosen] = True
    new_manifest = SimManifest(**{**asdict(manifest),
                                  "contamination": "eyeblink",
                                  "contamination_seed": seed,
                                  "contamination_params": {
                                      "rho": rho,
                                      "frontal_fraction": frontal_fraction,
                                      "channel_fraction": channel_fraction,
                                  },
                                  "contaminated": chosen.tolist(),
                                  "events": events})
    return out, new_manifest


def replay_contamination(clean: MtsDataset, manifest: SimManifest) -> MtsDataset:
    """Re-apply the manifest's recorded events to a clean dataset.

    Reproduces the contaminated dataset exactly: sigma is recomputed from
    the clean trials, so no extra state beyond the manifest is needed.
    """
    out = clean.copy()
    sigmas = {}
    for event in manifest.events:
        i = int(event["trial"])
        if i not in sigmas:
            sigmas[i] = clean.series[i].std(axis=0)
        apply_event(out.series[i], event, sigmas[i], manifest.fs)
    out.contaminated = np.zeros(out.n_series, dtype=bool)
    out.contaminated[list(manifest.contaminated)] = True
    return out


def regenerate_clean(manifest: SimManifest) -> MtsDataset:
    """Rebuild the clean dataset from a manifest's seed and config."""
    bands = tuple(BandSpec(**b) for b in manifest.bands)
    labels = np.asarray(manifest.group_labels)
    mixing = [np.asarray(a) for a in manifest.mixing]
    series = []
    for i, t in enumerate(manifest.lengths):
        latents = simulate_latents(int(t), manifest.fs, bands,
                                   derive_seed(manifest.seed, _LATENT_STREAM, i))
        series.append(latents @ mixing[labels[i]])
    return MtsDataset(series=series, labels=labels,
                      contaminated=np.zeros(len(series), dtype=bool))
