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
_FRONTAL_FRACTION = 0.25        # eye blinks hit the first quarter of the channels,
_BLINK_CHANNEL_FRACTION = 0.50  # half of them each


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
def _bandpass_sos(peak_hz: float, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Butterworth band-pass around one peak and its steady-state initial
    conditions, designed once per (peak, fs); both arrays are read-only.

    This is scipy.signal's ``butter(_FILTER_ORDER, [lo, hi],
    btype="bandpass", fs=fs, output="sos")`` and ``sosfilt_zi``, computed
    with the same numpy operations in the same order, so every simulated
    trial is the one scipy's design gives, bit for bit, without importing
    scipy.signal (about 75 MB and 0.8 s per process).  The steps: analog
    Butterworth poles, pre-warped edges, the lowpass-to-bandpass and
    bilinear transforms, then "nearest" pairing into sections: the pole
    closest to the unit circle goes last, each pole takes its nearest
    zeros, and the gain goes into section 0.
    """
    n = _FILTER_ORDER
    lo, hi = _band_edges(peak_hz, fs)
    # edges pre-warped for the bilinear transform at a rate of 2
    warped = 4.0 * np.tan(np.pi * (np.array([lo, hi]) / (fs / 2)) / 2.0)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    p = -np.exp(1j * np.pi * np.arange(-n + 1, n, 2, dtype=float) / (2 * n))
    p = p * bw / 2
    p = np.concatenate((p + np.sqrt(p**2 - wo**2), p - np.sqrt(p**2 - wo**2)))
    z = np.zeros(n, dtype=complex)  # the band-pass zeros at s = 0; n more at infinity
    k = bw**n * np.real(np.prod(4.0 - z) / np.prod(4.0 - p))
    p = (4.0 + p) / (4.0 - p)
    # one pole of each conjugate pair, pairs averaged; the zeros land on z = +-1
    p = p[np.lexsort((abs(p.imag), p.real))]
    p = (p[p.imag > 0] + p[p.imag < 0].conj()) / 2
    z = np.array([-1.0] * n + [1.0] * n)
    sos = np.zeros((n, 6))
    for si in range(n - 1, -1, -1):
        i = np.argmin(np.abs(1 - np.abs(p)))
        p1 = p[i]
        p = np.delete(p, i)
        b = np.ones(1)
        for _ in range(2):
            i = np.argsort(np.abs(z - p1))[0]
            b = np.convolve(b, [1.0, -z[i]])
            z = np.delete(z, i)
        a = np.ones(1, dtype=complex)
        for root in (p1, p1.conj()):
            a = np.convolve(a, [1.0 + 0j, -root])
        sos[si, :3] = b
        sos[si, 3:] = a.real
    sos[0, :3] *= k
    zi = np.empty((n, 2))
    scale = 1.0
    for si, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        companion = np.array([-a[1:], [1.0, 0.0]])
        zi[si] = scale * np.linalg.solve(np.eye(2) - companion.T, b[1:] - a[1:] * b[0])
        scale *= b.sum() / a.sum()
    sos.setflags(write=False)
    zi.setflags(write=False)
    return sos, zi


def _sections(sos: np.ndarray, zi: np.ndarray, x: list) -> list:
    """``scipy.signal.sosfilt``: cascaded transposed-direct-form-II biquads
    from state ``zi``, in scipy's order of operations."""
    for (b0, b1, b2, _, a1, a2), (z0, z1) in zip(sos.tolist(), zi.tolist()):
        y = []
        append = y.append
        for xn in x:
            yn = b0 * xn + z0
            z0 = b1 * xn - a1 * yn + z1
            z1 = b2 * xn - a2 * yn
            append(yn)
        x = y
    return x


def _filtfilt(sos: np.ndarray, zi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``scipy.signal.sosfiltfilt(sos, x)`` with ``zi = sosfilt_zi(sos)``:
    forward and backward over an odd extension of ``x``."""
    edge = 3 * (2 * len(sos) + 1 - min(np.count_nonzero(sos[:, 2] == 0),
                                       np.count_nonzero(sos[:, 5] == 0)))
    ext = np.concatenate((2 * x[:1] - x[edge:0:-1], x, 2 * x[-1:] - x[-2:-(edge + 2):-1]))
    y = _sections(sos, zi * ext[0], ext.tolist())
    y = _sections(sos, zi * y[-1], y[::-1])
    return np.array(y[::-1][edge:-edge])


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
    rng = make_rng(seed)
    out = np.empty((t, len(bands)))
    for j, band in enumerate(bands):
        phi1, phi2 = ar2_coefficients(band.peak_hz, band.sharpness, fs)
        # the AR(2) recursion from zero state, as one all-pole section
        z = np.array(_sections(np.array([[1.0, 0.0, 0.0, 1.0, -phi1, -phi2]]), np.zeros((1, 2)),
                               rng.standard_normal(t + _BURN_IN).tolist())[_BURN_IN:])
        z = _filtfilt(*_bandpass_sos(band.peak_hz, fs), _standardize(z))
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
    bandpass: dict | None = None      # the band-pass filter; None records the generator's at fs
    contamination: str = "none"       # none | burst | eyeblink
    contamination_seed: int | None = None
    contamination_params: dict = field(default_factory=dict)
    contaminated: list = field(default_factory=list)
    events: list = field(default_factory=list)
    rng: str = RNG_NAME
    schema_version: int = SCHEMA_VERSION
    dataset_sha256: str | None = None

    def __post_init__(self):
        if self.bandpass is None:
            self.bandpass = {
                "family": "butterworth-sos",
                "order_per_pass": _FILTER_ORDER,
                "zero_phase": True,
                "edge_factors": [_EDGE_LO_FACTOR, _EDGE_HI_FACTOR],
                # each band's edges, its peak times edge_factors, clamped to this range
                "edge_clamp_hz": [_MIN_EDGE_HZ, _MAX_EDGE_FRACTION * self.fs / 2.0],
            }

    def to_json(self, **kwargs) -> str:
        return json.dumps(asdict(self), **kwargs)


def generate_clean_dataset(n_per_group: int, p: int, t_spec, fs: float = DEFAULT_FS,
                           seed: int = 0):
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
    manifest = SimManifest(
        seed=seed,
        fs=fs,
        n_per_group=n_per_group,
        n_channels=p,
        lengths=lengths,
        group_labels=labels.tolist(),
        mixing=[a.tolist() for a in mixing],
    )
    return regenerate_clean(manifest), manifest


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


def _inject(dataset: MtsDataset, manifest: SimManifest, kind: str, seed: int, params: dict,
            max_events: int, draw):
    """One contamination recipe: pick ``params["rho"]`` of each group's trials,
    draw 1 to ``max_events`` events per picked trial, each from
    ``draw(rng, trial length)``, and return (dataset with the events
    replayed, manifest recording them)."""
    rng = make_rng(seed)
    chosen = _pick_contaminated(np.asarray(manifest.group_labels), params["rho"], rng)
    events = []
    for i in chosen:
        for _ in range(int(rng.integers(1, max_events + 1))):
            events.append({"kind": kind, "trial": int(i), **draw(rng, len(dataset.series[i]))})
    new_manifest = SimManifest(**{**asdict(manifest),
                                  "contamination": kind,
                                  "contamination_seed": seed,
                                  "contamination_params": params,
                                  "contaminated": chosen.tolist(),
                                  "events": events})
    return replay_contamination(dataset, new_manifest), new_manifest


def inject_bursts(dataset: MtsDataset, manifest: SimManifest, rho: float = 0.20,
                  eta: float = 5.0, seed: int = 0):
    """Contaminate a share of trials per group with Hann-windowed tone bursts.

    Per contaminated trial: 1-3 bursts, each 250 ms long, at a uniform
    30-80 Hz carrier, added to a random 10% of channels and scaled to
    ``eta`` clean per-channel standard deviations.
    """
    tau = floor(0.25 * manifest.fs)
    if tau >= min(dataset.lengths):
        raise BurstTooLong(f"burst of {tau} samples exceeds the shortest trial")
    p = dataset.n_channels
    n_chan = ceil(0.10 * p)

    def draw(rng, length):
        return {"t0": int(rng.integers(0, length - tau)),
                "tau": tau,
                "freq_hz": float(rng.uniform(30.0, 80.0)),
                "channels": sorted(int(c) for c in rng.choice(p, size=n_chan, replace=False)),
                "amplitude": float(eta)}
    return _inject(dataset, manifest, "burst", seed, {"rho": rho, "eta": eta},
                   max_events=3, draw=draw)


def inject_eyeblinks(dataset: MtsDataset, manifest: SimManifest, rho: float = 0.40,
                     seed: int = 0):
    """Contaminate a share of trials per group with frontal half-sine blinks.

    The frontal set is the first 25% of channels; each blink hits half of
    them, lasts 200-400 ms, and deflects by 4-8 clean standard
    deviations with random polarity.
    """
    fs = manifest.fs
    max_tau = floor(0.40 * fs)
    if max_tau >= min(dataset.lengths):
        raise BlinkTooLong(f"blink of up to {max_tau} samples exceeds the shortest trial")
    frontal = np.arange(ceil(_FRONTAL_FRACTION * dataset.n_channels))
    n_chan = ceil(_BLINK_CHANNEL_FRACTION * len(frontal))

    def draw(rng, length):
        tau = int(floor(rng.uniform(0.20, 0.40) * fs))
        return {"t0": int(rng.integers(0, length - tau)),
                "tau": tau,
                "channels": sorted(int(c) for c in rng.choice(frontal, size=n_chan, replace=False)),
                "amplitude": float(rng.uniform(4.0, 8.0)),
                "polarity": int(rng.choice([-1, 1]))}
    params = {"rho": rho, "frontal_fraction": _FRONTAL_FRACTION,
              "channel_fraction": _BLINK_CHANNEL_FRACTION}
    return _inject(dataset, manifest, "eyeblink", seed, params, max_events=2, draw=draw)


def replay_contamination(clean: MtsDataset, manifest: SimManifest) -> MtsDataset:
    """Re-apply the manifest's recorded events to a clean dataset.

    Reproduces the contaminated dataset exactly: sigma is recomputed from
    the clean trials, so no extra state beyond the manifest is needed.  The
    returned series and labels are copies; ``clean`` is left unchanged.
    Events that sum past the float range leave a trial that is not finite,
    which the returned dataset rejects (``NonFiniteInput``).
    """
    series = [x.copy() for x in clean.series]
    sigmas = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for event in manifest.events:
            i = int(event["trial"])
            if i not in sigmas:
                sigmas[i] = clean.series[i].std(axis=0)
            apply_event(series[i], event, sigmas[i], manifest.fs)
    contaminated = np.zeros(len(series), dtype=bool)
    contaminated[list(manifest.contaminated)] = True
    labels = None if clean.labels is None else clean.labels.copy()
    return MtsDataset(series=series, labels=labels, contaminated=contaminated)


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
