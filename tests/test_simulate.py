import json
import math

import numpy as np
import pytest
from scipy import signal

import rfcpca.simulate as simulate_mod
from rfcpca.exceptions import BlinkTooLong, BurstTooLong, InvalidBand, NonFiniteInput
from rfcpca.experiments import make_benchmark_dataset
from rfcpca.rng import make_rng
from rfcpca.simulate import (
    DEFAULT_BANDS,
    SimManifest,
    ar2_coefficients,
    generate_clean_dataset,
    inject_bursts,
    inject_eyeblinks,
    mixing_matrix,
    regenerate_clean,
    replay_contamination,
    simulate_latents,
)


class TestAr2Coefficients:
    def test_quarter_rate_boundary(self):
        phi1, phi2 = ar2_coefficients(25.0, 1e-9, 100.0)
        assert phi1 == pytest.approx(0.0, abs=1e-8)
        assert phi2 == pytest.approx(-1.0, abs=1e-6)

    def test_delta_band_values(self):
        phi1, phi2 = ar2_coefficients(2.0, 0.05, 100.0)
        assert phi1 == pytest.approx(2 * math.exp(-0.05) * math.cos(0.04 * math.pi), rel=1e-12)
        assert phi1 == pytest.approx(1.8875, abs=5e-4)
        assert phi2 == pytest.approx(-math.exp(-0.1), rel=1e-12)
        assert phi2 == pytest.approx(-0.9048, abs=5e-4)

    def test_stationarity(self):
        rng = make_rng(60)
        for _ in range(100):
            f = float(rng.uniform(0.5, 49.0))
            kappa = float(rng.uniform(1e-3, 0.5))
            phi1, phi2 = ar2_coefficients(f, kappa, 100.0)
            assert abs(phi2) < 1.0
            assert abs(phi1) < 1.0 - phi2

    def test_invalid(self):
        with pytest.raises(InvalidBand):
            ar2_coefficients(60.0, 0.05, 100.0)
        with pytest.raises(InvalidBand):
            ar2_coefficients(10.0, 0.0, 100.0)


class TestLatents:
    def test_unit_variance(self):
        z = simulate_latents(512, seed=1)
        np.testing.assert_allclose(z.var(axis=0), 1.0, atol=1e-9)

    def test_alpha_band_spectral_peak(self):
        z = simulate_latents(2**14, seed=2)
        freqs, psd = signal.periodogram(z[:, 2], fs=100.0)
        peak = freqs[np.argmax(psd)]
        assert 8.0 <= peak <= 12.0

    def test_deterministic(self):
        a = simulate_latents(256, seed=3)
        b = simulate_latents(256, seed=3)
        assert np.array_equal(a, b)


def _scipy_design(peak_hz, fs):
    lo, hi = simulate_mod._band_edges(peak_hz, fs)
    sos = signal.butter(simulate_mod._FILTER_ORDER, [lo, hi], btype="bandpass", fs=fs,
                        output="sos")
    return sos, signal.sosfilt_zi(sos)


def _design_sweep():
    """(peak, fs) pairs: the default bands at 100 Hz, then log-uniform peaks
    at 100, 128 and 250 Hz, which reach both clamps of the band edges."""
    rng = make_rng(70)
    cases = [(band.peak_hz, 100.0) for band in DEFAULT_BANDS]
    for fs in (100.0, 128.0, 250.0):
        cases += [(float(peak), fs) for peak in np.exp(rng.uniform(np.log(0.4),
                                                                   np.log(0.48 * fs), 40))]
    return cases


class TestFiltersMatchScipy:
    """The simulator's filters against scipy.signal, which they replace.

    Every comparison is bitwise (``np.array_equal``, no tolerance): the
    filters repeat scipy's operations in scipy's order.  That holds on x86-64
    builds, whose compiled filters do not fuse multiply-adds; a build that
    fuses them rounds differently.
    """

    def test_band_pass_design_and_initial_conditions(self):
        cases = _design_sweep()
        clamped = [simulate_mod._band_edges(peak, fs) for peak, fs in cases]
        assert any(lo == 0.5 for lo, _ in clamped)
        assert any(hi == 0.95 * fs / 2 for (_, hi), (_, fs) in zip(clamped, cases))
        for peak, fs in cases:
            sos, zi = simulate_mod._bandpass_sos(peak, fs)
            want_sos, want_zi = _scipy_design(peak, fs)
            assert np.array_equal(sos, want_sos), (peak, fs)
            assert np.array_equal(zi, want_zi), (peak, fs)

    def test_design_is_read_only(self):
        for array in simulate_mod._bandpass_sos(10.0, 100.0):
            assert not array.flags.writeable

    def test_ar2_recursion(self):
        # the generator runs its AR(2) recursion as one all-pole section
        rng = make_rng(71)
        for _ in range(20):
            phi1, phi2 = ar2_coefficients(float(rng.uniform(0.5, 49.0)),
                                          float(rng.uniform(1e-3, 0.5)), 100.0)
            eps = rng.standard_normal(600)
            ar2 = simulate_mod._sections(np.array([[1.0, 0.0, 0.0, 1.0, -phi1, -phi2]]),
                                         np.zeros((1, 2)), eps.tolist())
            assert np.array_equal(np.array(ar2),
                                  signal.lfilter([1.0], [1.0, -phi1, -phi2], eps))

    @pytest.mark.parametrize("t", [64, 65, 400, 4500])
    def test_zero_phase_filter(self, t):
        rng = make_rng(72)
        for band in DEFAULT_BANDS:
            sos, zi = simulate_mod._bandpass_sos(band.peak_hz, 100.0)
            x = rng.standard_normal(t)
            assert np.array_equal(simulate_mod._filtfilt(sos, zi, x),
                                  signal.sosfiltfilt(sos.copy(), x))

    @pytest.mark.parametrize("kind", ["burst", "eyeblink", "none"])
    @pytest.mark.parametrize("seed", [1, 7, 2024])
    def test_benchmark_datasets_are_byte_identical(self, monkeypatch, kind, seed):
        data, manifest = make_benchmark_dataset(kind, 8, (100, 400), seed)
        monkeypatch.setattr(simulate_mod, "_bandpass_sos", _scipy_design)
        monkeypatch.setattr(simulate_mod, "_sections", lambda sos, zi, x: signal.sosfilt(
            sos, x, zi=zi)[0].tolist())
        monkeypatch.setattr(simulate_mod, "_filtfilt",
                            lambda sos, zi, x: signal.sosfiltfilt(sos, x))
        want, want_manifest = make_benchmark_dataset(kind, 8, (100, 400), seed)
        monkeypatch.undo()
        assert manifest.to_json() == want_manifest.to_json()
        assert [x.tobytes() for x in data.series] == [x.tobytes() for x in want.series]
        rebuilt = replay_contamination(regenerate_clean(manifest), manifest)
        assert [x.tobytes() for x in rebuilt.series] == [x.tobytes() for x in data.series]


class TestMixingMatrix:
    def test_columns_sum_to_one(self):
        for g in (1, 2):
            a = mixing_matrix(g, 16, seed=4)
            np.testing.assert_allclose(a.sum(axis=0), 1.0, atol=1e-12)
            assert a.min() >= 0.0

    def test_group2_dominated_by_theta_beta(self):
        a = mixing_matrix(2, 32, seed=5)
        assert np.all(a[1] + a[3] >= 0.8)

    def test_group1_dominated_by_its_bands(self):
        a = mixing_matrix(1, 32, seed=6)
        assert np.all(a[0] + a[1] + a[2] + a[4] >= 0.8)

    def test_groups_differ_in_beta_mass(self):
        for seed in range(10):
            a1 = mixing_matrix(1, 32, seed=seed)
            a2 = mixing_matrix(2, 32, seed=seed)
            assert a2[3].mean() > a1[3].mean()


class TestCleanGenerator:
    def test_shapes_and_labels(self):
        dataset, manifest = generate_clean_dataset(10, 32, 400, seed=7)
        assert dataset.n_series == 20
        assert dataset.n_channels == 32
        assert all(t == 400 for t in dataset.lengths)
        assert list(manifest.group_labels) == [0] * 10 + [1] * 10

    def test_rank_at_most_five(self):
        dataset, _ = generate_clean_dataset(2, 16, 200, seed=8)
        for x in dataset.series:
            assert np.linalg.matrix_rank(x) <= 5

    def test_variable_lengths(self):
        dataset, manifest = generate_clean_dataset(3, 8, (100, 300), seed=9)
        assert all(100 <= t <= 300 for t in dataset.lengths)
        assert manifest.lengths == dataset.lengths

    def test_deterministic(self):
        a, ma = generate_clean_dataset(2, 8, 128, seed=10)
        b, mb = generate_clean_dataset(2, 8, 128, seed=10)
        for xa, xb in zip(a.series, b.series):
            assert np.array_equal(xa, xb)
        assert ma.to_json() == mb.to_json()

    def test_manifest_regenerates_clean_data(self):
        dataset, manifest = generate_clean_dataset(2, 8, (100, 200), seed=11)
        rebuilt = regenerate_clean(manifest)
        for xa, xb in zip(dataset.series, rebuilt.series):
            assert np.array_equal(xa, xb)


class TestBursts:
    def test_contamination_count_per_group(self):
        clean, manifest = generate_clean_dataset(10, 16, 200, seed=12)
        out, man = inject_bursts(clean, manifest, rho=0.20, seed=13)
        contaminated = np.asarray(man.contaminated)
        labels = np.asarray(man.group_labels)
        for g in (0, 1):
            assert (labels[contaminated] == g).sum() == 2

    def test_clean_trials_bitwise_unchanged(self):
        clean, manifest = generate_clean_dataset(4, 8, 150, seed=14)
        out, man = inject_bursts(clean, manifest, seed=15)
        untouched = sorted(set(range(clean.n_series)) - set(man.contaminated))
        for i in untouched:
            assert np.array_equal(out.series[i], clean.series[i])
        for i in man.contaminated:
            assert not np.array_equal(out.series[i], clean.series[i])

    def test_burst_waveform_endpoints_and_duration(self):
        clean, manifest = generate_clean_dataset(4, 8, 150, seed=16)
        out, man = inject_bursts(clean, manifest, seed=17)
        for event in man.events:
            assert event["tau"] == 25  # 250 ms at 100 Hz
            i = int(event["trial"])
            t0 = int(event["t0"])
            assert 0 <= t0 and t0 + event["tau"] <= clean.series[i].shape[0]
            assert len(event["channels"]) == math.ceil(0.10 * 8)
        # Hann envelope vanishes at both ends: the first and last burst
        # samples leave the data unchanged
        diff = out.series[man.events[0]["trial"]] - clean.series[man.events[0]["trial"]]
        ev = man.events[0]
        row0 = diff[ev["t0"], ev["channels"]]
        row_last = diff[ev["t0"] + ev["tau"] - 1, ev["channels"]]
        assert np.abs(row0).max() < 1e-12 and np.abs(row_last).max() < 1e-12

    def test_injected_segment_spectral_peak(self):
        from rfcpca.simulate import _burst_waveform

        wave = _burst_waveform(2048, 40.0, 100.0)
        freqs, psd = signal.periodogram(wave, fs=100.0)
        assert abs(freqs[np.argmax(psd)] - 40.0) < 1.0

    def test_replay_reproduces_exactly(self):
        clean, manifest = generate_clean_dataset(5, 8, 180, seed=18)
        out, man = inject_bursts(clean, manifest, seed=19)
        replayed = replay_contamination(clean, man)
        for xa, xb in zip(out.series, replayed.series):
            assert np.array_equal(xa, xb)

    @pytest.mark.parametrize("scale, eta, series", [(1.0, 1.7e308, 2), (100.0, 1e308, 0)])
    def test_bursts_that_overflow_are_rejected(self, scale, eta, series):
        # overlapping bursts sum past the float range, to inf or, where one
        # burst alone overflows on a trial of large deviation, to inf - inf:
        # the dataset's own finiteness check rejects the trial, and numpy
        # warns of nothing
        clean, manifest = generate_clean_dataset(3, 2, 64, seed=0)
        clean.series = [scale * x for x in clean.series]
        with pytest.raises(NonFiniteInput, match=rf"^series {series} contains non-finite entries$"):
            inject_bursts(clean, manifest, rho=1.0, eta=eta, seed=0)

    def test_burst_too_long(self):
        clean, manifest = generate_clean_dataset(2, 4, 100, seed=20)
        manifest.fs = 1000.0  # tau = 250 samples > shortest trial
        with pytest.raises(BurstTooLong):
            inject_bursts(clean, manifest, seed=21)


class TestEyeblinks:
    def test_half_sine_endpoints(self):
        from rfcpca.simulate import _blink_waveform

        wave = _blink_waveform(30)
        assert wave[0] == 0.0
        assert abs(wave[-1]) < 1e-12

    def test_confined_to_frontal_channels(self):
        clean, manifest = generate_clean_dataset(5, 16, 300, seed=22)
        out, man = inject_eyeblinks(clean, manifest, seed=23)
        frontal = set(range(math.ceil(0.25 * 16)))
        for i in man.contaminated:
            diff = out.series[i] - clean.series[i]
            touched = set(np.flatnonzero(np.abs(diff).sum(axis=0) > 0).tolist())
            assert touched <= frontal

    def test_peak_deflection_matches_amplitude(self):
        clean, manifest = generate_clean_dataset(5, 16, 300, seed=24)
        out, man = inject_eyeblinks(clean, manifest, seed=25)
        ev = man.events[0]
        i = int(ev["trial"])
        sigma = clean.series[i].std(axis=0)
        diff = out.series[i] - clean.series[i]
        j = ev["channels"][0]
        seg = diff[ev["t0"]:ev["t0"] + ev["tau"], j]
        others = [e for e in man.events if e["trial"] == i and j in e["channels"]]
        if len(others) == 1:  # an overlapping second blink would stack
            assert np.abs(seg).max() == pytest.approx(ev["amplitude"] * sigma[j], rel=1e-6)
            assert 4.0 <= ev["amplitude"] <= 8.0

    def test_event_parameters_in_range(self):
        clean, manifest = generate_clean_dataset(10, 32, (120, 400), seed=26)
        out, man = inject_eyeblinks(clean, manifest, rho=0.40, seed=27)
        labels = np.asarray(man.group_labels)
        contaminated = np.asarray(man.contaminated)
        for g in (0, 1):
            assert (labels[contaminated] == g).sum() == 4
        for ev in man.events:
            assert 20 <= ev["tau"] <= 40
            assert ev["polarity"] in (-1, 1)
            assert len(ev["channels"]) == math.ceil(0.5 * math.ceil(0.25 * 32))

    def test_replay_reproduces_exactly(self):
        clean, manifest = generate_clean_dataset(4, 12, (100, 250), seed=28)
        out, man = inject_eyeblinks(clean, manifest, seed=29)
        replayed = replay_contamination(clean, man)
        for xa, xb in zip(out.series, replayed.series):
            assert np.array_equal(xa, xb)

    def test_blink_too_long(self):
        clean, manifest = generate_clean_dataset(2, 4, 100, seed=30)
        manifest.fs = 500.0
        with pytest.raises(BlinkTooLong):
            inject_eyeblinks(clean, manifest, seed=31)


class TestManifest:
    def test_json_roundtrip(self):
        clean, manifest = generate_clean_dataset(3, 8, 120, seed=32)
        out, man = inject_bursts(clean, manifest, seed=33)
        doc = man.to_json()
        back = SimManifest(**json.loads(doc))
        assert back.to_json() == doc
        parsed = json.loads(doc)
        assert parsed["schema_version"] == 1
        assert parsed["rng"] == "numpy-pcg64"
