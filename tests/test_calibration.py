"""Membership uncertainty follows how mixed a trial is.

Twenty clean trials of the two simulated groups are joined by nine trials
whose latents mix through (1 - w) A1 + w A2, w = 0.1 ... 0.9, where A1 and A2
are the groups' mixing matrices.  A calibrated fuzzy fit gives such a trial
more membership in group 2's cluster the larger its w: the memberships rank
the nine trials exactly as w does (Spearman rho = 1), so they rise strictly.
No calibration bound is asserted: a report prints, for each m, where the
memberships cross 0.5, which a calibrated fit would do at w = 0.5.

The exponential variant is left out: on the clean trials alone it can stall
with every membership at 0.5 and flag every trial.
"""

import numpy as np
import pytest

from rfcpca.core import _Prepared, fit_fcpca
from rfcpca.dataset import MtsDataset
from rfcpca.robust import fit_rfcpca_n, fit_rfcpca_t
from rfcpca.simulate import generate_clean_dataset, simulate_latents

MIX = np.arange(1, 10) / 10
N_PER_GROUP = 10
LENGTH = 400


def mixed_trials(seed, p):
    """The clean trials, group 1 first, then the nine mixed ones in order of w."""
    clean, manifest = generate_clean_dataset(N_PER_GROUP, p, LENGTH, seed=seed)
    a1, a2 = (np.asarray(a) for a in manifest.mixing)
    mixed = [simulate_latents(LENGTH, seed=1000 * seed + k) @ ((1.0 - w) * a1 + w * a2)
             for k, w in enumerate(MIX)]
    return MtsDataset(series=clean.series + mixed)


def fits_at(prep, m):
    return {
        "fcpca": fit_fcpca(prep, 2, m=m, v=0.99, seed=1),
        "t": fit_rfcpca_t(prep, 2, m=m, alpha=0.1, v=0.99, seed=1),
        "n": fit_rfcpca_n(prep, 2, m=m, v=0.99, lam=1.0, seed=1),
    }


def toward_group_2(fit):
    """The mixed trials' memberships in the cluster of group 2, and whether
    that cluster differs from group 1's."""
    clean = 2 * N_PER_GROUP
    u = fit.memberships.u[:, :2]  # the regular clusters; n adds a noise column
    group_2 = int(u[N_PER_GROUP:clean].mean(axis=0).argmax())
    return u[clean:, group_2], group_2 != int(u[:N_PER_GROUP].mean(axis=0).argmax())


def crossing(toward_2):
    """The w at which the memberships first reach 0.5, linear between
    neighbouring w (the first w if they start there), or None."""
    reached = np.flatnonzero(toward_2 >= 0.5)
    if len(reached) == 0:
        return None
    k = reached[0]
    if k == 0:
        return float(MIX[0])
    lo, hi = toward_2[k - 1], toward_2[k]
    return float(MIX[k - 1] + (0.5 - lo) / (hi - lo) * (MIX[k] - MIX[k - 1]))


@pytest.mark.parametrize("p", [16, 32])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_memberships_rise_with_the_share_of_group_2(seed, p):
    fits = fits_at(_Prepared(mixed_trials(seed, p), 2), 2.0)
    for name, fit in fits.items():
        toward_2, apart = toward_group_2(fit)
        assert apart, name
        assert np.all(np.diff(toward_2) > 0.0), (name, toward_2)
    # a trial between the groups is uncertain, not noise
    clean = 2 * N_PER_GROUP
    assert not np.isin(fits["n"].flagged, np.arange(clean, clean + len(MIX))).any()


@pytest.mark.parametrize("seed, p", [(1, 16), (2, 16), (1, 32)])
def test_crossing_report(seed, p):
    # report only: where each fit's memberships cross 0.5 against m, which
    # sets them through (r1/r2)^(1/(m-1)), and how many mixed trials it flags
    prep = _Prepared(mixed_trials(seed, p), 2)
    mixed = np.arange(2 * N_PER_GROUP, 2 * N_PER_GROUP + len(MIX))
    for m in (1.2, 1.6, 2.0, 2.5):
        for name, fit in fits_at(prep, m).items():
            w_star = crossing(toward_group_2(fit)[0])
            print(f"CALIBRATION (seed {seed}, p {p}, m {m}, {name}): REPORT "
                  f"(w*={'none' if w_star is None else f'{w_star:.2f}'}, "
                  f"flagged={int(np.isin(fit.flagged, mixed).sum())}/{len(MIX)})")
