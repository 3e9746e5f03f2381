"""Membership uncertainty follows how mixed a trial is.

Twenty clean trials of the two simulated groups are joined by nine trials
whose latents mix through (1 - w) A1 + w A2, w = 0.1 ... 0.9, where A1 and A2
are the groups' mixing matrices.  A calibrated fuzzy fit gives such a trial
more membership in group 2's cluster the larger its w: the memberships rank
the nine trials exactly as w does (Spearman rho = 1), so they rise strictly.
No calibration bound is asserted.

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


@pytest.mark.parametrize("p", [16, 32])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_memberships_rise_with_the_share_of_group_2(seed, p):
    prep = _Prepared(mixed_trials(seed, p), 2)
    fits = {
        "fcpca": fit_fcpca(prep, 2, m=2.0, v=0.99, seed=1),
        "t": fit_rfcpca_t(prep, 2, m=2.0, alpha=0.1, v=0.99, seed=1),
        "n": fit_rfcpca_n(prep, 2, m=2.0, v=0.99, lam=1.0, seed=1),
    }
    clean = 2 * N_PER_GROUP
    for name, fit in fits.items():
        u = fit.memberships.u[:, :2]  # the regular clusters; n adds a noise column
        group_2 = int(u[N_PER_GROUP:clean].mean(axis=0).argmax())
        assert group_2 != int(u[:N_PER_GROUP].mean(axis=0).argmax()), name
        toward_2 = u[clean:, group_2]
        assert np.all(np.diff(toward_2) > 0.0), (name, toward_2)
    # a trial between the groups is uncertain, not noise
    assert not np.isin(fits["n"].flagged, np.arange(clean, clean + len(MIX))).any()
