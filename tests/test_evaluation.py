import numpy as np
import pytest

import reference as ref
from rfcpca.core import FitResult, MembershipMatrix
from rfcpca.covariance import ClusterSubspaces
from rfcpca.evaluation import (
    UNASSIGNED,
    adjusted_rand_index,
    evaluate_fit,
    flag_outliers,
    harden,
    outlier_recall,
    rand_index,
)
from rfcpca.exceptions import EmptyIndexSet
from rfcpca.rng import make_rng


def _fit_with(u, variant, retained=None, errors=None):
    u = np.asarray(u, dtype=float)
    params = {}
    if retained is not None:
        params = {"alpha": 0.0, "retained": np.asarray(retained, dtype=int)}
    n_sub = u.shape[1] - 1 if variant == "n" else u.shape[1]
    axes = [[np.eye(4)[:, :2]] for _ in range(n_sub)]
    return FitResult(
        memberships=MembershipMatrix(u, 2.0),
        subspaces=ClusterSubspaces(axes=axes),
        errors=np.zeros((u.shape[0], n_sub)) if errors is None else errors,
        objective_trace=[1.0],
        iterations=1,
        converged=True,
        variant=variant,
        variant_params=params,
    )


class TestHarden:
    def test_dominant_row(self):
        labels = harden(np.array([[0.9, 0.1]]))
        assert labels[0] == 0

    def test_below_threshold_unassigned(self):
        labels = harden(np.array([[0.6, 0.4]]))
        assert labels[0] == UNASSIGNED


class TestFlagOutliers:
    def test_exponential_rule(self):
        fit = _fit_with([[0.65, 0.35], [0.9, 0.1]], "e")
        assert list(flag_outliers(fit)) == [0]

    def test_noise_rule_boundary_inclusive(self):
        fit = _fit_with([[0.3, 0.2, 0.5], [0.5, 0.4, 0.1]], "n")
        assert list(flag_outliers(fit)) == [0]

    def test_trim_rule_complement(self):
        fit = _fit_with(np.full((5, 2), 0.5), "t", retained=[0, 1, 2])
        assert list(flag_outliers(fit)) == [3, 4]

    def test_baseline_uses_dominance_rule(self):
        fit = _fit_with([[0.71, 0.29], [0.5, 0.5]], "fcpca")
        assert list(flag_outliers(fit)) == [1]


class TestRandIndices:
    def test_identical_labelings(self):
        assert rand_index([1, 1, 2, 2], [1, 1, 2, 2]) == 1.0
        assert adjusted_rand_index([1, 1, 2, 2], [1, 1, 2, 2]) == 1.0

    def test_relabeling_invariance(self):
        assert rand_index([1, 1, 2, 2], [2, 2, 1, 1]) == 1.0
        assert adjusted_rand_index([1, 1, 2, 2], [2, 2, 1, 1]) == 1.0

    def test_hand_counted_pairs(self):
        a = [1, 1, 2, 2]
        b = [1, 2, 1, 2]
        assert rand_index(a, b) == pytest.approx(1 / 3)
        assert adjusted_rand_index(a, b) < 0.01

    def test_matches_brute_force(self):
        rng = make_rng(70)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            a = rng.integers(0, 3, size=n)
            b = rng.integers(0, 3, size=n)
            if len(set(a.tolist())) < 1 or len(set(b.tolist())) < 1:
                continue
            assert rand_index(a, b) == pytest.approx(ref.ref_rand_index(a, b))
            assert adjusted_rand_index(a, b) == pytest.approx(ref.ref_adjusted_rand_index(a, b))

    def test_random_labeling_ari_near_zero(self):
        rng = make_rng(71)
        truth = np.repeat([0, 1], 10)
        values = []
        for _ in range(1000):
            values.append(adjusted_rand_index(truth, rng.permutation(truth)))
        assert abs(np.mean(values)) < 0.05

    def test_empty_raises(self):
        with pytest.raises(EmptyIndexSet):
            rand_index([], [])


class TestOutlierRecall:
    def test_exact_match(self):
        assert outlier_recall({1, 2}, {1, 2}) == 1.0

    def test_empty_flagged(self):
        assert outlier_recall(set(), {1, 2}) == 0.0

    def test_partial(self):
        assert outlier_recall({2, 3, 9}, {1, 2, 3, 4}) == 0.5

    def test_undefined_without_truth(self):
        assert outlier_recall({1}, set()) is None


class TestEvaluateFit:
    def test_perfect_crisp_fit(self):
        u = np.array([[0.95, 0.05]] * 3 + [[0.05, 0.95]] * 3)
        fit = _fit_with(u, "fcpca")
        report = evaluate_fit(fit, [0, 0, 0, 1, 1, 1])
        assert report.acc_rand == 1.0
        assert report.acc_adjusted_rand == 1.0
        assert report.outlier_recall is None
        assert report.flagged == []

    def test_flagged_removed_from_scoring(self):
        u = np.array([[0.95, 0.05], [0.9, 0.1], [0.5, 0.5],
                      [0.05, 0.95], [0.1, 0.9]])
        fit = _fit_with(u, "e")
        report = evaluate_fit(fit, [0, 0, 0, 1, 1], true_outliers=[2])
        assert report.flagged == [2]
        assert report.n_scored == 4
        assert report.acc_rand == 1.0
        assert report.outlier_recall == 1.0
        assert report.false_positives == 0

    def test_unassigned_scored_as_misclassified(self):
        # noise-variant row that stays diffuse after renormalisation
        u = np.array([
            [0.8, 0.1, 0.1],
            [0.75, 0.15, 0.1],
            [0.40, 0.35, 0.25],   # renormalised max 0.53 -> unassigned
            [0.1, 0.8, 0.1],
            [0.15, 0.75, 0.1],
        ])
        fit = _fit_with(u, "n")
        report = evaluate_fit(fit, [0, 0, 0, 1, 1])
        assert report.unassigned == [2]
        assert report.acc_rand < 1.0

    def test_false_positive_count(self):
        u = np.array([[0.5, 0.5], [0.95, 0.05], [0.05, 0.95], [0.1, 0.9]])
        fit = _fit_with(u, "e")
        report = evaluate_fit(fit, [0, 0, 1, 1], true_outliers=[3])
        assert report.false_positives == 1
        assert report.outlier_recall == 0.0

    def test_too_few_scored_is_undefined(self):
        u = np.array([[0.5, 0.5], [0.5, 0.5], [0.9, 0.1]])
        fit = _fit_with(u, "e")
        report = evaluate_fit(fit, [0, 1, 0])
        assert report.acc_rand is None
        assert report.n_scored == 1

    def test_trim_union_is_disjoint_partition(self):
        fit = _fit_with(np.full((6, 2), 0.5), "t", retained=[0, 2, 4])
        flagged = set(flag_outliers(fit).tolist())
        retained = set(fit.variant_params["retained"].tolist())
        assert flagged | retained == set(range(6))
        assert flagged & retained == set()
