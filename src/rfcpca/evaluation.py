"""Ground-truth scoring: hardened labels, outlier flags, and pair-counting indices."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import HARDEN_THRESHOLD, FitResult, flag_outliers
from .exceptions import EmptyIndexSet

UNASSIGNED = -1


@dataclass
class EvalReport:
    """Scores of one fit against ground truth.

    ``acc_rand``/``acc_adjusted_rand`` are None when fewer than two objects
    remain to score, and ``outlier_recall`` is None when there are no true
    outliers.
    """

    acc_rand: float | None
    acc_adjusted_rand: float | None
    outlier_recall: float | None
    flagged: list = field(default_factory=list)
    unassigned: list = field(default_factory=list)
    false_positives: int = 0
    n_scored: int = 0
    rule: str = ""

    def to_json(self, **kwargs) -> str:
        return json.dumps(asdict(self), **kwargs)


def harden(memberships: np.ndarray, threshold: float = HARDEN_THRESHOLD) -> np.ndarray:
    """Crisp labels by dominance: argmax if it reaches the threshold, else -1.

    Argmax ties go to the lower cluster index.
    """
    u = np.asarray(memberships, dtype=float)
    labels = np.argmax(u, axis=1)
    labels[u.max(axis=1) < threshold] = UNASSIGNED
    return labels


def regular_memberships(fit: FitResult) -> np.ndarray:
    """Memberships over the substantive clusters, one row per object.

    The noise variant's regular columns are renormalised to sum to one (a
    row with no regular membership at all stays zero); other variants'
    memberships are returned as they are.
    """
    u = fit.memberships.u
    if fit.variant != "n":
        return u
    regular = u[:, :-1]
    return regular / np.maximum(regular.sum(axis=1, keepdims=True), 1e-300)


def _contingency(a: np.ndarray, b: np.ndarray):
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table


def _comb2(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.int64)
    return x * (x - 1) // 2


def _check_labelings(a, b):
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.size == 0:
        raise EmptyIndexSet("labelings are empty")
    if a.shape != b.shape:
        raise ValueError("labelings must cover the same index set")
    return a, b


def rand_index(labels_a, labels_b) -> float:
    """Fraction of object pairs on which the two labelings agree."""
    a, b = _check_labelings(labels_a, labels_b)
    n = a.size
    if n < 2:
        return 1.0
    table = _contingency(a, b)
    same_same = int(_comb2(table).sum())
    same_a = int(_comb2(table.sum(axis=1)).sum())
    same_b = int(_comb2(table.sum(axis=0)).sum())
    total = int(_comb2(n))
    diff_diff = total - same_a - same_b + same_same
    return (same_same + diff_diff) / total


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected pair agreement; 1 for identical partitions, ~0 at random."""
    a, b = _check_labelings(labels_a, labels_b)
    n = a.size
    if n < 2:
        return 1.0
    table = _contingency(a, b)
    same_same = float(_comb2(table).sum())
    same_a = float(_comb2(table.sum(axis=1)).sum())
    same_b = float(_comb2(table.sum(axis=0)).sum())
    total = float(_comb2(n))
    expected = same_a * same_b / total
    max_index = 0.5 * (same_a + same_b)
    if max_index == expected:
        return 1.0
    return (same_same - expected) / (max_index - expected)


def outlier_recall(flagged, truth) -> float | None:
    """|flagged intersect truth| / |truth|; None when there is no truth set."""
    truth = set(int(i) for i in truth)
    if not truth:
        return None
    flagged = set(int(i) for i in flagged)
    return len(flagged & truth) / len(truth)


def _scored_prediction(fit: FitResult, scored: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hardened labels on the scored set; unassigned objects become unique
    dummy labels distinct from every true label, i.e. scored as misclassified."""
    labels = harden(regular_memberships(fit)[scored])
    unassigned = scored[labels == UNASSIGNED]
    dummy = -2 - np.arange(np.count_nonzero(labels == UNASSIGNED))
    labels[labels == UNASSIGNED] = dummy
    return labels, unassigned


def evaluate_fit(fit: FitResult, true_labels, true_outliers=()) -> EvalReport:
    """Score a fit: flagged objects are removed, the rest are hardened and
    compared with the truth by (adjusted) Rand index."""
    true_labels = np.asarray(true_labels)
    flagged = flag_outliers(fit)
    scored = np.setdiff1d(np.arange(fit.n_series), flagged)
    report = EvalReport(
        acc_rand=None,
        acc_adjusted_rand=None,
        outlier_recall=outlier_recall(flagged, true_outliers),
        flagged=flagged.tolist(),
        n_scored=int(scored.size),
        false_positives=len(set(flagged.tolist()) - set(int(i) for i in true_outliers)),
        rule=fit.variant,
    )
    if scored.size >= 2:
        predicted, unassigned = _scored_prediction(fit, scored)
        report.unassigned = unassigned.tolist()
        report.acc_rand = rand_index(true_labels[scored], predicted)
        report.acc_adjusted_rand = adjusted_rand_index(true_labels[scored], predicted)
    return report
