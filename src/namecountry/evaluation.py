"""Measurement machinery: classification metrics, cross-taxonomy evaluation,
head/tail buckets, cross-country name duplication, and group bias analysis
with Wilson confidence intervals.

Macro-F1 convention used throughout: classes with zero gold support and zero
predictions are excluded from the macro mean; classes that do appear but have
an undefined precision, recall, or F1 contribute 0. Weighted-F1 weights
per-class F1 by gold support.
"""
from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import LabelMapping, NameRecord, Taxonomy

LabelPair = tuple[str, str]


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    weighted_f1: float
    macro_f1: float
    per_class: dict[str, ClassMetrics]
    n_records: int


def evaluate(pairs: Sequence[LabelPair], taxonomy: Taxonomy) -> EvalReport:
    """Metric bundle over (gold, predicted) pairs.

    An empty input yields an all-zero report rather than an error.
    """
    counts = np.zeros((len(taxonomy), len(taxonomy)), dtype=np.int64)
    for gold, guess in pairs:  # rows = gold, cols = predicted
        counts[taxonomy.index_of(gold), taxonomy.index_of(guess)] += 1
    support = counts.sum(axis=1)
    predicted = counts.sum(axis=0)
    true_positive = np.diag(counts)

    per_class: dict[str, ClassMetrics] = {}
    included_f1: list[float] = []
    for i, label in enumerate(taxonomy):
        tp = int(true_positive[i])
        sup, pred = int(support[i]), int(predicted[i])
        precision = tp / pred if pred else 0.0
        recall = tp / sup if sup else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        per_class[label] = ClassMetrics(precision, recall, f1, sup)
        if sup or pred:
            included_f1.append(f1)

    total = int(counts.sum())
    accuracy = float(true_positive.sum()) / total if total else 0.0
    weighted = (sum(m.f1 * m.support for m in per_class.values()) / total
                if total else 0.0)
    macro = statistics.fmean(included_f1) if included_f1 else 0.0
    return EvalReport(accuracy, weighted, macro, per_class, total)


def evaluate_mapped(pairs: Sequence[LabelPair],
                    mapping: LabelMapping) -> EvalReport:
    """Map gold and predicted labels into the target taxonomy, then evaluate."""
    mapped = [(mapping(gold), mapping(predicted)) for gold, predicted in pairs]
    return evaluate(mapped, mapping.to_taxonomy)


@dataclass(frozen=True)
class BucketMetrics:
    accuracy: float
    macro_f1: float
    n_records: int


@dataclass(frozen=True)
class BucketReport:
    threshold: int
    head_labels: tuple[str, ...]
    tail_labels: tuple[str, ...]
    head: BucketMetrics
    tail: BucketMetrics


def bucket_report(pairs: Sequence[LabelPair], taxonomy: Taxonomy,
                  train_counts: Mapping[str, int],
                  threshold: int = 6000) -> BucketReport:
    """Head/tail metrics: tail = labels with training count below threshold.

    Only labels present in train_counts are bucketed. Per-class metrics come
    from one evaluate() over all pairs, so a class's precision counts every
    name predicted into it, whatever bucket its gold label is in. A bucket's
    macro-F1 is the mean F1 of its labels under the macro-F1 convention
    above; its accuracy is over the pairs whose gold label is in the bucket.
    """
    per_class = evaluate(pairs, taxonomy).per_class
    predicted = {p for _, p in pairs}

    def bucket(labels: tuple[str, ...]) -> BucketMetrics:
        members = set(labels)
        gold = [(g, p) for g, p in pairs if g in members]
        f1 = [per_class[label].f1 for label in labels if label in per_class
              and (per_class[label].support or label in predicted)]
        return BucketMetrics(
            sum(g == p for g, p in gold) / len(gold) if gold else 0.0,
            statistics.fmean(f1) if f1 else 0.0, len(gold))

    head = tuple(sorted(c for c, n in train_counts.items() if n >= threshold))
    tail = tuple(sorted(c for c, n in train_counts.items() if n < threshold))
    return BucketReport(threshold, head, tail, bucket(head), bucket(tail))


@dataclass(frozen=True)
class DuplicationReport:
    distinct_names: int
    share_two_plus: float
    share_three_plus: float
    per_country: dict[str, float]


def duplication_report(corpus: Sequence[NameRecord]) -> DuplicationReport:
    """Shares of distinct names appearing under two or more country labels."""
    labels_by_name: dict[str, set[str]] = {}
    for record in corpus:
        labels_by_name.setdefault(record.key, set()).add(record.label)
    n = len(labels_by_name)
    two_plus = sum(1 for labels in labels_by_name.values() if len(labels) >= 2)
    three_plus = sum(1 for labels in labels_by_name.values() if len(labels) >= 3)

    per_country_totals: dict[str, int] = {}
    per_country_dups: dict[str, int] = {}
    for labels in labels_by_name.values():
        duplicated = len(labels) >= 2
        for label in labels:
            per_country_totals[label] = per_country_totals.get(label, 0) + 1
            if duplicated:
                per_country_dups[label] = per_country_dups.get(label, 0) + 1
    per_country = {
        label: per_country_dups.get(label, 0) / total
        for label, total in sorted(per_country_totals.items())
    }
    return DuplicationReport(
        n,
        two_plus / n if n else 0.0,
        three_plus / n if n else 0.0,
        per_country,
    )


# Standard normal quantile of the 95% two-sided confidence intervals.
Z_95 = 1.96


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    The boundary cases return exact endpoints (successes=0 gives lower bound
    0.0, successes=trials gives upper bound 1.0); these are algebraically
    exact in the Wilson formula but drift under floating-point evaluation.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p_hat = successes / trials
    z2 = Z_95 * Z_95
    denom = 1.0 + z2 / trials
    center = (p_hat + z2 / (2 * trials)) / denom
    half = (Z_95 * math.sqrt(p_hat * (1 - p_hat) / trials
                             + z2 / (4 * trials * trials))) / denom
    lower = 0.0 if successes == 0 else max(0.0, center - half)
    upper = 1.0 if successes == trials else min(1.0, center + half)
    return lower, upper


@dataclass(frozen=True)
class GroupStats:
    correct: int
    total: int
    accuracy: float
    ci_lower: float
    ci_upper: float


@dataclass(frozen=True)
class BiasReport:
    groups: dict[str, GroupStats]
    gold_distribution: dict[str, float]
    hallucinated_distribution: dict[str, float]
    n_records: int
    n_incorrect: int


def bias_report(
    records: Sequence[tuple[str, str, bool]],
    model,
    mapping: LabelMapping,
) -> BiasReport:
    """Group-level accuracy and answer-distribution comparison.

    Each record is (gold_name, answered_name, correct). Gold names of all
    records and answered names of incorrect records are classified by the
    model in one call (any object with predict_labels(names) -> labels in
    the mapping's source taxonomy), mapped into the coarse taxonomy, and
    tallied per group.
    """
    if tuple(model.taxonomy.labels) != tuple(mapping.from_taxonomy.labels):
        raise ValueError("model taxonomy does not match the mapping's "
                         "source taxonomy")

    n = len(records)
    names = [gold for gold, _, _ in records]
    names += [answered for _, answered, correct in records if not correct]
    classified = [mapping(label) for label in model.predict_labels(names)]
    group_total = Counter(classified[:n])
    group_correct = Counter(group for group, (_, _, correct)
                            in zip(classified, records) if correct)
    hallucinated = Counter(classified[n:])
    n_incorrect = len(classified) - n

    groups = {}
    for group in sorted(group_total):
        total = group_total[group]
        correct_n = group_correct.get(group, 0)
        lower, upper = wilson_interval(correct_n, total)
        groups[group] = GroupStats(correct_n, total, correct_n / total,
                                   lower, upper)
    gold_dist = {g: group_total[g] / n for g in sorted(group_total)} if n else {}
    hall_dist = ({g: hallucinated[g] / n_incorrect for g in sorted(hallucinated)}
                 if n_incorrect else {})
    return BiasReport(groups, gold_dist, hall_dist, n, n_incorrect)


def _render_table(header: Sequence[str],
                 rows: Sequence[Sequence[str]]) -> str:
    """Plain-text table: left-aligned columns two spaces apart, a dashed rule
    under the header, no trailing spaces."""
    widths = [max(len(row[i]) for row in [header, *rows])
              for i in range(len(header))]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_eval_table(rows: Sequence[tuple[str, str, EvalReport]]) -> str:
    """Plain-text metrics table: one row per (model, taxonomy, report)."""
    return _render_table(
        ("Model", "Taxonomy", "Acc", "W-F1", "M-F1"),
        [(model, taxonomy, f"{r.accuracy:.4f}", f"{r.weighted_f1:.4f}",
          f"{r.macro_f1:.4f}") for model, taxonomy, r in rows])
