"""Measurement machinery: classification metrics, cross-taxonomy evaluation,
head/tail buckets, group bias analysis with Wilson confidence intervals, and
the scoring throughput benchmark, with the tables they render to.
The first three read a (K, K) int64 confusion matrix over K labels, rows
gold and columns predicted, as ClassifierModel.confusion counts it. Bias
analysis and the benchmark take any model with the one method they call
(`predict_labels`, `predict_batch`), so this module does not import the
classifier, which imports it.

Benchmark latency is defined as mean batch runtime divided by names per
batch, so every report row satisfies throughput * latency_ms = 1000 up to
floating rounding. Scoring inside the benchmark is the model's ordinary
prediction call, so benchmarked outputs are bit-identical to unbenchmarked
ones.

Macro-F1 convention used throughout: classes with zero gold support and zero
predictions are excluded from the macro mean; classes that do appear but have
an undefined precision, recall, or F1 contribute 0. Weighted-F1 weights
per-class F1 by gold support.
"""
from __future__ import annotations

import math
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import LabelMapping, Taxonomy


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


def evaluate(counts: np.ndarray, taxonomy: Taxonomy) -> EvalReport:
    """Metric bundle over a confusion matrix of the taxonomy's labels.

    An all-zero matrix yields an all-zero report rather than an error.
    """
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


def fold(counts: np.ndarray, mapping: LabelMapping) -> np.ndarray:
    """A confusion matrix relabelled from the mapping's source taxonomy into
    its target taxonomy, exactly: the products are in integers."""
    target = mapping.to_taxonomy
    onehot = np.eye(len(target), dtype=np.int64)[
        [target.index_of(mapping(label)) for label in mapping.from_taxonomy]]
    return onehot.T @ counts @ onehot


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


def bucket_report(counts: np.ndarray, taxonomy: Taxonomy,
                  train_counts: Mapping[str, int],
                  threshold: int) -> BucketReport:
    """Head/tail metrics: tail = labels with training count below threshold.

    Only labels present in train_counts are bucketed. Per-class metrics come
    from one evaluate() over the matrix, so a class's precision counts every
    name predicted into it, whatever bucket its gold label is in. A bucket's
    macro-F1 is the mean F1 of its labels under the macro-F1 convention
    above; its accuracy is over the matrix rows of the bucket's labels.
    """
    per_class = evaluate(counts, taxonomy).per_class
    predicted = counts.sum(axis=0)

    def bucket(labels: tuple[str, ...]) -> BucketMetrics:
        rows = [taxonomy.index_of(label) for label in labels
                if label in taxonomy]
        n = int(counts[rows].sum())
        f1 = [per_class[taxonomy.labels[i]].f1 for i in rows
              if counts[i].any() or predicted[i]]
        return BucketMetrics(
            int(counts[rows, rows].sum()) / n if n else 0.0,
            statistics.fmean(f1) if f1 else 0.0, n)

    head = tuple(sorted(c for c, n in train_counts.items() if n >= threshold))
    tail = tuple(sorted(c for c, n in train_counts.items() if n < threshold))
    return BucketReport(threshold, head, tail, bucket(head), bucket(tail))


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
    model in one call (any object whose predict_labels method maps names to
    labels of the mapping's source taxonomy), mapped into the coarse
    taxonomy, and tallied per group.
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


class InsufficientNamesError(ValueError):
    """The name pool cannot cover the configured batches."""


@dataclass(frozen=True)
class BenchConfig:
    batch_sizes: tuple[int, ...] = (1, 100, 1000, 10000)
    warmup_batches: int = 3
    repetitions: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.batch_sizes:
            raise ValueError("batch_sizes must be non-empty")
        for size in self.batch_sizes:
            if not isinstance(size, int) or isinstance(size, bool):
                raise ValueError(f"batch size {size!r} is not an integer")
        if any(b <= 0 for b in self.batch_sizes):
            raise ValueError("batch sizes must be positive")
        if list(self.batch_sizes) != sorted(set(self.batch_sizes)):
            raise ValueError("batch_sizes must be strictly ascending")
        if self.warmup_batches < 0:
            raise ValueError("warmup_batches must be non-negative")
        if self.repetitions <= 0:
            raise ValueError("repetitions must be positive")


def run_batch(model, names: Sequence[str]) -> tuple[np.ndarray, float]:
    """Score one batch with `model.predict_batch`, timing that call only
    (tokenization included)."""
    if not names:
        raise ValueError("names must be non-empty")
    start = time.perf_counter()
    predictions = model.predict_batch(names)
    runtime = time.perf_counter() - start
    return predictions, runtime


@dataclass(frozen=True)
class BenchRow:
    batch_size: int
    names_per_run: int
    mean_runtime_seconds: float
    throughput_names_per_second: float
    latency_ms_per_name: float
    runtime_samples: tuple[float, ...]


@dataclass(frozen=True)
class ThroughputReport:
    model_name: str
    model_type: str
    rows: tuple[BenchRow, ...]
    cost_per_million: float = 0.0


def benchmark(model, config: BenchConfig,
              name_source: Sequence[str], model_name: str = "namecountry",
              model_type: str = "local",
              cost_per_million: float = 0.0) -> ThroughputReport:
    """Measure steady-state scoring throughput per batch size of any model
    with a `predict_batch` method.

    For each batch size the pool is shuffled with a per-size seed and cut
    into `repetitions` disjoint fresh batches; warmup batches run untimed
    first.
    """
    pool = list(name_source)
    need = max(config.batch_sizes) * config.repetitions
    if len(pool) < need:
        raise InsufficientNamesError(
            f"need at least {need} names (largest batch x repetitions), "
            f"got {len(pool)}")

    rows = []
    for batch_size in config.batch_sizes:
        rng = random.Random(f"bench:{config.seed}:{batch_size}")
        shuffled = pool[:]
        rng.shuffle(shuffled)
        runs = [shuffled[i * batch_size:(i + 1) * batch_size]
                for i in range(config.repetitions)]
        for i in range(config.warmup_batches):
            model.predict_batch(runs[i % len(runs)])
        samples = [run_batch(model, run_names)[1] for run_names in runs]
        mean_runtime = statistics.fmean(samples)
        throughput = batch_size / mean_runtime
        latency_ms = mean_runtime / batch_size * 1000.0
        rows.append(BenchRow(batch_size, batch_size, mean_runtime,
                             throughput, latency_ms, tuple(samples)))
    return ThroughputReport(model_name, model_type, tuple(rows),
                            cost_per_million)


def render_table(header: Sequence[str],
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
    return render_table(
        ("Model", "Taxonomy", "Acc", "W-F1", "M-F1"),
        [(model, taxonomy, f"{r.accuracy:.4f}", f"{r.weighted_f1:.4f}",
          f"{r.macro_f1:.4f}") for model, taxonomy, r in rows])


def render_throughput_table(report: ThroughputReport) -> str:
    """Plain-text table: Model, Type, Batch, Throughput, Latency, $/1M."""
    return render_table(
        ("Model", "Type", "Batch", "Throughput (names/s)",
         "Latency (ms/name)", "$/1M"),
        [(report.model_name, report.model_type, str(row.batch_size),
          f"{row.throughput_names_per_second:.1f}",
          f"{row.latency_ms_per_name:.4f}",
          f"{report.cost_per_million:.2f}")
         for row in report.rows])
