"""Batch inference engine and throughput/latency benchmark.

Latency is defined as mean batch runtime divided by names per batch, so
every report row satisfies throughput * latency_ms = 1000 up to floating
rounding. Scoring inside the benchmark is the same code path as ordinary
prediction, so benchmarked outputs are bit-identical to unbenchmarked ones.
"""
from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import open_text, read_records
from .classifier import ClassifierModel
from .evaluation import render_table


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


def run_batch(model: ClassifierModel,
              names: Sequence[str]) -> tuple[np.ndarray, float]:
    """Score one batch, timing the scoring call only (tokenization included)."""
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


def benchmark(model: ClassifierModel, config: BenchConfig,
              name_source: Sequence[str], model_name: str = "namecountry",
              model_type: str = "local",
              cost_per_million: float = 0.0) -> ThroughputReport:
    """Measure steady-state scoring throughput per batch size.

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


def read_name_file(path: str | Path) -> list[str]:
    """Names from a JSONL record file or a plain one-name-per-line file.

    A plain file's lines end where the file's lines end (LF, CR or CRLF), as
    `core.read_table` reads them: a `\x85`, `\x1c` or U+2028 inside a name
    does not split it. Each line is trimmed, and blank lines are skipped.
    """
    path = Path(path)
    if path.suffix == ".jsonl":
        return [record.full_name for record in read_records(path)]
    with open_text(path) as fh:
        return [name for name in map(str.strip, fh) if name]
