"""Deterministic, leakage-safe corpus splits.

The pipeline produces up to eight partitions: the base train/val/test split
of the real corpus, an oracle-screened test_filter, the three *_aug splits
that fold in synthetic names, and the fully synthetic test_gold stress set.
Splitting is stratified per country with largest-remainder rounding, and
every random choice derives from an explicit seed so runs are reproducible
byte for byte. There is one leakage check: audit_splits, run on the finished
bundle, reports every training name found in an evaluation split;
assemble_augmented_splits only concatenates.

The audit's memory rule: it holds the keys of the evaluation splits, plus
one split's records or one chunk of a training split's keys at a time. It
asks for each split once, evaluation splits first, and walks a training
split AUDIT_CHUNK_RECORDS records at a time, so a caller that reads a split
only when asked (the audit command) never holds two splits at once.
"""
from __future__ import annotations

import dataclasses
import logging
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .core import (
    NameRecord, Provenance, read_records, write_json, write_records,
)

log = logging.getLogger(__name__)

SPLIT_NAMES = (
    "train_oag", "val_oag", "test_oag", "test_filter",
    "train_aug", "val_aug", "test_filter_aug", "test_gold",
)
BASE_SPLITS = SPLIT_NAMES[:4]  # what `split` builds, and `augment` reads


class EmptyCorpusError(ValueError):
    """split_corpus requires at least one record."""


@dataclass(frozen=True)
class SplitConfig:
    """Ratio weights and seed for splitting."""

    ratios: tuple[float, float, float] = (8.0, 1.0, 1.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.ratios) != 3:
            raise ValueError("ratios must have exactly three entries")
        # Ratios may come straight from a JSON config, so check their type.
        if any(isinstance(r, bool) or not isinstance(r, (int, float))
               or not 0 <= r < math.inf for r in self.ratios):
            raise ValueError("ratios must be finite non-negative numbers")
        if sum(self.ratios) <= 0:
            raise ValueError("ratios must sum to a positive value")


def _country_rng(seed: int, country: str, stage: str = "split") -> random.Random:
    # String seeds hash via sha512 inside random.Random, so results do not
    # depend on PYTHONHASHSEED or on the order countries are encountered.
    return random.Random(f"{stage}:{seed}:{country}")


def largest_remainder_allocation(total: int, weights: Sequence[float]) -> list[int]:
    """Split `total` items into len(weights) integer parts proportional to weights.

    Floors the exact shares, then hands out remaining items by largest
    fractional remainder; ties go to the earlier part. The result always sums
    to `total`.
    """
    weight_sum = sum(weights)
    shares = [total * w / weight_sum for w in weights]
    counts = [int(s) for s in shares]
    remaining = total - sum(counts)
    order = sorted(range(len(weights)),
                   key=lambda i: (-(shares[i] - counts[i]), i))
    for i in order[:remaining]:
        counts[i] += 1
    return counts


def _group_by_country(records: Iterable[NameRecord]) -> dict[str, list[NameRecord]]:
    groups: dict[str, list[NameRecord]] = {}
    for record in records:
        groups.setdefault(record.label, []).append(record)
    return groups


def split_corpus(
    records: Sequence[NameRecord], config: SplitConfig,
) -> tuple[list[NameRecord], list[NameRecord], list[NameRecord]]:
    """Stratified three-way partition, deterministic given the seed.

    Every record lands in exactly one partition; per-country sizes follow the
    ratios under largest-remainder rounding.
    """
    if not records:
        raise EmptyCorpusError("cannot split an empty corpus")
    train: list[NameRecord] = []
    val: list[NameRecord] = []
    test: list[NameRecord] = []
    for country, group in _group_by_country(records).items():
        rng = _country_rng(config.seed, country)
        shuffled = list(group)
        rng.shuffle(shuffled)
        n_train, n_val, n_test = largest_remainder_allocation(
            len(shuffled), config.ratios)
        train.extend(shuffled[:n_train])
        val.extend(shuffled[n_train:n_train + n_val])
        test.extend(shuffled[n_train + n_val:])
        assert n_train + n_val + n_test == len(shuffled)
    return train, val, test


def enforce_no_leakage(
    train: Sequence[NameRecord],
    val: Sequence[NameRecord],
    test: Sequence[NameRecord],
) -> tuple[list[NameRecord], int]:
    """Drop from train every record whose name occurs in val or test.

    The rule is name-level (not pair-level): a training name matching an
    evaluation name under a different label is still removed. Returns the
    filtered train list and the removal count.
    """
    held_out = {r.key for r in val} | {r.key for r in test}
    kept = [r for r in train if r.key not in held_out]
    removed = len(train) - len(kept)
    if removed:
        log.info("leakage enforcement removed %d training record(s)", removed)
    return kept, removed


def build_filtered_test(
    test_oag: Sequence[NameRecord],
    validator,
    cap: int = 1000,
    seed: int = 0,
) -> list[NameRecord]:
    """Oracle-screened subset of test_oag, at most `cap` names per country.

    Candidates are consumed in a seeded per-country order, each judged by the
    validator, until the cap is reached or candidates run out. Oracle failures
    count as rejections. Retained records are re-tagged provenance=validated.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    retained: list[NameRecord] = []
    for country, group in _group_by_country(test_oag).items():
        rng = _country_rng(seed, country, stage="filter")
        candidates = list(group)
        rng.shuffle(candidates)
        accepted = 0
        for record in candidates:
            if accepted >= cap:
                break
            try:
                verdict = validator.judge(record.full_name, country)
            except Exception:
                log.warning("validator failed on %r (%s); counting as rejection",
                            record.full_name, country, exc_info=True)
                verdict = False
            if verdict:
                retained.append(dataclasses.replace(
                    record, provenance=Provenance.VALIDATED))
                accepted += 1
    return retained


@dataclass
class CorpusSplits:
    """The full split bundle. Unbuilt splits are simply empty lists."""

    train_oag: list[NameRecord] = field(default_factory=list)
    val_oag: list[NameRecord] = field(default_factory=list)
    test_oag: list[NameRecord] = field(default_factory=list)
    test_filter: list[NameRecord] = field(default_factory=list)
    train_aug: list[NameRecord] = field(default_factory=list)
    val_aug: list[NameRecord] = field(default_factory=list)
    test_filter_aug: list[NameRecord] = field(default_factory=list)
    test_gold: list[NameRecord] = field(default_factory=list)

    def __getitem__(self, split: str) -> list[NameRecord]:
        if split not in SPLIT_NAMES:
            raise KeyError(split)
        return getattr(self, split)

    def sizes(self) -> dict[str, int]:
        return {name: len(self[name]) for name in SPLIT_NAMES}

    def save(self, out_dir: str | Path, *, seed: int,
             ratios: Sequence[float],
             audit: dict[str, list[str]]) -> list[Path]:
        """Write each non-empty split as `<name>.jsonl` under out_dir, then
        `manifest.json`; return the paths written, in that order.

        The file of an empty split is removed, so the directory holds exactly
        the bundle its manifest describes, not a split left by an earlier run.
        """
        out_dir = Path(out_dir)
        written = []
        for split in SPLIT_NAMES:
            path = out_dir / f"{split}.jsonl"
            if self[split]:
                write_records(path, self[split])
                written.append(path)
            else:
                path.unlink(missing_ok=True)
        manifest = out_dir / "manifest.json"
        write_json(manifest, {"seed": seed, "ratios": list(ratios),
                              "sizes": self.sizes(), "audit": audit,
                              "audit_clean": audit_is_clean(audit)})
        return written + [manifest]

    @staticmethod
    def load(in_dir: str | Path, names: Sequence[str]) -> "CorpusSplits":
        """Read the named splits present under in_dir; the rest stay empty."""
        splits = CorpusSplits()
        for split in names:
            setattr(splits, split, read_split(in_dir, split))
        return splits


def read_split(in_dir: str | Path, split: str) -> list[NameRecord]:
    """The records of `<split>.jsonl` under in_dir; an absent file is an
    empty split."""
    path = Path(in_dir) / f"{split}.jsonl"
    return read_records(path) if path.exists() else []


def assemble_augmented_splits(
    base: CorpusSplits,
    synth_train: Sequence[NameRecord],
    synth_val: Sequence[NameRecord],
    synth_test: Sequence[NameRecord],
) -> CorpusSplits:
    """Fold the synthetic partitions into the *_aug splits.

    Only concatenates: each *_aug split is its base split followed by its
    synthetic partition. Whether a name crosses the train/evaluation boundary
    is audit_splits' question, asked of the finished bundle.
    """
    return CorpusSplits(
        train_oag=list(base.train_oag),
        val_oag=list(base.val_oag),
        test_oag=list(base.test_oag),
        test_filter=list(base.test_filter),
        train_aug=list(base.train_oag) + list(synth_train),
        val_aug=list(base.val_oag) + list(synth_val),
        test_filter_aug=list(base.test_filter) + list(synth_test),
        test_gold=list(base.test_gold),
    )


# A training split is keyed this many records at a time, each chunk's keys
# intersected with the evaluation keys, so the audit never holds a training
# split's whole key set (train_aug's is ~340k keys at paper shape).
AUDIT_CHUNK_RECORDS = 4096

# Each training split, with the splits a model trained on it is scored on.
# test_oag and test_gold are scored against both.
_SCORED_ON = (
    ("train_oag", ("val_oag", "test_oag", "test_filter", "test_gold")),
    ("train_aug", ("val_aug", "test_oag", "test_filter_aug", "test_gold")),
)
_SHARED = ("test_oag", "test_gold")
_REAL_ONLY = ("train_oag", "val_oag", "test_oag", "test_filter")


def audit_splits(splits) -> dict[str, list[str]]:
    """Scan all splits for invariant violations; empty lists mean a clean bill.

    This is the package's one train/evaluation overlap check. Checks: no
    training name (by name_key) in any split the model is scored on, for
    train_oag against val_oag, test_oag, test_filter and test_gold and for
    train_aug against val_aug, test_oag, test_filter_aug and test_gold;
    test_gold is synthetic-only; real-only splits carry no synthetic
    records; and test_filter is a validated subset of test_oag by
    (name, label).

    `splits` is a CorpusSplits or anything indexable by split name. Each
    split is asked for once, evaluation splits first (test_oag, test_gold,
    then each family's validation and filtered test split before its
    training split), and let go once checked. The audit keeps the keys of
    the evaluation splits a family is scored on, plus one split's records or
    one chunk of a training split's keys at a time.
    """
    overlap: dict[tuple[str, str], set[str]] = {
        (train, split): set()
        for train, scored_on in _SCORED_ON for split in scored_on}
    found: dict[str, set[str]] = {"test_gold_synthetic_only": set()}
    found.update((f"{split}_real_only", set()) for split in _REAL_ONLY)
    found["test_filter_subset_of_test_oag"] = set()

    def read(split: str) -> Sequence[NameRecord]:
        """The split's records, after the checks on its records alone."""
        records = splits[split]
        if split in _REAL_ONLY:
            found[f"{split}_real_only"].update(
                r.full_name for r in records
                if r.provenance is Provenance.SYNTHETIC)
        if split == "test_gold":
            found["test_gold_synthetic_only"].update(
                r.full_name for r in records
                if r.provenance is not Provenance.SYNTHETIC)
        elif split == "test_filter":
            found["test_filter_subset_of_test_oag"].update(
                r.full_name for r in records
                if (r.key, r.label) not in test_oag_pairs
                or r.provenance is not Provenance.VALIDATED)
        return records

    test_oag_pairs = {(r.key, r.label) for r in read("test_oag")}
    keys = {"test_oag": {key for key, _ in test_oag_pairs},
            "test_gold": {r.key for r in read("test_gold")}}
    for train, scored_on in _SCORED_ON:
        for split in scored_on:
            if split not in keys:
                keys[split] = {r.key for r in read(split)}
        records = read(train)
        for start in range(0, len(records), AUDIT_CHUNK_RECORDS):
            chunk = {r.key for r in records[start:start + AUDIT_CHUNK_RECORDS]}
            for split in scored_on:
                overlap[train, split].update(chunk & keys[split])
        del records
        # This family's own evaluation keys go before the next is keyed.
        for split in scored_on:
            if split not in _SHARED:
                del keys[split]
    violations = {f"{train}_vs_{split}": sorted(names)
                  for (train, split), names in overlap.items()}
    violations.update((check, sorted(names)) for check, names in found.items())
    return violations


def audit_is_clean(violations: dict[str, list[str]]) -> bool:
    return all(not names for names in violations.values())

