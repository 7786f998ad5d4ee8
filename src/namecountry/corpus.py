"""Deterministic, leakage-safe corpus splits, and the split directory.

The pipeline produces up to eight partitions: the base train/val/test split
of the real corpus, an oracle-screened test_filter, the three *_aug splits
that fold in synthetic names, and the fully synthetic test_gold stress set.
Splitting is stratified per country with largest-remainder rounding, and
every random choice derives from an explicit seed so runs are reproducible
byte for byte. There is one leakage check: audit_splits reports every
training name found in an evaluation split, holding the evaluation splits'
keys and one chunk of AUDIT_CHUNK_RECORDS records of any split.

A split directory holds `<split>.jsonl` for each non-empty split, and
`manifest.json`. SplitFiles names and reads those files, yielding a split's
records as it reads them; CorpusSplits.save audits a bundle and writes it
only if it is clean. An augmented bundle holds its synthetic records as
names (split_synthetic) and builds each record when it is iterated, so
`augment` audits and writes it a chunk at a time too.
"""
from __future__ import annotations

import dataclasses
import itertools
import logging
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Iterable, Iterator, Sequence

from .core import (
    NameRecord, Provenance, SyntheticNames, iter_records, read_records,
    write_json, write_records,
)

log = logging.getLogger(__name__)

SPLIT_NAMES = (
    "train_oag", "val_oag", "test_oag", "test_filter",
    "train_aug", "val_aug", "test_filter_aug", "test_gold",
)
BASE_SPLITS = SPLIT_NAMES[:4]  # what `split` builds, and `augment` reads


class EmptyCorpusError(ValueError):
    """split_corpus requires at least one record."""


class UncleanSplitsError(ValueError):
    """Splits that fail audit_splits; `.violations` is its result."""

    def __init__(self, violations: dict[str, list[str]]) -> None:
        super().__init__("the splits fail the leakage audit")
        self.violations = violations


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


def _split_country(items: list, country: str,
                   config: SplitConfig) -> tuple[list, list, list]:
    """One country's share of the split: `items`, shuffled in place by the
    country's rng, cut by largest remainder. `random.shuffle` draws on the
    length alone, so names and their records are permuted alike."""
    _country_rng(config.seed, country).shuffle(items)
    n_train, n_val, n_test = largest_remainder_allocation(
        len(items), config.ratios)
    assert n_train + n_val + n_test == len(items)
    return (items[:n_train], items[n_train:n_train + n_val],
            items[n_train + n_val:])


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
        for part, cut in zip((train, val, test),
                             _split_country(group, country, config)):
            part.extend(cut)
    return train, val, test


def split_synthetic(
    drawn: dict[str, SyntheticNames], config: SplitConfig,
) -> tuple[Concatenated, Concatenated, Concatenated]:
    """`split_corpus` of a draw's records, each part held as names: one
    SyntheticNames per country of `drawn`, in its order, for each part."""
    parts: tuple[list, list, list] = ([], [], [])
    for country, names in drawn.items():
        for part, cut in zip(parts, _split_country(names.names(), country,
                                                   config)):
            part.append(SyntheticNames(country, cut))
    train, val, test = (Concatenated(*part) for part in parts)
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


Records = Collection[NameRecord]


@dataclass
class CorpusSplits:
    """The full split bundle. Unbuilt splits are simply empty lists.

    A split is a list of records or, in an augmented bundle, any sized
    collection that can be iterated more than once (a Concatenated of
    SyntheticNames, or base records followed by one).
    """

    train_oag: Records = field(default_factory=list)
    val_oag: Records = field(default_factory=list)
    test_oag: Records = field(default_factory=list)
    test_filter: Records = field(default_factory=list)
    train_aug: Records = field(default_factory=list)
    val_aug: Records = field(default_factory=list)
    test_filter_aug: Records = field(default_factory=list)
    test_gold: Records = field(default_factory=list)

    def __getitem__(self, split: str) -> Records:
        if split not in SPLIT_NAMES:
            raise KeyError(split)
        return getattr(self, split)

    def sizes(self) -> dict[str, int]:
        return {name: len(self[name]) for name in SPLIT_NAMES}

    def save(self, out_dir: str | Path, *, seed: int) -> list[Path]:
        """Audit the bundle and, only if it is clean, write each non-empty
        split and then `manifest.json` (the seed and each split's size)
        under out_dir, removing the file of each empty split, so the
        directory holds exactly the bundle its manifest describes. Return
        the paths written. An unclean bundle raises UncleanSplitsError
        carrying the violations, and nothing is written or removed."""
        violations = audit_splits(self)
        if not audit_is_clean(violations):
            raise UncleanSplitsError(violations)
        files = SplitFiles(out_dir)
        written = []
        for split in SPLIT_NAMES:
            path = files.path(split)
            if self[split]:
                write_records(path, self[split])
                written.append(path)
            else:
                path.unlink(missing_ok=True)
        manifest = files.splits_dir / "manifest.json"
        write_json(manifest, {"seed": seed, "sizes": self.sizes()})
        return written + [manifest]

    @staticmethod
    def load(in_dir: str | Path, names: Sequence[str]) -> "CorpusSplits":
        """Read the named splits under in_dir whole; the rest stay empty."""
        files = SplitFiles(in_dir)
        splits = CorpusSplits()
        for split in names:
            setattr(splits, split, files.read(split, read_records))
        return splits


class SplitFiles:
    """`<split>.jsonl` under splits_dir for each split; `read` returns what a
    reader makes of it, or [] if it is absent. Indexing yields a split's
    records as `iter_records` reads them, counting them into `sizes` and
    keeping none, so the audit holds one chunk of a split at a time."""

    def __init__(self, splits_dir: str | Path) -> None:
        self.splits_dir = Path(splits_dir)
        self.sizes = dict.fromkeys(SPLIT_NAMES, 0)

    def path(self, split: str) -> Path:
        return self.splits_dir / f"{split}.jsonl"

    def read(self, split: str, reader) -> Iterable[NameRecord]:
        path = self.path(split)
        return reader(path) if path.exists() else []

    def __getitem__(self, split: str) -> Iterator[NameRecord]:
        for record in self.read(split, iter_records):
            self.sizes[split] += 1
            yield record


def scan_base_splits(files: SplitFiles) -> tuple[Counter, set[str], set[str]]:
    """One pass over the base split files, keeping no record: train_oag's
    records per label, every base label, and every base name's key.

    The files are read in BASE_SPLITS order, as `CorpusSplits.load` reads
    them for `augment`, so a malformed line fails with the same error.
    """
    counts: Counter = Counter()
    labels: set[str] = set()
    keys: set[str] = set()
    for split in BASE_SPLITS:
        for record in files[split]:
            keys.add(record.key)
            labels.add(record.label)
            if split == "train_oag":
                counts[record.label] += 1
    return counts, labels, keys


class Concatenated:
    """Sized collections, iterated one after the other, as often as asked."""

    def __init__(self, *parts: Records) -> None:
        self._parts = parts

    def __len__(self) -> int:
        return sum(map(len, self._parts))

    def __iter__(self) -> Iterator[NameRecord]:
        return itertools.chain.from_iterable(self._parts)


def assemble_augmented_splits(
    base: CorpusSplits,
    synth_train: Records,
    synth_val: Records,
    synth_test: Records,
) -> CorpusSplits:
    """Fold the synthetic partitions into the *_aug splits.

    Only concatenates: each *_aug split is its base split followed by its
    synthetic partition, a view over both that copies neither, so
    synthetic names stay names until the split is iterated. The other
    splits are base's own. Whether a name crosses the train/evaluation
    boundary is audit_splits' question, asked of the finished bundle.
    """
    return CorpusSplits(
        train_oag=base.train_oag,
        val_oag=base.val_oag,
        test_oag=base.test_oag,
        test_filter=base.test_filter,
        train_aug=Concatenated(base.train_oag, synth_train),
        val_aug=Concatenated(base.val_oag, synth_val),
        test_filter_aug=Concatenated(base.test_filter, synth_test),
        test_gold=base.test_gold,
    )


# The audit walks every split this many records at a time. A training
# split's chunk keys are intersected with the evaluation keys, so the audit
# never holds a training split's whole key set (train_aug's is ~340k keys at
# paper shape), nor any split's whole records.
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

    `splits` is a CorpusSplits or anything indexable by split name whose
    values are iterables of records; each is iterated once, so a one-shot
    generator will do. Each split is asked for once, evaluation splits
    first (test_oag, test_gold, then each family's validation and filtered
    test split before its training split), and walked AUDIT_CHUNK_RECORDS
    records at a time. The audit keeps the keys of the evaluation splits a
    family is scored on, plus one chunk of records.
    """
    overlap: dict[tuple[str, str], set[str]] = {
        (train, split): set()
        for train, scored_on in _SCORED_ON for split in scored_on}
    found: dict[str, set[str]] = {"test_gold_synthetic_only": set()}
    found.update((f"{split}_real_only", set()) for split in _REAL_ONLY)
    found["test_filter_subset_of_test_oag"] = set()

    def chunks(split: str) -> Iterator[list[NameRecord]]:
        """The split's records, AUDIT_CHUNK_RECORDS at a time, each chunk
        after the checks on its records alone."""
        records = iter(splits[split])
        while chunk := list(itertools.islice(records, AUDIT_CHUNK_RECORDS)):
            if split in _REAL_ONLY:
                found[f"{split}_real_only"].update(
                    r.full_name for r in chunk
                    if r.provenance is Provenance.SYNTHETIC)
            if split == "test_gold":
                found["test_gold_synthetic_only"].update(
                    r.full_name for r in chunk
                    if r.provenance is not Provenance.SYNTHETIC)
            elif split == "test_filter":
                found["test_filter_subset_of_test_oag"].update(
                    r.full_name for r in chunk
                    if (r.key, r.label) not in test_oag_pairs
                    or r.provenance is not Provenance.VALIDATED)
            yield chunk

    def keyed(split: str) -> set[str]:
        return {r.key for chunk in chunks(split) for r in chunk}

    test_oag_pairs = {(r.key, r.label)
                      for chunk in chunks("test_oag") for r in chunk}
    keys = {"test_oag": {key for key, _ in test_oag_pairs},
            "test_gold": keyed("test_gold")}
    for train, scored_on in _SCORED_ON:
        for split in scored_on:
            if split not in keys:
                keys[split] = keyed(split)
        for chunk in chunks(train):
            chunk_keys = {r.key for r in chunk}
            for split in scored_on:
                overlap[train, split].update(chunk_keys & keys[split])
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

