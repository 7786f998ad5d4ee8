"""Proxy country labels from raw affiliation strings.

The extraction rule is deliberately simple: the trailing token after the
final comma of an affiliation is a candidate country, which is then
normalized through an alias table (abbreviations like "USA", endonyms like
"Deutschland") and checked against the configured taxonomy. Authors whose
affiliations resolve to more than one country are excluded as ambiguous.
"""
from __future__ import annotations

import logging
import unicodedata
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .core import (
    NameRecord,
    Provenance,
    RecordError,
    Taxonomy,
    normalize_label,
    read_jsonl,
    read_table,
    require_json,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AffiliationRecord:
    """One author row from the source graph; affiliations may be empty."""

    author_id: str
    full_name: str
    affiliations: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "affiliations", tuple(self.affiliations))


@dataclass(frozen=True)
class NormalizationTable:
    """Alias lookup (abbreviations, endonyms) onto canonical labels.

    Keys are stored lowercase/NFC; lookups are case-insensitive.
    """

    aliases: dict[str, str] = field(default_factory=dict)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[str, str]]) -> "NormalizationTable":
        aliases: dict[str, str] = {}
        for raw_alias, label in pairs:
            alias = _canon(raw_alias)
            if not alias:
                raise ValueError("empty alias")
            label = normalize_label(label)
            if alias in aliases and aliases[alias] != label:
                raise ValueError(f"conflicting alias {alias!r}")
            aliases[alias] = label
        return NormalizationTable(aliases)

    @staticmethod
    def from_file(path: str | Path) -> "NormalizationTable":
        """Load `alias<TAB>label` lines; '#' comments and blanks are skipped."""
        return NormalizationTable.from_pairs(
            [fields for _, fields in read_table(path, ("alias", "label"))])


def _canon(candidate: str) -> str:
    """NFC + trim + strip terminal periods + lowercase, for table lookup."""
    candidate = unicodedata.normalize("NFC", candidate).strip()
    candidate = candidate.rstrip(".").strip()
    return candidate.lower()


def extract_country_candidate(affiliation: str) -> str | None:
    """Return the trailing token after the final comma, or None.

    "University of Oxford, UK" -> "UK". Strings without a comma, or with an
    empty trailing token, yield None (absence is a value, not an error).
    """
    head, sep, tail = affiliation.rpartition(",")
    if not sep:
        return None
    tail = tail.strip()
    return tail or None


def normalize_country(candidate: str, table: NormalizationTable,
                      taxonomy: Taxonomy) -> str | None:
    """Resolve a candidate token to a canonical label, or None if unknown.

    The alias table is consulted first (so "USA" can map to "united states"),
    then the taxonomy's own labels.
    """
    key = _canon(candidate)
    if not key:
        return None
    label = table.aliases.get(key)
    if label is not None:
        return label if label in taxonomy else None
    if key in taxonomy:
        return key
    return None


def _resolve_labels(record: AffiliationRecord, table: NormalizationTable,
                    taxonomy: Taxonomy) -> set[str]:
    labels = set()
    for affiliation in record.affiliations:
        candidate = extract_country_candidate(affiliation)
        if candidate is None:
            continue
        label = normalize_country(candidate, table, taxonomy)
        if label is not None:
            labels.add(label)
    return labels


def _record_for(record: AffiliationRecord, labels: set[str]) -> NameRecord | None:
    if len(labels) != 1:
        return None
    try:
        return NameRecord(
            full_name=record.full_name,
            label=next(iter(labels)),
            provenance=Provenance.EXTRACTED,
            source_id=record.author_id,
        )
    except RecordError:
        return None


@dataclass
class ExtractionStats:
    """Bookkeeping for one corpus build. raw = retained + ambiguous + unresolved + deduplicated."""

    raw: int = 0
    retained: int = 0
    ambiguous: int = 0
    unresolved: int = 0
    deduplicated: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def build_labeled_corpus(
    records: Iterable[AffiliationRecord],
    table: NormalizationTable,
    taxonomy: Taxonomy,
) -> tuple[list[NameRecord], ExtractionStats]:
    """Label every author and deduplicate exact (full_name, label) pairs.

    Each affiliation is run through extract + normalize; an author is kept
    only when the resulting set of distinct labels has size exactly 1.
    Labeled records are ordered by source_id before deduplication so repeated
    runs over the same input are byte-identical regardless of how the input
    stream was produced.
    """
    stats = ExtractionStats()
    labeled: list[tuple[str, int, NameRecord]] = []
    for position, record in enumerate(records):
        stats.raw += 1
        labels = _resolve_labels(record, table, taxonomy)
        name_record = _record_for(record, labels)
        if name_record is None:
            if len(labels) >= 2:
                stats.ambiguous += 1
            else:
                stats.unresolved += 1
            continue
        labeled.append((record.author_id or "", position, name_record))

    labeled.sort(key=lambda item: (item[0], item[1]))
    seen: set[tuple[str, str]] = set()
    corpus: list[NameRecord] = []
    for _, _, name_record in labeled:
        pair = (name_record.full_name, name_record.label)
        if pair in seen:
            stats.deduplicated += 1
            continue
        seen.add(pair)
        corpus.append(name_record)
        stats.retained += 1
    return corpus, stats


def _affiliation_row(obj) -> AffiliationRecord:
    require_json("line", obj, dict)
    author_id, name = obj.get("id", ""), obj["name"]
    affiliations = [] if obj.get("affiliations") is None else obj["affiliations"]
    require_json("`affiliations`", affiliations, list)
    for field_name, value in (("id", author_id), ("name", name),
                              *(("affiliation", a) for a in affiliations)):
        require_json(field_name, value, str)
    return AffiliationRecord(author_id, name, tuple(affiliations))


def read_affiliations(path: str | Path) -> Iterator[AffiliationRecord]:
    """Stream author rows from JSONL with fields `id`, `name`, `affiliations`.

    `name`, each affiliation and `id` (when present) must be strings, and
    `affiliations` an array or null. A malformed line raises
    InputFormatError carrying the line number.
    """
    return (row for _, row in read_jsonl(path, "affiliation", _affiliation_row))
