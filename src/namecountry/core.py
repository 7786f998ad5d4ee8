"""Core domain vocabulary: country labels, name records, taxonomies, mappings.

Everything here is immutable after construction and safe to share across
threads. Labels are lowercase canonical country names ("china", not "CN");
the concrete label set is configuration, loaded from a taxonomy file.
"""
from __future__ import annotations

import contextlib
import enum
import functools
import json
import os
import sys
import unicodedata
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, TypeVar

T = TypeVar("T")


class TaxonomyError(ValueError):
    """Invalid taxonomy or mapping definition, or a label outside one."""


class DuplicateLabelError(TaxonomyError):
    """A label occurs more than once after normalization."""


class UnknownLabelError(TaxonomyError):
    """A label is not a member of the expected taxonomy."""


class RecordError(ValueError):
    """Invalid name record."""


class InputFormatError(ValueError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message: str, path: str | Path | None = None,
                 line: int | None = None):
        self.path = str(path) if path is not None else None
        self.line = line
        where = f"{self.path or '<input>'}:{line}" if line is not None else (self.path or "<input>")
        super().__init__(f"{where}: {message}")


@contextlib.contextmanager
def open_text(path: str | Path) -> Iterator[IO[str]]:
    """Open a UTF-8 text file for reading. Bytes that are not UTF-8, met
    while the block reads, raise InputFormatError naming the file."""
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"not UTF-8 text ({exc.reason})",
                               path=path) from None


def read_text(path: str | Path) -> str:
    """The whole of a UTF-8 text file, as `open_text` reads it."""
    with open_text(path) as fh:
        return fh.read()


_JSON_TYPES = ((bool, "a boolean"), (int, "an integer"), (float, "a number"),
               (str, "a string"), (list, "an array"), (dict, "an object"))


def json_type(value) -> str:
    """The JSON name of a decoded value's type: "a string", "null", ..."""
    # bool before int: True is an int to Python but not a number to JSON.
    for kind, name in _JSON_TYPES:
        if isinstance(value, kind):
            return name
    return "null"


def require_json(what: str, value, kind: type) -> None:
    """Raise TypeError `<what> must be <kind>, not <type>` in JSON type names
    unless `value` is a `kind` (one of bool, str, list or dict)."""
    if not isinstance(value, kind):
        raise TypeError(f"{what} must be {dict(_JSON_TYPES)[kind]}, "
                        f"not {json_type(value)}")


def read_jsonl(path: str | Path, what: str,
               parse: Callable[[object], T]) -> Iterator[tuple[int, T]]:
    """Yield `(line number, parse(value))` for each non-blank JSONL line.

    Each line decodes as `json.loads` decodes it. The C scanner reads the
    value at index 0, taken only when the rest of the line is JSON whitespace
    (space, tab, LF, CR; not `str.strip()`'s wider set); every other line
    (leading whitespace, a BOM, extra data, a decode error) goes to
    `json.loads`, so values and error texts are its own. A line that is not
    JSON, or a KeyError, TypeError or ValueError from `parse`, raises
    InputFormatError `bad <what> (...)` at that line.
    """
    scan_once = json.scanner.make_scanner(json.JSONDecoder())
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                try:
                    value, end = scan_once(line, 0)
                except (StopIteration, ValueError):
                    end = -1
                if end < 0 or line[end:].strip(" \t\n\r"):
                    if not line.strip():
                        continue
                    value = json.loads(line)
                item = parse(value)
            # JSONDecodeError is a ValueError.
            except (KeyError, TypeError, ValueError) as exc:
                raise InputFormatError(f"bad {what} ({exc})", path=path,
                                       line=lineno) from exc
            yield lineno, item


def read_table(path: str | Path,
               columns: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield `(line number, fields)` for each line of a tab-separated file.

    Lines end where the file's lines end (LF, CR or CRLF), as `read_jsonl`
    reads them: a `\x85`, `\x1c` or U+2028 inside a line neither splits it
    nor shifts the numbers of the lines after it. Blank lines and lines
    starting with '#' are skipped; fields are split on tabs after the line
    is trimmed. A line with other than `len(columns)` fields raises
    InputFormatError naming the expected columns.
    """
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split("\t")
            if len(fields) != len(columns):
                raise InputFormatError(
                    f"expected `{'<TAB>'.join(columns)}`, got {line!r}",
                    path=path, line=lineno)
            yield lineno, fields


def normalize_name(name: str) -> str:
    """Canonicalize a person or candidate string: NFC, trim, collapse whitespace."""
    name = unicodedata.normalize("NFC", name)
    return " ".join(name.split())


def name_key(name: str) -> str:
    """Comparison key for duplicate/leakage checks (normalized + casefolded)."""
    return normalize_name(name).casefold()


def normalize_label(label: str) -> str:
    """Canonical label form: NFC, trimmed, lowercase."""
    return unicodedata.normalize("NFC", label).strip().lower()


@functools.lru_cache(maxsize=1024)
def _interned_label(label: str) -> str:
    """`normalize_label(label)`, interned, computed once per distinct label."""
    return sys.intern(normalize_label(label))


class Provenance(enum.Enum):
    """How a name-label pair entered the corpus."""

    EXTRACTED = "extracted"
    VALIDATED = "validated"
    SYNTHETIC = "synthetic"


@dataclass(frozen=True, slots=True, init=False)
class NameRecord:
    """A full name paired with a country label and a provenance tag; slotted,
    with the label interned, as an augmented corpus holds ~10^5 per country.

    `__init__` is written by hand, not generated: it normalizes the name once
    and sets each slot once through the class's slot descriptors, where the
    generated frozen `__init__` plus a `__post_init__` would set four fields
    and then two of them again. The data chain builds one for every record
    it reads or draws.
    """

    full_name: str
    label: str
    provenance: Provenance = Provenance.EXTRACTED
    source_id: str | None = None

    def __init__(self, full_name: str, label: str,
                 provenance: Provenance = Provenance.EXTRACTED,
                 source_id: str | None = None) -> None:
        normalized = normalize_name(full_name)
        if not normalized:
            raise RecordError("full_name is empty after whitespace normalization")
        _set_full_name(self, normalized)
        # A label that is not a string fails in normalize_label, with its
        # own message, before the cache would fail to hash it.
        _set_label(self, _interned_label(label) if isinstance(label, str)
                   else normalize_label(label))
        _set_provenance(self, provenance)
        _set_source_id(self, source_id)

    @property
    def key(self) -> str:
        """`name_key(full_name)`. `full_name` is stored normalized and
        `normalize_name` is idempotent, so casefolding it is that key."""
        return self.full_name.casefold()


# The slot setters NameRecord.__init__ writes through; the frozen
# `__setattr__` would refuse them.
_set_full_name, _set_label, _set_provenance, _set_source_id = (
    NameRecord.__dict__[f].__set__
    for f in ("full_name", "label", "provenance", "source_id"))


class SyntheticNames:
    """One country's synthetic names, held as one "\n"-joined string: a
    sized collection, iterable as often as asked, that builds each synthetic
    NameRecord as it is iterated.

    Each name must be `normalize_name`'s non-empty output (a draw's), so the
    records are set through the slot setters without normalizing it again.
    `normalize_name` splits on all whitespace, so no name holds "\n" and the
    join is lossless.
    """

    __slots__ = ("label", "_joined", "_size")

    def __init__(self, label: str, names: Iterable[str]) -> None:
        self.label = _interned_label(label)
        self._joined = "\n".join(names)
        self._size = self._joined.count("\n") + 1 if self._joined else 0

    def __len__(self) -> int:
        return self._size

    def names(self) -> list[str]:
        """The names, in the order they were kept."""
        return self._joined.split("\n") if self._joined else []

    def __iter__(self) -> Iterator[NameRecord]:
        label, new = self.label, object.__new__
        for name in self.names():
            record = new(NameRecord)
            _set_full_name(record, name)
            _set_label(record, label)
            _set_provenance(record, Provenance.SYNTHETIC)
            _set_source_id(record, None)
            yield record


@dataclass(frozen=True)
class Taxonomy:
    """A named, ordered label space.

    Label order is stable and defines the class-index order used by the
    classifier head and confusion matrices.
    """

    name: str
    labels: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {l: i for i, l in enumerate(self.labels)})

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(
                f"label {label!r} is not in taxonomy {self.name!r}") from None


def register_taxonomy(name: str, labels: Iterable[str]) -> Taxonomy:
    """Build a Taxonomy from raw label strings, preserving input order.

    Labels are normalized (trimmed, lowercased). Raises DuplicateLabelError
    naming the first duplicate, or TaxonomyError on an empty list.
    """
    normalized: list[str] = []
    seen: set[str] = set()
    for raw in labels:
        label = normalize_label(raw)
        if not label:
            raise TaxonomyError(f"taxonomy {name!r} contains an empty label")
        if label in seen:
            raise DuplicateLabelError(
                f"duplicate label {label!r} in taxonomy {name!r}")
        seen.add(label)
        normalized.append(label)
    if not normalized:
        raise TaxonomyError(f"taxonomy {name!r} has no labels")
    return Taxonomy(name=name, labels=tuple(normalized))


def load_taxonomy(path: str | Path, name: str | None = None) -> Taxonomy:
    """Load a taxonomy from a text file: one label per line, UTF-8, LF.

    Blank lines and lines starting with '#' are ignored so shipped files can
    carry provenance notes.
    """
    labels = [label for _, (label,) in read_table(path, ("label",))]
    return register_taxonomy(name or Path(path).stem, labels)


@dataclass(frozen=True)
class LabelMapping:
    """Directional many-to-one map between label spaces, used at evaluation time.

    The table must be total: every source label has exactly one image, and
    every image belongs to the target taxonomy.
    """

    from_taxonomy: Taxonomy
    to_taxonomy: Taxonomy
    table: Mapping[str, str]

    def __post_init__(self) -> None:
        for source in self.from_taxonomy:
            if source not in self.table:
                raise TaxonomyError(
                    f"mapping {self.from_taxonomy.name!r}->{self.to_taxonomy.name!r} "
                    f"has no entry for source label {source!r}")
        for source, target in self.table.items():
            if source not in self.from_taxonomy:
                raise UnknownLabelError(
                    f"mapping source label {source!r} is not in taxonomy "
                    f"{self.from_taxonomy.name!r}")
            if target not in self.to_taxonomy:
                raise TaxonomyError(
                    f"mapping target {target!r} (for source {source!r}) is not in "
                    f"taxonomy {self.to_taxonomy.name!r}")
        object.__setattr__(self, "table", dict(self.table))

    def __call__(self, label: str) -> str:
        """Map one source label through the table. Raises UnknownLabelError for non-members."""
        label = normalize_label(label)
        try:
            return self.table[label]
        except KeyError:
            raise UnknownLabelError(
                f"label {label!r} is not in taxonomy {self.from_taxonomy.name!r}") from None


def load_mapping(path: str | Path, from_taxonomy: Taxonomy,
                 to_taxonomy: Taxonomy) -> LabelMapping:
    """Load a mapping from a TSV file: `source<TAB>target` per line, UTF-8, LF."""
    table: dict[str, str] = {}
    for lineno, fields in read_table(path, ("source", "target")):
        source, target = map(normalize_label, fields)
        if source in table:
            raise DuplicateLabelError(
                f"{path}:{lineno}: duplicate mapping source {source!r}")
        table[source] = target
    return LabelMapping(from_taxonomy, to_taxonomy, table)


# --- NameRecord JSONL serialization (fields: name, label, provenance) ---

_PROVENANCES = {p.value: p for p in Provenance}


def record_from_dict(obj: dict) -> NameRecord:
    full_name, label = obj["name"], obj["label"]
    provenance = obj.get("provenance", "extracted")
    try:
        provenance = _PROVENANCES[provenance]
    except (KeyError, TypeError):  # raises Provenance's own ValueError
        provenance = Provenance(provenance)
    record = NameRecord(full_name, label, provenance, obj.get("source_id"))
    if record.source_id is not None and not isinstance(record.source_id, str):
        raise TypeError(f"source_id must be a string, not "
                        f"{type(record.source_id).__name__}")
    return record


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Open `<path>.tmp` for writing and move it onto `path` on a clean exit.

    The one way this package writes a file. The parent directory is created;
    text mode is UTF-8 with LF newlines. If the block raises, the temp file is
    removed and a previous file at `path` is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        with tmp.open(mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _dataclass_fields(obj) -> dict:
    """`json.dumps` hook: a dataclass instance becomes `asdict(obj)`."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return asdict(obj)
    raise TypeError(
        f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path: str | Path, obj) -> None:
    """Write `obj` atomically as indented, key-sorted UTF-8 JSON plus a newline.

    The one report serializer: a dataclass instance, at any depth, is written
    as its fields, so a report's dataclass is its JSON layout.
    """
    with atomic_open(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False,
                            default=_dataclass_fields))
        fh.write("\n")


def write_records(path: str | Path, records: Iterable[NameRecord]) -> int:
    """Write records as JSONL through `atomic_open`; returns the number written.

    Each line is the bytes of `json.dumps({"name": ..., "label": ...,
    "provenance": ...[, "source_id": ...]}, ensure_ascii=False)` plus LF,
    built from the string encoder `json.dumps` itself uses, with the label
    and provenance fields encoded once per distinct value. Lines are written
    one at a time, so memory stays flat in the number of records. The
    provenance fields are keyed by the member's `_value_`, a str, since
    hashing the member itself runs `Enum.__hash__` in Python per record.
    """
    encode = json.encoder.encode_basestring
    provenances = {p._value_: ', "provenance": ' + encode(p._value_)
                   for p in Provenance}
    labels: dict[str, str] = {}
    count = 0
    with atomic_open(path) as fh:
        for record in records:
            label = labels.get(record.label)
            if label is None:
                label = labels[record.label] = ', "label": ' + encode(record.label)
            line = ('{"name": ' + encode(record.full_name) + label
                    + provenances[record.provenance._value_])
            if record.source_id is not None:
                line += ', "source_id": ' + encode(record.source_id)
            fh.write(line + "}\n")
            count += 1
    return count


def iter_records(path: str | Path) -> Iterator[NameRecord]:
    """Yield the records of a NameRecord JSONL file as its lines are read, so
    a caller that keeps none holds one at a time. Malformed lines raise
    InputFormatError, as in `read_records`."""
    for _, record in read_jsonl(path, "record", record_from_dict):
        yield record


def read_records(path: str | Path, *, real_only: bool = False) -> list[NameRecord]:
    """Read a NameRecord JSONL file. Malformed lines raise InputFormatError.

    With `real_only`, a record tagged synthetic raises InputFormatError too.
    """
    records = []
    for lineno, record in read_jsonl(path, "record", record_from_dict):
        if real_only and record.provenance is Provenance.SYNTHETIC:
            raise InputFormatError("record is tagged synthetic; this input "
                                   "takes real names only", path=path, line=lineno)
        records.append(record)
    return records
