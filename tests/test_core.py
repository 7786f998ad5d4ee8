import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from namecountry.core import (
    DuplicateLabelError,
    InputFormatError,
    LabelMapping,
    NameRecord,
    Provenance,
    RecordError,
    TaxonomyError,
    UnknownLabelError,
    atomic_open,
    load_mapping,
    load_taxonomy,
    name_key,
    normalize_label,
    normalize_name,
    read_jsonl,
    read_records,
    record_from_dict,
    register_taxonomy,
    write_json,
    write_records,
)
from namecountry.engine import BenchRow, ThroughputReport
from namecountry.evaluation import (
    BiasReport, BucketMetrics, BucketReport, ClassMetrics, DuplicationReport,
    EvalReport, GroupStats,
)
from namecountry.extraction import ExtractionStats, NormalizationTable


def test_normalize_name_collapses_whitespace():
    assert normalize_name("  Wei   Zhang\t") == "Wei Zhang"
    assert normalize_name("Wei\nZhang") == "Wei Zhang"


def test_normalize_name_applies_nfc():
    # e + combining acute composes to a single code point
    decomposed = "Réne"
    assert normalize_name(decomposed) == "Réne"


def test_name_key_casefolds():
    assert name_key("Wei ZHANG") == name_key("wei zhang")
    assert name_key("Straße A") == name_key("STRASSE A")


def test_normalize_label():
    assert normalize_label("  United States ") == "united states"
    assert normalize_label("CHINA") == "china"


@given(st.text())
def test_normalize_name_idempotent(s):
    once = normalize_name(s)
    assert normalize_name(once) == once


@given(st.text())
def test_name_key_idempotent_under_normalization(s):
    assert name_key(normalize_name(s)) == name_key(s)


# NFD letters, combining marks (also right after whitespace), whitespace runs
# (U+2000/U+2001 NFC-decompose to U+2002/U+2003), and case pairs that
# casefold to longer strings.
NAME_PIECES = st.sampled_from([
    "e", "\u0301", "\u0327", "A", " ", "  ", "\t", "\n", "\u2000", "\u2001",
    "\u3000", "\xa0", "\x85", "\x1c", "\u2028", "ß", "İ", "ﬁ", "Σ", "ς",
    "\U0001d49c"])
NAME_TEXT = st.lists(NAME_PIECES | st.characters(blacklist_categories=("Cs",)),
                     max_size=12).map("".join)


@given(NAME_TEXT)
def test_record_key_is_name_key_of_the_raw_name(raw):
    """`NameRecord.key` casefolds the stored name; that equals `name_key` of
    whatever the record was built from."""
    if not normalize_name(raw):
        return
    assert NameRecord(raw, "alfa").key == name_key(raw)


def test_name_record_normalizes_fields():
    record = NameRecord(full_name="  Wei  Zhang ", label=" CHINA ")
    assert record.full_name == "Wei Zhang"
    assert record.label == "china"
    assert record.provenance is Provenance.EXTRACTED
    assert record.key == "wei zhang"


def test_name_record_rejects_empty_name():
    with pytest.raises(RecordError):
        NameRecord(full_name="   ", label="china")


@dataclasses.dataclass(frozen=True, slots=True)
class ReferenceRecord:
    """NameRecord as a generated frozen `__init__` plus `__post_init__`, the
    rule the hand-written `NameRecord.__init__` must keep."""

    full_name: str
    label: str
    provenance: Provenance = Provenance.EXTRACTED
    source_id: str | None = None

    def __post_init__(self) -> None:
        normalized = normalize_name(self.full_name)
        if not normalized:
            raise RecordError("full_name is empty after whitespace normalization")
        object.__setattr__(self, "full_name", normalized)
        object.__setattr__(self, "label", sys.intern(normalize_label(self.label)))


def outcome(call, *args, **kwargs):
    """`(value, None)`, or `(None, (type, message))` of what `call` raised."""
    try:
        return call(*args, **kwargs), None
    except Exception as exc:
        return None, (type(exc), str(exc))


RECORD_FIELDS = ("full_name", "label", "provenance", "source_id")


def same_record(record, reference):
    assert [getattr(record, f) for f in RECORD_FIELDS] == [
        getattr(reference, f) for f in RECORD_FIELDS]
    assert record.label is reference.label  # both interned
    assert hash(record) == hash(reference)
    assert repr(record) == repr(reference).replace(
        "ReferenceRecord", "NameRecord", 1)
    assert dataclasses.asdict(record) == dataclasses.asdict(reference)
    assert not hasattr(record, "__dict__")


RECORD_NAMES = NAME_TEXT | st.sampled_from(["", "  ", None, 5, b"A B"])
RECORD_LABELS = NAME_TEXT | st.sampled_from([" CHINA ", None, 5, ["alfa"]])
RECORD_ARGS = st.tuples(RECORD_NAMES, RECORD_LABELS,
                        st.sampled_from(Provenance), st.none() | NAME_TEXT)


@settings(max_examples=300)
@given(st.lists(RECORD_ARGS, min_size=2, max_size=2), st.booleans(),
       RECORD_NAMES, RECORD_LABELS)
@example([("  Wei  Zhang ", " CHINA ", Provenance.EXTRACTED, None),
          ("Wei Zhang", "china", Provenance.EXTRACTED, None)], False,
         "e\u0301 x", "Alfa")
def test_name_record_matches_post_init_rule(args, keywords, new_name,
                                            new_label):
    """The one-pass `__init__` stores, compares, hashes, prints, replaces,
    refuses assignment and fails exactly as the generated one with
    `__post_init__` did, positional or by keyword."""
    built = []
    for a in args:
        if keywords:
            pair = [outcome(cls, **dict(zip(RECORD_FIELDS, a)))
                    for cls in (NameRecord, ReferenceRecord)]
        else:
            pair = [outcome(cls, *a) for cls in (NameRecord, ReferenceRecord)]
        (record, error), (reference, reference_error) = pair
        assert error == reference_error
        if record is not None:
            same_record(record, reference)
            built.append((record, reference))
    if len(built) == 2:
        (a, ref_a), (b, ref_b) = built
        assert (a == b) == (ref_a == ref_b)
    for record, reference in built:
        for change in ({"full_name": new_name}, {"label": new_label}):
            replaced, error = outcome(dataclasses.replace, record, **change)
            ref_replaced, ref_error = outcome(dataclasses.replace, reference,
                                              **change)
            assert error == ref_error
            if replaced is not None:
                same_record(replaced, ref_replaced)
        for name in RECORD_FIELDS:
            with pytest.raises(dataclasses.FrozenInstanceError) as got:
                setattr(record, name, "x")
            with pytest.raises(dataclasses.FrozenInstanceError) as want:
                setattr(reference, name, "x")
            assert str(got.value) == str(want.value)


def test_register_taxonomy_orders_and_indexes():
    taxonomy = register_taxonomy("t", ["Bravo", "alfa", "charlie"])
    assert taxonomy.labels == ("bravo", "alfa", "charlie")
    assert taxonomy.index_of("alfa") == 1
    assert "bravo" in taxonomy
    assert len(taxonomy) == 3
    assert list(taxonomy) == ["bravo", "alfa", "charlie"]


def test_register_taxonomy_rejects_duplicates_and_empty():
    with pytest.raises(DuplicateLabelError):
        register_taxonomy("t", ["alfa", "ALFA"])
    with pytest.raises(TaxonomyError):
        register_taxonomy("t", [])
    with pytest.raises(TaxonomyError):
        register_taxonomy("t", ["alfa", "  "])


def test_index_of_unknown_label(tiny_taxonomy):
    with pytest.raises(UnknownLabelError):
        tiny_taxonomy.index_of("delta")


def test_load_taxonomy_skips_comments(tmp_path):
    path = tmp_path / "tax.txt"
    path.write_text("# header\nalfa\n\nBravo\n", encoding="utf-8")
    taxonomy = load_taxonomy(path)
    assert taxonomy.name == "tax"
    assert taxonomy.labels == ("alfa", "bravo")


def test_mapping_totality_enforced(tiny_taxonomy):
    target = register_taxonomy("coarse", ["west", "east"])
    with pytest.raises(TaxonomyError):
        LabelMapping(tiny_taxonomy, target, {"alfa": "west", "bravo": "east"})


def test_mapping_rejects_stray_source_and_bad_target(tiny_taxonomy):
    target = register_taxonomy("coarse", ["west", "east"])
    full = {"alfa": "west", "bravo": "east", "charlie": "west"}
    with pytest.raises(UnknownLabelError):
        LabelMapping(tiny_taxonomy, target, {**full, "delta": "west"})
    with pytest.raises(TaxonomyError):
        LabelMapping(tiny_taxonomy, target, {**full, "charlie": "south"})


def test_map_label_and_call(tiny_taxonomy):
    target = register_taxonomy("coarse", ["west", "east"])
    mapping = LabelMapping(tiny_taxonomy, target,
                           {"alfa": "west", "bravo": "east", "charlie": "west"})
    assert mapping("ALFA ") == "west"
    assert mapping("charlie") == "west"
    with pytest.raises(UnknownLabelError):
        mapping("delta")


def test_identity_mapping(tiny_taxonomy):
    mapping = LabelMapping(tiny_taxonomy, tiny_taxonomy,
                           {l: l for l in tiny_taxonomy})
    for label in tiny_taxonomy:
        assert mapping(label) == label


def test_load_mapping_file(tmp_path, tiny_taxonomy):
    target = register_taxonomy("coarse", ["west", "east"])
    path = tmp_path / "map.tsv"
    path.write_text("# comment\nalfa\twest\nbravo\teast\ncharlie\twest\n",
                    encoding="utf-8")
    mapping = load_mapping(path, tiny_taxonomy, target)
    assert mapping("bravo") == "east"


def test_load_mapping_rejects_bad_rows(tmp_path, tiny_taxonomy):
    target = register_taxonomy("coarse", ["west", "east"])
    path = tmp_path / "map.tsv"
    path.write_text("alfa west\n", encoding="utf-8")
    with pytest.raises(InputFormatError):
        load_mapping(path, tiny_taxonomy, target)
    path.write_text("alfa\twest\nalfa\teast\n", encoding="utf-8")
    with pytest.raises(DuplicateLabelError):
        load_mapping(path, tiny_taxonomy, target)


@pytest.mark.parametrize("load, text, columns", [
    (lambda path, tax: load_taxonomy(path), "alfa\tbravo", "label"),
    (lambda path, tax: load_mapping(path, tax, tax), "alfa west", "source<TAB>target"),
    (lambda path, tax: NormalizationTable.from_file(path), "a\tb\tc",
     "alias<TAB>label")], ids=["taxonomy", "mapping", "aliases"])
def test_table_readers_name_their_columns(tmp_path, tiny_taxonomy, load, text,
                                          columns):
    path = tmp_path / "table.tsv"
    path.write_text(f"# note\n\n{text}\n", encoding="utf-8")
    with pytest.raises(InputFormatError) as exc_info:
        load(path, tiny_taxonomy)
    assert str(exc_info.value) == f"{path}:3: expected `{columns}`, got {text!r}"


def test_record_dict_round_trip(tmp_path):
    record = NameRecord("Wei Zhang", "china",
                        provenance=Provenance.SYNTHETIC, source_id="a1")
    path = tmp_path / "records.jsonl"
    write_records(path, [record])
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert obj == {"name": "Wei Zhang", "label": "china",
                   "provenance": "synthetic", "source_id": "a1"}
    assert record_from_dict(obj) == record
    assert read_records(path) == [record]


def test_record_from_dict_defaults_provenance():
    record = record_from_dict({"name": "Ana Souza", "label": "brazil"})
    assert record.provenance is Provenance.EXTRACTED
    assert record.source_id is None


def test_write_read_records_round_trip(tmp_path):
    records = [
        NameRecord("Wei Zhang", "china"),
        NameRecord("Jörg Müller", "germany",
                   provenance=Provenance.VALIDATED),
    ]
    path = tmp_path / "records.jsonl"
    assert write_records(path, records) == 2
    assert read_records(path) == records
    # no stray temp file after a clean write
    assert list(tmp_path.iterdir()) == [path]


def test_records_share_one_label_object_and_hold_no_dict(tmp_path):
    """An augmented corpus holds ~10^5 records per country: a record has no
    per-instance `__dict__`, and records read with one label share one
    label string."""
    path = tmp_path / "records.jsonl"
    path.write_text('{"name": "Ana Silva", "label": "Brazil "}\n'
                    '{"name": "Bea Costa", "label": "brazil"}\n',
                    encoding="utf-8")
    first, second = read_records(path)
    assert not hasattr(first, "__dict__")
    assert first.label == "brazil"
    assert first.label is second.label


def test_write_records_preserves_unicode(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(path, [NameRecord("Jörg Müller", "germany")])
    assert "Jörg" in path.read_text(encoding="utf-8")


def test_read_records_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"name": "A B", "label": "x"}\nnot json\n',
                    encoding="utf-8")
    with pytest.raises(InputFormatError) as exc_info:
        read_records(path)
    assert exc_info.value.line == 2


def test_read_records_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"name": "A B"}) + "\n", encoding="utf-8")
    with pytest.raises(InputFormatError):
        read_records(path)


# --- record codec parity with json.dumps / json.loads ---

# Separators str.splitlines() ends a line at but a file's lines do not.
INLINE_SEPARATORS = ["\x85", "\x1c", "\u2028"]


@pytest.mark.parametrize("sep", INLINE_SEPARATORS)
def test_taxonomy_line_with_inline_separator_is_one_label(tmp_path, sep):
    path = tmp_path / "tax.txt"
    path.write_text(f"alfa\nbeta{sep}gamma\n", encoding="utf-8")
    assert load_taxonomy(path).labels == ("alfa", f"beta{sep}gamma")
    path.write_text(f"alfa{sep}x\nbeta\tgamma\n", encoding="utf-8")
    with pytest.raises(InputFormatError) as exc_info:
        load_taxonomy(path)
    assert str(exc_info.value).startswith(f"{path}:2: ")


@pytest.mark.parametrize("sep", INLINE_SEPARATORS)
def test_alias_line_with_inline_separator_is_one_alias(tmp_path, sep):
    path = tmp_path / "aliases.tsv"
    path.write_text(f"foo{sep}bar\tAlfa\r\nbravo\tBravo\n", encoding="utf-8")
    table = NormalizationTable.from_file(path)
    assert table.aliases == {f"foo{sep}bar": "alfa", "bravo": "bravo"}
    path.write_text(f"a{sep}b\talfa\nbroken \n", encoding="utf-8")
    with pytest.raises(InputFormatError) as exc_info:
        NormalizationTable.from_file(path)
    assert str(exc_info.value) == (
        f"{path}:2: expected `alias<TAB>label`, got 'broken '")


# Characters json.dumps escapes (quote, backslash, controls) or writes raw
# with ensure_ascii=False (U+2028, U+00A0, non-BMP). Names keep the ones
# normalize_name does not take for whitespace; labels and source ids keep
# all of them inside.
CODEC_PIECES = st.sampled_from([
    '"', "\\", "\x00", "\x08", "\x1b", "\x1f", "\x7f", "\x85", "\xa0",
    "\u2028", "\u2029", "\ufeff", "é", "e\u0301", "\U0001f600", "\U0001d49c",
    "Ab", " "])
CODEC_TEXT = st.lists(CODEC_PIECES | st.characters(blacklist_categories=("Cs",)),
                      min_size=1, max_size=10).map("".join)
RECORDS = st.builds(NameRecord, CODEC_TEXT.filter(normalize_name), CODEC_TEXT,
                    st.sampled_from(Provenance), st.none() | CODEC_TEXT)


def reference_line(record):
    obj = {"name": record.full_name, "label": record.label,
           "provenance": record.provenance.value}
    if record.source_id is not None:
        obj["source_id"] = record.source_id
    return json.dumps(obj, ensure_ascii=False) + "\n"


@settings(max_examples=200)
@given(st.lists(RECORDS, max_size=8))
@example([NameRecord('Ana "Bea" \\ Cruz\x01', "alfa\u2028", p, s)
          for p in Provenance for s in (None, "id\x00\U0001f600")])
def test_write_records_bytes_match_json_dumps(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        assert write_records(path, records) == len(records)
        assert path.read_bytes() == "".join(
            map(reference_line, records)).encode("utf-8")
        assert read_records(path) == records


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | CODEC_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(CODEC_TEXT, inner, max_size=3), max_leaves=6)
# Around a value: JSON whitespace, which json.loads skips, and characters
# str.strip() takes for whitespace but json.loads does not.
AROUND = st.sampled_from(["", " ", "\t", "  \t", "\r", "\x1c", "\x1f", "\x85",
                          "\xa0", "\u2028", "\ufeff"])
JSONL_LINES = (st.tuples(AROUND, JSON_VALUES.map(json.dumps), AROUND,
                         st.sampled_from(["", "", " 1", "}", "]", '"x"']))
               .map("".join)
               | st.sampled_from(["", "   ", "\x1c", "NaN", "-Infinity",
                                  '{"a": NaN}', "[1, 2", '{"a" 1}', "nul",
                                  '"\\ud800"', "[[[{}]]]", "\ufeff{}", "{} {}"]))


def reference_read(path):
    """The reference reader: skip lines `str.strip()` blanks, `json.loads`
    the rest."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append((lineno, repr(json.loads(line))))
            except ValueError as exc:
                return out, f"{path}:{lineno}: bad value ({exc})"
    return out, None


@settings(max_examples=300)
@given(st.lists(JSONL_LINES, min_size=1, max_size=5))
def test_read_jsonl_matches_json_loads(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "values.jsonl"
        path.write_text("".join(l + "\n" for l in lines), encoding="utf-8",
                        newline="")
        expected, error = reference_read(path)
        got = []
        try:
            for lineno, value in read_jsonl(path, "value", lambda v: v):
                got.append((lineno, repr(value)))
        except InputFormatError as exc:
            assert str(exc) == error
        else:
            assert error is None
        assert got == expected


@pytest.mark.parametrize("obj, message", [
    ({"name": "A B"}, "'label'"),
    ({"label": "alfa"}, "'name'"),
    ([1], "list indices must be integers or slices, not str"),
    ({"name": "A B", "label": ["alfa"]},
     "normalize() argument 2 must be str, not list"),
    ({"name": "A B", "label": {"x": 1}},
     "normalize() argument 2 must be str, not dict"),
    ({"name": 5, "label": "alfa"}, "normalize() argument 2 must be str, not int"),
    ({"name": "A B", "label": "alfa", "provenance": ["x"]},
     "['x'] is not a valid Provenance"),
    ({"name": "A B", "label": "alfa", "provenance": "made up"},
     "'made up' is not a valid Provenance"),
    ({"name": "A B", "label": "alfa", "source_id": 3},
     "source_id must be a string, not int")])
def test_bad_record_errors_name_the_fault(tmp_path, obj, message):
    """A label or provenance that the lookup tables cannot hash fails with
    the message of the call that rejects it."""
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(InputFormatError) as exc_info:
        read_records(path)
    assert str(exc_info.value) == f"{path}:1: bad record ({message})"


# --- the atomic writer ---

@pytest.mark.parametrize("mode, old, new", [
    ("w", "old text\n", "new text"), ("wb", b"old bytes", b"new bytes")])
def test_atomic_open_failed_write_keeps_previous_file(tmp_path, mode, old, new):
    path = tmp_path / "out.dat"
    with atomic_open(path, mode) as fh:
        fh.write(old)
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_open(path, mode) as fh:
            fh.write(new)
            fh.flush()
            raise RuntimeError("mid-write")
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no *.tmp left behind


def test_atomic_open_creates_missing_parent(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    with atomic_open(path) as fh:
        fh.write("Jörg\n")
    assert path.read_bytes() == "Jörg\n".encode("utf-8")
    assert list(path.parent.iterdir()) == [path]


def test_write_json_format(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"b": 1, "a": ["Jörg"]})
    assert path.read_text(encoding="utf-8") == (
        '{\n  "a": [\n    "Jörg"\n  ],\n  "b": 1\n}\n')


def _leaf_paths(value, prefix=""):
    """Dotted paths to the leaves of a JSON value; a list is `[]`, typed by
    its first element."""
    if isinstance(value, dict):
        return [path for key, item in value.items()
                for path in _leaf_paths(item, f"{prefix}.{key}".lstrip("."))]
    if isinstance(value, list):
        return _leaf_paths(value[0], prefix + "[]") if value else [prefix + "[]"]
    return [prefix]


REPORT_LAYOUTS = [
    (EvalReport(0.5, 0.5, 0.5, {"alfa": ClassMetrics(0.5, 1.0, 0.6, 2)}, 2),
     ["accuracy", "macro_f1", "n_records", "per_class.alfa.f1",
      "per_class.alfa.precision", "per_class.alfa.recall",
      "per_class.alfa.support", "weighted_f1"]),
    (BucketReport(200, ("alfa",), ("bravo", "charlie"),
                  BucketMetrics(0.5, 0.4, 6), BucketMetrics(0.0, 0.0, 2)),
     ["head.accuracy", "head.macro_f1", "head.n_records", "head_labels[]",
      "tail.accuracy", "tail.macro_f1", "tail.n_records", "tail_labels[]",
      "threshold"]),
    (BiasReport({"east": GroupStats(1, 2, 0.5, 0.1, 0.9)}, {"east": 1.0},
                {"east": 1.0}, 2, 1),
     ["gold_distribution.east", "groups.east.accuracy",
      "groups.east.ci_lower", "groups.east.ci_upper", "groups.east.correct",
      "groups.east.total", "hallucinated_distribution.east", "n_incorrect",
      "n_records"]),
    (ThroughputReport("m1", "local",
                      (BenchRow(2, 2, 0.1, 20.0, 50.0, (0.1, 0.1)),), 1.5),
     ["cost_per_million", "model_name", "model_type", "rows[].batch_size",
      "rows[].latency_ms_per_name", "rows[].mean_runtime_seconds",
      "rows[].names_per_run", "rows[].runtime_samples[]",
      "rows[].throughput_names_per_second"]),
    (ExtractionStats(4, 2, 1, 1, 0),
     ["ambiguous", "deduplicated", "raw", "retained", "unresolved"]),
    (DuplicationReport(3, 0.5, 0.0, {"alfa": 0.5}),
     ["distinct_names", "per_country.alfa", "share_three_plus",
      "share_two_plus"]),
]


# Each report's dataclass is its JSON layout: write_json writes any dataclass,
# nested ones and tuples included, as its fields.
@pytest.mark.parametrize("report, layout", REPORT_LAYOUTS,
                         ids=[type(r).__name__ for r, _ in REPORT_LAYOUTS])
def test_write_json_report_layout(tmp_path, report, layout):
    path = tmp_path / "report.json"
    write_json(path, report)
    assert _leaf_paths(json.loads(path.read_text(encoding="utf-8"))) == layout


def test_write_json_rejects_other_objects(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        write_json(path, {"names": {"Wei Zhang"}})
    with pytest.raises(TypeError, match="type is not JSON serializable"):
        write_json(path, ExtractionStats)  # a dataclass type, not an instance
    assert list(tmp_path.iterdir()) == []


def test_write_records_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(path, [NameRecord("Wei Zhang", "china")])
    before = path.read_bytes()

    def records():
        yield NameRecord("Ana Souza", "brazil")
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError):
        write_records(path, records())
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
