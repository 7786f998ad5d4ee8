"""Extraction rules are pinned by a 50-case hand-labeled fixture plus unit
tests for each normalization stage."""
import importlib.resources
import unicodedata

import pytest

from namecountry import fixtures
from namecountry.core import InputFormatError, load_taxonomy, register_taxonomy
from namecountry.extraction import (
    AffiliationRecord,
    NormalizationTable,
    build_labeled_corpus,
    extract_country_candidate,
    normalize_country,
    read_affiliations,
)


def _data_path(name):
    return importlib.resources.files("namecountry.data") / name


@pytest.fixture(scope="module")
def oag_taxonomy():
    return load_taxonomy(_data_path("taxonomy_oag99.txt"), name="oag99")


@pytest.fixture(scope="module")
def alias_table():
    return NormalizationTable.from_file(_data_path("aliases.tsv"))


def test_extract_country_candidate():
    assert extract_country_candidate("University of Oxford, UK") == "UK"
    assert extract_country_candidate("MIT, Cambridge, USA") == "USA"
    assert extract_country_candidate("ETH Zurich") is None
    assert extract_country_candidate("Masaryk University,") is None
    assert extract_country_candidate("Dept, ") is None


def test_normalize_country_alias_then_taxonomy(oag_taxonomy, alias_table):
    assert normalize_country("USA", alias_table, oag_taxonomy) == "united states"
    assert normalize_country("U.S.A.", alias_table, oag_taxonomy) == "united states"
    assert normalize_country("France", alias_table, oag_taxonomy) == "france"
    assert normalize_country("Narnia", alias_table, oag_taxonomy) is None
    assert normalize_country("  ", alias_table, oag_taxonomy) is None


def test_normalize_country_strips_terminal_periods(oag_taxonomy, alias_table):
    assert normalize_country("Egypt.", alias_table, oag_taxonomy) == "egypt"


def test_alias_target_must_be_in_taxonomy(alias_table):
    # alias hit whose target label is outside the active taxonomy resolves to None
    small = register_taxonomy("small", ["france"])
    assert normalize_country("USA", alias_table, small) is None


def test_normalization_table_conflict():
    with pytest.raises(ValueError):
        NormalizationTable.from_pairs([("uk", "united kingdom"),
                                       ("UK", "ukraine")])
    # same target is not a conflict
    table = NormalizationTable.from_pairs([("uk", "united kingdom"),
                                           ("U.K.", "united kingdom")])
    assert table.aliases["uk"] == "united kingdom"
    assert table.aliases["u.k"] == "united kingdom"


def test_alias_target_is_normalized_like_a_taxonomy_label():
    nfc = "côte d'ivoire"
    nfd = unicodedata.normalize("NFD", nfc)
    taxonomy = register_taxonomy("ivory_nfd", [nfc])
    table = NormalizationTable.from_pairs([("ivory coast", nfd),
                                           ("CI", f" {nfd.upper()} ")])
    # An NFD alias target resolves, as the same bare NFD string does.
    assert normalize_country("Ivory Coast", table, taxonomy) == nfc
    assert normalize_country("CI", table, taxonomy) == nfc
    assert normalize_country(nfd, table, taxonomy) == nfc
    # Targets equal once normalized are not a conflict.
    NormalizationTable.from_pairs([("ci", nfd), ("CI", nfc)])


def test_fifty_case_fixture(oag_taxonomy, alias_table):
    """Every hand-labeled case must resolve exactly as recorded."""
    for record in fixtures.extraction_records():
        expected = fixtures.EXTRACTION_EXPECTED[record.author_id]
        got, _ = build_labeled_corpus([record], alias_table, oag_taxonomy)
        got_label = got[0].label if got else None
        assert got_label == expected, record.author_id


def test_ambiguous_author_excluded(oag_taxonomy, alias_table):
    record = AffiliationRecord("a", "Jean Dupont",
                               ("CNRS, France", "MPI, Germany"))
    assert build_labeled_corpus([record], alias_table, oag_taxonomy)[0] == []


def test_same_country_twice_is_not_ambiguous(oag_taxonomy, alias_table):
    record = AffiliationRecord("a", "Jean Dupont",
                               ("CNRS, France", "INRIA, france"))
    got, _ = build_labeled_corpus([record], alias_table, oag_taxonomy)
    assert [r.label for r in got] == ["france"]


def test_build_labeled_corpus_stats(oag_taxonomy, alias_table):
    records = [
        AffiliationRecord("a1", "Wei Zhang", ("Tsinghua University, China",)),
        AffiliationRecord("a2", "Jean Dupont", ("CNRS, France", "MPI, Germany")),
        AffiliationRecord("a3", "Ana Lima", ("Unknown Institute",)),
        AffiliationRecord("a4", "Wei Zhang", ("Peking University, China",)),
    ]
    corpus, stats = build_labeled_corpus(records, alias_table, oag_taxonomy)
    assert [r.full_name for r in corpus] == ["Wei Zhang"]
    assert stats.raw == 4
    assert stats.retained == 1
    assert stats.ambiguous == 1
    assert stats.unresolved == 1
    assert stats.deduplicated == 1
    assert stats.raw == (stats.retained + stats.ambiguous
                         + stats.unresolved + stats.deduplicated)


def test_build_labeled_corpus_order_independent(oag_taxonomy, alias_table):
    records = [
        AffiliationRecord("b2", "Ana Lima", ("USP, Brazil",)),
        AffiliationRecord("b1", "Wei Zhang", ("Tsinghua, China",)),
    ]
    corpus_a, _ = build_labeled_corpus(records, alias_table, oag_taxonomy)
    corpus_b, _ = build_labeled_corpus(reversed(records), alias_table,
                                       oag_taxonomy)
    assert corpus_a == corpus_b
    assert [r.source_id for r in corpus_a] == ["b1", "b2"]


def test_same_name_different_country_both_kept(oag_taxonomy, alias_table):
    records = [
        AffiliationRecord("c1", "Maria Silva", ("USP, Brazil",)),
        AffiliationRecord("c2", "Maria Silva", ("University of Porto, Portugal",)),
    ]
    corpus, stats = build_labeled_corpus(records, alias_table, oag_taxonomy)
    assert len(corpus) == 2
    assert stats.deduplicated == 0


def test_read_affiliations(tmp_path):
    path = tmp_path / "authors.jsonl"
    path.write_text(
        '{"id": "a1", "name": "Wei Zhang", "affiliations": ["Tsinghua, China"]}\n'
        '\n'
        '{"id": "a2", "name": "No Affil"}\n',
        encoding="utf-8")
    rows = list(read_affiliations(path))
    assert rows[0] == AffiliationRecord("a1", "Wei Zhang", ("Tsinghua, China",))
    assert rows[1].affiliations == ()


def test_read_affiliations_bad_json(tmp_path):
    path = tmp_path / "authors.jsonl"
    path.write_text('{"id": "a1", "name": "A B"}\n{oops\n', encoding="utf-8")
    with pytest.raises(InputFormatError) as exc_info:
        list(read_affiliations(path))
    assert exc_info.value.line == 2


def test_read_affiliations_requires_name(tmp_path):
    path = tmp_path / "authors.jsonl"
    path.write_text('{"id": "a1"}\n', encoding="utf-8")
    with pytest.raises(InputFormatError):
        list(read_affiliations(path))


def test_shipped_taxonomy_and_aliases_consistent(oag_taxonomy, alias_table):
    assert len(oag_taxonomy) == 99
    for alias, label in alias_table.aliases.items():
        assert label in oag_taxonomy, f"alias {alias!r} targets unknown label"
