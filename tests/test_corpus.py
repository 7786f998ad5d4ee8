import contextlib
import io
import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from namecountry import corpus
from namecountry.cli import main
from namecountry.core import NameRecord, Provenance, write_records
from namecountry.corpus import (
    SPLIT_NAMES,
    CorpusSplits,
    EmptyCorpusError,
    SplitConfig,
    assemble_augmented_splits,
    audit_is_clean,
    audit_splits,
    build_filtered_test,
    enforce_no_leakage,
    largest_remainder_allocation,
    split_corpus,
)


def make_records(country, n, prefix="n"):
    return [NameRecord(f"{prefix.title()}{i} {country.title()}", country)
            for i in range(n)]


# --- largest-remainder rounding: hand-frozen values first ---

def test_allocation_exact_division():
    assert largest_remainder_allocation(1000, (8, 1, 1)) == [800, 100, 100]
    assert largest_remainder_allocation(5000, (8, 1, 1)) == [4000, 500, 500]
    assert largest_remainder_allocation(480, (3, 1, 1)) == [288, 96, 96]


def test_allocation_five_records():
    # shares 4.0/0.5/0.5 -> leftover unit goes to the earlier tied part
    assert largest_remainder_allocation(5, (8, 1, 1)) == [4, 1, 0]


def test_allocation_seven_records():
    # shares 5.6/0.7/0.7 -> two leftovers to the .7 parts
    assert largest_remainder_allocation(7, (8, 1, 1)) == [5, 1, 1]


def test_allocation_tie_goes_to_earlier_part():
    assert largest_remainder_allocation(2, (1, 1, 1)) == [1, 1, 0]
    assert largest_remainder_allocation(1, (1, 1, 1)) == [1, 0, 0]


def test_allocation_zero_weight():
    assert largest_remainder_allocation(10, (1, 0, 1)) == [5, 0, 5]
    assert largest_remainder_allocation(0, (8, 1, 1)) == [0, 0, 0]


@given(st.integers(0, 10_000),
       st.lists(st.floats(0, 100), min_size=1, max_size=6)
         .filter(lambda w: sum(w) > 0))
def test_allocation_sums_to_total(total, weights):
    counts = largest_remainder_allocation(total, weights)
    assert sum(counts) == total
    assert all(c >= 0 for c in counts)


@given(st.integers(0, 10_000),
       st.lists(st.floats(0.01, 100), min_size=3, max_size=3))
def test_allocation_within_one_of_exact_share(total, weights):
    counts = largest_remainder_allocation(total, weights)
    for count, weight in zip(counts, weights):
        exact = total * weight / sum(weights)
        assert exact - 1 < count < exact + 1


# --- split_corpus ---

def test_split_sizes_single_country():
    train, val, test = split_corpus(make_records("alfa", 1000), SplitConfig())
    assert (len(train), len(val), len(test)) == (800, 100, 100)


def test_split_stratified_per_country():
    records = make_records("alfa", 1000) + make_records("bravo", 50)
    train, val, test = split_corpus(records, SplitConfig())
    for part, expected in zip((train, val, test), ([800, 40], [100, 5], [100, 5])):
        counts = Counter(r.label for r in part)
        assert [counts["alfa"], counts["bravo"]] == expected


def test_split_five_records_goes_four_one_zero():
    train, val, test = split_corpus(make_records("alfa", 5), SplitConfig())
    assert (len(train), len(val), len(test)) == (4, 1, 0)


def test_split_partitions_are_disjoint_and_total():
    records = make_records("alfa", 137) + make_records("bravo", 41)
    train, val, test = split_corpus(records, SplitConfig(seed=3))
    combined = sorted(r.full_name for r in train + val + test)
    assert combined == sorted(r.full_name for r in records)
    names = [set(r.full_name for r in part) for part in (train, val, test)]
    assert not (names[0] & names[1] or names[0] & names[2] or names[1] & names[2])


def test_split_deterministic_and_seed_sensitive():
    records = make_records("alfa", 300) + make_records("bravo", 300)
    first = split_corpus(records, SplitConfig(seed=11))
    second = split_corpus(records, SplitConfig(seed=11))
    assert first == second
    other = split_corpus(records, SplitConfig(seed=12))
    assert first != other


def test_split_empty_corpus():
    with pytest.raises(EmptyCorpusError):
        split_corpus([], SplitConfig())


def test_split_config_validation():
    with pytest.raises(ValueError):
        SplitConfig(ratios=(8, 1))
    with pytest.raises(ValueError):
        SplitConfig(ratios=(8, -1, 1))
    with pytest.raises(ValueError):
        SplitConfig(ratios=(0, 0, 0))
    # Ratios can come from a JSON config: only finite numbers pass.
    for bad in (None, "8", True, [8], float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite non-negative numbers"):
            SplitConfig(ratios=(bad, 1, 1))
    SplitConfig(ratios=(0.8, 0, 1))


@settings(deadline=None, max_examples=30)
@given(st.dictionaries(st.sampled_from(["alfa", "bravo", "charlie", "delta"]),
                       st.integers(1, 60), min_size=1),
       st.integers(0, 2**32))
def test_split_counts_follow_allocation(sizes, seed):
    records = [r for country, n in sizes.items()
               for r in make_records(country, n)]
    train, val, test = split_corpus(records, SplitConfig(seed=seed))
    for country, n in sizes.items():
        expected = largest_remainder_allocation(n, (8.0, 1.0, 1.0))
        got = [sum(1 for r in part if r.label == country)
               for part in (train, val, test)]
        assert got == expected


# --- leakage enforcement ---

def test_enforce_no_leakage_removes_cross_split_names():
    train = make_records("alfa", 10)
    val = [NameRecord("N3 Alfa", "alfa")]
    test = [NameRecord("n7  ALFA", "alfa")]  # same key despite case/spacing
    kept, removed = enforce_no_leakage(train, val, test)
    assert removed == 2
    kept_names = {r.full_name for r in kept}
    assert "N3 Alfa" not in kept_names and "N7 Alfa" not in kept_names


def test_enforce_no_leakage_is_name_level_not_pair_level():
    train = [NameRecord("Shared Name", "alfa")]
    val = [NameRecord("Shared Name", "bravo")]  # different label, same name
    kept, removed = enforce_no_leakage(train, val, [])
    assert kept == [] and removed == 1


def test_enforce_no_leakage_clean_input_untouched():
    train = make_records("alfa", 5)
    kept, removed = enforce_no_leakage(train, make_records("bravo", 2), [])
    assert kept == train and removed == 0


# --- oracle-screened test_filter ---

class AcceptAll:
    def judge(self, name, country):
        return True


class RejectAll:
    def judge(self, name, country):
        return False


class Flaky:
    """Rejects by raising, which must count as a rejection."""

    def judge(self, name, country):
        raise TimeoutError("oracle down")


def test_build_filtered_test_cap_and_provenance():
    test_oag = make_records("alfa", 30)
    filtered = build_filtered_test(test_oag, AcceptAll(), cap=10)
    assert len(filtered) == 10
    assert all(r.provenance is Provenance.VALIDATED for r in filtered)
    source_pairs = {(r.key, r.label) for r in test_oag}
    assert all((r.key, r.label) in source_pairs for r in filtered)


def test_build_filtered_test_cap_is_per_country():
    test_oag = make_records("alfa", 30) + make_records("bravo", 4)
    filtered = build_filtered_test(test_oag, AcceptAll(), cap=10)
    counts = Counter(r.label for r in filtered)
    assert counts == {"alfa": 10, "bravo": 4}


def test_build_filtered_test_rejections():
    assert build_filtered_test(make_records("alfa", 5), RejectAll(), cap=10) == []


def test_build_filtered_test_oracle_failure_is_rejection():
    assert build_filtered_test(make_records("alfa", 5), Flaky(), cap=10) == []


def test_build_filtered_test_deterministic():
    test_oag = make_records("alfa", 50)

    class EveryOther:
        def __init__(self):
            self.n = 0

        def judge(self, name, country):
            self.n += 1
            return self.n % 2 == 0

    first = build_filtered_test(test_oag, EveryOther(), cap=10, seed=4)
    second = build_filtered_test(test_oag, EveryOther(), cap=10, seed=4)
    assert first == second


def test_build_filtered_test_rejects_bad_cap():
    with pytest.raises(ValueError):
        build_filtered_test([], AcceptAll(), cap=0)


# --- split bundle round trip ---

def test_corpus_splits_save_load_round_trip(tmp_path):
    splits = CorpusSplits(train_oag=make_records("alfa", 8),
                          val_oag=make_records("bravo", 2))
    (tmp_path / "test_oag.jsonl").write_text("stale\n", encoding="utf-8")
    written = splits.save(tmp_path, seed=0, ratios=(8, 1, 1),
                          audit=audit_splits(splits))
    assert written == [tmp_path / "train_oag.jsonl",
                       tmp_path / "val_oag.jsonl", tmp_path / "manifest.json"]
    assert not (tmp_path / "test_oag.jsonl").exists()  # empty split: removed
    loaded = CorpusSplits.load(tmp_path, SPLIT_NAMES)
    assert loaded.train_oag == splits.train_oag
    assert loaded.val_oag == splits.val_oag
    assert loaded.test_gold == []


def test_corpus_splits_getitem():
    splits = CorpusSplits(train_oag=make_records("alfa", 1))
    assert splits["train_oag"] == splits.train_oag
    with pytest.raises(KeyError):
        splits["nope"]


# --- augmented assembly ---

def synthetic(country, n, prefix="s"):
    return [NameRecord(f"{prefix.title()}{i} {country.title()}", country,
                       provenance=Provenance.SYNTHETIC)
            for i in range(n)]


def base_splits():
    return CorpusSplits(train_oag=make_records("alfa", 8),
                        val_oag=make_records("alfa", 1, prefix="v"),
                        test_oag=make_records("alfa", 1, prefix="t"))


def test_assemble_augmented_splits_concatenates():
    out = assemble_augmented_splits(base_splits(), synthetic("alfa", 3),
                                    synthetic("alfa", 1, "sv"),
                                    synthetic("alfa", 1, "st"))
    assert len(out.train_aug) == 11
    assert len(out.val_aug) == 2
    assert len(out.test_filter_aug) == 1  # no test_filter in the base bundle
    assert out.train_oag == base_splits().train_oag


def leaky(name):
    return [NameRecord(name, "alfa", provenance=Provenance.SYNTHETIC)]


# Assembly only concatenates; each leak it is handed is an audit finding.
@pytest.mark.parametrize("synth_train, synth_val, synth_test, check, key", [
    pytest.param(leaky("X0 Alfa"), leaky("X0 Alfa"), [],
                 "train_aug_vs_val_aug", "x0 alfa",
                 id="synth_partition_overlap"),
    pytest.param(leaky("V0 Alfa"), [], [], "train_aug_vs_val_aug", "v0 alfa",
                 id="synth_train_in_val"),
    pytest.param(leaky("T0 Alfa"), [], [], "train_aug_vs_test_oag", "t0 alfa",
                 id="synth_train_in_test_oag"),
    pytest.param([], leaky("N0 Alfa"), [], "train_aug_vs_val_aug", "n0 alfa",
                 id="synth_val_in_train"),
    pytest.param([], [], leaky("N0 Alfa"), "train_aug_vs_test_filter_aug",
                 "n0 alfa", id="synth_test_in_train"),
])
def test_audit_flags_leaky_assembly(synth_train, synth_val, synth_test,
                                    check, key):
    splits = assemble_augmented_splits(base_splits(), synth_train, synth_val,
                                       synth_test)
    violations = audit_splits(splits)
    assert violations[check] == [key]
    flagged = {name for name, keys in violations.items() if keys}
    assert flagged == {check}


# --- audit ---

def clean_bundle():
    return CorpusSplits(
        train_oag=make_records("alfa", 8),
        val_oag=make_records("alfa", 2, prefix="v"),
        test_oag=make_records("alfa", 2, prefix="t"),
        train_aug=make_records("alfa", 8) + synthetic("alfa", 3),
        val_aug=make_records("alfa", 2, prefix="v") + synthetic("alfa", 1, "sv"),
        test_gold=synthetic("alfa", 2, "g"),
    )


def test_audit_clean_bundle():
    violations = audit_splits(clean_bundle())
    assert audit_is_clean(violations)
    assert all(v == [] for v in violations.values())


def test_audit_keys_each_evaluation_split_once(monkeypatch):
    """Every record is keyed once: test_oag and test_gold are scored against
    both training splits but keyed once each, and test_oag's subset-check
    pairs give its overlap keys. test_filter's records are keyed twice,
    once for their (key, label) pair and once for the overlap checks."""
    bundle = clean_bundle()
    for split in ("test_filter", "test_filter_aug"):
        bundle[split].append(NameRecord("T0 Alfa", "alfa",
                                        provenance=Provenance.VALIDATED))
    keyed = Counter()
    key = NameRecord.key

    def counting_key(record):
        keyed[id(record)] += 1
        return key.fget(record)

    monkeypatch.setattr(NameRecord, "key", property(counting_key))
    assert audit_is_clean(audit_splits(bundle))
    for split in SPLIT_NAMES:
        once = 2 if split == "test_filter" else 1
        assert {keyed[id(r)] for r in bundle[split]} == {once}, split


def test_audit_detects_train_test_overlap():
    bundle = clean_bundle()
    bundle.test_oag.append(NameRecord("N0 Alfa", "alfa"))
    violations = audit_splits(bundle)
    assert violations["train_oag_vs_test_oag"] == ["n0 alfa"]
    assert not audit_is_clean(violations)


def test_audit_detects_aug_family_overlap():
    bundle = clean_bundle()
    bundle.val_aug.append(NameRecord("S0 Alfa", "alfa",
                                     provenance=Provenance.SYNTHETIC))
    violations = audit_splits(bundle)
    assert "s0 alfa" in violations["train_aug_vs_val_aug"]


def test_audit_detects_real_record_in_test_gold():
    bundle = clean_bundle()
    bundle.test_gold.append(NameRecord("Real Person", "alfa"))
    violations = audit_splits(bundle)
    assert violations["test_gold_synthetic_only"] == ["Real Person"]


def test_audit_detects_synthetic_in_real_split():
    bundle = clean_bundle()
    bundle.train_oag.append(synthetic("alfa", 1, "zz")[0])
    violations = audit_splits(bundle)
    assert violations["train_oag_real_only"] == ["Zz0 Alfa"]


def test_audit_detects_test_filter_stray():
    bundle = clean_bundle()
    bundle.test_filter.append(NameRecord("Stranger Alfa", "alfa",
                                         provenance=Provenance.VALIDATED))
    violations = audit_splits(bundle)
    assert violations["test_filter_subset_of_test_oag"] == ["Stranger Alfa"]


def test_audit_requires_validated_provenance_in_test_filter():
    bundle = clean_bundle()
    # right (name, label) pair but never re-tagged by the screen
    bundle.test_filter.append(NameRecord("T0 Alfa", "alfa"))
    violations = audit_splits(bundle)
    assert violations["test_filter_subset_of_test_oag"] == ["T0 Alfa"]


def test_audit_check_names():
    # The one leakage rule's table: a check cannot silently drop out.
    assert sorted(audit_splits(CorpusSplits())) == [
        "test_filter_real_only",
        "test_filter_subset_of_test_oag",
        "test_gold_synthetic_only",
        "test_oag_real_only",
        "train_aug_vs_test_filter_aug",
        "train_aug_vs_test_gold",
        "train_aug_vs_test_oag",
        "train_aug_vs_val_aug",
        "train_oag_real_only",
        "train_oag_vs_test_filter",
        "train_oag_vs_test_gold",
        "train_oag_vs_test_oag",
        "train_oag_vs_val_oag",
        "val_oag_real_only",
    ]


class RecordingSplits:
    """A bundle indexable by split name that notes each split asked for."""

    def __init__(self, bundle):
        self.bundle = bundle
        self.asked = []

    def __getitem__(self, split):
        self.asked.append(split)
        return self.bundle[split]


def test_audit_asks_for_each_split_once_evaluation_first():
    # So a caller that reads a split when asked holds one split at a time.
    splits = RecordingSplits(clean_bundle())
    assert audit_splits(splits) == audit_splits(clean_bundle())
    assert splits.asked == ["test_oag", "test_gold", "val_oag", "test_filter",
                            "train_oag", "val_aug", "test_filter_aug",
                            "train_aug"]


def audit_splits_keyed_whole(splits):
    """The audit as it was before training splits were keyed in chunks,
    kept here as the reference the chunked audit must equal."""
    violations = {}

    def record_violation(check, names):
        violations[check] = sorted(names)

    def keys(records):
        return {r.key for r in records}

    shared = {name: keys(splits[name]) for name in ("test_oag", "test_gold")}
    for train_name, eval_names in (
        ("train_oag", ("val_oag", "test_oag", "test_filter", "test_gold")),
        ("train_aug", ("val_aug", "test_oag", "test_filter_aug", "test_gold")),
    ):
        train_keys = keys(splits[train_name])
        for eval_name in eval_names:
            eval_keys = (shared[eval_name] if eval_name in shared
                         else keys(splits[eval_name]))
            record_violation(f"{train_name}_vs_{eval_name}",
                             train_keys & eval_keys)

    record_violation(
        "test_gold_synthetic_only",
        {r.full_name for r in splits.test_gold
         if r.provenance is not Provenance.SYNTHETIC})

    for split in ("train_oag", "val_oag", "test_oag", "test_filter"):
        record_violation(
            f"{split}_real_only",
            {r.full_name for r in splits[split]
             if r.provenance is Provenance.SYNTHETIC})

    test_oag_pairs = {(r.key, r.label) for r in splits.test_oag}
    record_violation(
        "test_filter_subset_of_test_oag",
        {r.full_name for r in splits.test_filter
         if (r.key, r.label) not in test_oag_pairs
         or r.provenance is not Provenance.VALIDATED})

    return violations


def every_finding_bundle():
    """A bundle that trips every check: an overlap in each checked pair,
    a synthetic record in each real-only split, a real record in test_gold,
    and a stray and an unvalidated test_filter record."""
    def real(name, provenance=Provenance.EXTRACTED):
        return NameRecord(name, "alfa", provenance=provenance)

    def synth(name):
        return NameRecord(name, "alfa", provenance=Provenance.SYNTHETIC)

    bundle = CorpusSplits(
        train_oag=[real(f"Oag{i} Leak") for i in range(4)] + [synth("Sy Oag")],
        val_oag=[real("oag0 leak"), synth("Sy Val")],
        test_oag=[real("OAG1 LEAK"), real("Aug1 Leak"), real("Kept Alfa"),
                  synth("Sy Test")],
        test_filter=[real("oag2 leak", Provenance.VALIDATED),
                     real("Kept Alfa"), real("Stray Alfa", Provenance.VALIDATED),
                     synth("Sy Filter")],
        train_aug=[synth(f"Aug{i} Leak") for i in range(4)],
        val_aug=[synth("aug0 leak")],
        test_filter_aug=[synth("aug2 leak")],
        test_gold=[synth("Oag3 Leak"), synth("Aug3 Leak"), real("Real Gold")],
    )
    found = audit_splits_keyed_whole(bundle)
    assert all(found.values()), found  # every check trips
    return bundle


AUDIT_RECORDS = st.builds(
    NameRecord,
    st.sampled_from(["Ana Bo", "ana bo", "ANA BO", "Ben Cy", "Cy Dee",
                     "Dee Eva", "Eva Fu", "Fu Gil"]),
    st.sampled_from(["alfa", "bravo"]),
    st.sampled_from(list(Provenance)))
AUDIT_BUNDLES = st.builds(CorpusSplits, **{
    split: st.lists(AUDIT_RECORDS, max_size=7) for split in SPLIT_NAMES})


# In-process on the bundle, and through the audit command, which reads each
# split's file when the audit asks for it: an empty split is a missing file
# or, with `empty_files`, an empty one.
@pytest.mark.parametrize("chunk", [1, 3, corpus.AUDIT_CHUNK_RECORDS])
@settings(max_examples=100, deadline=None)
@given(AUDIT_BUNDLES, st.booleans())
@example(every_finding_bundle(), False)
@example(CorpusSplits(), False)
@example(CorpusSplits(), True)
@example(CorpusSplits(train_oag=make_records("alfa", 5),
                      train_aug=make_records("alfa", 5)), False)
def test_audit_matches_keying_training_splits_whole(chunk, bundle,
                                                    empty_files):
    expected = audit_splits_keyed_whole(bundle)
    with pytest.MonkeyPatch.context() as mp, \
            tempfile.TemporaryDirectory() as tmp:
        mp.setattr(corpus, "AUDIT_CHUNK_RECORDS", chunk)
        violations = audit_splits(bundle)
        splits_dir = Path(tmp) / "splits"
        splits_dir.mkdir()
        for split in SPLIT_NAMES:
            if bundle[split] or empty_files:
                write_records(splits_dir / f"{split}.jsonl", bundle[split])
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["--out-dir", tmp, "audit"])
        report = json.loads((Path(tmp) / "audit_report.json").read_text())
    assert violations == expected
    assert json.dumps(violations) == json.dumps(expected)  # key order too
    clean = audit_is_clean(expected)
    assert code == (0 if clean else 1)
    assert report == {"clean": clean, "violations": expected,
                      "sizes": bundle.sizes()}


def test_write_split_manifest(tmp_path):
    bundle = clean_bundle()
    violations = audit_splits(bundle)
    path = bundle.save(tmp_path, seed=7, ratios=(8, 1, 1),
                       audit=violations)[-1]
    assert path == tmp_path / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    assert manifest["seed"] == 7
    assert manifest["audit_clean"] is True
    assert manifest["sizes"]["train_oag"] == 8
