"""Metric implementations are checked against an independent brute-force
oracle (plain Python loops, no shared code) plus hand-frozen small cases."""
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from namecountry.core import NameRecord, LabelMapping, register_taxonomy
from namecountry.evaluation import (
    bias_report,
    bucket_report,
    duplication_report,
    evaluate,
    evaluate_mapped,
    render_eval_table,
    wilson_interval,
)


def brute_force_metrics(pairs, labels):
    """Reference implementation: per-class one-vs-rest tallies by looping."""
    n = len(pairs)
    per_class = {}
    included = []
    for label in labels:
        tp = sum(1 for g, p in pairs if g == label and p == label)
        fp = sum(1 for g, p in pairs if g != label and p == label)
        fn = sum(1 for g, p in pairs if g == label and p != label)
        support, predicted = tp + fn, tp + fp
        precision = tp / predicted if predicted else 0.0
        recall = tp / support if support else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        per_class[label] = (precision, recall, f1, support)
        if support or predicted:
            included.append(f1)
    accuracy = sum(1 for g, p in pairs if g == p) / n if n else 0.0
    weighted = sum(f1 * s for _, _, f1, s in per_class.values()) / n if n else 0.0
    macro = sum(included) / len(included) if included else 0.0
    return accuracy, weighted, macro, per_class


def test_evaluate_hand_computed_two_classes():
    taxonomy = register_taxonomy("t", ["a", "b"])
    pairs = [("a", "a"), ("a", "b"), ("b", "b"), ("b", "b")]
    report = evaluate(pairs, taxonomy)
    assert report.accuracy == 0.75
    assert report.per_class["a"].precision == 1.0
    assert report.per_class["a"].recall == 0.5
    assert math.isclose(report.per_class["a"].f1, 2 / 3, rel_tol=1e-12)
    assert math.isclose(report.per_class["b"].f1, 0.8, rel_tol=1e-12)
    assert math.isclose(report.macro_f1, 11 / 15, rel_tol=1e-12)
    assert math.isclose(report.weighted_f1, 11 / 15, rel_tol=1e-12)
    assert report.n_records == 4


def test_evaluate_excludes_absent_classes_from_macro():
    taxonomy = register_taxonomy("t", ["a", "b", "ghost"])
    pairs = [("a", "a"), ("b", "b")]
    report = evaluate(pairs, taxonomy)
    assert report.macro_f1 == 1.0  # ghost is not averaged in
    assert report.per_class["ghost"].support == 0


def test_evaluate_includes_predicted_only_class_as_zero():
    taxonomy = register_taxonomy("t", ["a", "b"])
    report = evaluate([("a", "b")], taxonomy)
    # both classes appear (a by support, b by prediction); both have f1 0
    assert report.macro_f1 == 0.0
    assert report.accuracy == 0.0


def test_evaluate_empty_input_is_all_zero():
    taxonomy = register_taxonomy("t", ["a", "b"])
    report = evaluate([], taxonomy)
    assert (report.accuracy, report.weighted_f1, report.macro_f1) == (0, 0, 0)
    assert report.n_records == 0
    assert set(report.per_class) == {"a", "b"}


def test_evaluate_matches_brute_force_randomized():
    rng = random.Random(1234)
    for _ in range(300):
        k = rng.randint(1, 6)
        labels = [f"c{i}" for i in range(k)]
        taxonomy = register_taxonomy("t", labels)
        pairs = [(rng.choice(labels), rng.choice(labels))
                 for _ in range(rng.randint(0, 60))]
        report = evaluate(pairs, taxonomy)
        accuracy, weighted, macro, per_class = brute_force_metrics(pairs, labels)
        assert math.isclose(report.accuracy, accuracy, abs_tol=1e-12)
        assert math.isclose(report.weighted_f1, weighted, abs_tol=1e-12)
        assert math.isclose(report.macro_f1, macro, abs_tol=1e-12)
        for label in labels:
            precision, recall, f1, support = per_class[label]
            got = report.per_class[label]
            assert math.isclose(got.precision, precision, abs_tol=1e-12)
            assert math.isclose(got.recall, recall, abs_tol=1e-12)
            assert math.isclose(got.f1, f1, abs_tol=1e-12)
            assert got.support == support


def coarse_fixture():
    fine = register_taxonomy("fine", ["a1", "a2", "b1"])
    coarse = register_taxonomy("coarse", ["a", "b"])
    mapping = LabelMapping(fine, coarse, {"a1": "a", "a2": "a", "b1": "b"})
    return fine, coarse, mapping


def test_evaluate_mapped_hand_computed():
    _, _, mapping = coarse_fixture()
    pairs = [("a1", "a2"), ("a1", "b1"), ("b1", "b1")]
    fine_report = evaluate(pairs, mapping.from_taxonomy)
    coarse_report = evaluate_mapped(pairs, mapping)
    assert fine_report.accuracy == pytest.approx(1 / 3)
    assert coarse_report.accuracy == pytest.approx(2 / 3)  # a1->a2 now correct
    assert set(coarse_report.per_class) == {"a", "b"}


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_coarsening_never_lowers_accuracy(data):
    fine_labels = [f"f{i}" for i in range(data.draw(st.integers(2, 6)))]
    coarse_labels = [f"g{i}" for i in range(data.draw(st.integers(1, 3)))]
    fine = register_taxonomy("fine", fine_labels)
    coarse = register_taxonomy("coarse", coarse_labels)
    table = {f: data.draw(st.sampled_from(coarse_labels), label=f"map_{f}")
             for f in fine_labels}
    mapping = LabelMapping(fine, coarse, table)
    pairs = data.draw(st.lists(
        st.tuples(st.sampled_from(fine_labels), st.sampled_from(fine_labels)),
        max_size=40))
    fine_accuracy = evaluate(pairs, fine).accuracy
    coarse_accuracy = evaluate_mapped(pairs, mapping).accuracy
    assert coarse_accuracy >= fine_accuracy - 1e-12


def test_bucket_report_partitions_by_training_count():
    taxonomy = register_taxonomy("t", ["head", "tail", "other"])
    train_counts = {"head": 100, "tail": 3}
    pairs = [("head", "head"), ("head", "tail"),
             ("tail", "tail"), ("other", "other")]
    report = bucket_report(pairs, taxonomy, train_counts, threshold=10)
    assert report.head_labels == ("head",)
    assert report.tail_labels == ("tail",)
    assert report.head.n_records == 2  # "other" is in no bucket
    assert report.tail.n_records == 1
    assert report.head.accuracy == 0.5
    assert report.tail.accuracy == 1.0
    # Per-class F1 over all four pairs. head: P 1/1, R 1/2; tail: P 1/2
    # (the head name predicted as tail counts), R 1/1. Each bucket's
    # macro-F1 is its one label's F1.
    assert report.head.macro_f1 == pytest.approx(2 / 3)
    assert report.tail.macro_f1 == pytest.approx(2 / 3)


def test_bucket_macro_f1_is_the_mean_over_the_bucket_labels():
    taxonomy = register_taxonomy("t", ["h1", "h2", "t1", "t2"])
    train_counts = {"h1": 50, "h2": 50, "t1": 5, "t2": 5}
    pairs = [("h1", "h1"), ("h1", "h1"), ("h2", "t1"),
             ("t1", "t1"), ("t2", "h1")]
    report = bucket_report(pairs, taxonomy, train_counts, threshold=10)
    # h1: P 2/3, R 1, F1 4/5; h2: no prediction, F1 0; t1: P 1/2, R 1,
    # F1 2/3; t2: no prediction, F1 0.
    assert report.head.macro_f1 == pytest.approx((4 / 5 + 0) / 2)
    assert report.tail.macro_f1 == pytest.approx((2 / 3 + 0) / 2)
    assert report.head.accuracy == pytest.approx(2 / 3)
    assert report.tail.accuracy == 0.5
    # A bucket label with no gold name and no prediction is left out.
    report = bucket_report(pairs[:4], taxonomy, train_counts, threshold=10)
    assert report.tail.macro_f1 == pytest.approx(2 / 3)


def test_bucket_report_empty_bucket_is_zero():
    taxonomy = register_taxonomy("t", ["a"])
    report = bucket_report([("a", "a")], taxonomy, {"a": 50}, threshold=10)
    assert report.tail_labels == ()
    assert report.tail.n_records == 0
    assert report.tail.macro_f1 == 0.0


# --- Wilson intervals ---

def test_wilson_boundaries_are_exact():
    lower, upper = wilson_interval(0, 7)
    assert lower == 0.0
    lower, upper = wilson_interval(7, 7)
    assert upper == 1.0
    lower, upper = wilson_interval(0, 1)
    assert lower == 0.0
    lower, upper = wilson_interval(1, 1)
    assert upper == 1.0


def test_wilson_fifty_of_one_hundred():
    lower, upper = wilson_interval(50, 100)
    # symmetric around 0.5, and matches the closed form
    assert math.isclose(lower + upper, 1.0, abs_tol=1e-12)
    z = 1.96
    denom = 1 + z * z / 100
    center = (0.5 + z * z / 200) / denom
    half = z * math.sqrt(0.25 / 100 + z * z / 40000) / denom
    assert math.isclose(lower, center - half, abs_tol=1e-12)
    assert math.isclose(upper, center + half, abs_tol=1e-12)
    assert round(lower, 5) == 0.40383
    assert round(upper, 5) == 0.59617


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(-1, 5)
    with pytest.raises(ValueError):
        wilson_interval(6, 5)


@given(st.integers(1, 500).flatmap(
    lambda n: st.tuples(st.integers(0, n), st.just(n))))
def test_wilson_contains_point_estimate(pair):
    successes, trials = pair
    lower, upper = wilson_interval(successes, trials)
    p_hat = successes / trials
    assert 0.0 <= lower <= p_hat <= upper <= 1.0


# --- bias report ---

class FirstLetterModel:
    """predict_labels by first letter: A* -> alfa, otherwise bravo."""

    def __init__(self, taxonomy):
        self.taxonomy = taxonomy

    def predict_labels(self, names):
        return ["alfa" if name.startswith("A") else "bravo" for name in names]


def bias_fixture():
    fine = register_taxonomy("fine", ["alfa", "bravo"])
    coarse = register_taxonomy("coarse", ["first", "second"])
    mapping = LabelMapping(fine, coarse, {"alfa": "first", "bravo": "second"})
    return FirstLetterModel(fine), mapping


def test_bias_report_hand_computed():
    model, mapping = bias_fixture()
    records = [
        ("Ann X", "Ann X", True),
        ("Abe Y", "Bob Z", False),
        ("Bob Z", "Ann Q", False),
        ("Bill W", "Bill W", True),
    ]
    report = bias_report(records, model, mapping)
    assert report.n_records == 4 and report.n_incorrect == 2
    assert report.groups["first"].total == 2
    assert report.groups["first"].correct == 1
    assert report.groups["first"].accuracy == 0.5
    lower, upper = wilson_interval(1, 2)
    assert report.groups["first"].ci_lower == lower
    assert report.groups["first"].ci_upper == upper
    assert report.gold_distribution == {"first": 0.5, "second": 0.5}
    # wrong answers: "Bob Z" -> second, "Ann Q" -> first
    assert report.hallucinated_distribution == {"first": 0.5, "second": 0.5}


def test_bias_report_all_correct_has_empty_hallucination():
    model, mapping = bias_fixture()
    records = [("Ann X", "Ann X", True), ("Bob Z", "Bob Z", True)]
    report = bias_report(records, model, mapping)
    assert report.hallucinated_distribution == {}
    assert report.groups["first"].accuracy == 1.0


def test_bias_report_rejects_taxonomy_mismatch():
    model, mapping = bias_fixture()
    other = register_taxonomy("other", ["x", "y"])
    model.taxonomy = other
    with pytest.raises(ValueError):
        bias_report([("Ann X", "Ann X", True)], model, mapping)


# --- duplication report ---

def test_duplication_report_hand_computed():
    corpus = [
        NameRecord("Aa Aa", "alfa"), NameRecord("Aa Aa", "bravo"),
        NameRecord("Bb Bb", "alfa"),
        NameRecord("Cc Cc", "alfa"), NameRecord("Cc Cc", "bravo"),
        NameRecord("Cc Cc", "charlie"),
    ]
    report = duplication_report(corpus)
    assert report.distinct_names == 3
    assert report.share_two_plus == pytest.approx(2 / 3)
    assert report.share_three_plus == pytest.approx(1 / 3)
    assert report.per_country["alfa"] == pytest.approx(2 / 3)
    assert report.per_country["bravo"] == pytest.approx(1.0)
    assert report.per_country["charlie"] == pytest.approx(1.0)


def test_render_eval_table():
    taxonomy = register_taxonomy("t", ["a", "b"])
    report = evaluate([("a", "a"), ("a", "b"), ("b", "b"), ("b", "b")],
                      taxonomy)
    table = render_eval_table([("mymodel", "t", report)])
    lines = table.splitlines()
    assert lines[0].split() == ["Model", "Taxonomy", "Acc", "W-F1", "M-F1"]
    assert "0.7500" in lines[2] and "mymodel" in lines[2]
