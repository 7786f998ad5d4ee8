"""Release gates, one numbered test per criterion.

Run `pytest -v tests/test_acceptance.py` for one pass/fail line per gate.
Every test is self-contained: it states its quantitative bound inline and
borrows only the independent reference implementations from the unit-test
modules (brute-force metrics, finite-difference gradients).
"""
import hashlib
import json
import math
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np

from test_classifier import numeric_grads, scripted_scorer, separable_corpus
from test_evaluation import brute_force_metrics, count_pairs

from namecountry import fixtures
from namecountry.classifier import (
    PAD,
    ModelConfig,
    TrainConfig,
    init_params,
    loss_and_grads,
    train,
)
from namecountry.cli import main as cli_main
from namecountry.core import (
    LabelMapping,
    NameRecord,
    Provenance,
    load_taxonomy,
    name_key,
    register_taxonomy,
)
from namecountry.corpus import (
    CorpusSplits,
    SplitConfig,
    assemble_augmented_splits,
    audit_is_clean,
    audit_splits,
    enforce_no_leakage,
    largest_remainder_allocation,
    split_corpus,
)
from namecountry.enrichment import (
    StubNameGenerator,
    collect_synthetic,
    compute_budgets,
)
from namecountry.evaluation import (
    BenchConfig,
    benchmark,
    evaluate,
    fold,
    run_batch,
    wilson_interval,
)
from namecountry.extraction import NormalizationTable, build_labeled_corpus


def _data_path(name):
    import importlib.resources
    return importlib.resources.files("namecountry.data") / name


def test_criterion_01_extraction_matches_hand_labeled_table():
    """All 50 hand-labeled affiliation cases resolve exactly, in under 1 s."""
    start = time.perf_counter()
    taxonomy = load_taxonomy(_data_path("taxonomy_oag99.txt"), name="oag99")
    aliases = NormalizationTable.from_file(_data_path("aliases.tsv"))
    mismatches = []
    for record in fixtures.extraction_records():
        expected = fixtures.EXTRACTION_EXPECTED[record.author_id]
        got, _ = build_labeled_corpus([record], aliases, taxonomy)
        got_label = got[0].label if got else None
        if got_label != expected:
            mismatches.append((record.author_id, expected, got_label))
    elapsed = time.perf_counter() - start
    assert mismatches == []
    assert len(fixtures.EXTRACTION_EXPECTED) == 50
    assert elapsed < 1.0, f"extraction fixture took {elapsed:.3f}s"


def test_criterion_02_split_arithmetic_and_stratification():
    """8/1/1 over 1,000 records gives 800/100/100; 3:1:1 over 5,000
    synthetic names gives 3,000/1,000/1,000; per-country counts follow the
    largest-remainder allocation deterministically on 100 random corpora."""
    thousand = [NameRecord(f"Aa{i:04d} Bb{i:04d}", "alfa")
                for i in range(1000)]
    sizes = [len(part) for part in split_corpus(thousand, SplitConfig(seed=0))]
    assert sizes == [800, 100, 100]

    synthetic = [NameRecord(f"Cc{i:04d} Dd{i:04d}", "alfa",
                            provenance=Provenance.SYNTHETIC)
                 for i in range(5000)]
    sizes = [len(part) for part in
             split_corpus(synthetic, SplitConfig(ratios=(3, 1, 1), seed=0))]
    assert sizes == [3000, 1000, 1000]

    rng = random.Random("acceptance:2")
    for trial in range(100):
        countries = [f"c{j}" for j in range(rng.randint(1, 6))]
        corpus = [NameRecord(f"{c.title()}n{i:03d} Fam{i:03d}", c)
                  for c in countries
                  for i in range(rng.randint(1, 60))]
        config = SplitConfig(seed=trial)
        first = split_corpus(corpus, config)
        counts = Counter(r.label for r in corpus)
        for c in countries:
            got = [sum(1 for r in part if r.label == c) for part in first]
            assert got == largest_remainder_allocation(counts[c],
                                                       config.ratios)
        assert sum(len(part) for part in first) == len(corpus)
        assert sorted(r.full_name for part in first for r in part) == \
            sorted(r.full_name for r in corpus)
        second = split_corpus(corpus, config)
        assert all(list(a) == list(b) for a, b in zip(first, second))


def test_criterion_03_leakage_audit_clean_on_randomized_trials():
    """Injected train/eval name collisions are always removed and the
    assembled splits audit clean, 100/100 randomized trials."""
    countries = ["alfa", "bravo", "charlie"]
    for trial in range(100):
        rng = random.Random(f"acceptance:3:{trial}")
        corpus = [NameRecord(f"{c.title()}{i:03d} Fam{i:03d}", c)
                  for c in countries
                  for i in range(rng.randint(20, 50))]
        train_part, val_part, test_part = split_corpus(
            corpus, SplitConfig(seed=trial))

        eval_pool = val_part + test_part
        injected = [rng.choice(eval_pool) for _ in range(rng.randint(1, 5))]
        dirty = train_part + [
            NameRecord(r.full_name.upper(), rng.choice(countries))
            for r in injected]
        kept, removed = enforce_no_leakage(dirty, val_part, test_part)

        eval_keys = {r.key for r in eval_pool}
        kept_keys = {r.key for r in kept}
        assert not eval_keys & kept_keys
        assert all(name_key(r.full_name) not in kept_keys for r in injected)
        assert removed == len(injected)

        budgets = compute_budgets(Counter(r.label for r in kept),
                                  threshold=100, budget=30)
        synth = collect_synthetic(budgets, StubNameGenerator(seed=trial),
                                  {r.key for r in corpus})
        synth_all = [r for c in sorted(synth) for r in synth[c]]
        s_train, s_val, s_test = split_corpus(
            synth_all, SplitConfig(ratios=(3, 1, 1), seed=trial))
        splits = assemble_augmented_splits(
            CorpusSplits(train_oag=kept, val_oag=val_part,
                         test_oag=test_part),
            s_train, s_val, s_test)
        audit = audit_splits(splits)
        assert audit_is_clean(audit), (trial, audit)


def test_criterion_04_budget_rule_threshold_and_cap():
    """Budgets are requested iff the country has fewer than 6,000 names,
    and never exceed the default 5,000 cap."""
    grid = {f"c{i}": count
            for i, count in enumerate([0, 1, 5999, 6000, 6001, 10**6])}
    budgets = compute_budgets(grid)
    by_country = {b.country: b for b in budgets}
    assert set(by_country) == set(grid)
    for country, count in grid.items():
        requested = by_country[country].requested
        assert (requested > 0) == (count < 6000), (country, count, requested)
        assert requested <= 5000


def test_criterion_05_metrics_match_brute_force_and_coarsening_monotone():
    """evaluate() agrees with an independent per-class loop to 1e-12 on
    1,000 random instances; mapping into a coarser taxonomy never lowers
    accuracy on 1,000 random mapping instances."""
    rng = random.Random("acceptance:5")
    for _ in range(1000):
        labels = [f"c{i}" for i in range(rng.randint(2, 10))]
        taxonomy = register_taxonomy("acc5", labels)
        pairs = [(rng.choice(labels), rng.choice(labels))
                 for _ in range(rng.randint(1, 200))]
        report = evaluate(count_pairs(pairs, taxonomy), taxonomy)
        accuracy, weighted, macro, per_class = brute_force_metrics(pairs,
                                                                   labels)
        assert math.isclose(report.accuracy, accuracy, abs_tol=1e-12)
        assert math.isclose(report.weighted_f1, weighted, abs_tol=1e-12)
        assert math.isclose(report.macro_f1, macro, abs_tol=1e-12)
        for label in labels:
            got = report.per_class[label]
            precision, recall, f1, support = per_class[label]
            assert math.isclose(got.precision, precision, abs_tol=1e-12)
            assert math.isclose(got.recall, recall, abs_tol=1e-12)
            assert math.isclose(got.f1, f1, abs_tol=1e-12)
            assert got.support == support

    rng = random.Random("acceptance:5:coarse")
    for _ in range(1000):
        fine_labels = [f"f{i}" for i in range(rng.randint(2, 8))]
        coarse_labels = [f"g{j}"
                         for j in range(rng.randint(1, len(fine_labels)))]
        fine = register_taxonomy("acc5fine", fine_labels)
        coarse = register_taxonomy("acc5coarse", coarse_labels)
        mapping = LabelMapping(fine, coarse, {
            label: rng.choice(coarse_labels) for label in fine_labels})
        pairs = [(rng.choice(fine_labels), rng.choice(fine_labels))
                 for _ in range(rng.randint(1, 100))]
        counts = count_pairs(pairs, fine)
        fine_accuracy = evaluate(counts, fine).accuracy
        coarse_accuracy = evaluate(fold(counts, mapping), coarse).accuracy
        assert coarse_accuracy >= fine_accuracy - 1e-12


def test_criterion_06_training_protocol_patience_gradients_determinism():
    """The scripted patience trace stops after epoch 7 restoring epoch 2;
    analytic gradients match central differences to 1e-3; two same-seed
    runs produce byte-identical training logs."""
    taxonomy = register_taxonomy("acc6", ["alfa", "bravo"])
    train_set, val_set = separable_corpus(10)
    snapshots = []
    model, log = train(
        train_set, val_set, taxonomy,
        TrainConfig(learning_rate=0.01, batch_size=8, max_epochs=10,
                    patience=5, seed=0),
        ModelConfig(embedding_dim=4, hidden_dim=6),
        val_scorer=scripted_scorer([0.2, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3],
                                   snapshots))
    assert [entry.epoch for entry in log.epochs] == [1, 2, 3, 4, 5, 6, 7]
    for key, value in model.params.items():
        assert np.array_equal(value, snapshots[1][key])

    params = init_params(9, 3, ModelConfig(5, 7), seed=0, dtype=np.float64)
    rng = np.random.default_rng(42)
    x = rng.integers(0, 9, size=(4, 6)).astype(np.int32)
    x[0, 4:] = PAD
    y = np.array([0, 1, 2, 0])
    _, analytic = loss_and_grads(params, x, y)
    numeric = numeric_grads(params, x, y)
    for key in params:
        a, n = analytic[key], numeric[key]
        rel = np.linalg.norm(a - n) / max(
            np.linalg.norm(a) + np.linalg.norm(n), 1e-12)
        assert rel <= 1e-3, (key, rel)

    config = TrainConfig(learning_rate=0.01, batch_size=8, max_epochs=3,
                         seed=4)
    model_config = ModelConfig(embedding_dim=4, hidden_dim=6)
    _, log_a = train(train_set, val_set, taxonomy, config, model_config)
    _, log_b = train(train_set, val_set, taxonomy, config, model_config)
    assert log_a.to_jsonl() == log_b.to_jsonl()


def test_criterion_07_desk_scale_learnability():
    """On the shipped 4-country disjoint-alphabet corpus (200 names per
    country) the model exceeds 0.95 val accuracy and 0.90 test macro-F1
    in under two minutes."""
    start = time.perf_counter()
    taxonomy = fixtures.disjoint_taxonomy()
    corpus = fixtures.make_disjoint_corpus(per_country=200, seed=0)
    train_set, val_set, test_set = split_corpus(corpus, SplitConfig(seed=0))
    train_set, _ = enforce_no_leakage(train_set, val_set, test_set)
    model, _ = train(
        train_set, val_set, taxonomy,
        TrainConfig(learning_rate=0.005, batch_size=64, max_epochs=5,
                    patience=5, seed=0),
        ModelConfig(embedding_dim=32, hidden_dim=64))

    val_accuracy = evaluate(model.confusion(val_set), taxonomy).accuracy
    test_macro = evaluate(model.confusion(test_set), taxonomy).macro_f1
    elapsed = time.perf_counter() - start

    assert val_accuracy > 0.95, val_accuracy
    assert test_macro > 0.90, test_macro
    assert elapsed < 120.0, f"training took {elapsed:.1f}s"


def test_criterion_08_augmentation_improves_tail_macro_f1():
    """On a 2-head (5,000 names) / 4-tail (50 names) corpus, training on
    the augmented split beats the unaugmented model on held-out tail
    names: mean tail macro-F1 margin over 5 seeds is strictly positive."""
    taxonomy = fixtures.head_tail_taxonomy()
    margins = []
    for seed in range(5):
        corpus = fixtures.make_head_tail_corpus(5000, 50, seed=seed)
        train_oag, val_oag, test_oag = split_corpus(corpus,
                                                    SplitConfig(seed=seed))
        train_oag, _ = enforce_no_leakage(train_oag, val_oag, test_oag)

        counts = Counter(r.label for r in train_oag)
        budgets = compute_budgets(counts, threshold=1000, budget=1000)
        existing = [r.full_name for r in corpus]
        synth = collect_synthetic(budgets, StubNameGenerator(seed=seed),
                                  {r.key for r in corpus})
        synth_all = [r for c in sorted(synth) for r in synth[c]]
        s_train, s_val, s_test = split_corpus(
            synth_all, SplitConfig(ratios=(3, 1, 1), seed=seed))
        splits = assemble_augmented_splits(
            CorpusSplits(train_oag=train_oag, val_oag=val_oag,
                         test_oag=test_oag),
            s_train, s_val, s_test)

        tail_test = fixtures.make_tail_test_set(
            per_country=100, seed=seed + 100,
            exclude=existing + [r.full_name for r in synth_all])

        def tail_macro(model):
            return evaluate(model.confusion(tail_test), taxonomy).macro_f1

        config = TrainConfig(learning_rate=0.005, batch_size=64,
                             max_epochs=3, patience=5, seed=seed)
        model_config = ModelConfig(embedding_dim=32, hidden_dim=64)
        baseline, _ = train(train_oag, val_oag, taxonomy, config,
                            model_config)
        augmented, _ = train(splits.train_aug, splits.val_aug, taxonomy,
                             config, model_config)
        margins.append(tail_macro(augmented) - tail_macro(baseline))

    mean_margin = sum(margins) / len(margins)
    assert len(margins) == 5
    assert mean_margin > 0.0, margins


def test_criterion_09_wilson_interval_boundaries_and_reference_point():
    """Degenerate boundaries are exact; (50, 100, z=1.96) matches the
    closed-form value to 1e-9."""
    for trials in (1, 7, 100, 10**6):
        low, _ = wilson_interval(0, trials)
        assert low == 0.0
        _, high = wilson_interval(trials, trials)
        assert high == 1.0

    low, high = wilson_interval(50, 100)
    # closed form evaluated independently (50-digit decimal arithmetic,
    # rounded to double)
    assert abs(low - 0.40382982859014715) <= 1e-9
    assert abs(high - 0.5961701714098528) <= 1e-9

    z, n, p = 1.96, 100, 0.5
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    assert abs(low - (center - half)) <= 1e-9
    assert abs(high - (center + half)) <= 1e-9


def test_criterion_10_benchmark_identity_and_throughput_floor():
    """Every benchmark row satisfies throughput x latency_ms = 1000 within
    1e-9 relative; the default-size model clears 10,000 names/s at batch
    1,000; benchmarked predictions are bit-identical to plain scoring."""
    taxonomy = fixtures.disjoint_taxonomy()
    pool_records = fixtures.make_disjoint_corpus(per_country=800, seed=3)
    pool = [r.full_name for r in pool_records]

    from namecountry.classifier import ClassifierModel, fit_tokenizer
    tokenizer = fit_tokenizer(pool_records)
    params = init_params(tokenizer.vocab_size, len(taxonomy),
                         ModelConfig(), seed=0)
    model = ClassifierModel(tokenizer, taxonomy, params)

    config = BenchConfig(batch_sizes=(1, 100, 1000), warmup_batches=1,
                         repetitions=3, seed=9)
    report = benchmark(model, config, pool)

    for row in report.rows:
        product = row.throughput_names_per_second * row.latency_ms_per_name
        assert math.isclose(product, 1000.0, rel_tol=1e-9)
    by_size = {row.batch_size: row for row in report.rows}
    assert by_size[1000].throughput_names_per_second > 10_000, \
        by_size[1000].throughput_names_per_second

    for batch_size in config.batch_sizes:
        rng = random.Random(f"bench:{config.seed}:{batch_size}")
        shuffled = pool[:]
        rng.shuffle(shuffled)
        for rep in range(config.repetitions):
            names = shuffled[rep * batch_size:(rep + 1) * batch_size]
            benched, _ = run_batch(model, names)
            assert np.array_equal(benched, model.predict_batch(names))


def test_criterion_11_cli_chain_reproducible(tmp_path):
    """The full command chain exits 0 on the shipped fixtures and yields
    identical output digests across two runs, in under five minutes.
    Benchmark artifacts are excluded from the comparison because they
    record wall-clock timings."""
    start = time.perf_counter()
    fx = tmp_path / "fx"
    fixtures.write_fixture_tree(fx)

    def run_chain(out: Path):
        def run(*args):
            return cli_main(["--config", str(fx / "pipeline.json"),
                             "--out-dir", str(out), *args])

        assert run("extract", "--input", str(fx / "affiliations.jsonl"),
                   "--taxonomy", str(fx / "taxonomy_fixture4.txt"),
                   "--aliases", str(fx / "aliases_fixture.tsv")) == 0
        assert run("split", "--input", str(out / "corpus.jsonl")) == 0
        assert run("augment") == 0
        assert run("train",
                   "--taxonomy", str(fx / "taxonomy_fixture4.txt")) == 0
        names = [json.loads(line)["name"] for line in
                 (out / "splits" / "train_aug.jsonl")
                 .read_text().splitlines()]
        (out / "bench_names.txt").write_text("\n".join(names) + "\n",
                                             encoding="utf-8")
        assert run("evaluate", "--model", str(out / "model.bin"),
                   "--input", str(out / "splits" / "test_gold.jsonl"),
                   "--mapping",
                   str(fx / "mapping_fixture4_to_fixture3.tsv"),
                   "--target-taxonomy",
                   str(fx / "taxonomy_fixture3.txt"),
                   "--output", str(out / "eval_gold.json")) == 0
        assert run("evaluate", "--model", str(out / "model.bin"),
                   "--input",
                   str(out / "splits" / "test_filter_aug.jsonl")) == 0
        assert run("bench", "--model", str(out / "model.bin"),
                   "--names", str(out / "bench_names.txt"),
                   "--table", str(out / "bench_table.txt")) == 0
        assert run("bias", "--model", str(out / "model.bin"),
                   "--records", str(fx / "bias_records.jsonl"),
                   "--mapping",
                   str(fx / "mapping_fixture4_to_fixture2.tsv"),
                   "--target-taxonomy",
                   str(fx / "taxonomy_fixture2.txt")) == 0
        assert run("audit") == 0

    def digests(out: Path):
        skip = {"bench_report.json", "bench_table.txt",
                "manifests/bench.json"}
        table = {}
        for path in sorted(out.rglob("*")):
            if not path.is_file():
                continue
            rel = path.relative_to(out).as_posix()
            if rel in skip:
                continue
            table[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
        return table

    out_one, out_two = tmp_path / "run1", tmp_path / "run2"
    run_chain(out_one)
    run_chain(out_two)
    first, second = digests(out_one), digests(out_two)
    assert first.keys() == second.keys()
    differing = [rel for rel in first if first[rel] != second[rel]]
    assert differing == []
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"chain took {elapsed:.1f}s"
