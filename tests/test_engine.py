import json
import math

import numpy as np
import pytest

from namecountry.core import (
    NameRecord, register_taxonomy, write_json, write_records,
)
from namecountry.classifier import ClassifierModel, ModelConfig, Tokenizer, init_params
from namecountry.engine import (
    BenchConfig,
    InsufficientNamesError,
    ThroughputReport,
    benchmark,
    read_name_file,
    render_throughput_table,
    run_batch,
)


def make_model(n_classes=3):
    tokenizer = Tokenizer(tuple("abcdefgh "), max_len=12)
    params = init_params(tokenizer.vocab_size, n_classes, ModelConfig(6, 8),
                         seed=0)
    taxonomy = register_taxonomy("t", [f"c{i}" for i in range(n_classes)])
    return ClassifierModel(tokenizer, taxonomy, params)


def name_pool(n):
    return [f"ab{i % 7}cd efg{i}" for i in range(n)]


def test_bench_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(batch_sizes=())
    with pytest.raises(ValueError):
        BenchConfig(batch_sizes=(4, 2))
    with pytest.raises(ValueError):
        BenchConfig(batch_sizes=(2, 2))
    with pytest.raises(ValueError):
        BenchConfig(batch_sizes=(0,))
    with pytest.raises(ValueError):
        BenchConfig(repetitions=0)
    for size in (1.5, True, "4"):
        with pytest.raises(ValueError, match="not an integer"):
            BenchConfig(batch_sizes=(size,))
    with pytest.raises(ValueError):
        BenchConfig(warmup_batches=-1)


def test_run_batch_returns_predictions_and_time():
    model = make_model()
    predictions, runtime = run_batch(model, name_pool(5))
    assert predictions.shape == (5, 3)
    assert runtime > 0
    with pytest.raises(ValueError):
        run_batch(model, [])


def test_benchmark_identity_throughput_times_latency():
    model = make_model()
    config = BenchConfig(batch_sizes=(1, 8, 32), warmup_batches=1,
                         repetitions=3)
    report = benchmark(model, config, name_pool(96))
    assert len(report.rows) == 3
    for row in report.rows:
        product = (row.throughput_names_per_second * row.latency_ms_per_name)
        assert math.isclose(product, 1000.0, rel_tol=1e-9)
        assert row.names_per_run == row.batch_size
        assert len(row.runtime_samples) == 3
        assert row.mean_runtime_seconds == pytest.approx(
            sum(row.runtime_samples) / 3)


def test_benchmark_requires_enough_names():
    model = make_model()
    config = BenchConfig(batch_sizes=(8,), repetitions=3)
    with pytest.raises(InsufficientNamesError):
        benchmark(model, config, name_pool(23))  # needs 24
    benchmark(model, config, name_pool(24))


def test_benchmark_predictions_bit_identical_to_plain_scoring():
    """Scoring inside the benchmark must not change outputs: rerun the same
    batches outside run_batch and compare bitwise."""
    model = make_model()
    pool = name_pool(64)
    config = BenchConfig(batch_sizes=(4, 16), repetitions=2, warmup_batches=1,
                         seed=5)
    benchmark(model, config, pool)  # must not perturb the model
    import random as pyrandom
    for batch_size in config.batch_sizes:
        rng = pyrandom.Random(f"bench:{config.seed}:{batch_size}")
        shuffled = pool[:]
        rng.shuffle(shuffled)
        for rep in range(config.repetitions):
            names = shuffled[rep * batch_size:(rep + 1) * batch_size]
            benched, _ = run_batch(model, names)
            plain = model.predict_batch(names)
            assert np.array_equal(benched, plain)
            for i, name in enumerate(names):
                assert np.array_equal(model.predict_batch([name])[0], plain[i])


def test_benchmark_batches_are_disjoint_per_size():
    model = make_model()
    seen = []

    original = model.predict_batch

    def spy(names):
        seen.append(tuple(names))
        return original(names)

    model.predict_batch = spy
    config = BenchConfig(batch_sizes=(4,), warmup_batches=0, repetitions=3)
    benchmark(model, config, name_pool(12))
    timed = seen[-3:]
    flattened = [n for batch in timed for n in batch]
    assert len(flattened) == len(set(flattened)) == 12


def test_report_round_trip_and_table(tmp_path):
    model = make_model()
    config = BenchConfig(batch_sizes=(2,), warmup_batches=0, repetitions=2)
    report = benchmark(model, config, name_pool(8), model_name="m1",
                       model_type="local", cost_per_million=1.5)
    path = tmp_path / "bench.json"
    write_json(path, report)
    payload = json.loads(path.read_text())
    assert payload["model_name"] == "m1"
    assert payload["rows"][0]["batch_size"] == 2

    table = render_throughput_table(report)
    lines = table.splitlines()
    assert lines[0].startswith("Model")
    assert "$/1M" in lines[0]
    assert "m1" in lines[2] and "1.50" in lines[2]


def test_read_name_file_plain_and_jsonl(tmp_path):
    plain = tmp_path / "names.txt"
    plain.write_text("Ada Fec\n\n  Beb Gad  \n", encoding="utf-8")
    assert read_name_file(plain) == ["Ada Fec", "Beb Gad"]

    jsonl = tmp_path / "names.jsonl"
    write_records(jsonl, [NameRecord("Ada Fec", "c0")])
    assert read_name_file(jsonl) == ["Ada Fec"]


@pytest.mark.parametrize("separator", ["\x85", "\x1c", "\u2028"])
def test_read_name_file_splits_only_at_line_ends(tmp_path, separator):
    """A plain file's lines end at LF, CR or CRLF only; str.splitlines()
    would also split at NEL, the file separator and U+2028."""
    plain = tmp_path / "names.txt"
    plain.write_text(f"Ana{separator}Silva\nBo Li\r\nCe Du\r\n \n",
                     encoding="utf-8", newline="")
    assert read_name_file(plain) == [f"Ana{separator}Silva", "Bo Li", "Ce Du"]
