"""End-to-end and error-path tests for the command-line pipeline.

The happy path runs once per module (extract -> split -> augment -> train ->
evaluate -> bench -> bias -> audit) against the generated fixture tree;
individual tests then assert on the artifacts.
"""
import contextlib
import copy
import dataclasses
import gc
import hashlib
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from namecountry import cli, corpus, enrichment, evaluation, fixtures
from namecountry.classifier import (
    DEFAULT_MAX_LEN, ClassifierModel, ModelConfig, Tokenizer, TrainConfig,
    init_params, save_model,
)
from namecountry.cli import DEFAULT_CONFIG, load_config, main
from namecountry.core import (
    NameRecord, Provenance, name_key, read_records, register_taxonomy,
    write_records,
)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_chain")
    fx = root / "fx"
    out = root / "out"
    fixtures.write_fixture_tree(fx)

    def run(*args):
        return main(["--config", str(fx / "pipeline.json"),
                     "--out-dir", str(out), *args])

    assert run("extract", "--input", str(fx / "affiliations.jsonl"),
               "--taxonomy", str(fx / "taxonomy_fixture4.txt"),
               "--aliases", str(fx / "aliases_fixture.tsv")) == 0
    assert run("split", "--input", str(out / "corpus.jsonl")) == 0
    assert run("augment") == 0
    assert run("train", "--taxonomy", str(fx / "taxonomy_fixture4.txt")) == 0

    names = [json.loads(l)["name"] for l in
             (out / "splits" / "train_aug.jsonl").read_text().splitlines()]
    (out / "bench_names.txt").write_text("\n".join(names) + "\n",
                                         encoding="utf-8")

    assert run("evaluate", "--model", str(out / "model.bin"),
               "--input", str(out / "splits" / "test_filter_aug.jsonl"),
               "--train-split", str(out / "splits" / "train_aug.jsonl"),
               "--bucket-threshold", "200",
               "--table", str(out / "eval_table.txt")) == 0
    assert run("evaluate", "--model", str(out / "model.bin"),
               "--input", str(out / "splits" / "test_gold.jsonl"),
               "--mapping", str(fx / "mapping_fixture4_to_fixture3.tsv"),
               "--target-taxonomy", str(fx / "taxonomy_fixture3.txt"),
               "--output", str(out / "eval_gold.json")) == 0
    assert run("bench", "--model", str(out / "model.bin"),
               "--names", str(out / "bench_names.txt"),
               "--table", str(out / "bench_table.txt")) == 0
    assert run("bias", "--model", str(out / "model.bin"),
               "--records", str(fx / "bias_records.jsonl"),
               "--mapping", str(fx / "mapping_fixture4_to_fixture2.tsv"),
               "--target-taxonomy", str(fx / "taxonomy_fixture2.txt")) == 0
    assert run("audit") == 0
    return SimpleNamespace(fx=fx, out=out, run=run)


def test_train_bytes_do_not_depend_on_the_blas_thread_count(chain, tmp_path):
    """`train` on the chain's splits, in a process started with
    OPENBLAS_NUM_THREADS=1 and in one started with 2, writes the same
    model.bin and train log: training pins one BLAS thread."""
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        result = subprocess.run(
            [sys.executable, "-m", "namecountry.cli",
             "--config", str(chain.fx / "pipeline.json"), "--out-dir", str(out),
             "train", "--splits-dir", str(chain.out / "splits"),
             "--taxonomy", str(chain.fx / "taxonomy_fixture4.txt")],
            capture_output=True, text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert result.returncode == 0, result.stderr
        written.append([(out / name).read_bytes()
                        for name in ("model.bin", "train_log.jsonl")])
    assert written[0] == written[1]


def test_evaluate_report_bytes_are_pinned(chain):
    """The chain's `evaluate --train-split` report, byte for byte. It is the
    same under 1 and 2 BLAS threads, as model.bin is."""
    report = (chain.out / "eval_report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == (
        "bb37c8e5b201f1e932924ebb3c3a72ff2005f1facd1020a58ec4d3b0434d2e22")


EVALUATE_DIGESTS = {
    "eval_gold.json":
        "fecb78baaa46ba7782ca216f00874de3def7d582ad073b5d987e4cbfbf535c3e",
    "eval_table.txt":
        "0e9b6f47fe94c7fde58af54c838230557989d67cee6c3dceb40f3ddc90744b25",
}


@pytest.mark.parametrize("name", sorted(EVALUATE_DIGESTS))
def test_evaluate_mapped_report_and_table_bytes_are_pinned(chain, name):
    """The chain's `evaluate --mapping` report and its first evaluate's
    table, byte for byte, the same under 1 and 2 BLAS threads."""
    digest = hashlib.sha256((chain.out / name).read_bytes()).hexdigest()
    assert digest == EVALUATE_DIGESTS[name]


def test_extract_artifacts(chain):
    stats = json.loads((chain.out / "extract_stats.json").read_text())
    assert stats["raw"] == 600
    assert stats["retained"] == 600
    corpus = (chain.out / "corpus.jsonl").read_text().splitlines()
    assert len(corpus) == 600


def test_split_artifacts(chain):
    splits_dir = chain.out / "splits"
    manifest = json.loads((splits_dir / "manifest.json").read_text())
    assert list(manifest) == ["seed", "sizes"]
    sizes = manifest["sizes"]
    assert sizes["train_oag"] == 480
    assert sizes["val_oag"] == 60
    assert sizes["test_oag"] == 60
    assert 0 < sizes["test_filter"] <= 60


def test_augment_artifacts(chain):
    manifest = json.loads(
        (chain.out / "splits" / "manifest.json").read_text())
    sizes = manifest["sizes"]
    # 4 countries x budget 120 split 3:1:1
    assert sizes["train_aug"] == sizes["train_oag"] + 288
    assert sizes["val_aug"] == sizes["val_oag"] + 96
    assert sizes["test_filter_aug"] == sizes["test_filter"] + 96
    assert sizes["test_gold"] == 80
    gold = [json.loads(l) for l in
            (chain.out / "splits" / "test_gold.jsonl").read_text().splitlines()]
    assert all(r["provenance"] == "synthetic" for r in gold)


def test_train_artifacts(chain):
    log_lines = (chain.out / "train_log.jsonl").read_text().splitlines()
    assert len(log_lines) == 3  # max_epochs in the fixture config
    entry = json.loads(log_lines[0])
    assert set(entry) == {"epoch", "train_loss", "val_accuracy",
                          "val_macro_f1", "lr"}
    assert (chain.out / "model.bin").stat().st_size > 0


def test_evaluate_artifacts(chain):
    report = json.loads((chain.out / "eval_report.json").read_text())
    assert report["taxonomy"] == "taxonomy_fixture4"
    assert 0 < report["accuracy"] <= 1
    assert report["buckets"]["threshold"] == 200
    assert report["buckets"]["tail_labels"] == ["cascadia", "dorvania"]
    assert report["buckets"]["head_labels"] == ["arcadia", "borelia"]
    # Each bucket's size: the test names whose gold label is in it.
    gold = Counter(json.loads(l)["label"] for l in
                   (chain.out / "splits" / "test_filter_aug.jsonl")
                   .read_text().splitlines())
    assert report["buckets"]["head"]["n_records"] == (
        gold["arcadia"] + gold["borelia"])
    assert report["buckets"]["tail"]["n_records"] == (
        gold["cascadia"] + gold["dorvania"])
    assert (report["buckets"]["head"]["n_records"]
            + report["buckets"]["tail"]["n_records"] == report["n_records"])
    table = (chain.out / "eval_table.txt").read_text()
    assert table.splitlines()[0].split() == ["Model", "Taxonomy", "Acc",
                                             "W-F1", "M-F1"]

    mapped = json.loads((chain.out / "eval_gold.json").read_text())
    assert mapped["taxonomy"] == "taxonomy_fixture3"
    assert set(mapped["per_class"]) == {"group-east", "group-south",
                                        "group-west"}


def test_bench_artifacts(chain):
    report = json.loads((chain.out / "bench_report.json").read_text())
    assert [row["batch_size"] for row in report["rows"]] == [1, 16, 64]
    for row in report["rows"]:
        product = (row["throughput_names_per_second"]
                   * row["latency_ms_per_name"])
        assert abs(product - 1000.0) < 1e-6


def test_bias_artifacts(chain):
    report = json.loads((chain.out / "bias_report.json").read_text())
    assert report["n_records"] == 40
    assert report["n_incorrect"] == 16
    assert set(report["groups"]) == {"north", "south"}
    for stats in report["groups"].values():
        assert stats["ci_lower"] <= stats["accuracy"] <= stats["ci_upper"]


def test_audit_artifacts(chain):
    report = json.loads((chain.out / "audit_report.json").read_text())
    assert report["clean"] is True
    assert all(v == [] for v in report["violations"].values())


def test_manifests_record_real_digests(chain):
    manifests_dir = chain.out / "manifests"
    names = {p.name for p in manifests_dir.iterdir()}
    assert {"extract.json", "split.json", "augment.json", "train.json",
            "bench.json", "bias.json", "audit.json"} <= names
    manifest = json.loads((manifests_dir / "train.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 7  # from the fixture config
    for key, digest in manifest["outputs"].items():
        assert not key.startswith("/")  # relative keys only
        actual = hashlib.sha256(
            (chain.out / key).read_bytes()).hexdigest()
        assert digest == actual


def test_manifest_keys_out_of_tree_inputs_by_role(chain, tmp_path):
    """Two inputs with one basename in different directories keep a digest
    each, under keys that do not depend on where the run's root is."""
    for sub, source in (("a", "affiliations.jsonl"),
                        ("b", "taxonomy_fixture4.txt")):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.txt").write_bytes((chain.fx / source).read_bytes())
    manifests = []
    for root in ("one", "two"):
        out = tmp_path / root
        assert main(["--config", str(chain.fx / "pipeline.json"),
                     "--out-dir", str(out), "extract",
                     "--input", str(tmp_path / "a" / "x.txt"),
                     "--taxonomy", str(tmp_path / "b" / "x.txt"),
                     "--stats", str(tmp_path / root / "stats" / "x.txt")]) == 0
        manifests.append((out / "manifests" / "extract.json").read_bytes())
    assert manifests[0] == manifests[1]
    manifest = json.loads(manifests[0])
    digest = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
    assert manifest["inputs"] == {
        "input:x.txt": digest(tmp_path / "a" / "x.txt"),
        "taxonomy:x.txt": digest(tmp_path / "b" / "x.txt")}
    assert set(manifest["outputs"]) == {"corpus.jsonl", "stats/x.txt"}


def test_missing_input_exits_2_without_partial_output(chain, tmp_path, capsys):
    out = tmp_path / "fresh"
    code = main(["--out-dir", str(out), "split",
                 "--input", str(tmp_path / "nope.jsonl")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not (out / "splits").exists()


def test_out_dir_naming_a_file_exits_2(tmp_path, capsys):
    # An OSError is a file the command cannot write: exit 2, not a traceback.
    taken = tmp_path / "taken"
    taken.write_text("keep", encoding="utf-8")
    code = main(["--out-dir", str(taken), "audit"])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "File exists" in err[0] and str(taken) in err[0], err
    assert taken.read_text(encoding="utf-8") == "keep"


@pytest.mark.parametrize("argv, error", [
    (["evaluate", "--model", "nope.bin", "--input", "nope.jsonl",
      "--mapping", "x.tsv"], "error: --mapping requires --target-taxonomy"),
    (["split", "--input", "nope.jsonl"],
     "error: [Errno 2] No such file or directory: 'nope.jsonl'"),
], ids=["usage", "missing-input"])
def test_refused_command_leaves_no_out_dir(tmp_path, capsys, monkeypatch,
                                           argv, error):
    # An --out-dir is made by the first file written into it, so a command
    # refused before it writes leaves none, however deep the path.
    monkeypatch.chdir(tmp_path)
    assert main(["--out-dir", "probe/out", *argv]) == 2
    assert capsys.readouterr().err.splitlines() == [error]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["augment", "train", "audit"])
@pytest.mark.parametrize("is_file", [False, True], ids=["absent", "file"])
def test_splits_dir_that_is_not_a_directory_exits_2(tmp_path, capsys,
                                                    monkeypatch, command,
                                                    is_file):
    """A --splits-dir that is absent or names a file is refused with one
    line, before augment asks for a name, before train reads its taxonomy
    and before anything is written."""
    splits = tmp_path / "splits"
    if is_file:
        splits.write_text("keep", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()

    def generate(self, *args, **kwargs):
        raise AssertionError("generate called")

    monkeypatch.setattr(enrichment.StubNameGenerator, "generate", generate)
    taxonomy = ["--taxonomy", str(tmp_path / "nope.txt")]
    code = main(["--out-dir", str(out), command, "--splits-dir", str(splits),
                 *(taxonomy if command == "train" else [])])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {splits}: not a directory"]
    assert sorted(p.name for p in tmp_path.rglob("*")) == (
        ["out", "splits"] if is_file else ["out"])
    if is_file:
        assert splits.read_text(encoding="utf-8") == "keep"


@pytest.mark.parametrize("command", ["split", "train"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_negative_seed_exits_2_before_any_write(chain, tmp_path, capsys,
                                                command, via):
    """A negative seed, from --seed or the config, is refused in main with
    one line naming it, before any handler runs: split would run on it and
    train would fail inside numpy with a message that names nothing."""
    args = {"split": ["--input", str(chain.out / "corpus.jsonl")],
            "train": ["--splits-dir", str(chain.out / "splits"),
                      "--taxonomy", str(chain.fx / "taxonomy_fixture4.txt")],
            }[command]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": -1}), encoding="utf-8")
    seed = (["--seed", "-1"] if via == "flag"
            else ["--config", str(config)])
    out = tmp_path / "out"
    code = main([*seed, "--out-dir", str(out), command, *args])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: seed must be a non-negative integer, not -1"]
    assert list(tmp_path.iterdir()) == [config]


def _attrs(obj, keys):
    return {key: getattr(obj, key) for key in keys}


def test_default_config_is_the_library_defaults():
    """DEFAULT_CONFIG runs the CLI on the defaults that callers outside it
    get by naming nothing: perfbench builds ModelConfig(), Tokenizer(chars)
    and TrainConfig's warmup and weight decay, and the README example
    SplitConfig's ratios."""
    seed, split, augment, train, bench, oracle = (
        DEFAULT_CONFIG[key] for key in ("seed", "split", "augment", "train",
                                        "bench", "oracle"))
    library_train = {**dataclasses.asdict(TrainConfig(train["learning_rate"])),
                     **dataclasses.asdict(ModelConfig()),
                     "max_len": DEFAULT_MAX_LEN}
    assert library_train == {**train, "seed": seed}
    assert Tokenizer(("a",)).max_len == DEFAULT_MAX_LEN

    split_config = corpus.SplitConfig()
    assert (list(split_config.ratios), split_config.seed) == (
        split["ratios"], seed)
    cap = inspect.signature(corpus.build_filtered_test).parameters["cap"]
    assert cap.default == split["filter_cap"]
    assert (enrichment.DEFAULT_THRESHOLD, enrichment.DEFAULT_BUDGET,
            enrichment.DEFAULT_CHUNK_SIZE) == (
        augment["threshold"], augment["budget"], augment["chunk_size"])

    assert dataclasses.asdict(evaluation.BenchConfig()) == {
        "batch_sizes": tuple(bench["batch_sizes"]),
        "warmup_batches": bench["warmup_batches"],
        "repetitions": bench["repetitions"], "seed": seed}
    labels = ("model_name", "model_type", "cost_per_million")
    parameters = inspect.signature(evaluation.benchmark).parameters
    assert {key: parameters[key].default for key in labels} == {
        key: bench[key] for key in labels}

    http = oracle["http"]
    assert _attrs(enrichment.HttpOracleConfig(http["endpoint"], http["model"]),
                  http) == http
    validator = ("strictness", "strict_fraction", "lenient_fraction")
    assert _attrs(enrichment.StubNameValidator(), validator) == {
        key: oracle[key] for key in validator}


def test_invalid_config_exits_2(chain, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    code = main(["--config", str(bad), "--out-dir", str(tmp_path), "audit"])
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_unknown_oracle_kind_exits_2(chain, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"oracle": {"kind": "psychic"}}),
                      encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    write_records(corpus, [NameRecord(f"Name{i} Alfa", "alfa")
                           for i in range(10)])
    code = main(["--config", str(config), "--out-dir", str(tmp_path),
                 "split", "--input", str(corpus)])
    assert code == 2
    assert "psychic" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["extract", "split"])
def test_unknown_oracle_kind_refused_at_config_load(chain, tmp_path, capsys,
                                                    command):
    # extract and split --no-filter build no oracle; the kind is checked
    # when the config is loaded, so every command refuses it.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"oracle": {"kind": "psychic"}}),
                      encoding="utf-8")
    args = {"extract": ["--input", str(chain.fx / "affiliations.jsonl"),
                        "--taxonomy", str(chain.fx / "taxonomy_fixture4.txt")],
            "split": ["--input", str(chain.out / "corpus.jsonl"),
                      "--no-filter"]}[command]
    out = tmp_path / "out"
    code = main(["--config", str(config), "--out-dir", str(out), command,
                 *args])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f'error: config {config}: oracle.kind must be "stub" or "http", '
        f"not 'psychic'"]
    assert not out.exists()


@pytest.mark.parametrize("line", [
    '[1, 2]', '"abc"', 'null', '{"name": 5, "label": "france"}',
    '{"name": "A B", "label": 7}',
    '{"name": "A B", "label": "x", "source_id": {}}'])
def test_split_bad_record_exits_2(tmp_path, capsys, line):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(line + "\n", encoding="utf-8")
    code = main(["--out-dir", str(tmp_path / "out"), "split",
                 "--input", str(bad)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1, err
    assert err[0].startswith(f"error: {bad}:1: bad record ("), err


def test_split_rejects_synthetic_input_with_exit_2(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"name": "Li Wei", "label": "alfa"}\n\n'
        '{"name": "Ana Silva", "label": "alfa", "provenance": "synthetic"}\n',
        encoding="utf-8")
    code = main(["--out-dir", str(tmp_path / "out"), "split",
                 "--input", str(corpus)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1, err
    assert err[0].startswith(f"error: {corpus}:3: record is tagged synthetic"), err
    assert not (tmp_path / "out" / "splits").exists()


@pytest.mark.parametrize("row", [
    {"id": "a1", "name": None, "affiliations": ["Lab, arcadia"]},
    {"id": "a1", "name": "Aba Dab", "affiliations": [5]},
    {"id": "a1", "name": "Aba Dab", "affiliations": 0},
    {"id": 7, "name": "Aba Dab", "affiliations": ["Lab, arcadia"]},
    [], None, "x"],
    ids=["name_null", "affiliation_int", "affiliations_int", "id_int",
         "array", "null", "string"])
def test_extract_bad_affiliation_exits_2(chain, tmp_path, capsys, row):
    bad = tmp_path / "affiliations.jsonl"
    bad.write_text(json.dumps(row) + "\n", encoding="utf-8")
    code = main(["--out-dir", str(tmp_path / "out"), "extract",
                 "--input", str(bad),
                 "--taxonomy", str(chain.fx / "taxonomy_fixture4.txt")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1, err
    assert err[0].startswith(f"error: {bad}:1: bad affiliation ("), err
    assert not (tmp_path / "out" / "corpus.jsonl").exists()


@pytest.mark.parametrize("record", [
    {"gold_name": "aba dab", "answered_name": "aba dab", "correct": "false"},
    {"gold_name": 5, "answered_name": "aba dab", "correct": True},
    {"gold_name": "aba dab", "answered_name": None, "correct": False},
    [], None, "x"],
    ids=["correct_string", "gold_name_int", "answered_name_null", "array",
         "null", "string"])
def test_bias_bad_record_exits_2(chain, tmp_path, capsys, record):
    bad = tmp_path / "bias_records.jsonl"
    bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code = main(["--out-dir", str(tmp_path / "out"), "bias",
                 "--model", str(chain.out / "model.bin"),
                 "--records", str(bad),
                 "--mapping", str(chain.fx / "mapping_fixture4_to_fixture2.tsv"),
                 "--target-taxonomy", str(chain.fx / "taxonomy_fixture2.txt")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1, err
    assert err[0].startswith(f"error: {bad}:1: bad bias record ("), err
    assert not (tmp_path / "out" / "bias_report.json").exists()


def test_resplit_leaves_no_stale_splits(chain, tmp_path, capsys):
    """`split` over an augmented directory removes the old augmented splits:
    the directory then holds exactly what its manifest describes, and the
    default `train` finds no train_aug to train on."""
    out = tmp_path / "out"
    shutil.copytree(chain.out / "splits", out / "splits")
    assert (out / "splits" / "train_aug.jsonl").exists()

    def run(*args):
        return main(["--config", str(chain.fx / "pipeline.json"),
                     "--out-dir", str(out), *args])

    assert run("--seed", "99", "split",
               "--input", str(chain.out / "corpus.jsonl")) == 0
    files = sorted(p.name for p in (out / "splits").iterdir())
    assert not [f for f in files if "_aug" in f or f.startswith("test_gold")]
    manifest = json.loads((out / "manifests" / "split.json").read_text())
    assert sorted(manifest["outputs"]) == [f"splits/{f}" for f in files]
    sizes = json.loads((out / "splits" / "manifest.json").read_text())["sizes"]
    assert sorted(f"{s}.jsonl" for s, n in sizes.items() if n) == [
        f for f in files if f != "manifest.json"]
    capsys.readouterr()
    assert run("train", "--taxonomy", str(chain.fx / "taxonomy_fixture4.txt")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "train_aug.jsonl" in err[0], err


def test_augment_rerun_writes_the_same_bytes(chain, tmp_path):
    """`augment` reads only the four base splits, so running it again into
    the directory it filled writes the same splits and manifests; its
    manifest's inputs are those four files."""
    out = tmp_path / "out"
    shutil.copytree(chain.out / "splits", out / "splits")

    def digests():
        files = [*sorted((out / "splits").iterdir()),
                 out / "manifests" / "augment.json"]
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in files}

    runs = []
    for _ in range(2):
        assert main(["--config", str(chain.fx / "pipeline.json"),
                     "--out-dir", str(out), "augment"]) == 0
        runs.append(digests())
    assert runs[0] == runs[1]
    assert (out / "manifests" / "augment.json").read_bytes() == (
        chain.out / "manifests" / "augment.json").read_bytes()
    manifest = json.loads((out / "manifests" / "augment.json").read_text())
    assert sorted(manifest["inputs"]) == sorted(
        f"splits/{s}.jsonl" for s in ("train_oag", "val_oag", "test_oag",
                                      "test_filter"))


def test_augment_keeps_each_name_under_one_label(chain, tmp_path, monkeypatch,
                                                 same_names_generator):
    """A generator that offers every country the same names cannot put a name
    under two labels: augment exits 0, and each synthetic key in the *_aug
    splits and test_gold has one label."""
    out = tmp_path / "out"
    shutil.copytree(chain.out / "splits", out / "splits")
    monkeypatch.setattr("namecountry.cli._make_generator",
                        lambda config: same_names_generator(config["seed"]))
    assert main(["--config", str(chain.fx / "pipeline.json"),
                 "--out-dir", str(out), "augment"]) == 0
    labels = {}
    for split in ("train_aug", "val_aug", "test_filter_aug", "test_gold"):
        path = out / "splits" / f"{split}.jsonl"
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record["provenance"] == "synthetic":
                labels.setdefault(name_key(record["name"]), set()).add(
                    record["label"])
    assert len(set().union(*labels.values())) > 1
    assert all(len(v) == 1 for v in labels.values())


def test_augment_summary_counts_the_shortfall(chain, tmp_path, monkeypatch,
                                              capsys, same_names_generator):
    """The `augment:` line gives the countries a draw left short and the
    names missing. With every country offered the same names, 2 of 4 get 0
    of their 120 synthetic names and 3 get 0 of their 20 test_gold names."""
    out = tmp_path / "out"
    shutil.copytree(chain.out / "splits", out / "splits")
    argv = ["--config", str(chain.fx / "pipeline.json"), "--out-dir", str(out),
            "augment"]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith(
        " test_gold=80 (short: 0 countries, 0 names)\n")
    monkeypatch.setattr("namecountry.cli._make_generator",
                        lambda config: same_names_generator(config["seed"]))
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "augment: +240 synthetic -> train_aug=624 val_aug=108 "
        "test_filter_aug=105 test_gold=20 (short: 3 countries, 300 names)\n")


def test_augment_draws_hold_names_not_records(chain, tmp_path, monkeypatch):
    """No record, base or synthetic, is alive when `augment` asks the
    generator for a chunk, within a country's draw as between draws: the
    draws keep names only, the base splits were scanned for their keys
    without keeping a record, and every record is built after the shared
    key set is dropped."""
    from namecountry import enrichment

    def records():
        return sum(1 for o in gc.get_objects() if type(o) is NameRecord)

    generate = enrichment.StubNameGenerator.generate
    alive = []

    def counting(self, country, n):
        alive.append(records() - before)
        return generate(self, country, n)

    monkeypatch.setattr(enrichment.StubNameGenerator, "generate", counting)
    out = tmp_path / "out"
    shutil.copytree(chain.out / "splits", out / "splits")
    before = records()
    assert main(["--config", str(chain.fx / "pipeline.json"),
                 "--out-dir", str(out), "augment"]) == 0
    # 4 budgets of 120 in chunks of 60, then 4 test_gold budgets of 20: at
    # least two calls within each budget's draw.
    assert len(alive) >= 4 * 2 + 4
    assert alive == [0] * len(alive)


def test_augment_and_audit_hold_one_chunk_of_synthetic_records(
        chain, tmp_path, monkeypatch):
    """The synthetic records are streamed: no more than one audit chunk of
    them is alive when `augment` writes a split, or when the audit asks the
    audit command for a split. augment holds them as names and builds each
    record as the audit and the writer walk the bundle. Before it draws,
    augment asks the same reader for the four base splits, once each."""
    from namecountry import corpus

    def synthetic_records():
        return sum(1 for o in gc.get_objects() if type(o) is NameRecord
                   and o.provenance is Provenance.SYNTHETIC)

    chunk = 8  # the fixture's 560 synthetic names are 70 chunks
    monkeypatch.setattr(corpus, "AUDIT_CHUNK_RECORDS", chunk)
    alive = []
    write, ask = corpus.write_records, corpus.SplitFiles.__getitem__

    def counting_write(path, records):
        alive.append(("write", path.stem, synthetic_records() - before))
        return write(path, records)

    def counting_ask(self, split):
        alive.append(("ask", split, synthetic_records() - before))
        return ask(self, split)

    monkeypatch.setattr(corpus, "write_records", counting_write)
    monkeypatch.setattr(corpus.SplitFiles, "__getitem__", counting_ask)
    out = tmp_path / "out"
    shutil.copytree(chain.out / "splits", out / "splits")
    before = synthetic_records()
    for command in ("augment", "audit"):
        assert main(["--config", str(chain.fx / "pipeline.json"),
                     "--out-dir", str(out), command]) == 0
    assert [(kind, split) for kind, split, _ in alive] == [
        *(("ask", split) for split in corpus.BASE_SPLITS),
        *(("write", split) for split in corpus.SPLIT_NAMES),
        *(("ask", split) for split in (
            "test_oag", "test_gold", "val_oag", "test_filter", "train_oag",
            "val_aug", "test_filter_aug", "train_aug"))]
    assert max(n for _, _, n in alive) <= chunk, alive


def test_bucket_threshold_defaults_to_augment_threshold(chain, tmp_path):
    """Without --bucket-threshold, evaluate cuts head from tail at the
    config's augment.threshold, the cut augment draws by: the report is the
    chain's, which passed 200 by the flag."""
    config = json.loads((chain.fx / "pipeline.json").read_text())
    config["augment"]["threshold"] = 200
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    report = tmp_path / "eval_report.json"
    assert main(["--config", str(path), "--out-dir", str(tmp_path / "out"),
                 "evaluate", "--model", str(chain.out / "model.bin"),
                 "--input", str(chain.out / "splits" / "test_filter_aug.jsonl"),
                 "--train-split", str(chain.out / "splits" / "train_aug.jsonl"),
                 "--output", str(report)]) == 0
    assert report.read_bytes() == (chain.out / "eval_report.json").read_bytes()


@pytest.mark.parametrize("gold", [0, -5])
def test_augment_rejects_gold_per_country_below_one(chain, tmp_path, capsys,
                                                    gold):
    config = json.loads((chain.fx / "pipeline.json").read_text())
    config["augment"]["gold_per_country"] = gold
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["--config", str(path), "--out-dir", str(tmp_path / "out"),
                 "augment", "--splits-dir", str(chain.out / "splits"),
                 "--output-dir", str(tmp_path / "splits")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: gold_per_country must be positive"]
    assert not (tmp_path / "splits").exists()
    assert not (tmp_path / "out").exists()


def _snapshot(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _augment_into(out, chain, monkeypatch):
    """Run `augment` into `out`, noting each `generate` call in the list it
    returns with the exit code."""
    from namecountry import enrichment
    calls = []
    monkeypatch.setattr(enrichment.StubNameGenerator, "generate",
                        lambda self, country, n: calls.append(country) or [])
    code = main(["--config", str(chain.fx / "pipeline.json"),
                 "--out-dir", str(out), "augment"])
    return code, calls


@pytest.mark.parametrize("split, no_train_oag", [
    ("train_oag", False), ("val_oag", False), ("test_oag", False),
    ("test_filter", False), ("test_filter", True)])
def test_augment_bad_base_record_exits_2(chain, tmp_path, capsys,
                                         monkeypatch, split, no_train_oag):
    """A malformed line in any base split stops augment with exit 2 and one
    `error:` line naming the file and line, before any name is drawn and
    before anything is written. Every base split is read before train_oag
    is found missing, so with both faults the malformed line is reported."""
    out = tmp_path / "out"
    shutil.copytree(chain.out / "splits", out / "splits")
    if no_train_oag:
        (out / "splits" / "train_oag.jsonl").unlink()
    path = out / "splits" / f"{split}.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines.insert(2, '{"name": "Ana Silva"}\n')
    path.write_text("".join(lines), encoding="utf-8")
    before = _snapshot(out)
    code, calls = _augment_into(out, chain, monkeypatch)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}:3: bad record ('label')"]
    assert calls == []
    assert _snapshot(out) == before


@pytest.mark.parametrize("content", [None, "", "\n  \n"])
def test_augment_without_train_oag_exits_2(chain, tmp_path, capsys,
                                           monkeypatch, content):
    """An absent train_oag file, or one with no record, is bad input."""
    out = tmp_path / "out"
    shutil.copytree(chain.out / "splits", out / "splits")
    path = out / "splits" / "train_oag.jsonl"
    if content is None:
        path.unlink()
    else:
        path.write_text(content, encoding="utf-8")
    before = _snapshot(out)
    code, calls = _augment_into(out, chain, monkeypatch)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {out / 'splits'}: no train_oag split found"]
    assert calls == []
    assert _snapshot(out) == before


def _records_alive_while_parsing(monkeypatch, every=16):
    """Patch the record parser to note, at every `every`th record it builds,
    how many NameRecords are alive beyond those alive now."""
    from namecountry import core

    def records():
        return sum(1 for o in gc.get_objects() if type(o) is NameRecord)

    parse, alive, before = core.record_from_dict, [], records()

    def counting(obj):
        record = parse(obj)
        if len(alive) % every == 0:
            alive.append(records() - before)
        else:
            alive.append(None)
        return record

    monkeypatch.setattr(core, "record_from_dict", counting)
    return alive


def test_evaluate_counts_training_labels_without_holding_records(
        chain, tmp_path, monkeypatch):
    """`evaluate --train-split` counts the training labels as the records
    are read: beyond the scored split's own records, a few are alive while
    the training split is read, not the whole split."""
    scored = chain.out / "splits" / "test_gold.jsonl"
    train = chain.out / "splits" / "train_aug.jsonl"
    n_scored = len(read_records(scored))
    alive = _records_alive_while_parsing(monkeypatch)
    assert main(["--config", str(chain.fx / "pipeline.json"),
                 "--out-dir", str(tmp_path), "evaluate",
                 "--model", str(chain.out / "model.bin"),
                 "--input", str(scored), "--train-split", str(train)]) == 0
    counted = [n for n in alive[n_scored:] if n is not None]
    assert len(alive) == n_scored + len(read_records(train))
    assert len(counted) >= 40
    assert max(counted) <= n_scored + 4, counted


def test_evaluate_holds_one_chunk_of_records(chain, tmp_path, monkeypatch):
    """`evaluate` scores its input a chunk at a time: at every
    predict_labels call, at most PREDICT_CHUNK_ROWS records are alive."""
    from namecountry import classifier
    chunk = 8
    monkeypatch.setattr(classifier, "PREDICT_CHUNK_ROWS", chunk)

    def records():
        return sum(1 for o in gc.get_objects() if type(o) is NameRecord)

    predict, alive, before = (classifier.ClassifierModel.predict_labels, [],
                              records())

    def counting(self, names):
        alive.append(records() - before)
        return predict(self, names)

    monkeypatch.setattr(classifier.ClassifierModel, "predict_labels", counting)
    scored = chain.out / "splits" / "test_filter_aug.jsonl"
    assert main(["--config", str(chain.fx / "pipeline.json"),
                 "--out-dir", str(tmp_path), "evaluate",
                 "--model", str(chain.out / "model.bin"),
                 "--input", str(scored)]) == 0
    assert len(alive) == -(-len(read_records(scored)) // chunk)
    assert max(alive) <= chunk, alive


def test_bench_reads_a_record_file_without_holding_records(
        chain, tmp_path, monkeypatch):
    """`bench --names <file>.jsonl` keeps each record's name, not the
    record: a few records are alive at a time while the file is read."""
    names = chain.out / "splits" / "train_aug.jsonl"
    alive = _records_alive_while_parsing(monkeypatch)
    assert main(["--config", str(chain.fx / "pipeline.json"),
                 "--out-dir", str(tmp_path), "bench",
                 "--model", str(chain.out / "model.bin"),
                 "--names", str(names)]) == 0
    counted = [n for n in alive if n is not None]
    assert len(alive) == len(read_records(names))
    assert len(counted) >= 40
    assert max(counted) <= 4, counted


@pytest.mark.parametrize("command", ["evaluate", "bench"])
def test_bad_record_in_train_split_or_names_exits_2(chain, tmp_path, capsys,
                                                    command):
    """A malformed line in an `evaluate --train-split` or `bench --names`
    record file gives one `error:` line naming the file and line."""
    bad = tmp_path / "bad.jsonl"
    lines = (chain.out / "splits" / "train_aug.jsonl").read_text(
        encoding="utf-8").splitlines(keepends=True)
    lines.insert(4, '{"name": "Ana Silva", "provenance": "invented"}\n')
    bad.write_text("".join(lines), encoding="utf-8")
    flag = ["--input", str(chain.out / "splits" / "test_gold.jsonl"),
            "--train-split", str(bad)] if command == "evaluate" else [
            "--names", str(bad)]
    out = tmp_path / "out"
    assert main(["--config", str(chain.fx / "pipeline.json"),
                 "--out-dir", str(out), command,
                 "--model", str(chain.out / "model.bin"), *flag]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}:5: bad record ('label')"]
    assert not any(out.rglob("*"))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
RECORD_LIKE = st.fixed_dictionaries(
    {"name": st.sampled_from(["Ana Silva", "Li Wei"]) | st.text(max_size=8)
     | JSON_VALUES,
     "label": st.sampled_from(["alfa", "bravo"]) | JSON_VALUES},
    optional={"provenance": st.sampled_from(["extracted", "synthetic"])
              | JSON_VALUES,
              "source_id": JSON_VALUES})


# Success or bad input, never the audit's exit 1: a record tagged synthetic
# is bad `split` input, not an audit violation.
@settings(max_examples=60, deadline=None)
@given(st.lists(JSON_VALUES | RECORD_LIKE, min_size=1, max_size=6))
def test_split_fuzzed_jsonl_exits_cleanly(values):
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.jsonl"
        path.write_text("".join(json.dumps(v) + "\n" for v in values),
                        encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = main(["--out-dir", str(Path(tmp) / "out"), "split",
                         "--input", str(path)])
    err = stderr.getvalue()
    assert "Traceback" not in err
    if code == 2:
        assert sum(l.startswith("error:") for l in err.splitlines()) == 1, err
    else:
        assert code == 0, err


@pytest.mark.parametrize("config, key", [
    ({"split": 5}, "split"),
    ({"split": {"ratios": "abc"}}, "split.ratios"),
    ({"split": {"filter_cap": "a"}}, "split.filter_cap"),
    ({"seed": True}, "seed"),
    ({"train": {"batch_size": 6.5}}, "train.batch_size"),
    ({"oracle": {"http": {"max_retries": None}}}, "oracle.http.max_retries"),
    ({"augment": {"overrides": {"arcadia": "x"}, "threshold": 100000}},
     "augment.overrides.arcadia"),
    ({"bench": {"batch_sizes": [1.5]}}, "bench.batch_sizes[0]")])
def test_mistyped_config_exits_2(tmp_path, capsys, config, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["--config", str(path), "--out-dir", str(tmp_path / "out"),
                 "split", "--input", str(tmp_path / "corpus.jsonl")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith(
        f"error: config {path}: {key} must be "), err


@pytest.mark.parametrize("config, key", [
    ({"train": {"learning_rat": 0.01}}, "train.learning_rat"),
    ({"oracle": {"http": {"retries": 2}}}, "oracle.http.retries"),
    ({"split": {"ratios": [8, 1, 1], "cap": 5}}, "split.cap"),
    ({"augmnet": {"budget": 10}}, "augmnet")])
def test_unknown_config_key_exits_2(tmp_path, capsys, config, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["--config", str(path), "--out-dir", str(tmp_path / "out"),
                 "split", "--input", str(tmp_path / "corpus.jsonl")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert err == [f"error: config {path}: unknown key {key}"]
    assert not (tmp_path / "out" / "splits").exists()


def test_free_form_config_objects_take_any_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"augment": {"overrides": {"any land": 3}},
                                "oracle": {"strictness": {"x": "lenient"}}}),
                    encoding="utf-8")
    config = load_config(path)
    assert config["augment"]["overrides"] == {"any land": 3}
    assert config["oracle"]["strictness"] == {"x": "lenient"}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("result, code", [
    (None, 0), (corpus.UncleanSplitsError({}), 1),
    (cli.CommandError("bad input"), 2), (RuntimeError("escapes"), None)],
    ids=["exit0", "exit1", "exit2", "raises"])
def test_main_runs_handler_without_gc_and_restores_it(
        tmp_path, monkeypatch, enabled, result, code):
    inside = []

    def handler(args, config, out_dir):
        inside.append(gc.isenabled())
        if isinstance(result, Exception):
            raise result

    monkeypatch.setattr(cli, "cmd_audit", handler)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if code is None:
            with pytest.raises(RuntimeError):
                main(["--out-dir", str(tmp_path), "audit"])
        else:
            assert main(["--out-dir", str(tmp_path), "audit"]) == code
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert inside == [False]
    assert after is enabled


@pytest.mark.parametrize("http, key", [
    ({"max_retries": -1}, "max_retries"),
    ({"timeout_seconds": 0}, "timeout_seconds")])
def test_split_rejects_bad_http_oracle_config(chain, tmp_path, capsys, http,
                                              key):
    # Checked when the oracle is built, before a request is sent or a file
    # is written.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oracle": {"kind": "http", "http": {
        "endpoint": "http://127.0.0.1:9/v1", **http}}}), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out-dir", str(out),
                 "split", "--input", str(chain.out / "corpus.jsonl")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith(
        f"error: oracle.http.{key} must be"), err
    assert not out.exists()  # no splits/, no manifest


def test_unknown_strictness_exits_2(chain, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oracle": {"strictness": {"arcadia": "medium"}}}),
                   encoding="utf-8")
    code = main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"),
                 "split", "--input", str(chain.out / "corpus.jsonl")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: unknown strictness 'medium' for 'arcadia'; expected 'strict' "
        "or 'lenient'"]


def _edited_pipeline_config(chain, tmp_path, section, key, value):
    config = json.loads((chain.fx / "pipeline.json").read_text())
    config[section][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _synthetic_labels(splits_dir):
    return Counter(
        record.label for split in ("train_aug", "val_aug", "test_filter_aug")
        for record in read_records(splits_dir / f"{split}.jsonl")
        if record.provenance is Provenance.SYNTHETIC)


@pytest.mark.parametrize("key", ["arcadia", "Arcadia", " ARCADIA "])
def test_augment_override_keys_are_labels(chain, tmp_path, key):
    """An override key names a country as a label does: `Arcadia` draws
    arcadia's budget, where it was once ignored and arcadia drew the
    default."""
    cfg = _edited_pipeline_config(chain, tmp_path, "augment", "overrides",
                                  {key: 35})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out-dir", str(out), "augment",
                 "--splits-dir", str(chain.out / "splits"),
                 "--output-dir", str(out / "splits")]) == 0
    assert _synthetic_labels(out / "splits") == {
        "arcadia": 35, "borelia": 120, "cascadia": 120, "dorvania": 120}


@pytest.mark.parametrize("overrides, error", [
    ({"Narnia": 5}, "augment.overrides.Narnia: no country 'narnia' in "
                    "train_oag"),
    ({"arcadia": 5, "ARCADIA": 6}, "augment.overrides.ARCADIA: 'arcadia' is "
                                   "already named by augment.overrides.arcadia"),
], ids=["unknown", "twice"])
def test_augment_refuses_override_keys(chain, tmp_path, capsys, overrides,
                                       error):
    cfg = _edited_pipeline_config(chain, tmp_path, "augment", "overrides",
                                  overrides)
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out-dir", str(out), "augment",
                 "--splits-dir", str(chain.out / "splits"),
                 "--output-dir", str(tmp_path / "splits")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
    assert not (tmp_path / "splits").exists()
    assert not out.exists()


def test_split_strictness_keys_are_labels(chain, tmp_path):
    """Strictness keys name countries as labels do: the fixture's lenient
    countries written in capitals give the same test_filter."""
    cfg = _edited_pipeline_config(
        chain, tmp_path, "oracle", "strictness",
        {c.upper(): "lenient" for c in ("arcadia", "borelia", "cascadia",
                                        "dorvania")})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out-dir", str(out), "split",
                 "--input", str(chain.out / "corpus.jsonl")]) == 0
    assert (out / "splits" / "test_filter.jsonl").read_bytes() == (
        chain.out / "splits" / "test_filter.jsonl").read_bytes()


@pytest.mark.parametrize("strictness, error", [
    ({"narnia": "lenient"}, "oracle.strictness.narnia: no country 'narnia' "
                            "in test_oag"),
    ({"Arcadia": "lenient", "arcadia": "strict"},
     "oracle.strictness.arcadia: 'arcadia' is already named by "
     "oracle.strictness.Arcadia"),
], ids=["unknown", "twice"])
def test_split_refuses_strictness_keys(chain, tmp_path, capsys, strictness,
                                       error):
    cfg = _edited_pipeline_config(chain, tmp_path, "oracle", "strictness",
                                  strictness)
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out-dir", str(out), "split",
                 "--input", str(chain.out / "corpus.jsonl")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
    assert not out.exists()  # no splits/, no manifest


@pytest.mark.parametrize("name", ["strict_fraction", "lenient_fraction"])
@pytest.mark.parametrize("fraction", [5, -3, 1.5, -0.1])
def test_split_refuses_validator_fraction_out_of_range(chain, tmp_path, capsys,
                                                      name, fraction):
    # A fraction above 1 rejected every name, leaving no test_filter, and
    # one below 0 accepted every name; both are refused before a write.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oracle": {name: fraction}}), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out-dir", str(out),
                 "split", "--input", str(chain.out / "corpus.jsonl")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: oracle.{name} must be between 0 and 1, got {fraction!r}"]
    assert not out.exists()  # no splits/, no manifest


@pytest.mark.parametrize("fraction", [0, 1])
def test_split_accepts_validator_fraction_bounds(chain, tmp_path, capsys,
                                                 fraction):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oracle": {"strict_fraction": fraction,
                                          "lenient_fraction": fraction}}),
                   encoding="utf-8")
    code = main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"),
                 "split", "--input", str(chain.out / "corpus.jsonl")])
    assert code == 0, capsys.readouterr().err


# Each file kind a command reads whole, plus a JSONL file, which is streamed.
@pytest.mark.parametrize("kind", ["taxonomy", "aliases", "config", "names",
                                  "names_jsonl"])
def test_undecodable_file_error_names_it(chain, tmp_path, capsys, kind):
    bad = tmp_path / ("bad.jsonl" if kind == "names_jsonl" else f"bad_{kind}")
    bad.write_bytes(b"\xff\xfe" + "arcadia\n".encode("utf-16-le"))
    paths = {"taxonomy": chain.fx / "taxonomy_fixture4.txt",
             "aliases": chain.fx / "aliases_fixture.tsv",
             "config": chain.fx / "pipeline.json",
             "names": chain.out / "bench_names.txt"}
    paths["names" if kind == "names_jsonl" else kind] = bad
    if kind.startswith("names"):
        argv = ["bench", "--model", str(chain.out / "model.bin"),
                "--names", str(paths["names"])]
    else:
        argv = ["extract", "--input", str(chain.fx / "affiliations.jsonl"),
                "--taxonomy", str(paths["taxonomy"]),
                "--aliases", str(paths["aliases"])]
    code = main(["--config", str(paths["config"]),
                 "--out-dir", str(tmp_path / "out"), *argv])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: not UTF-8"), err


def test_config_accepts_integer_for_float(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"train": {"weight_decay": 0}}),
                    encoding="utf-8")
    config = load_config(path)
    assert config["train"]["weight_decay"] == 0


def deep_merge(base, override):
    """The overlay load_config used to apply after checking a config."""
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _config_values(default, dotted=""):
    """Values of `default`'s shape at `dotted`: any subset of a section's
    keys, and leaves of their default's JSON type. `oracle.kind` is a known
    kind or any string."""
    element = cli.CONFIG_ELEMENTS.get(dotted)
    if isinstance(default, dict) and element is None:
        return st.fixed_dictionaries({}, optional={
            key: _config_values(value, f"{dotted}.{key}".lstrip("."))
            for key, value in default.items()})
    leaf = {"a number": st.floats(allow_nan=False) | st.integers(),
            "an integer": st.integers(), "a string": st.text(max_size=6)}
    if isinstance(default, dict):
        return st.dictionaries(st.text(max_size=6), leaf[element], max_size=3)
    if isinstance(default, list):
        return st.lists(leaf[element], max_size=4)
    if dotted == "oracle.kind":
        return st.sampled_from(["stub", "http"]) | leaf["a string"]
    return leaf[cli.json_type(default)]


FULL_CONFIG = {
    "seed": 7,
    "split": {"ratios": [7, 2, 1.5], "filter_cap": 10},
    "augment": {"threshold": 60, "overrides": {"arcadia": 3, "b": 0},
                "ratios": [], "gold_per_country": 2},
    "train": {"learning_rate": 1, "max_len": 12},
    "bench": {"batch_sizes": [2, 5], "model_type": "x"},
    "oracle": {"kind": "http", "strictness": {"arcadia": "lenient"},
               "http": {"endpoint": "http://h", "max_retries": 0}}}


# One walk both checks a config and writes it over the defaults, and gives
# what checking and then overlaying gave: the same keys, types and hash. An
# oracle kind other than stub or http is refused.
@settings(max_examples=150, deadline=None)
@given(_config_values(DEFAULT_CONFIG))
@example(FULL_CONFIG)
def test_load_config_matches_the_overlay(loaded):
    defaults = copy.deepcopy(DEFAULT_CONFIG)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(loaded), encoding="utf-8")
        if loaded.get("oracle", {}).get("kind", "stub") not in ("stub", "http"):
            with pytest.raises(cli.CommandError, match=r"oracle\.kind must be"):
                load_config(path)
            return
        config = load_config(path)
    expected = deep_merge(DEFAULT_CONFIG, json.loads(json.dumps(loaded)))
    assert config == expected
    assert json.dumps(config) == json.dumps(expected)  # key order, int/float
    assert cli.config_hash(config) == cli.config_hash(expected)
    config["oracle"]["http"]["model"] = "changed"
    config["augment"]["overrides"]["changed"] = 1
    config["split"]["ratios"].append(1)
    assert DEFAULT_CONFIG == defaults


def _default_paths(section, prefix=()):
    for key, value in section.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _default_paths(value, prefix + (key,))


DEFAULT_PATHS = sorted(_default_paths(DEFAULT_CONFIG))


# One default leaf or section swapped for an arbitrary JSON value: split
# either runs or rejects the config with one `error:` line, never a traceback.
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DEFAULT_PATHS), JSON_VALUES)
def test_split_fuzzed_config_exits_cleanly(path, value):
    config = value
    for key in reversed(path):
        config = {key: config}
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        corpus = Path(tmp) / "corpus.jsonl"
        write_records(corpus, [NameRecord(f"Name{i} Alfa", "alfa")
                               for i in range(12)])
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = main(["--config", str(cfg), "--out-dir",
                         str(Path(tmp) / "out"), "split", "--input",
                         str(corpus), "--no-filter"])
    err = stderr.getvalue()
    assert "Traceback" not in err
    if code == 2:
        assert sum(l.startswith("error:") for l in err.splitlines()) == 1, err
    else:
        assert code == 0, err


def test_split_no_filter_skips_test_filter(chain, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_records(corpus, [NameRecord(f"Name{i} Alfa", "alfa")
                           for i in range(20)])
    code = main(["--out-dir", str(tmp_path), "split",
                 "--input", str(corpus), "--no-filter"])
    assert code == 0
    assert not (tmp_path / "splits" / "test_filter.jsonl").exists()
    assert (tmp_path / "splits" / "train_oag.jsonl").exists()


def test_audit_exits_1_on_leaky_splits(chain, tmp_path, capsys):
    leaky = tmp_path / "splits"
    leaky.mkdir()
    write_records(leaky / "train_oag.jsonl", [NameRecord("Shared Name", "alfa")])
    write_records(leaky / "val_oag.jsonl", [NameRecord("shared  name", "alfa")])
    code = main(["--out-dir", str(tmp_path), "audit",
                 "--splits-dir", str(leaky)])
    assert code == 1
    assert "shared name" in capsys.readouterr().err
    report = json.loads((tmp_path / "audit_report.json").read_text())
    assert report["clean"] is False
    assert report["violations"]["train_oag_vs_val_oag"] == ["shared name"]

    # A synthetic training name that is also a test_oag name (but not in
    # test_filter) is a leak too.
    aug = tmp_path / "aug"
    write_records(aug / "train_oag.jsonl", [NameRecord("Real Name", "alfa")])
    write_records(aug / "test_oag.jsonl", [NameRecord("Held Out", "alfa")])
    write_records(aug / "train_aug.jsonl", [
        NameRecord("Real Name", "alfa"),
        NameRecord("held out", "alfa", provenance=Provenance.SYNTHETIC)])
    code = main(["--out-dir", str(tmp_path), "audit",
                 "--splits-dir", str(aug)])
    assert code == 1
    assert "train_aug_vs_test_oag: 'held out'" in capsys.readouterr().err
    report = json.loads((tmp_path / "audit_report.json").read_text())
    assert report["clean"] is False
    assert report["violations"]["train_aug_vs_test_oag"] == ["held out"]


def test_augment_exits_1_and_writes_nothing_on_an_unclean_bundle(
        chain, tmp_path, capsys):
    """The bundle augment builds is audited before any of it is written: a
    base test_filter name that is not in test_oag is reported, and no split
    and no manifest is written."""
    base = tmp_path / "base"
    for split in ("train_oag", "val_oag", "test_oag", "test_filter"):
        records = read_records(chain.out / "splits" / f"{split}.jsonl")
        if split == "test_filter":
            records.append(NameRecord("Stray Name", records[0].label,
                                      provenance=Provenance.VALIDATED))
        write_records(base / f"{split}.jsonl", records)
    out, aug = tmp_path / "out", tmp_path / "aug"
    code = main(["--config", str(chain.fx / "pipeline.json"),
                 "--out-dir", str(out), "augment", "--splits-dir", str(base),
                 "--output-dir", str(aug)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "audit violations:", "  test_filter_subset_of_test_oag: 'Stray Name'"]
    assert not aug.exists()
    assert not any(out.rglob("*"))


def test_audit_holds_one_chunk_at_a_time(tmp_path, capsys):
    """The audit command yields a split's records as it reads them, and the
    audit walks every split a chunk at a time: its traced peak stays below
    half of what holding train_aug's records alone takes."""
    splits = tmp_path / "splits"
    write_records(splits / "train_aug.jsonl", [
        NameRecord(f"Synth{i} Alfa", "alfa", provenance=Provenance.SYNTHETIC)
        for i in range(50_000)])
    for split in ("train_oag", "val_oag", "test_oag"):
        write_records(splits / f"{split}.jsonl",
                      [NameRecord(f"{split}{i} Alfa", "alfa")
                       for i in range(50)])
    for split in ("val_aug", "test_filter_aug", "test_gold"):
        write_records(splits / f"{split}.jsonl", [
            NameRecord(f"{split}{i} Alfa", "alfa",
                       provenance=Provenance.SYNTHETIC) for i in range(50)])
    tracemalloc.start()
    try:
        records = read_records(splits / "train_aug.jsonl")
        held = tracemalloc.get_traced_memory()[0]
        del records
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        code = main(["--out-dir", str(tmp_path), "audit"])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert peak < held / 2, (peak, held)


def test_audit_missing_dir_exits_2(chain, tmp_path, capsys):
    code = main(["--out-dir", str(tmp_path), "audit",
                 "--splits-dir", str(tmp_path / "absent")])
    assert code == 2
    capsys.readouterr()


def test_evaluate_unknown_gold_label_exits_2(chain, tmp_path, capsys):
    bad = tmp_path / "bad_eval.jsonl"
    write_records(bad, [NameRecord("Aba Dab", "atlantis")])
    code = chain.run("evaluate", "--model", str(chain.out / "model.bin"),
                     "--input", str(bad),
                     "--output", str(tmp_path / "report.json"))
    assert code == 2
    # An UnknownLabelError prints its message, not a KeyError's repr of it.
    assert capsys.readouterr().err.splitlines() == [
        "error: label 'atlantis' is not in taxonomy 'taxonomy_fixture4'"]
    assert not (tmp_path / "report.json").exists()


def test_evaluate_malformed_checkpoint_exits_2(chain, tmp_path, capsys):
    blob = (chain.out / "model.bin").read_bytes()
    header_len = int.from_bytes(blob[8:12], "little")
    data = blob[12 + header_len:]

    def with_header(edit):
        header = json.loads(blob[12:12 + header_len])
        edit(header)
        raw = json.dumps(header).encode("utf-8")
        return blob[:8] + len(raw).to_bytes(4, "little") + raw + data

    cases = {
        "short": blob[:10],
        "wrong_vocab": with_header(lambda h: h["chars"].pop()),
        "no_dtype": with_header(lambda h: h.pop("dtype")),
    }
    for name, content in cases.items():
        bad = tmp_path / f"{name}.bin"
        bad.write_bytes(content)
        code = chain.run("evaluate", "--model", str(bad),
                         "--input", str(chain.out / "splits" / "test_gold.jsonl"),
                         "--output", str(tmp_path / "report.json"))
        err = capsys.readouterr().err.splitlines()
        assert code == 2, name
        assert len(err) == 1 and err[0].startswith("error:"), (name, err)
    assert not (tmp_path / "report.json").exists()


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    """Bytes of a small saved model, and a record file of its labels."""
    root = tmp_path_factory.mktemp("fuzz_checkpoint")
    taxonomy = register_taxonomy("fuzz", ["alfa", "bravo", "charlie"])
    tokenizer = Tokenizer(tuple(" ABCabc"), max_len=8)
    params = init_params(tokenizer.vocab_size, len(taxonomy), ModelConfig(3, 4))
    save_model(ClassifierModel(tokenizer, taxonomy, params), root / "model.bin")
    records = root / "records.jsonl"
    write_records(records, [NameRecord("Abc Cab", "alfa"),
                            NameRecord("Bca Aab", "bravo"),
                            NameRecord("Cc Ba", "charlie")])
    return (root / "model.bin").read_bytes(), records


MAX_LENS = (st.integers(-2, 48) | st.none() | st.booleans() | st.floats()
            | st.text(max_size=3) | st.lists(st.integers(0, 9), max_size=2))
CHARS = (st.lists(st.sampled_from([" ", "A", "a", "b", "ab", "", "\x00", "\u00e9"])
                  | JSON_VALUES, max_size=9) | JSON_VALUES)
SHAPES = (st.lists(st.integers(-1, 12) | st.sampled_from([2**63, 10**30]),
                   max_size=4)
          | JSON_VALUES)
LABELS = (st.lists(st.sampled_from(["alfa", "bravo", "charlie", "Alfa",
                                    " bravo", "", "delta"]), max_size=4)
          | JSON_VALUES)
CHECKPOINT_EDITS = st.one_of(
    st.tuples(st.just("flip"), st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
        min_size=1, max_size=4)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("chars"), CHARS),
    st.tuples(st.just("max_len"), MAX_LENS),
    st.tuples(st.just("labels"), LABELS),
    st.tuples(st.just("shape"), st.tuples(st.integers(0, 4), SHAPES)))


def _edit_checkpoint(blob: bytes, kind: str, edit) -> bytes:
    if kind == "flip":
        raw = bytearray(blob)
        for position, mask in edit:
            raw[position % len(raw)] ^= mask
        return bytes(raw)
    if kind == "truncate":
        return blob[:edit % len(blob)]
    header_len = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:12 + header_len])
    if kind == "shape":
        header["params"][edit[0]]["shape"] = edit[1]
    elif kind == "labels":
        header["taxonomy"]["labels"] = edit
    elif kind == "name":
        header["taxonomy"]["name"] = edit
    else:
        header[kind] = edit
    raw = json.dumps(header).encode("utf-8")
    return (blob[:8] + len(raw).to_bytes(4, "little") + raw
            + blob[12 + header_len:])


# A damaged checkpoint either still scores or is refused with one `error:`
# line: bytes flipped or cut, or a header whose chars are not strings, are
# longer than one character or repeat, whose max_len is no integer, whose
# labels are not a taxonomy's, or whose shapes are wrong or huge. max_len
# stays small, so no example allocates much.
@settings(max_examples=200, deadline=None)
@given(edit=CHECKPOINT_EDITS)
def test_evaluate_fuzzed_checkpoint_exits_cleanly(fuzz_checkpoint, edit):
    blob, records = fuzz_checkpoint
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.bin"
        model.write_bytes(_edit_checkpoint(blob, *edit))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = main(["--out-dir", str(Path(tmp) / "out"), "evaluate",
                         "--model", str(model), "--input", str(records)])
    err = stderr.getvalue()
    assert "Traceback" not in err
    if code == 2:
        assert sum(l.startswith("error:") for l in err.splitlines()) == 1, err
    else:
        assert code == 0, err


@pytest.mark.parametrize("kind, edit, message", [
    ("labels", ["alfa", "alfa", "bravo"], "duplicate label 'alfa'"),
    ("labels", ["Alfa", "bravo", "charlie"], "normal form"),
    ("labels", ["alfa", " bravo", "charlie"], "normal form"),
    ("labels", [], "has no labels"),
    ("labels", "abc", "normal form"),
    ("max_len", 2_000_000, "max_len 2000000 is not in 1..1024"),
    ("name", "x/../../../escaped", "'x/../../../escaped' is not a single"),
    ("name", "..", "'..' is not a single"),
    ("name", ".", "'.' is not a single"),
    ("name", "", "'' is not a single"),
    ("name", "a\\b", "is not a single"),
    ("name", "a\0b", "is not a single"),
    ("name", 7, "7 is not a single"),
    ("shape", (0, [float("inf"), 3]), "an integer, not a number"),
    ("shape", (0, [9.0, 3]), "an integer, not a number"),
    ("shape", (0, ["9", 3]), "an integer, not a string"),
    ("shape", (0, [True, 3]), "an integer, not a boolean"),
    ("shape", (4, "3"), "shape must be an array, not a string"),
    ("shape", (0, [0, 10**30]), "embedding has shape"),
    ("shape", (2, [0, 10**30]), "conv_w has shape"),
    ("shape", (1, [3, -1, 4]), "dimension -1 is negative"),
    ("chars", list(" ABCab") + ["ab"],
     "malformed header (tokenizer entry 'ab' is not one character)"),
    ("chars", " ABCabc",
     "malformed header (chars must be an array, not a string)"),
    ("chars", dict.fromkeys(" ABCabc", 1),
     "malformed header (chars must be an array, not an object)")])
def test_evaluate_refuses_checkpoint_header(fuzz_checkpoint, tmp_path, capsys,
                                            kind, edit, message):
    """Header labels go through register_taxonomy's checks and must already
    be in its normal form; max_len is bounded by MAX_LEN_LIMIT; chars is
    an array (a string or object of the saved characters would load as
    them) and each entry is one character (one that is not would never be
    encoded, and save_model writes none; here the vocabulary size still
    fits); the taxonomy name, which names evaluate's manifest, is one file
    name component; a parameter shape is an array of non-negative JSON
    integers (Infinity, 9.0, "9" and true are not), checked against the
    header before any parameter is read, however large. A refused checkpoint writes nothing,
    inside the out directory or out of it."""
    blob, records = fuzz_checkpoint
    model = tmp_path / "model.bin"
    model.write_bytes(_edit_checkpoint(blob, kind, edit))
    code = main(["--out-dir", str(tmp_path / "trav" / "a" / "b" / "out"),
                 "evaluate", "--model", str(model), "--input", str(records)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"error: {model}: "), err
    assert message in err[0], err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [model]


def test_train_max_len_above_limit_exits_2(chain, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {"max_len": 2_000_000}}),
                      encoding="utf-8")
    code = main(["--config", str(config), "--out-dir", str(tmp_path),
                 "train", "--splits-dir", str(chain.out / "splits"),
                 "--taxonomy", str(chain.fx / "taxonomy_fixture4.txt")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: max_len 2000000 is not in 1..1024"]
    assert not (tmp_path / "model.bin").exists()


def test_evaluate_incomplete_mapping_exits_2(chain, tmp_path, capsys):
    partial = tmp_path / "partial.tsv"
    partial.write_text("arcadia\tgroup-west\n", encoding="utf-8")
    code = chain.run("evaluate", "--model", str(chain.out / "model.bin"),
                     "--input", str(chain.out / "splits" / "test_gold.jsonl"),
                     "--mapping", str(partial),
                     "--target-taxonomy",
                     str(chain.fx / "taxonomy_fixture3.txt"),
                     "--output", str(tmp_path / "report.json"))
    assert code == 2
    assert "borelia" in capsys.readouterr().err  # first unmapped label


def test_evaluate_mapping_requires_target_taxonomy(chain, tmp_path, capsys):
    """The usage error comes before the model loads and the input is read:
    neither exists here."""
    code = main(["--out-dir", str(tmp_path), "evaluate",
                 "--model", str(tmp_path / "missing.bin"),
                 "--input", str(tmp_path / "missing.jsonl"),
                 "--mapping", str(chain.fx / "mapping_fixture4_to_fixture3.tsv"),
                 "--output", str(tmp_path / "report.json")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --mapping requires --target-taxonomy"]
    assert list(tmp_path.iterdir()) == []


def test_bench_insufficient_names_exits_2(chain, tmp_path, capsys):
    few = tmp_path / "few.txt"
    few.write_text("Aba Dab\nLad Mab\n", encoding="utf-8")
    code = chain.run("bench", "--model", str(chain.out / "model.bin"),
                     "--names", str(few),
                     "--output", str(tmp_path / "bench.json"))
    assert code == 2
    assert "need at least" in capsys.readouterr().err


def test_seed_flag_overrides_config(chain, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_records(corpus, [NameRecord(f"Name{i} Alfa", "alfa")
                           for i in range(30)])
    for seed, out_name in ((3, "a"), (3, "b"), (4, "c")):
        main(["--out-dir", str(tmp_path / out_name), "--seed", str(seed),
              "split", "--input", str(corpus), "--no-filter"])
    read = lambda name: (tmp_path / name / "splits"
                         / "train_oag.jsonl").read_text()
    assert read("a") == read("b")
    assert read("a") != read("c")
    manifest = json.loads(
        (tmp_path / "a" / "manifests" / "split.json").read_text())
    assert manifest["seed"] == 3


def test_console_script_help():
    result = subprocess.run([sys.executable, "-m", "namecountry.cli",
                             "--help"], capture_output=True, text=True)
    assert result.returncode == 0
    for command in ("extract", "split", "augment", "train", "evaluate",
                    "bench", "bias", "audit"):
        assert command in result.stdout


@pytest.mark.parametrize("command, flags", [
    ("split", ["--filter-cap", "0"]),
    ("split", ["--ratios", "8", "1", "1"]),
    ("augment", ["--budget", "0", "--threshold", "0"]),
    ("augment", ["--gold-per-country", "0"])])
def test_split_and_augment_values_come_from_config_only(chain, tmp_path, capsys,
                                                        command, flags):
    """Split ratios, the filter cap, threshold, budget and gold names per
    country are config keys, whose checks reject a 0 with exit 2; no flag
    restates them (as `--budget 0` did, taking the config value instead)."""
    inputs = {"split": ["--input", str(chain.out / "corpus.jsonl")],
              "augment": ["--splits-dir", str(chain.out / "splits"),
                          "--output-dir", str(tmp_path / "splits")]}
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(chain.fx / "pipeline.json"),
              "--out-dir", str(tmp_path / "out"), command,
              *inputs[command], *flags])
    assert exc.value.code == 2
    assert (f"error: unrecognized arguments: {' '.join(flags)}"
            in capsys.readouterr().err)
    assert not any(tmp_path.iterdir())


def test_data_stages_import_without_numpy():
    script = (
        "import sys, namecountry.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        "assert 'urllib.request' not in sys.modules, 'urllib imported'\n")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_train_learns_at_the_default_learning_rate(chain, tmp_path):
    """`train` on the fixture config without its `train.learning_rate`, so
    at DEFAULT_CONFIG's rate, clears a validation macro-F1 floor that the
    BERT fine-tuning rate 2e-5 misses on the same config."""
    floor = 0.5
    config = json.loads((chain.fx / "pipeline.json").read_text())
    del config["train"]["learning_rate"]
    best = {}
    for rate in (None, 2e-5):
        if rate is not None:
            config["train"]["learning_rate"] = rate
        path = tmp_path / f"config_{rate}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        log_out = tmp_path / f"train_log_{rate}.jsonl"
        assert main(["--config", str(path), "--out-dir", str(tmp_path),
                     "train", "--splits-dir", str(chain.out / "splits"),
                     "--taxonomy", str(chain.fx / "taxonomy_fixture4.txt"),
                     "--model-out", str(tmp_path / "model.bin"),
                     "--log-out", str(log_out)]) == 0
        best[rate] = max(json.loads(line)["val_macro_f1"]
                         for line in log_out.read_text().splitlines())
    assert best[None] >= floor > best[2e-5], best


def test_train_divergence_exits_2(chain, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {
        "learning_rate": 1e30, "max_epochs": 2, "batch_size": 8,
        "embedding_dim": 4, "hidden_dim": 6}}), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["--config", str(config), "--out-dir", str(tmp_path),
                     "train", "--splits-dir", str(chain.out / "splits"),
                     "--taxonomy", str(chain.fx / "taxonomy_fixture4.txt")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: non-finite training loss"), err
    assert not (tmp_path / "model.bin").exists()
