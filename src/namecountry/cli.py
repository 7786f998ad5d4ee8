"""Command-line pipeline: extract, split, augment, train, evaluate, bench,
bias, and audit.

Every command writes a manifest (config hash, seed, input/output digests,
no timestamps) so identical inputs and seed reproduce identical digests.
Outputs are written atomically; a failing command leaves no partial files.
Exit codes: 0 success, 1 audit failure, 2 bad input: an error's class alone
decides. Every exception the package defines is a ValueError, so `main`
turns any ValueError, or any OSError (a file a command cannot read or
write), into one `error:` line and exit 2; anything else is a fault in the
program and keeps its traceback.

A command's handler runs with the cyclic garbage collector off, and `main`
puts back the state it found. The data stages hold hundreds of thousands of
records, keys and lists, none of which form reference cycles, so reference
counting frees them; the collector would only rescan them, generation 2
most of all. This is the one place the package switches the collector.
"""
from __future__ import annotations

import argparse
import copy
import dataclasses
import gc
import hashlib
import json
import logging
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator, Sequence

# classifier, engine and evaluation (and with them numpy) are imported by the
# handlers that use them, so the data stages start without numpy.
from . import enrichment, extraction
from . import corpus as corpus_mod
from .core import (
    NameRecord, atomic_open, iter_records, json_type, load_mapping,
    load_taxonomy, normalize_label, read_jsonl, read_records, read_text,
    require_json, write_json, write_records,
)

log = logging.getLogger(__name__)

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "split": {"ratios": [8, 1, 1], "filter_cap": 1000},
    "augment": {"threshold": 6000, "budget": 5000, "overrides": {},
                "ratios": [3, 1, 1], "gold_per_country": 100,
                "chunk_size": 200},
    "train": {"learning_rate": 5e-3, "batch_size": 64, "max_epochs": 10,
              "warmup_fraction": 0.10, "patience": 5, "weight_decay": 0.0,
              "embedding_dim": 64, "hidden_dim": 128, "max_len": 40},
    "bench": {"batch_sizes": [1, 100, 1000, 10000], "warmup_batches": 3,
              "repetitions": 5, "cost_per_million": 0.0,
              "model_name": "namecountry", "model_type": "local"},
    "oracle": {"kind": "stub", "strict_fraction": 0.8,
               "lenient_fraction": 0.5, "strictness": {},
               "http": {"endpoint": "", "model": "",
                        "api_key_env": "NAMECOUNTRY_API_KEY",
                        "timeout_seconds": 30.0, "max_retries": 3}},
}

# What each array, and each free-form object's values, in DEFAULT_CONFIG hold.
CONFIG_ELEMENTS = {"split.ratios": "a number", "augment.ratios": "a number",
                   "augment.overrides": "an integer",
                   "bench.batch_sizes": "an integer",
                   "oracle.strictness": "a string"}


class CommandError(ValueError):
    """Bad input found by a command itself; `main` prints it and exits 2."""


def load_config(path: str | Path | None) -> dict:
    """DEFAULT_CONFIG overlaid with the JSON object in `path`.

    A key that has a default keeps its JSON type: a section stays an object
    and a leaf keeps its type, except that an integer may stand for a float.
    The elements of the arrays and objects in CONFIG_ELEMENTS are checked
    the same way, and those objects take any key. Any other key with no
    default is unknown, at the top level as in a section (a misspelt
    `augment` or `learning_rate` would otherwise run at the default).
    `oracle.kind` must be "stub" or "http". Anything else raises
    CommandError naming the dotted key.
    """
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is None:
        return config
    try:
        loaded = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise CommandError(f"config {path}: invalid JSON ({exc})")
    if not isinstance(loaded, dict):
        raise CommandError(f"config {path}: top level must be an object")
    _check_types(config, loaded, f"config {path}: ")
    kind = config["oracle"]["kind"]
    if kind not in ("stub", "http"):
        raise CommandError(f'config {path}: oracle.kind must be "stub" or '
                           f'"http", not {kind!r}')
    return config


def _check_type(name: str, expected: str, value) -> None:
    got = json_type(value)
    if expected != got and (expected, got) != ("a number", "an integer"):
        raise CommandError(f"{name} must be {expected}, not {got}")


def _check_types(config: dict, loaded: dict, where: str,
                 prefix: str = "") -> None:
    """Check each key of `loaded` against its default in `config` and
    write it there: a section key by key, any other value whole. The
    free-form objects default to {}, so writing one whole merges it."""
    for key, value in loaded.items():
        dotted = f"{prefix}{key}"
        if key not in config:
            raise CommandError(f"{where}unknown key {dotted}")
        _check_type(where + dotted, json_type(config[key]), value)
        element = CONFIG_ELEMENTS.get(dotted)
        if element and isinstance(value, list):
            for i, item in enumerate(value):
                _check_type(f"{where}{dotted}[{i}]", element, item)
        elif element:
            for name, item in value.items():
                _check_type(f"{where}{dotted}.{name}", element, item)
        elif isinstance(value, dict):
            _check_types(config[key], value, where, f"{dotted}.")
            continue
        config[key] = value


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


Files = Sequence[tuple[str, Path | None]]


def _manifest_key(role: str, path: Path, out_dir: Path) -> str:
    """A file's key in a manifest, the same for runs in different roots.

    A file under `out_dir` is keyed by its path relative to it. Any other
    file is keyed by its role (the option that named it) and its basename:
    files of different roles never share a key, and the files of one role
    come from one directory.
    """
    try:
        return path.resolve().relative_to(out_dir.resolve()).as_posix()
    except ValueError:
        return f"{role}:{path.name}"


def _write_manifest(out_dir: Path, command: str, config: dict, seed: int,
                    inputs: Files, outputs: Files) -> Path:
    """Digests of a command's inputs and outputs, as (role, path) pairs; a
    missing optional input (None, or a file that is not there) is left out."""
    manifest = {
        "command": command,
        "config_hash": config_hash(config),
        "seed": seed,
        "inputs": {_manifest_key(role, p, out_dir): _sha256_file(p)
                   for role, p in inputs if p is not None and p.exists()},
        "outputs": {_manifest_key(role, p, out_dir): _sha256_file(p)
                    for role, p in outputs},
    }
    path = out_dir / "manifests" / f"{command}.json"
    write_json(path, manifest)
    return path


def _by_label(mapping: dict, dotted: str, labels, split: str) -> dict:
    """`mapping` with each key normalized as a record's label is
    (`normalize_label`), so `Brazil` names the country `brazil`. A key that
    names no label of `split`, or a second key for one label, is a
    CommandError naming the dotted key."""
    by_label: dict = {}
    keys: dict[str, str] = {}
    for key, value in mapping.items():
        label = normalize_label(key)
        if label not in labels:
            raise CommandError(f"{dotted}.{key}: no country {label!r} in "
                               f"{split}")
        if label in keys:
            raise CommandError(f"{dotted}.{key}: {label!r} is already named "
                               f"by {dotted}.{keys[label]}")
        keys[label] = key
        by_label[label] = value
    return by_label


def _make_validator(config: dict, labels) -> enrichment.ValidationOracle:
    """The configured validator for records of `labels` (test_oag's)."""
    oracle = config["oracle"]
    if oracle["kind"] == "http":
        return _http_oracle(oracle)
    return enrichment.StubNameValidator(
        strictness=_by_label(oracle["strictness"], "oracle.strictness",
                             labels, "test_oag"),
        strict_fraction=oracle["strict_fraction"],
        lenient_fraction=oracle["lenient_fraction"])


def _make_generator(config: dict, seed: int) -> enrichment.GeneratorOracle:
    oracle = config["oracle"]
    if oracle["kind"] == "http":
        return _http_oracle(oracle)
    return enrichment.StubNameGenerator(seed=seed)


def _http_oracle(oracle: dict) -> enrichment.HttpChatOracle:
    http = oracle["http"]
    if not http["endpoint"]:
        raise CommandError("oracle.http.endpoint is not configured")
    return enrichment.HttpChatOracle(enrichment.HttpOracleConfig(
        endpoint=http["endpoint"], model=http["model"],
        api_key_env=http["api_key_env"],
        timeout_seconds=http["timeout_seconds"],
        max_retries=http["max_retries"]))


def _load_alias_table(path: Path | None) -> extraction.NormalizationTable:
    if path is None:
        return extraction.NormalizationTable()
    return extraction.NormalizationTable.from_file(path)


def _split_inputs(splits_dir: Path, names: Sequence[str]) -> Files:
    return [("splits_dir", splits_dir / f"{name}.jsonl") for name in names]


# --- commands -------------------------------------------------------------

def cmd_extract(args, config: dict, seed: int, out_dir: Path) -> int:
    output = args.output or out_dir / "corpus.jsonl"
    stats_path = args.stats or out_dir / "extract_stats.json"
    taxonomy = load_taxonomy(args.taxonomy)
    table = _load_alias_table(args.aliases)
    records = extraction.read_affiliations(args.input)
    labeled, stats = extraction.build_labeled_corpus(records, table, taxonomy)
    write_records(output, labeled)
    write_json(stats_path, stats)
    _write_manifest(out_dir, "extract", config, seed,
                    [("input", args.input), ("taxonomy", args.taxonomy),
                     ("aliases", args.aliases)],
                    [("output", output), ("stats", stats_path)])
    print(f"extract: {stats.retained} records retained of {stats.raw} "
          f"({stats.ambiguous} ambiguous, {stats.unresolved} unresolved, "
          f"{stats.deduplicated} duplicates)")
    return 0


def cmd_split(args, config: dict, seed: int, out_dir: Path) -> int:
    split_cfg = config["split"]
    ratios = tuple(split_cfg["ratios"])
    split_dir = args.output_dir or out_dir / "splits"

    records = read_records(args.input, real_only=True)
    train, val, test = corpus_mod.split_corpus(
        records, corpus_mod.SplitConfig(ratios=ratios, seed=seed))
    train, removed = corpus_mod.enforce_no_leakage(train, val, test)
    splits = corpus_mod.CorpusSplits(train_oag=train, val_oag=val,
                                     test_oag=test)
    if not args.no_filter:
        splits.test_filter = corpus_mod.build_filtered_test(
            test, _make_validator(config, {r.label for r in test}),
            cap=split_cfg["filter_cap"], seed=seed)
    violations = corpus_mod.audit_splits(splits)
    if not corpus_mod.audit_is_clean(violations):
        _print_violations(violations)
        return 1
    written = splits.save(split_dir, seed=seed, ratios=ratios,
                          audit=violations)
    _write_manifest(out_dir, "split", config, seed, [("input", args.input)],
                    [("output_dir", p) for p in written])
    sizes = splits.sizes()
    print(f"split: train={sizes['train_oag']} val={sizes['val_oag']} "
          f"test={sizes['test_oag']} test_filter={sizes['test_filter']} "
          f"(leakage removals: {removed})")
    return 0


def cmd_augment(args, config: dict, seed: int, out_dir: Path) -> int:
    aug_cfg = config["augment"]
    ratios = tuple(aug_cfg["ratios"])
    splits_dir = args.splits_dir or out_dir / "splits"
    output_dir = args.output_dir or splits_dir

    if aug_cfg["gold_per_country"] <= 0:
        raise ValueError("gold_per_country must be positive")
    if not splits_dir.is_dir():
        raise CommandError(f"{splits_dir}: not a directory")
    counts, labels, taken = _scan_base_splits(splits_dir)
    if not counts:
        raise CommandError(f"{splits_dir}: no train_oag split found")
    budgets = enrichment.compute_budgets(
        counts, threshold=aug_cfg["threshold"], budget=aug_cfg["budget"],
        overrides=_by_label(aug_cfg["overrides"], "augment.overrides",
                            counts, "train_oag"))
    gold_budgets = [enrichment.AugmentBudget(c, aug_cfg["gold_per_country"])
                    for c in sorted(labels)]
    # `taken` holds the keys no synthetic name may take: the base names, then
    # each name a draw keeps. Both draws share it, so no name is drawn twice.
    # The base splits are read once for these keys and counts, keeping no
    # record, and again for their records only once `taken` (~550k keys at
    # paper shape) is dropped, so the records reuse its memory: augment's
    # peak is the draws, 76.8 MiB at paper shape against 91.9 MiB with the
    # base records held through them.
    generator = _make_generator(config, seed)
    synthetic = enrichment.collect_synthetic(
        budgets, generator, taken, chunk_size=aug_cfg["chunk_size"])
    gold = enrichment.collect_synthetic(
        gold_budgets, generator, taken, chunk_size=aug_cfg["chunk_size"])
    del taken
    base = corpus_mod.CorpusSplits.load(splits_dir, corpus_mod.BASE_SPLITS)
    missing: Counter = Counter()  # country -> names the generator fell short
    for draw_budgets, drawn in ((budgets, synthetic), (gold_budgets, gold)):
        for budget in draw_budgets:
            gap = budget.requested - len(drawn.get(budget.country, ()))
            if gap > 0:
                missing[budget.country] += gap
    # The synthetic records stay names: the bundle builds them as the audit
    # and the writes below walk it, a record at a time.
    n_synthetic = sum(map(len, synthetic.values()))
    base.test_gold = corpus_mod.Concatenated(*gold.values())
    synth_parts = corpus_mod.split_synthetic(
        synthetic, corpus_mod.SplitConfig(ratios=ratios, seed=seed))
    del synthetic, gold
    splits = corpus_mod.assemble_augmented_splits(base, *synth_parts)
    del synth_parts, base

    violations = corpus_mod.audit_splits(splits)
    if not corpus_mod.audit_is_clean(violations):
        _print_violations(violations)
        return 1
    written = splits.save(output_dir, seed=seed, ratios=ratios, audit=violations)
    _write_manifest(out_dir, "augment", config, seed,
                    _split_inputs(splits_dir, corpus_mod.BASE_SPLITS),
                    [("output_dir", p) for p in written])
    sizes = splits.sizes()
    print(f"augment: +{n_synthetic} synthetic -> "
          f"train_aug={sizes['train_aug']} val_aug={sizes['val_aug']} "
          f"test_filter_aug={sizes['test_filter_aug']} "
          f"test_gold={sizes['test_gold']} "
          f"(short: {len(missing)} countries, {missing.total()} names)")
    return 0


def _scan_base_splits(splits_dir: Path) -> tuple[Counter, set[str], set[str]]:
    """One pass over the base split files, keeping no record: train_oag's
    records per label, every base label, and every base name's key.

    The files are read in BASE_SPLITS order, as `CorpusSplits.load` reads
    them, so a malformed line fails with the same `error:` line.
    """
    files = _SplitFiles(splits_dir)
    counts: Counter = Counter()
    labels: set[str] = set()
    keys: set[str] = set()
    for split in corpus_mod.BASE_SPLITS:
        for record in files[split]:
            keys.add(record.key)
            labels.add(record.label)
            if split == "train_oag":
                counts[record.label] += 1
    return counts, labels, keys


def cmd_train(args, config: dict, seed: int, out_dir: Path) -> int:
    from . import classifier
    train_cfg = config["train"]
    splits_dir = args.splits_dir or out_dir / "splits"
    model_out = args.model_out or out_dir / "model.bin"
    log_out = args.log_out or out_dir / "train_log.jsonl"
    train_path = splits_dir / f"{args.train_split}.jsonl"
    val_path = splits_dir / f"{args.val_split}.jsonl"

    taxonomy = load_taxonomy(args.taxonomy)
    train_records = read_records(train_path)
    val_records = read_records(val_path)
    tokenizer = classifier.fit_tokenizer(train_records,
                                         max_len=train_cfg["max_len"])
    model, train_log = classifier.train(
        train_records, val_records, taxonomy,
        config=classifier.TrainConfig(
            learning_rate=train_cfg["learning_rate"],
            batch_size=train_cfg["batch_size"],
            max_epochs=train_cfg["max_epochs"],
            warmup_fraction=train_cfg["warmup_fraction"],
            patience=train_cfg["patience"],
            weight_decay=train_cfg["weight_decay"],
            seed=seed),
        model_config=classifier.ModelConfig(
            embedding_dim=train_cfg["embedding_dim"],
            hidden_dim=train_cfg["hidden_dim"]),
        tokenizer=tokenizer)
    classifier.save_model(model, model_out)
    with atomic_open(log_out) as fh:
        fh.write(train_log.to_jsonl())
    _write_manifest(out_dir, "train", config, seed,
                    [("splits_dir", train_path), ("splits_dir", val_path),
                     ("taxonomy", args.taxonomy)],
                    [("model_out", model_out), ("log_out", log_out)])
    last = train_log.epochs[-1]
    best = max(train_log.epochs, key=lambda e: e.val_macro_f1)
    print(f"train: {len(train_log.epochs)} epochs, best val macro-F1 "
          f"{best.val_macro_f1:.4f} at epoch {best.epoch} "
          f"(last train loss {last.train_loss:.4f})")
    return 0


def cmd_evaluate(args, config: dict, seed: int, out_dir: Path) -> int:
    from . import classifier, evaluation
    output = args.output or out_dir / "eval_report.json"
    model = classifier.load_model(args.model)
    records = read_records(args.input)
    predicted = model.predict_labels([r.full_name for r in records])
    pairs = list(zip((r.label for r in records), predicted))

    if args.mapping:
        if not args.target_taxonomy:
            raise CommandError("--mapping requires --target-taxonomy")
        target = load_taxonomy(args.target_taxonomy)
        mapping = load_mapping(args.mapping, model.taxonomy, target)
        report = evaluation.evaluate_mapped(pairs, mapping)
        taxonomy_name = target.name
    else:
        report = evaluation.evaluate(pairs, model.taxonomy)
        taxonomy_name = model.taxonomy.name

    payload = {"taxonomy": taxonomy_name, **dataclasses.asdict(report)}
    if args.train_split:
        counts = Counter(r.label for r in iter_records(args.train_split))
        buckets = evaluation.bucket_report(pairs, model.taxonomy, counts,
                                           threshold=args.bucket_threshold)
        payload["buckets"] = buckets
    write_json(output, payload)
    outputs = [("output", output)]
    if args.table:
        with atomic_open(args.table) as fh:
            fh.write(evaluation.render_eval_table(
                [(args.model_name, taxonomy_name, report)]))
        outputs.append(("table", args.table))
    _write_manifest(out_dir, f"evaluate_{taxonomy_name}", config, seed,
                    [("model", args.model), ("input", args.input),
                     ("mapping", args.mapping),
                     ("target_taxonomy", args.target_taxonomy),
                     ("train_split", args.train_split)],
                    outputs)
    print(f"evaluate[{taxonomy_name}]: accuracy={report.accuracy:.4f} "
          f"weighted_f1={report.weighted_f1:.4f} "
          f"macro_f1={report.macro_f1:.4f} n={report.n_records}")
    return 0


def cmd_bench(args, config: dict, seed: int, out_dir: Path) -> int:
    from . import classifier, engine
    bench_cfg = config["bench"]
    output = args.output or out_dir / "bench_report.json"
    model = classifier.load_model(args.model)
    names = engine.read_name_file(args.names)
    report = engine.benchmark(
        model,
        engine.BenchConfig(batch_sizes=tuple(bench_cfg["batch_sizes"]),
                           warmup_batches=bench_cfg["warmup_batches"],
                           repetitions=bench_cfg["repetitions"],
                           seed=seed),
        names, model_name=bench_cfg["model_name"],
        model_type=bench_cfg["model_type"],
        cost_per_million=bench_cfg["cost_per_million"])
    write_json(output, report)
    outputs = [("output", output)]
    if args.table:
        with atomic_open(args.table) as fh:
            fh.write(engine.render_throughput_table(report))
        outputs.append(("table", args.table))
    _write_manifest(out_dir, "bench", config, seed,
                    [("model", args.model), ("names", args.names)], outputs)
    for row in report.rows:
        print(f"bench: batch={row.batch_size} "
              f"throughput={row.throughput_names_per_second:.1f} names/s "
              f"latency={row.latency_ms_per_name:.4f} ms/name")
    return 0


def cmd_bias(args, config: dict, seed: int, out_dir: Path) -> int:
    from . import classifier, evaluation
    output = args.output or out_dir / "bias_report.json"
    model = classifier.load_model(args.model)
    target = load_taxonomy(args.target_taxonomy)
    mapping = load_mapping(args.mapping, model.taxonomy, target)
    records = _read_bias_records(args.records)
    report = evaluation.bias_report(records, model, mapping)
    write_json(output, report)
    _write_manifest(out_dir, "bias", config, seed,
                    [("model", args.model), ("records", args.records),
                     ("mapping", args.mapping),
                     ("target_taxonomy", args.target_taxonomy)],
                    [("output", output)])
    print(f"bias: {len(report.groups)} groups over {report.n_records} "
          f"records ({report.n_incorrect} incorrect)")
    return 0


def _bias_record(obj) -> tuple[str, str, bool]:
    require_json("line", obj, dict)
    gold, answered, correct = (obj["gold_name"], obj["answered_name"],
                               obj["correct"])
    require_json("gold_name", gold, str)
    require_json("answered_name", answered, str)
    require_json("correct", correct, bool)
    return gold, answered, correct


def _read_bias_records(path: Path) -> list[tuple[str, str, bool]]:
    return [record for _, record in read_jsonl(path, "bias record",
                                               _bias_record)]


class _SplitFiles:
    """The split files under a directory, read as a split is walked.

    Indexing returns a generator over the records of `<split>.jsonl` (an
    absent file is an empty split), read by `iter_records` and counted into
    `sizes` as they are yielded. Nothing else is kept, so `audit_splits`
    holds one chunk of a split's records at a time.
    """

    def __init__(self, splits_dir: Path) -> None:
        self.splits_dir = splits_dir
        self.sizes = dict.fromkeys(corpus_mod.SPLIT_NAMES, 0)

    def __getitem__(self, split: str) -> Iterator[NameRecord]:
        path = self.splits_dir / f"{split}.jsonl"
        if not path.exists():
            return
        for record in iter_records(path):
            self.sizes[split] += 1
            yield record


def cmd_audit(args, config: dict, seed: int, out_dir: Path) -> int:
    splits_dir = args.splits_dir or out_dir / "splits"
    output = args.output or out_dir / "audit_report.json"
    if not splits_dir.is_dir():
        raise CommandError(f"{splits_dir}: not a directory")
    splits = _SplitFiles(splits_dir)
    violations = corpus_mod.audit_splits(splits)
    clean = corpus_mod.audit_is_clean(violations)
    write_json(output, {"clean": clean, "violations": violations,
                         "sizes": splits.sizes})
    _write_manifest(out_dir, "audit", config, seed,
                    _split_inputs(splits_dir, corpus_mod.SPLIT_NAMES),
                    [("output", output)])
    if clean:
        print("audit: clean")
        return 0
    _print_violations(violations)
    return 1


def _print_violations(violations: dict[str, list[str]]) -> None:
    print("audit violations:", file=sys.stderr)
    for check, names in sorted(violations.items()):
        if names:
            shown = ", ".join(repr(n) for n in names[:5])
            more = f" (+{len(names) - 5} more)" if len(names) > 5 else ""
            print(f"  {check}: {shown}{more}", file=sys.stderr)


# --- argument parsing -----------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="namecountry",
        description="Name-to-nationality pipeline: label extraction, "
                    "leakage-safe splits, synthetic augmentation, training, "
                    "evaluation, and benchmarking.")
    parser.add_argument("--config", type=Path,
                        help="JSON config file; flags override its values")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out-dir", type=Path, default=Path("out"),
                        help="directory for default outputs and manifests")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="label an affiliation JSONL file")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--taxonomy", type=Path, required=True)
    p.add_argument("--aliases", type=Path)
    p.add_argument("--output", type=Path)
    p.add_argument("--stats", type=Path)
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("split", help="build train/val/test and test_filter")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--output-dir", type=Path)
    p.add_argument("--no-filter", action="store_true",
                   help="skip the oracle-screened test_filter")
    p.set_defaults(handler=cmd_split)

    p = sub.add_parser("augment", help="add synthetic names for tail countries")
    p.add_argument("--splits-dir", type=Path)
    p.add_argument("--output-dir", type=Path)
    p.set_defaults(handler=cmd_augment)

    p = sub.add_parser("train", help="train the classifier on a split")
    p.add_argument("--splits-dir", type=Path)
    p.add_argument("--train-split", default="train_aug")
    p.add_argument("--val-split", default="val_aug")
    p.add_argument("--taxonomy", type=Path, required=True)
    p.add_argument("--model-out", type=Path)
    p.add_argument("--log-out", type=Path)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", help="score a split, optionally mapped")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--output", type=Path)
    p.add_argument("--mapping", type=Path)
    p.add_argument("--target-taxonomy", type=Path)
    p.add_argument("--train-split", type=Path,
                   help="training split for head/tail bucket metrics")
    p.add_argument("--bucket-threshold", type=int, default=6000)
    p.add_argument("--table", type=Path)
    p.add_argument("--model-name", default="namecountry")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("bench", help="benchmark batch scoring throughput")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--names", type=Path, required=True)
    p.add_argument("--output", type=Path)
    p.add_argument("--table", type=Path)
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("bias", help="group accuracy and answer distributions")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--records", type=Path, required=True)
    p.add_argument("--mapping", type=Path, required=True)
    p.add_argument("--target-taxonomy", type=Path, required=True)
    p.add_argument("--output", type=Path)
    p.set_defaults(handler=cmd_bias)

    p = sub.add_parser("audit", help="scan split files for leakage violations")
    p.add_argument("--splits-dir", type=Path)
    p.add_argument("--output", type=Path)
    p.set_defaults(handler=cmd_audit)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        config = load_config(args.config)
        seed = args.seed if args.seed is not None else config["seed"]
        config["seed"] = seed
        out_dir = args.out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return args.handler(args, config, seed, out_dir)
        finally:
            if gc_was_enabled:
                gc.enable()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
