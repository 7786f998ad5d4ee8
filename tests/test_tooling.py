"""Source guards: one atomic writer, one reader per input format, one record
encoder, one report serializer, one retry loop, one leakage check, one
split directory format, one switch of the garbage collector, one exit rule
for bad input, one classifier forward pass and one scoring walk for
evaluation in the package, no import of the classifier by evaluation,
none of the constructs its kernels and bench were rid of, every package
name the bench's tracer wraps (and every wrapper fires on fixture data),
the bytes the fixture chain writes, no module-level name that only tests
use, no private name taken from another module, a README layout that lists
every module, and a README library example that runs."""
import ast
import functools
import hashlib
import importlib
import importlib.util
from pathlib import Path

import namecountry

PACKAGE = Path(namecountry.__file__).parent


SOURCES = {path.name: path.read_text(encoding="utf-8")
           for path in sorted(PACKAGE.glob("*.py"))}


def where(needle):
    return [name for name, text in SOURCES.items()
            for _ in range(text.count(needle))]


def test_one_writer_and_one_retry_loop():
    assert where("os.replace(") == ["core.py"]  # in core.atomic_open
    assert where("time.sleep(") == ["enrichment.py"]  # in HttpChatOracle
    direct = where(".write_text(") + where(".write_bytes(") + where('.open("w"')
    assert direct == [], "write files through core.atomic_open"


def test_one_reader_per_input_format():
    assert where("json.loads(line)") == ["core.py"]  # core.read_jsonl's fallback
    assert where('.split("\\t")') == ["core.py"]  # in core.read_table
    # Every text file is opened by core.open_text, inside core's readers.
    assert set(where("open_text(")) == {"core.py"}


def test_one_record_encoder():
    # core.write_records builds each line from json's own string encoder.
    assert where("encode_basestring") == ["core.py"]


def test_one_report_serializer():
    # core.write_json writes a report's dataclass as its fields; the two
    # to_dict methods left are one-line asdict calls the bench relies on.
    assert where("def to_dict") == ["classifier.py", "extraction.py"]


def test_one_leakage_check():
    # Train/evaluation overlap is named only in corpus.audit_splits.
    assert where("_vs_") == ["corpus.py"]
    assert where("LeakageError") == []


def test_one_split_directory_format():
    # corpus.SplitFiles names every split file, CorpusSplits.save audits the
    # bundle before it writes one, and the audit command is the other audit.
    assert where('}.jsonl"') == ["corpus.py"]
    assert where("audit_splits(") == ["cli.py", "corpus.py", "corpus.py"]
    assert where("_SplitFiles") == where("read_split") == []


def test_one_collector_switch():
    # cli.main runs a command's handler with the cyclic collector off and
    # puts its state back; nothing else in the package touches it.
    assert where("gc.disable(") == ["cli.py"]


def test_one_exit_rule():
    # cli.main decides every exit code by the class of what a handler
    # raises: an UncleanSplitsError is exit 1, after main prints its
    # violations, and any other OSError or ValueError exit 2. So every
    # exception the package defines is a ValueError, no other module catches
    # that pair, and no handler returns a value.
    functions = {node.name: node for node in ast.parse(SOURCES["cli.py"]).body
                 if isinstance(node, ast.FunctionDef)}
    handlers = [name for name in functions if name.startswith("cmd_")]
    assert len(handlers) == 8
    for name in handlers:
        assert not [node for node in ast.walk(functions[name])
                    if isinstance(node, ast.Return) and node.value], name
    assert [name for name, function in functions.items()
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_print_violations"] == [
        "main"]
    exits = {ast.unparse(node.type): ret.value.value
             for node in ast.walk(functions["main"])
             if isinstance(node, ast.ExceptHandler)
             for ret in node.body if isinstance(ret, ast.Return)}
    assert exits == {"corpus_mod.UncleanSplitsError": 1,
                     "(OSError, ValueError)": 2}
    assert where("return 1") == ["cli.py"]  # in main's UncleanSplitsError arm
    errors = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"namecountry.{path.stem}")
        for node in ast.parse(SOURCES[path.name]).body:
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name)
                if issubclass(cls, BaseException):
                    errors.append(cls)
                    assert issubclass(cls, ValueError), cls
    assert len(errors) >= 10
    assert where("except (OSError, ValueError)") == ["cli.py"]


def test_no_scatter_add_or_thread_pool():
    # The embedding gradient is a 0/1 indicator matmul, not an unbuffered
    # scatter; scoring is single-threaded, with no thread-pool path.
    assert where(".add.at(") == []
    assert where("ThreadPoolExecutor") == []


def test_one_forward_pass():
    # Training and scoring share one conv-pool (classifier._conv_pool): one
    # ReLU over the convolution and one position-order slab add that sums
    # each row from zero, whether the slab is a run of cells or gathered
    # from distinct triples; no reduceat, whose pairwise order is numpy's.
    assert where("np.add.reduceat(") == []
    assert where("np.add(total, slab, total)") == ["classifier.py"]
    assert where("np.maximum(hidden, 0") == ["classifier.py"]


def test_one_scoring_walk_for_evaluation():
    # Metrics read a confusion matrix that ClassifierModel.confusion counts;
    # the one other caller of predict_labels is bias_report's single call.
    assert where("predict_labels(") == ["classifier.py", "classifier.py",
                                        "evaluation.py"]
    assert where("evaluate_mapped") == []


def test_evaluation_does_not_import_the_classifier():
    # classifier imports evaluation, so the reports and the benchmark take
    # any model with the method they call instead.
    tree = ast.parse(SOURCES["evaluation.py"])
    imported = [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names]
    assert [name for name in imported if "classifier" in name] == []


def test_readme_layout_lists_every_module():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split(
        "\n## Layout\n")[1].split("```")[1]
    listed = [line.split()[0] for line in block.splitlines()
              if line.startswith("  ")]
    assert sorted(listed) == sorted(set(SOURCES) - {"__init__.py"})


def _private_imports(path):
    """`module._name` for each private name the module at `path` takes from
    another package module: by `from .module import _name`, or as an
    attribute of a package module it imported."""
    found = []
    modules = {}  # local name -> package module it is bound to
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and node.module is None:  # from . import corpus
            modules.update((a.asname or a.name, a.name) for a in node.names)
            continue
        if node.level == 1 or (node.module or "").startswith("namecountry."):
            module = node.module.rpartition(".")[2]
            found += [f"{module}.{a.name}" for a in node.names
                      if a.name.startswith("_")]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


def test_no_private_cross_module_imports():
    # A module's `_name` is its own: another module that needs it gets a
    # public name, so what a module offers the rest of the package shows.
    found = {path.stem: _private_imports(path)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} == {}


def _perfbench_spans():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_bench_trace_targets_exist():
    """perfbench's tracer wraps package names by string; installing every
    workload's wrappers fails here, not only in a traced bench run, when one
    of those names is renamed away."""
    spans = _perfbench_spans()
    installs = [spans.install_data,
                *(functools.partial(spans.install_model, workload=w)
                  for w in ("train_paper99", "score_paper99"))]
    for install in installs:
        tracer = spans.Tracer("tooling")
        try:
            install(tracer)
        finally:
            wrapped = list(tracer._installed)
            tracer.uninstall()
        assert wrapped and all(n == 0 for n in tracer.fired.values())
        for owner, attr, original in wrapped:
            assert getattr(owner, attr) is original, (owner, attr)


def _run_fixture_data_chain(tmp_path, capsys):
    """extract -> split -> augment -> audit on the fixture tree, each stage
    exiting 0; returns the out directory."""
    from namecountry import cli, fixtures
    fx, out = tmp_path / "fx", tmp_path / "out"
    fixtures.write_fixture_tree(fx)
    for stage, *args in [
            ("extract", "--input", fx / "affiliations.jsonl",
             "--taxonomy", fx / "taxonomy_fixture4.txt",
             "--aliases", fx / "aliases_fixture.tsv"),
            ("split", "--input", out / "corpus.jsonl"),
            ("augment",), ("audit",)]:
        code = cli.main(["--config", str(fx / "pipeline.json"),
                         "--out-dir", str(out), stage, *map(str, args)])
        assert code == 0, (stage, capsys.readouterr().err)
    return out


def test_bench_data_hooks_run_on_the_fixture_chain(tmp_path, capsys):
    """The data chain at fixture scale under perfbench's data wrappers:
    every wrapper fires and no hook raises. The hooks read what the package
    returns (`record.key` on `collect_synthetic`'s records,
    `ExtractionStats.to_dict`, `enforce_no_leakage`'s removed count), so a
    change to those results fails here, not only in a traced bench run."""
    spans = _perfbench_spans()
    tracer = spans.Tracer("tooling")
    try:
        spans.install_data(tracer)
        _run_fixture_data_chain(tmp_path, capsys)
    finally:
        tracer.uninstall()
    assert tracer.fired and min(tracer.fired.values()) > 0, tracer.fired
    counts = tracer.counts
    # 4 countries x (120 synthetic + 20 test_gold), none short.
    assert counts["enrichment.names_requested"] == 560
    assert counts["enrichment.names_kept"] == 560
    assert counts["enrichment.countries_short"] == 0
    assert counts["enrichment.cross_country_duplicates"] == 0
    assert counts["extraction.raw"] == counts["extraction.retained"] == 600
    assert counts.get("corpus.enforce_no_leakage.removed") == 0


def test_bench_model_hooks_run_on_fixture_records(tmp_path):
    """perfbench's train_paper99 wrappers around a tiny load_taxonomy /
    read_records / fit_tokenizer / train run, and its score_paper99 wrappers
    around load_model, read_records and predict_batch at batch 1 and 100:
    every wrapper fires, and `AdamW.step` and `loss_and_grads` once per
    training step, so a classifier change that stops calling one through
    the name the tracer wraps fails here, not only in a traced bench run."""
    from namecountry import classifier, core, fixtures
    spans = _perfbench_spans()
    taxonomy_path = tmp_path / "taxonomy.txt"
    taxonomy_path.write_text("".join(
        f"{label}\n" for label in sorted(fixtures.DISJOINT_ALPHABETS)))
    for split, per_country, seed in (("train", 20, 0), ("val", 30, 1)):
        core.write_records(tmp_path / f"{split}.jsonl",
                           fixtures.make_disjoint_corpus(per_country, seed))
    config = classifier.TrainConfig(learning_rate=0.005, batch_size=16,
                                    max_epochs=2, patience=2)

    tracer = spans.Tracer("tooling-train")
    try:
        spans.install_model(tracer, "train_paper99")
        taxonomy = core.load_taxonomy(taxonomy_path)
        train_set = core.read_records(tmp_path / "train.jsonl")
        val_set = core.read_records(tmp_path / "val.jsonl")
        tokenizer = classifier.fit_tokenizer(train_set)
        model, _ = classifier.train(train_set, val_set, taxonomy, config,
                                    classifier.ModelConfig(8, 12),
                                    tokenizer=tokenizer)
    finally:
        tracer.uninstall()
    assert len(tracer.fired) == 10
    assert min(tracer.fired.values()) > 0, tracer.fired
    steps = 2 * 5  # epochs x ceil(80 names / 16)
    assert tracer.fired["namecountry.classifier.AdamW.step"] == steps
    assert tracer.fired["namecountry.classifier.loss_and_grads"] == steps

    classifier.save_model(model, tmp_path / "model.bin")
    tracer = spans.Tracer("tooling-score")
    try:
        spans.install_model(tracer, "score_paper99")
        model = classifier.load_model(tmp_path / "model.bin")
        names = [r.full_name for r in core.read_records(tmp_path / "val.jsonl")]
        for batch in (1, 100):
            model.predict_batch(names[:batch])
    finally:
        tracer.uninstall()
    assert len(tracer.fired) == 4
    assert min(tracer.fired.values()) > 0, tracer.fired
    assert tracer.counts["classifier.score_batch.b1.names"] == 1
    assert tracer.counts["classifier.score_batch.b100.names"] == 100


# SHA-256 of every file the fixture extract -> split -> augment -> audit
# chain writes, except the manifests under manifests/, which carry the config
# hash. test_criterion_11 compares two runs with each other, so only these
# pins catch a change that moves the chain's bytes the same way every run.
FIXTURE_CHAIN_DIGESTS = {
    "corpus.jsonl":
        "c3cbe1440aecef9e44615c10c8186a8d11dd229ba5ae2931ff728e4296b48626",
    "splits/manifest.json":
        "e27d860770b039cecdfad4d1b050bf9b2d0f304ef78772034227e422f1293f3a",
    "splits/test_filter.jsonl":
        "4028bfcb0765b71a45c2b2a13381d20e2bec429801bf2997a91d459023d1b296",
    "splits/test_filter_aug.jsonl":
        "83c62b99c99a1e3f2e80958e98332e2a3b2514da7a1f1bd79f08ab102ff47c57",
    "splits/test_gold.jsonl":
        "4c15c8b4f6fabd9367060d0b1d530cccf6f30caa1d8b65af8665d7cc4e9d60db",
    "splits/test_oag.jsonl":
        "a22947841f74cd12f3b139a58407a980737f8c1972404cfc53cdf4d7f5328faa",
    "splits/train_aug.jsonl":
        "31897db60feb072682fb28cf125b14bb49d4196e3a76fad2cffd0fc01b572dc0",
    "splits/train_oag.jsonl":
        "7f2a1ef3d91a092678fd7528f8a1a40a7931972f79666d2b3e07700beb9331e0",
    "splits/val_aug.jsonl":
        "6242ef1fe619691a3b8f5dac3aa5c683b66a2bf631f30fa02b81728c7b6acd89",
    "splits/val_oag.jsonl":
        "dbbd2accc7671e546f1a3df466287a5f0bf37bdc39ad9c59977fe7a0f73df91a",
    "audit_report.json":
        "efe49636662bbef9f78327c52795dedb80a0a3bf35d31990e53476227f75b1fe",
}


def test_fixture_data_chain_writes_the_pinned_bytes(tmp_path, capsys):
    out = _run_fixture_data_chain(tmp_path, capsys)
    files = [out / "corpus.jsonl", *(out / "splits").iterdir(),
             out / "audit_report.json"]
    assert {p.relative_to(out).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files} == FIXTURE_CHAIN_DIGESTS


# SHA-256 of what `train` writes on that chain's splits under the fixture
# config. train pins one OpenBLAS thread, so these hold at any
# OPENBLAS_NUM_THREADS, but they are host-specific, as README's BLAS note
# says: another BLAS or CPU family may round the products differently.
FIXTURE_TRAIN_DIGESTS = {
    "model.bin":
        "d67844722d7dac4a239e6968173ad0c9dff783926004f4ae9cb8566daa42f2e8",
    "train_log.jsonl":
        "a039f7a67ed8f51fccd3c55978fe59afaf847ee4466542641471a9ea8401baed",
}


def test_fixture_chain_train_writes_the_pinned_bytes(tmp_path, capsys):
    from namecountry import cli
    out = _run_fixture_data_chain(tmp_path, capsys)
    fx = tmp_path / "fx"
    code = cli.main(["--config", str(fx / "pipeline.json"),
                     "--out-dir", str(out), "train",
                     "--taxonomy", str(fx / "taxonomy_fixture4.txt")])
    assert code == 0, capsys.readouterr().err
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in FIXTURE_TRAIN_DIGESTS} == FIXTURE_TRAIN_DIGESTS


def _used_names(path):
    """Names a module's code loads: not its definitions, imports, comments
    or docstrings."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
    return used


def _defined_names(path):
    """A module's public functions, classes and constants."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign):
            yield node.target.id


def test_every_module_level_name_is_used():
    # A name that only tests load is either wired in or deleted. fixtures.py
    # builds test and demo data, so it neither counts as a use nor is held
    # to the rule.
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "fixtures.py"]
    used = set().union(*map(_used_names, paths + sorted(bench.glob("*.py"))))
    unused = [f"{path.name}:{name}" for path in paths
              for name in _defined_names(path)
              if not name.startswith("_") and name not in used]
    assert unused == []


def test_readme_library_example_runs(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "\n## Library use\n")[1].split("\n## ")[0]
    example = section.split("```python\n")[1].split("```")[0]
    exec(compile(example, "README.md", "exec"), {})
    macro_f1 = float(capsys.readouterr().out)
    assert 0.0 <= macro_f1 <= 1.0
