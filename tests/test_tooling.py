"""Source guards: one atomic writer, one reader per input format, one record
encoder, one report serializer, one retry loop, one leakage check, one
switch of the garbage collector, one exit rule for bad input and one
classifier forward pass in the package, none of the constructs its kernels
and bench were rid of, every package name the bench's tracer wraps (and
its data hooks run on the fixture chain), and no export that only tests
use."""
import ast
import functools
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


def test_one_collector_switch():
    # cli.main runs a command's handler with the cyclic collector off and
    # puts its state back; nothing else in the package touches it.
    assert where("gc.disable(") == ["cli.py"]


def test_one_exit_rule():
    # cli.main turns an OSError or ValueError into exit 2 by its class
    # alone, so every exception the package defines is a ValueError and no
    # other module catches that pair.
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
    # ReLU over the convolution and one per-row segment sum in the package.
    assert where("np.add.reduceat(") == ["classifier.py"]
    assert where("np.maximum(hidden, 0") == ["classifier.py"]


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


def test_bench_data_hooks_run_on_the_fixture_chain(tmp_path, capsys):
    """The data chain at fixture scale under perfbench's data wrappers:
    every wrapper fires and no hook raises. The hooks read what the package
    returns (`record.key` on `collect_synthetic`'s records,
    `ExtractionStats.to_dict`, `enforce_no_leakage`'s removed count), so a
    change to those results fails here, not only in a traced bench run."""
    from namecountry import cli, fixtures
    fx, out = tmp_path / "fx", tmp_path / "out"
    fixtures.write_fixture_tree(fx)
    spans = _perfbench_spans()
    tracer = spans.Tracer("tooling")
    try:
        spans.install_data(tracer)
        for stage, *args in [
                ("extract", "--input", fx / "affiliations.jsonl",
                 "--taxonomy", fx / "taxonomy_fixture4.txt",
                 "--aliases", fx / "aliases_fixture.tsv"),
                ("split", "--input", out / "corpus.jsonl"),
                ("augment",), ("audit",)]:
            code = cli.main(["--config", str(fx / "pipeline.json"),
                             "--out-dir", str(out), stage, *map(str, args)])
            assert code == 0, (stage, capsys.readouterr().err)
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


def test_every_export_is_used():
    # A package export that only tests call is either wired in or deleted.
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    paths = [p for p in sorted(PACKAGE.glob("*.py"))
             if p.name not in ("__init__.py", "fixtures.py")]
    used = set().union(*map(_used_names, paths + sorted(bench.glob("*.py"))))
    assert sorted(set(namecountry.__all__) - used) == []
