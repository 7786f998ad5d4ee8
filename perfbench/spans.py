"""Spans around calls into the package, installed from the benchmark's side.

A wrapper goes on the name the caller looks up. `cli` and `corpus` bind
`read_records`, `write_records` and `load_taxonomy` from `core` at import,
and `classifier` binds `evaluate` from `evaluation`, so those bindings are
patched in the importing module; methods are patched on their class. The
package's source is not touched.

Spans (run id, name, start, end, parent) stay in memory and are written once,
when the traced process is done. A wrapper whose target has been renamed
fails at install (`getattr` raises), and one that never fires fails the
traced run, so a rename cannot silently zero a layer.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "extraction", "core", "corpus", "enrichment", "classifier",
          "evaluation")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.fired: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount) -> None:
        self.counts[key] += amount

    def _key(self, owner, attr: str) -> str:
        prefix = getattr(owner, "__module__", None)  # None for a module
        return ".".join(p for p in (prefix, owner.__name__, attr) if p)

    def wrap(self, owner, attr: str, name, after=None, on_error=None) -> None:
        """Replace `owner.attr` with a timed wrapper.

        `name` is a span name or a function of the call's positional
        arguments; `after(args, result)` and `on_error(exc)` update counts.
        """
        original = getattr(owner, attr)
        key = self._key(owner, attr)
        self.fired[key] += 0
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.fired[key] += 1
            index = tracer._open(name(args) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                tracer._close(index)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def wrap_iterator(self, owner, attr: str, name: str) -> None:
        """Like `wrap`, for a function returning an iterator: each `next` is a span."""
        original = getattr(owner, attr)
        key = self._key(owner, attr)
        self.fired[key] += 0
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.fired[key] += 1
            iterator = iter(original(*args, **kwargs))

            def timed():
                while True:
                    index = tracer._open(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                    yield item

            return timed()

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def dump(self, path: Path, wall_s: float | None = None) -> None:
        """Write the run's counters (and its wall time, if given), then its spans."""
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": self.run_id, "wall_s": wall_s,
                                 "fired": dict(self.fired),
                                 "counts": dict(self.counts)}) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([self.run_id, name, start, end, parent]) + "\n")


def install_data(tracer: Tracer) -> None:
    """Wrappers for one `namecountry` CLI stage of the data chain."""
    from namecountry import cli, corpus, enrichment, extraction

    t = tracer
    for module in (cli, corpus):
        t.wrap(module, "read_records", "core.read_records",
               after=lambda a, r: t.count("core.read_records.records", len(r)))
        t.wrap(module, "write_records", "core.write_records",
               after=lambda a, r: t.count("core.write_records.records", r))
    t.wrap(cli, "load_taxonomy", "core.load_taxonomy")

    def extraction_stats(args, result):
        for field, value in result[1].to_dict().items():
            t.count(f"extraction.{field}", value)

    t.wrap_iterator(extraction, "read_affiliations", "extraction.read_affiliations")
    t.wrap(extraction, "build_labeled_corpus", "extraction.build_labeled_corpus",
           after=extraction_stats)

    def leakage(exc):
        if isinstance(exc, corpus.LeakageError):
            t.count("corpus.leakage_errors", 1)

    def filtered(args, result):
        t.count("corpus.build_filtered_test.candidates", len(args[0]))
        t.count("corpus.build_filtered_test.kept", len(result))

    t.wrap(corpus, "split_corpus", "corpus.split_corpus")
    t.wrap(corpus, "enforce_no_leakage", "corpus.enforce_no_leakage",
           after=lambda a, r: t.count("corpus.enforce_no_leakage.removed", r[1]))
    t.wrap(corpus, "build_filtered_test", "corpus.build_filtered_test",
           after=filtered)
    t.wrap(corpus, "assemble_augmented_splits", "corpus.assemble_augmented_splits",
           on_error=leakage)
    t.wrap(corpus, "audit_splits", "corpus.audit_splits")

    def synthetic(args, result):
        budgets = args[0]
        t.count("enrichment.names_requested", sum(b.requested for b in budgets))
        t.count("enrichment.names_kept", sum(len(v) for v in result.values()))
        t.count("enrichment.countries_short", sum(
            1 for b in budgets
            if b.requested and len(result.get(b.country, ())) < b.requested))
        countries_by_key = defaultdict(set)
        for country, records in result.items():
            for record in records:
                countries_by_key[record.key].add(country)
        t.count("enrichment.cross_country_duplicates",
             sum(1 for c in countries_by_key.values() if len(c) > 1))

    t.wrap(enrichment, "collect_synthetic", "enrichment.collect_synthetic",
           after=synthetic)
    t.wrap(enrichment.StubNameGenerator, "generate", "enrichment.generate",
           after=lambda a, r: t.count("enrichment.names_generated", len(r)))
    t.wrap(enrichment.StubNameValidator, "judge", "enrichment.judge")


def install_model(tracer: Tracer, workload: str) -> None:
    """Wrappers for the train or score workload, which run in-process."""
    from namecountry import classifier, core

    t = tracer

    def scored(args, result):
        # The (batch, hidden, classes) head temporary, computed from the
        # shapes of the call (not measured).
        params, x = args
        batch = x.shape[0]
        t.count(f"classifier.score_batch.b{batch}.names", batch)
        temp = (batch * params["conv_b"].shape[0] * params["head_b"].shape[0]
                * params["embedding"].dtype.itemsize)
        key = f"classifier.score_batch.b{batch}.temp_bytes"
        t.counts[key] = max(t.counts[key], temp)

    t.wrap(core, "read_records", "core.read_records",
           after=lambda a, r: t.count("core.read_records.records", len(r)))
    t.wrap(classifier.Tokenizer, "encode_batch",
           lambda a: f"classifier.encode_batch.b{len(a[1])}")
    t.wrap(classifier, "score_batch",
           lambda a: f"classifier.score_batch.b{a[1].shape[0]}", after=scored)
    if workload == "score_paper99":
        t.wrap(classifier, "load_model", "classifier.load_model")
        return
    t.wrap(core, "load_taxonomy", "core.load_taxonomy")
    t.wrap(classifier, "fit_tokenizer", "classifier.fit_tokenizer")
    t.wrap(classifier, "train", "classifier.train")
    t.wrap(classifier, "loss_and_grads", "classifier.loss_and_grads")
    t.wrap(classifier.AdamW, "step", "classifier.AdamW.step")
    t.wrap(classifier.ClassifierModel, "predict_labels", "classifier.predict_labels")
    t.wrap(classifier, "evaluate", "evaluation.evaluate")


# --- reading traces back ----------------------------------------------------

class Summary:
    """Totals over the span files of one traced workload run."""

    def __init__(self):
        self.total_s: Counter = Counter()  # span name -> summed duration
        self.self_s: Counter = Counter()   # span name -> summed self time
        self.calls: Counter = Counter()
        self.fired: Counter = Counter()
        self.counts: Counter = Counter()
        self.top_level_s: dict[str, float] = {}  # run id -> covered time
        self.wall_s: dict[str, float] = {}  # run id -> traced process wall

    def add_file(self, path: Path) -> None:
        with path.open(encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            spans = [json.loads(line) for line in fh]
        self.fired.update(header["fired"])
        self.counts.update(header["counts"])
        child_s = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent is not None:
                child_s[parent] += end - start
        top = 0.0
        for i, (_, name, start, end, parent) in enumerate(spans):
            duration = end - start
            self.total_s[name] += duration
            self.self_s[name] += duration - child_s[i]
            self.calls[name] += 1
            if parent is None:
                top += duration
        self.top_level_s[header["run"]] = top
        if header["wall_s"] is not None:
            self.wall_s[header["run"]] = header["wall_s"]

    def never_fired(self) -> list[str]:
        return sorted(key for key, n in self.fired.items() if n == 0)

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return out
