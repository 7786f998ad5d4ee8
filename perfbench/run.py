"""Paper-scale benchmark for namecountry: the data chain, training and scoring.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Inputs are built offline from `--seed` (see gen.py). Each workload runs in
child processes of its own, started with `src/` on PYTHONPATH, so the
package is used from source. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the workload is run once
untraced and once traced and the metrics are the per-layer ones. Workloads,
metrics and the layer map are described in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "namecountry" / "data"
WORK_ROOT = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"

WORKLOADS = ("data_paper99", "train_paper99", "score_paper99")
STAGES = ("extract", "split", "augment", "audit")
SETUP_PROBES = 3
# A chain takes about 20 s on a 2-core machine; two per run halve the effect
# of the machine's own speed swings on the median.
MIN_CHAINS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150

# Metrics every workload reports (trace 0), and what each means per workload.
END_TO_END = (("setup_s", "s"), ("throughput_per_s", "1/s"),
              ("peak_rss_mib", "MiB"))
THROUGHPUT_OF = {"data_paper99": "data_records_per_s",
                 "train_paper99": "train_names_per_s",
                 "score_paper99": "score_b10000_names_per_s"}
# peak_rss_mib is data_peak_rss_mib, train_peak_rss_mib, and for scoring the
# scoring process's peak (its set-up RSS plus score_rss_growth_mib).

# The workload's own metrics, printed on every run.
WORKLOAD_METRICS = {
    "data_paper99": (("setup_s", "s"), ("data_records_per_s", "1/s"),
                     ("augment_names_per_s", "1/s"), ("data_peak_rss_mib", "MiB")),
    "train_paper99": (("setup_s", "s"), ("train_names_per_s", "1/s"),
                      ("train_val_macro_f1", "ratio"),
                      ("train_peak_rss_mib", "MiB")),
    "score_paper99": (("setup_s", "s"), ("score_b1_p50_ms", "ms"),
                      ("score_b1_p99_ms", "ms"), ("score_b100_names_per_s", "1/s"),
                      ("score_b10000_names_per_s", "1/s"),
                      ("score_rss_growth_mib", "MiB")),
}


def per_layer_catalog() -> list[tuple[str, str]]:
    """Every per-layer metric (trace 1), with its unit, in report order."""
    out = []
    for stage in STAGES:
        out += [(f"cli.{stage}.wall_s", "s"), (f"cli.{stage}.peak_rss_mib", "MiB"),
                (f"cli.{stage}.self_s", "s")]
    out += [("extraction.read_affiliations.s", "s"),
            ("extraction.build_labeled_corpus.s", "s")]
    out += [(f"extraction.{k}", "count") for k in
            ("raw", "retained", "ambiguous", "unresolved", "deduplicated")]
    out += [("core.read_records.s", "s"), ("core.read_records.records", "count"),
            ("core.write_records.s", "s"), ("core.write_records.records", "count"),
            ("corpus.split_corpus.s", "s"), ("corpus.enforce_no_leakage.s", "s"),
            ("corpus.enforce_no_leakage.removed", "count"),
            ("corpus.build_filtered_test.s", "s"),
            ("corpus.build_filtered_test.kept_ratio", "ratio"),
            ("corpus.assemble_augmented_splits.s", "s"),
            ("corpus.audit_splits.s", "s"), ("corpus.leakage_errors", "count"),
            ("enrichment.collect_synthetic.s", "s"),
            ("enrichment.collect_synthetic.self_s", "s"),
            ("enrichment.generate.calls", "count"), ("enrichment.generate.s", "s"),
            ("enrichment.names_requested", "count"),
            ("enrichment.names_generated", "count"),
            ("enrichment.names_kept", "count"), ("enrichment.keep_ratio", "ratio"),
            ("enrichment.countries_short", "count"),
            ("enrichment.cross_country_duplicates", "count"),
            ("enrichment.judge.calls", "count"), ("enrichment.judge.s", "s"),
            ("classifier.loss_and_grads.s", "s"),
            ("classifier.loss_and_grads.calls", "count"),
            ("classifier.loss_and_grads.ms_per_step", "ms"),
            ("classifier.AdamW.step.s", "s"), ("classifier.AdamW.step.calls", "count"),
            ("classifier.train.self_s", "s"), ("classifier.predict_labels.s", "s"),
            ("evaluation.evaluate.s", "s")]
    for b in (1, 100, 10000):
        out.append((f"classifier.encode_batch.b{b}.s", "s"))
    for b in (1, 100, 10000):
        out += [(f"classifier.score_batch.b{b}.s", "s"),
                (f"classifier.score_batch.b{b}.names", "count")]
    out += [("classifier.score_batch.b10000.temp_bytes", "bytes"),
            ("classifier.load_model.s", "s")]
    out += [(f"{layer}.self_s", "s") for layer in
            ("cli", "extraction", "core", "corpus", "enrichment", "classifier",
             "evaluation")]
    out += [("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
            ("trace.overhead_s", "s")]
    return out


class BenchError(Exception):
    """The benchmark cannot produce a result; no result line is printed."""


# --- environment and processes ---------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass(frozen=True)
class Finished:
    """One finished child: exit code, wall time, own peak RSS, output."""

    code: int
    wall_s: float
    peak_rss_mib: float
    stdout: str
    stderr: str

    def json(self) -> dict:
        if self.code != 0:
            raise BenchError(f"child exited {self.code}: {self.stderr.strip()[-2000:]}")
        return json.loads(self.stdout.strip().splitlines()[-1])

    def error_line(self) -> str:
        lines = [l for l in self.stderr.splitlines() if l.strip()]
        errors = [l for l in lines if l.startswith("error:")]
        return (errors or lines or [""])[-1][:400]


def spawn(cmd: list[str], logs: Path) -> Finished:
    """Run `cmd` to completion; wall and peak RSS come from its own rusage.

    The parent blocks instead of polling, so it takes no CPU from the child.
    The child is waited for without being reaped first, so the time-out can
    never signal a reused pid.
    """
    out_path, err_path = logs.with_suffix(".out"), logs.with_suffix(".err")
    with out_path.open("w") as out, err_path.open("w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if wall >= CHILD_TIMEOUT_S:
        raise BenchError(f"killed after {CHILD_TIMEOUT_S} s: {' '.join(cmd)}")
    return Finished(proc.returncode, wall, usage.ru_maxrss / 1024,
                    out_path.read_text(), err_path.read_text())


def blas_threads() -> str:
    import numpy
    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                           "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas_threads": blas_threads(), "numpy": numpy.__version__,
            "python": platform.python_version()}


# --- inputs -------------------------------------------------------------------

def make_inputs(workload: str, work: Path, seed: int) -> dict:
    import gen
    labels = gen.read_labels(DATA / "taxonomy_oag99.txt")
    if workload == "score_paper99":
        return gen.write_score_inputs(work, labels, seed)
    corpus = gen.labeled_corpus(labels, seed)
    if workload == "train_paper99":
        return gen.write_train_split(work, corpus, seed)
    aliases = gen.read_aliases(DATA / "aliases.tsv")
    return gen.write_affiliations(work / "affiliations.jsonl", corpus, aliases, seed)


def setup_probes(workload: str, work: Path) -> list[float]:
    """Start-up to the first timed operation, each in a fresh process."""
    samples = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(CHILD), "setup", workload, str(work),
               repr(monotonic())]
        samples.append(spawn(cmd, work / f"setup{i}").json()["setup_s"])
    return samples


# --- data_paper99 -------------------------------------------------------------

def _digest_and_lines(path: Path) -> tuple[str, int]:
    digest, lines = hashlib.sha256(), 0
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
            lines += block.count(b"\n")
    return digest.hexdigest(), lines


def _synthetic_count(path: Path) -> int:
    with path.open(encoding="utf-8") as fh:
        return sum(1 for line in fh
                   if json.loads(line).get("provenance") == "synthetic")


def verify_stage(stage: str, out: Path) -> dict:
    """Check a successful stage's manifest against the files on disk."""
    manifest = json.loads((out / "manifests" / f"{stage}.json").read_text())
    checks = failed = records = synthetic = 0
    for key, expected in manifest["outputs"].items():
        path = out / key
        checks += 1
        if not path.is_file():
            failed += 1
            continue
        digest, lines = _digest_and_lines(path)
        failed += digest != expected
        if path.suffix == ".jsonl":
            records += lines
            if stage == "augment" and path.stem in (
                    "train_aug", "val_aug", "test_filter_aug", "test_gold"):
                synthetic += _synthetic_count(path)
    if stage == "audit":
        checks += 1
        failed += not json.loads((out / "audit_report.json").read_text())["clean"]
    return {"checks": checks, "failed": failed, "records": records,
            "synthetic": synthetic}


def stage_args(stage: str, work: Path, out: Path) -> list[str]:
    if stage == "extract":
        return ["--input", str(work / "affiliations.jsonl"),
                "--taxonomy", str(DATA / "taxonomy_oag99.txt"),
                "--aliases", str(DATA / "aliases.tsv")]
    if stage == "split":
        return ["--input", str(out / "corpus.jsonl")]
    return []


def run_chain(work: Path, spans_dir: Path | None = None) -> dict:
    """extract -> split -> augment -> audit, each stage its own process.

    Each stage's outputs are checked against its manifest before the next
    stage starts, outside the timed stage walls.
    """
    out = work / ("out_traced" if spans_dir else "out")
    shutil.rmtree(out, ignore_errors=True)
    stages = {}
    for stage in STAGES:
        # The default config, seed included: the workload seed only shapes
        # the input file, so every seed requests the same synthetic names.
        cli_args = ["--out-dir", str(out), stage, *stage_args(stage, work, out)]
        if spans_dir:
            cmd = [sys.executable, str(CHILD), "stage",
                   str(spans_dir / f"{stage}.jsonl"), stage, repr(monotonic()),
                   *cli_args]
        else:
            cmd = [sys.executable, "-m", "namecountry.cli", *cli_args]
        done = spawn(cmd, work / f"{stage}{'_traced' if spans_dir else ''}")
        info = {"exit": done.code, "wall_s": done.wall_s,
                "peak_rss_mib": done.peak_rss_mib, "records": 0, "synthetic": 0,
                "checks": 0, "failed_checks": 0,
                # The exit-code contract: 0, 1 or 2, with no traceback.
                "contract_ok": done.code in (0, 1, 2) and "Traceback" not in done.stderr}
        if done.code == 0 or stage == "audit":
            try:
                verified = verify_stage(stage, out)
            except (OSError, ValueError, KeyError) as exc:
                verified = {"checks": 1, "failed": 1, "records": 0, "synthetic": 0}
                info["check_error"] = str(exc)
            info.update(checks=verified["checks"], failed_checks=verified["failed"])
            if done.code == 0:
                info.update(records=verified["records"], synthetic=verified["synthetic"])
        if done.code != 0:
            info["error"] = done.error_line()
        stages[stage] = info
    return stages


def data_metrics(chains: list[dict]) -> dict:
    def per_chain(stages: dict) -> dict:
        wall = sum(s["wall_s"] for s in stages.values())
        return {"data_records_per_s": sum(s["records"] for s in stages.values()) / wall,
                "augment_names_per_s": stages["augment"]["synthetic"]
                / stages["augment"]["wall_s"],
                "data_peak_rss_mib": max(s["peak_rss_mib"] for s in stages.values())}

    rows = [per_chain(c) for c in chains]
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def data_ops(chains: list[dict]) -> tuple[int, int, bool]:
    attempted = failed = 0
    correct = True
    for stages in chains:
        for s in stages.values():
            attempted += 1 + s["checks"]
            failed += (s["exit"] != 0) + s["failed_checks"]
            correct = correct and s["contract_ok"] and s["failed_checks"] == 0
    return attempted, failed, correct


def run_data(work: Path, seconds: float) -> dict:
    chains = []
    began = time.perf_counter()
    while len(chains) < MIN_CHAINS or time.perf_counter() - began < seconds:
        chains.append(run_chain(work))
    attempted, failed, correct = data_ops(chains)
    return {"metrics": data_metrics(chains), "stages": chains[-1],
            "units": len(chains), "attempted": attempted, "failed": failed,
            "correct": correct}


def trace_data(work: Path, spans_dir: Path) -> dict:
    import spans
    untraced = run_chain(work)
    traced = run_chain(work, spans_dir)
    summary = spans.Summary()
    for stage in STAGES:
        path = spans_dir / f"{stage}.jsonl"
        if not path.is_file():
            raise BenchError(f"traced {stage} wrote no spans: "
                             f"{traced[stage].get('error', '')}")
        summary.add_file(path)
    layer = {}
    for stage in STAGES:
        layer[f"cli.{stage}.wall_s"] = untraced[stage]["wall_s"]
        layer[f"cli.{stage}.peak_rss_mib"] = untraced[stage]["peak_rss_mib"]
        layer[f"cli.{stage}.self_s"] = (summary.wall_s[stage]
                                        - summary.top_level_s[stage])
    attempted, failed, correct = data_ops([untraced, traced])
    return {"summary": summary, "layer": layer, "stages": traced,
            "untraced_wall_s": sum(s["wall_s"] for s in untraced.values()),
            "traced_wall_s": sum(s["wall_s"] for s in traced.values()),
            "attempted": attempted, "failed": failed, "correct": correct}


# --- per-layer metrics ----------------------------------------------------------

def layer_metrics(summary, extra: dict, untraced_s: float, traced_s: float) -> dict:
    c, total, self_s = summary.counts, summary.total_s, summary.self_s
    values = dict.fromkeys((name for name, _ in per_layer_catalog()), 0)
    for name in ("extraction.read_affiliations", "extraction.build_labeled_corpus",
                 "core.read_records", "core.write_records", "corpus.split_corpus",
                 "corpus.enforce_no_leakage", "corpus.build_filtered_test",
                 "corpus.assemble_augmented_splits", "corpus.audit_splits",
                 "enrichment.collect_synthetic", "enrichment.generate",
                 "enrichment.judge", "classifier.loss_and_grads",
                 "classifier.AdamW.step", "classifier.predict_labels",
                 "evaluation.evaluate", "classifier.load_model"):
        values[f"{name}.s"] = total[name]
    values["classifier.score_batch.b10000.temp_bytes"] = c[
        "classifier.score_batch.b10000.temp_bytes"]
    for b in (1, 100, 10000):
        values[f"classifier.encode_batch.b{b}.s"] = total[f"classifier.encode_batch.b{b}"]
        values[f"classifier.score_batch.b{b}.s"] = total[f"classifier.score_batch.b{b}"]
        values[f"classifier.score_batch.b{b}.names"] = c[f"classifier.score_batch.b{b}.names"]
    for key in ("raw", "retained", "ambiguous", "unresolved", "deduplicated"):
        values[f"extraction.{key}"] = c[f"extraction.{key}"]
    for key in ("core.read_records.records", "core.write_records.records",
                "corpus.enforce_no_leakage.removed", "corpus.leakage_errors",
                "enrichment.names_requested", "enrichment.names_generated",
                "enrichment.names_kept", "enrichment.countries_short",
                "enrichment.cross_country_duplicates"):
        values[key] = c[key]
    candidates = c["corpus.build_filtered_test.candidates"]
    values["corpus.build_filtered_test.kept_ratio"] = (
        c["corpus.build_filtered_test.kept"] / candidates if candidates else 0)
    generated = c["enrichment.names_generated"]
    values["enrichment.keep_ratio"] = (
        c["enrichment.names_kept"] / generated if generated else 0)
    values["enrichment.generate.calls"] = summary.calls["enrichment.generate"]
    values["enrichment.judge.calls"] = summary.calls["enrichment.judge"]
    values["enrichment.collect_synthetic.self_s"] = self_s["enrichment.collect_synthetic"]
    steps = summary.calls["classifier.loss_and_grads"]
    values["classifier.loss_and_grads.calls"] = steps
    values["classifier.loss_and_grads.ms_per_step"] = (
        total["classifier.loss_and_grads"] / steps * 1e3 if steps else 0)
    values["classifier.AdamW.step.calls"] = summary.calls["classifier.AdamW.step"]
    values["classifier.train.self_s"] = self_s["classifier.train"]
    for layer, value in summary.layer_self_s().items():
        values[f"{layer}.self_s"] = value
    values.update(extra)
    values["cli.self_s"] = sum(extra.get(f"cli.{s}.self_s", 0) for s in STAGES)
    values["trace.untraced_wall_s"] = untraced_s
    values["trace.traced_wall_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    return values


# --- one workload -----------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK_ROOT / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = make_inputs(workload, work, seed)
        result = {"workload": workload, "seed": seed, "inputs": inputs}
        if trace:
            result.update(run_traced(workload, work, seed))
        else:
            result.update(run_timed(workload, work, seed, seconds))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_timed(workload: str, work: Path, seed: int, seconds: float) -> dict:
    # Probes before and after the timed work, so that setup_s is not taken
    # from a single moment of a machine whose speed drifts.
    probes = setup_probes(workload, work)
    if workload == "data_paper99":
        out = run_data(work, seconds)
        metrics = out.pop("metrics")
        peak = metrics["data_peak_rss_mib"]
    else:
        command = workload.split("_")[0]
        done = spawn([sys.executable, str(CHILD), command, str(work), str(seed),
                      repr(seconds), "0", ""], work / command)
        out = done.json()
        metrics = {k: out.pop(k) for k, _ in WORKLOAD_METRICS[workload] if k in out}
        peak = done.peak_rss_mib
        if workload == "train_paper99":
            metrics["train_peak_rss_mib"] = peak
    setup = statistics.median(probes + setup_probes(workload, work))
    metrics["setup_s"] = setup
    out["workload_metrics"] = metrics
    out["metrics"] = {"setup_s": setup,
                      "throughput_per_s": metrics[THROUGHPUT_OF[workload]],
                      "peak_rss_mib": peak}
    return out


def run_traced(workload: str, work: Path, seed: int) -> dict:
    import spans
    spans_dir = WORK_ROOT / "spans" / f"{workload}-seed{seed}"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    if workload == "data_paper99":
        out = trace_data(work, spans_dir)
        summary, extra = out.pop("summary"), out.pop("layer")
    else:
        command = workload.split("_")[0]
        spans_file = spans_dir / f"{command}.jsonl"
        out = spawn([sys.executable, str(CHILD), command, str(work), str(seed),
                     "0", "1", str(spans_file)], work / command).json()
        summary = spans.Summary()
        summary.add_file(spans_file)
        extra = {}
    missing = summary.never_fired()
    if missing:
        raise BenchError("traced run: wrappers never fired: " + ", ".join(missing))
    out["metrics"] = layer_metrics(summary, extra, out.pop("untraced_wall_s"),
                                   out.pop("traced_wall_s"))
    return out


# --- output ---------------------------------------------------------------------

def report(result: dict, trace: bool) -> None:
    workload = result["workload"]
    print(f"== {workload} seed={result['seed']} trace={int(trace)}")
    print("inputs: " + ", ".join(f"{k}={v}" for k, v in result["inputs"].items()))
    stages = result.get("stages")
    if stages:
        print(f"{'stage':<8} {'exit':>4} {'wall_s':>9} {'peak_rss_mib':>12} "
              f"{'records':>8} {'checks':>6} {'failed':>6}")
        for name, s in stages.items():
            print(f"{name:<8} {s['exit']:>4} {s['wall_s']:>9.3f} "
                  f"{s['peak_rss_mib']:>12.1f} {s['records']:>8} "
                  f"{s['checks']:>6} {s['failed_checks']:>6}")
        for name, s in stages.items():
            if "error" in s:
                print(f"{name} failed (exit {s['exit']}): {s['error']}")
    if trace:
        units = dict(per_layer_catalog())
        for name, value in result["metrics"].items():
            print(f"  {name} = {value:.6g} {units[name]}")
    else:
        for name, unit in WORKLOAD_METRICS[workload]:
            print(f"  {name} = {result['workload_metrics'][name]:.6g} {unit}")
    print(f"ops_attempted={result['attempted']} ops_failed={result['failed']} "
          f"correct={str(result['correct']).lower()} units={result.get('units', 1)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread, in this process and every child: on a small shared
    # machine a second thread adds noise and, for these matrix sizes, no speed.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        if not (SRC / "namecountry" / "__init__.py").is_file():
            raise BenchError(f"{SRC / 'namecountry'} not found: run from a "
                             "checkout of the repository")
        sys.path.insert(0, str(SRC))
        env = environment()
        print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            report(result, bool(args.trace))
            results.append(result)
            path = WORK_ROOT / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({"env": env, **result}, indent=1, default=str))
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        # Metric names qualified by workload: `setup_s` is reported by each.
        units = dict(per_layer_catalog() if args.trace else
                     [(k, u) for w in WORKLOADS for k, u in WORKLOAD_METRICS[w]])
        key = "metrics" if args.trace else "workload_metrics"
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": units[k]}
                   for r in results for k, v in r[key].items() if k in units}
    else:
        units = dict(per_layer_catalog() if args.trace else END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in results[0]["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
