"""Child processes of the benchmark. `run.py` starts them; they are not run by hand.

    child.py setup <workload> <work_dir> <spawned_at>
    child.py train <work_dir> <seed> <seconds> <trace> <spans_out>
    child.py score <work_dir> <seed> <seconds> <trace> <spans_out>
    child.py stage <spans_out> <run_id> <spawned_at> <namecountry CLI args...>

`spawned_at` is the parent's CLOCK_MONOTONIC reading just before it started
the process; that clock is system-wide on Linux, so the difference covers
interpreter start-up and imports. `setup`, `train` and `score` print one JSON
line; `stage` runs one traced CLI stage and exits with its code.
"""
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "namecountry" / "data"
TAXONOMY = DATA / "taxonomy_oag99.txt"
ALIASES = DATA / "aliases.tsv"

# train_paper99 trains the split as SHARDS independent runs of
# `classifier.train`, one per 1/SHARDS of train and of val (every class, the
# same head/tail shape), so a run gets SHARDS timings instead of one. The
# epoch count is fixed, with patience >= epochs, so every run does the same
# steps. 0.005 is the fixture config's rate: at the shipped 2e-5 one epoch
# barely moves the weights and macro-F1 could not catch a broken gradient.
SHARDS = 8
EPOCHS = 1
LEARNING_RATE = 0.005
# A best-epoch macro-F1 under three times chance (3/K) fails the train check.
# At the paper shape an untrained model scores ~0.0001 and one whose
# embedding and convolution gradients are zeroed ~0.024; a correct one
# ~0.05.
F1_FLOOR_OVER_CHANCE = 3

SCORE_BATCHES = (1, 100, 10000)


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def rss_mib() -> float:
    with open("/proc/self/statm") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * resource.getpagesize() / 2**20


# --- set-up, shared by the probes and the workloads ------------------------

def train_setup(work: Path):
    from namecountry import classifier, core
    taxonomy = core.load_taxonomy(TAXONOMY)
    train_set = core.read_records(work / "train.jsonl")
    val_set = core.read_records(work / "val.jsonl")
    tokenizer = classifier.fit_tokenizer(train_set)
    return taxonomy, train_set, val_set, tokenizer


def score_setup(work: Path):
    from namecountry import classifier, core
    model = classifier.load_model(work / "model.bin")
    names = [r.full_name for r in core.read_records(work / "pool.jsonl")]
    return model, names


def setup_probe(workload: str, work: Path, spawned_at: float) -> dict:
    if workload == "data_paper99":
        # What every CLI stage pays before it reads its input.
        from namecountry import cli
        cli.load_taxonomy(TAXONOMY)
        cli.extraction.NormalizationTable.from_file(ALIASES)
    elif workload == "train_paper99":
        train_setup(work)
    else:
        score_setup(work)
    return {"setup_s": monotonic() - spawned_at}


# --- train_paper99 ----------------------------------------------------------

def train_once(setup, seed: int, shard: int) -> dict:
    from namecountry import classifier
    taxonomy, train_set, val_set, tokenizer = setup
    config = classifier.TrainConfig(learning_rate=LEARNING_RATE, batch_size=64,
                                    max_epochs=EPOCHS, patience=EPOCHS, seed=seed)
    shard_train = train_set[shard::SHARDS]
    start = time.perf_counter()
    try:
        _, log = classifier.train(shard_train, val_set[shard::SHARDS], taxonomy,
                                  config, classifier.ModelConfig(),
                                  tokenizer=tokenizer)
    except classifier.NonFiniteLossError as exc:
        return {"wall_s": time.perf_counter() - start, "names": len(shard_train),
                "epochs": [], "error": str(exc)}
    return {"wall_s": time.perf_counter() - start, "names": len(shard_train),
            "epochs": [e.to_dict() for e in log.epochs]}


def check_train(result: dict, n_classes: int) -> dict:
    """One op per epoch logged (finite loss) plus one for the macro-F1 floor."""
    epochs = result["epochs"]
    bad_epochs = sum(1 for e in epochs if not math.isfinite(e["train_loss"]))
    missing = EPOCHS - len(epochs)
    best = max((e["val_macro_f1"] for e in epochs), default=0.0)
    floor_ok = best >= F1_FLOOR_OVER_CHANCE / n_classes
    return {"attempted": EPOCHS + 1,
            "failed": bad_epochs + missing + (not floor_ok),
            "correct": bad_epochs == 0 and missing == 0 and floor_ok,
            "best_macro_f1": best}


def run_train(work: Path, seed: int, seconds: float) -> dict:
    """Every shard once, then more shards round-robin until `seconds` pass."""
    setup = train_setup(work)
    n_classes = len(setup[0])
    rss_setup = rss_mib()
    rates, f1s, attempted, failed, correct = [], [], 0, 0, True
    began = time.perf_counter()
    while len(rates) < SHARDS or time.perf_counter() - began < seconds:
        result = train_once(setup, seed, len(rates) % SHARDS)
        check = check_train(result, n_classes)
        rates.append(result["names"] * EPOCHS / result["wall_s"])
        if len(f1s) < SHARDS:
            f1s.append(check["best_macro_f1"])
        attempted += check["attempted"]
        failed += check["failed"]
        correct = correct and check["correct"]
        if "error" in result:
            print(f"train error: {result['error']}", file=sys.stderr)
    return {"train_names_per_s": statistics.median(rates),
            "train_val_macro_f1": statistics.median(f1s), "units": len(rates),
            "rss_after_setup_mib": rss_setup, "attempted": attempted,
            "failed": failed, "correct": correct}


# --- score_paper99 ----------------------------------------------------------

def score_sweep(model, names: list[str]) -> dict:
    """Score the whole pool at each batch size; compare rows bit for bit."""
    import numpy as np
    timings: dict[int, list[float]] = {}
    rows: dict[int, np.ndarray] = {}
    for batch in SCORE_BATCHES:
        samples, parts = [], []
        for i in range(0, len(names), batch):
            chunk = names[i:i + batch]
            start = time.perf_counter()
            probs = model.predict_batch(chunk)
            samples.append(time.perf_counter() - start)
            parts.append(probs)
        timings[batch] = samples
        rows[batch] = np.concatenate(parts)
    reference = rows[SCORE_BATCHES[0]].view(np.uint8).reshape(len(names), -1)
    mismatched = np.zeros(len(names), dtype=bool)
    for batch in SCORE_BATCHES[1:]:
        other = rows[batch].view(np.uint8).reshape(len(names), -1)
        mismatched |= (other != reference).any(axis=1)
    return {"timings": timings, "mismatches": int(mismatched.sum()),
            "calls": sum(len(t) for t in timings.values())}


def warm_up(model, names: list[str]) -> None:
    for batch in SCORE_BATCHES:
        model.predict_batch(names[:batch])


def run_score(work: Path, seconds: float) -> dict:
    model, names = score_setup(work)
    rss_setup = rss_mib()
    warm_up(model, names)
    sweeps = []
    began = time.perf_counter()
    while not sweeps or time.perf_counter() - began < seconds:
        sweeps.append(score_sweep(model, names))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    b1 = sorted(t for s in sweeps for t in s["timings"][1])
    mismatches = sum(s["mismatches"] for s in sweeps)

    def rate(batch: int) -> float:
        return statistics.median(len(names) / sum(s["timings"][batch])
                                 for s in sweeps)

    return {"score_b1_p50_ms": statistics.median(b1) * 1e3,
            "score_b1_p99_ms": b1[math.ceil(0.99 * len(b1)) - 1] * 1e3,
            "score_b1_samples": len(b1),
            "score_b100_names_per_s": rate(100),
            "score_b10000_names_per_s": rate(10000),
            "score_rss_growth_mib": peak - rss_setup,
            "units": len(sweeps), "rss_after_setup_mib": rss_setup,
            "attempted": sum(s["calls"] + len(names) for s in sweeps),
            "failed": mismatches, "correct": mismatches == 0}


# --- traced runs ------------------------------------------------------------

def traced_pair(workload: str, work: Path, seed: int, spans_out: Path) -> dict:
    """The full unit (set-up calls and work) untraced, then traced."""
    import spans

    if workload == "score_paper99":
        model, names = score_setup(work)
        warm_up(model, names)

        def unit():
            model, names = score_setup(work)
            return score_sweep(model, names)["mismatches"] == 0
    else:
        def unit():
            setup = train_setup(work)
            return check_train(train_once(setup, seed, 0), len(setup[0]))["correct"]

        unit()  # warm-up, like the score warm-up above

    start = time.perf_counter()
    untraced_ok = unit()
    untraced = time.perf_counter() - start
    tracer = spans.Tracer(f"{workload}-{seed}")
    spans.install_model(tracer, workload)
    try:
        start = time.perf_counter()
        traced_ok = unit()
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.dump(spans_out)
    return {"untraced_wall_s": untraced, "traced_wall_s": traced,
            "attempted": 2, "failed": (not untraced_ok) + (not traced_ok),
            "correct": untraced_ok and traced_ok}


def run_stage(spans_out: Path, run_id: str, spawned_at: float,
              argv: list[str]) -> int:
    """One CLI stage with the data wrappers installed."""
    import spans
    from namecountry import cli

    tracer = spans.Tracer(run_id)
    spans.install_data(tracer)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
    tracer.dump(spans_out, wall_s=monotonic() - spawned_at)
    return code


def main(argv: list[str]) -> int:
    command = argv[0]
    if command == "stage":
        return run_stage(Path(argv[1]), argv[2], float(argv[3]), argv[4:])
    if command == "setup":
        result = setup_probe(argv[1], Path(argv[2]), float(argv[3]))
    else:
        work, seed, seconds = Path(argv[1]), int(argv[2]), float(argv[3])
        workload = f"{command}_paper99"
        if argv[4] == "1":
            result = traced_pair(workload, work, seed, Path(argv[5]))
        elif command == "train":
            result = run_train(work, seed, seconds)
        else:
            result = run_score(work, seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
