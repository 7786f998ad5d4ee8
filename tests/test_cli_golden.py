"""Golden output of every command: the fixture chain and three refusals.

Each command runs as its own process, as a user runs it. Its exit code,
stdout and stderr are pinned, with bench's timings and the temporary root
masked, and so is the SHA-256 of every manifest but bench's, whose outputs
hold timings. A change to how a command decides its exit code, prints its
summary or reports an unclean bundle fails here.
"""
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import namecountry
from namecountry import fixtures

SRC = str(Path(namecountry.__file__).resolve().parent.parent)

# The first five of the 7 val_oag names a leaky train_oag holds, as the
# violation lines show them.
LEAKED = ("'ablma abm', 'bmbbd alalm', 'lbb adbdm', 'mabdl mlb', 'mamd aal' "
          "(+2 more)")

# (name, exit code, stdout, stderr); `<tmp>` stands for the temporary root.
GOLDEN = [
    ("extract", 0,
     "extract: 600 records retained of 600 (0 ambiguous, 0 unresolved, "
     "0 duplicates)\n", ""),
    ("split", 0,
     "split: train=480 val=60 test=60 test_filter=57 "
     "(leakage removals: 0)\n", ""),
    ("augment", 0,
     "augment: +480 synthetic -> train_aug=768 val_aug=156 "
     "test_filter_aug=153 test_gold=80 (short: 0 countries, 0 names)\n", ""),
    ("train", 0,
     "train: 3 epochs, best val macro-F1 0.6993 at epoch 3 "
     "(last train loss 0.5590)\n", ""),
    ("evaluate", 0,
     "evaluate[taxonomy_fixture4]: accuracy=0.7974 weighted_f1=0.7857 "
     "macro_f1=0.7803 n=153\n", ""),
    ("evaluate_mapped", 0,
     "evaluate[taxonomy_fixture3]: accuracy=0.7000 weighted_f1=0.6282 "
     "macro_f1=0.5761 n=80\n", ""),
    ("bench", 0,
     "".join(f"bench: batch={b} throughput=# names/s latency=# ms/name\n"
             for b in (1, 16, 64)), ""),
    ("bias", 0, "bias: 2 groups over 40 records (16 incorrect)\n", ""),
    ("audit", 0, "audit: clean\n", ""),
    ("augment_leaky", 1, "",
     "audit violations:\n"
     f"  train_aug_vs_val_aug: {LEAKED}\n"
     f"  train_oag_vs_val_oag: {LEAKED}\n"),
    ("audit_leaky", 1, "",
     f"audit violations:\n  train_oag_vs_val_oag: {LEAKED}\n"),
    ("augment_missing", 2, "", "error: <tmp>/missing: not a directory\n"),
]

# SHA-256 of each manifest but bench's.
MANIFEST_DIGESTS = {
    "out/manifests/audit.json":
        "8d3e2da25e79f02cdbac2e6bfc4bf911aeb8d36f644e24a2c9035c166af586a7",
    "out/manifests/augment.json":
        "4866eb21ee08588e4fb9991d2f24d7a731869850a3a92aee70909a1a52784a20",
    "out/manifests/bias.json":
        "caee6e48165d2f2b9196128bbcf1cfc74ee758beae8ee5385a6282d289c30c71",
    "out/manifests/evaluate_taxonomy_fixture3.json":
        "759fa335b8e38ffcabc886e05a7d33372ccefe922cea408d7c42851f9722f6a7",
    "out/manifests/evaluate_taxonomy_fixture4.json":
        "ff2d32b9ccad9ac47d6f83a8e9e92a568e57ebf3171faf13e6a163630f3793bf",
    "out/manifests/extract.json":
        "efd0405f21433d706b1d2a6ee7bcd3cb79ac8c7d827b0685ebe6e74f0b8c017d",
    "out/manifests/split.json":
        "0e36912ee35ac92f0c086e3fe5a91fe6c325cbc4a6aed93a58f855828cb585f0",
    "out/manifests/train.json":
        "d2b8e9a7b40c0f49fdf8f947fb1894df624111a84147edc06d75bd3dff65388a",
    "refused/manifests/audit.json":
        "c7b94af139e0aa55452af75260e6179893aadf56a628d8afaa556f261a49ade2",
}


def _mask(text, root):
    text = text.replace(str(root), "<tmp>")
    return re.sub(r"(throughput|latency)=[0-9.]+", r"\1=#", text)


def _run_all(root):
    fx, out = root / "fx", root / "out"
    fixtures.write_fixture_tree(fx)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    results = []

    def run(name, *args, out_dir=out):
        proc = subprocess.run(
            [sys.executable, "-m", "namecountry.cli",
             "--config", str(fx / "pipeline.json"), "--out-dir", str(out_dir),
             *args], capture_output=True, text=True, env=env)
        results.append((name, proc.returncode, _mask(proc.stdout, root),
                        _mask(proc.stderr, root)))

    taxonomy = str(fx / "taxonomy_fixture4.txt")
    splits = out / "splits"
    run("extract", "extract", "--input", str(fx / "affiliations.jsonl"),
        "--taxonomy", taxonomy, "--aliases", str(fx / "aliases_fixture.tsv"))
    run("split", "split", "--input", str(out / "corpus.jsonl"))
    run("augment", "augment")
    run("train", "train", "--taxonomy", taxonomy)
    names = [json.loads(line)["name"] for line in
             (splits / "train_aug.jsonl").read_text().splitlines()]
    (out / "bench_names.txt").write_text("\n".join(names) + "\n",
                                         encoding="utf-8")
    run("evaluate", "evaluate", "--model", str(out / "model.bin"),
        "--input", str(splits / "test_filter_aug.jsonl"),
        "--train-split", str(splits / "train_aug.jsonl"),
        "--bucket-threshold", "200", "--table", str(out / "eval_table.txt"))
    run("evaluate_mapped", "evaluate", "--model", str(out / "model.bin"),
        "--input", str(splits / "test_gold.jsonl"),
        "--mapping", str(fx / "mapping_fixture4_to_fixture3.tsv"),
        "--target-taxonomy", str(fx / "taxonomy_fixture3.txt"),
        "--output", str(out / "eval_gold.json"))
    run("bench", "bench", "--model", str(out / "model.bin"),
        "--names", str(out / "bench_names.txt"),
        "--table", str(out / "bench_table.txt"))
    run("bias", "bias", "--model", str(out / "model.bin"),
        "--records", str(fx / "bias_records.jsonl"),
        "--mapping", str(fx / "mapping_fixture4_to_fixture2.tsv"),
        "--target-taxonomy", str(fx / "taxonomy_fixture2.txt"))
    run("audit", "audit")

    # A copy of the splits whose train_oag also holds 7 val_oag names.
    leaky = root / "leaky"
    shutil.copytree(splits, leaky)
    val = (leaky / "val_oag.jsonl").read_text().splitlines(keepends=True)
    with (leaky / "train_oag.jsonl").open("a", encoding="utf-8") as fh:
        fh.writelines(val[:7])
    run("augment_leaky", "augment", "--splits-dir", str(leaky),
        "--output-dir", str(root / "leaky_aug"), out_dir=root / "refused_aug")
    run("audit_leaky", "audit", "--splits-dir", str(leaky),
        out_dir=root / "refused")
    run("augment_missing", "augment", "--splits-dir", str(root / "missing"),
        out_dir=root / "refused_missing")
    return results


def test_every_command_prints_and_writes_the_golden_bytes(tmp_path):
    results = _run_all(tmp_path)
    assert results == GOLDEN
    manifests = sorted(
        [*(tmp_path / "out" / "manifests").iterdir(),
         *(tmp_path / "refused" / "manifests").iterdir()])
    assert {p.relative_to(tmp_path).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in manifests if p.name != "bench.json"} == MANIFEST_DIGESTS
    # A refused augment writes nothing; a refused audit writes its report.
    for name in ("leaky_aug", "refused_aug", "refused_missing", "missing"):
        assert not (tmp_path / name).exists(), name
    assert sorted(p.relative_to(tmp_path / "refused").as_posix()
                  for p in (tmp_path / "refused").rglob("*")) == [
        "audit_report.json", "manifests", "manifests/audit.json"]
