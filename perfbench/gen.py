"""Seeded paper-shape inputs for the benchmark.

Everything here is a pure function of the workload seed and the label and
alias files the package ships (`taxonomy_oag99.txt`, `aliases.tsv`). Names
are drawn from per-country syllable inventories built with the same rule as
the package's stub generator, re-stated here so that the inputs do not move
when the package changes. Nothing is downloaded.

Corpus shape: 99 countries. Five head countries hold 7,800-9,400 labeled
authors each, so an 8:1:1 train split clears the 6,000-name augmentation
threshold. The other 94 tail countries fall off as 5,600 / rank (Zipf,
exponent 1), floored at 40. The sizes are fixed and the seed decides which
country gets which, so every seed does the same amount of work.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

HEAD_SIZES = (9400, 9000, 8600, 8200, 7800)
TAIL_TOP = 5600
TAIL_FLOOR = 40

# Shares of extra affiliation rows, relative to the labeled authors, that
# exercise each drop path of `extraction.build_labeled_corpus`.
AMBIGUOUS_SHARE = 0.03
UNRESOLVED_SHARE = 0.04
DUPLICATE_SHARE = 0.02

# Share of each country's names drawn from another country's inventory, as
# for authors who work abroad. The stub validator rejects most of them.
FOREIGN_SHARE = 0.12

SCORE_POOL = 10000

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_INSTITUTIONS = ("University of {}", "{} Institute of Technology",
                 "{} Medical Center", "Academy of Sciences of {}",
                 "{} Polytechnic", "{} Research Laboratory")
_UNKNOWN_TAILS = ("CA", "NY", "Bavaria", "Ontario", "Atlantis", "Earth")


def read_labels(path: Path) -> list[str]:
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return [line.lower() for line in lines if line and not line.startswith("#")]


def read_aliases(path: Path) -> dict[str, list[str]]:
    """Canonical label -> the aliases `aliases.tsv` lists for it."""
    aliases: dict[str, list[str]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            alias, label = line.split("\t")
            aliases.setdefault(label.strip().lower(), []).append(alias.strip())
    return aliases


def country_sizes(labels: list[str], seed: int) -> dict[str, int]:
    """Labeled authors per country: five seeded head countries, Zipf tail."""
    order = list(labels)
    random.Random(f"sizes:{seed}").shuffle(order)
    tail = [max(TAIL_FLOOR, round(TAIL_TOP / rank))
            for rank in range(1, len(order) - len(HEAD_SIZES) + 1)]
    return dict(zip(order, [*HEAD_SIZES, *tail]))


def _syllables(country: str) -> tuple[str, ...]:
    rng = random.Random(f"inventory:{country}")
    consonants = rng.sample(_CONSONANTS, 7)
    vowels = rng.sample(_VOWELS, 3)
    return tuple(c + v for c in consonants for v in vowels)


class NameSource:
    """Distinct names per country; one seeded stream per (purpose, country)."""

    def __init__(self, seed: int, purpose: str, countries: list[str]):
        self.seed = seed
        self.purpose = purpose
        self.countries = sorted(countries)
        self.taken: set[str] = set()

    def names(self, country: str, count: int) -> list[str]:
        rng = random.Random(f"{self.purpose}:{self.seed}:{country}")

        def token(syllables: tuple[str, ...]) -> str:
            return "".join(rng.choice(syllables)
                           for _ in range(rng.choice((2, 2, 3)))).capitalize()

        out = []
        while len(out) < count:
            origin = (rng.choice(self.countries)
                      if rng.random() < FOREIGN_SHARE else country)
            syllables = _syllables(origin)
            parts = 3 if rng.random() < 0.15 else 2
            name = " ".join(token(syllables) for _ in range(parts))
            if name.casefold() not in self.taken:
                self.taken.add(name.casefold())
                out.append(name)
        return out


def labeled_corpus(labels: list[str], seed: int) -> dict[str, list[str]]:
    """Country -> distinct real-looking names, at the paper shape."""
    source = NameSource(seed, "names", labels)
    return {c: source.names(c, n)
            for c, n in sorted(country_sizes(labels, seed).items())}


def _country_token(rng: random.Random, country: str,
                   aliases: dict[str, list[str]]) -> str:
    roll = rng.random()
    if roll < 0.15 and country in aliases:
        token = rng.choice(aliases[country])
    elif roll < 0.25:
        token = country.upper()
    elif roll < 0.35:
        token = country
    else:
        token = country.title()
    return token + "." if rng.random() < 0.05 else token


def _affiliation(rng: random.Random, token: str) -> str:
    place = "".join(rng.choice(_CONSONANTS + _VOWELS)
                    for _ in range(rng.randint(4, 8))).capitalize()
    institution = rng.choice(_INSTITUTIONS).format(place)
    if rng.random() < 0.3:
        return f"Department {rng.randint(1, 40)}, {institution}, {token}"
    return f"{institution}, {token}"


def write_affiliations(path: Path, corpus: dict[str, list[str]],
                       aliases: dict[str, list[str]], seed: int) -> dict:
    """Affiliation JSONL over `corpus`, plus rows for every drop path.

    Returns the row counts by kind, for the report.
    """
    rng = random.Random(f"affiliations:{seed}")
    countries = sorted(corpus)
    rows: list[tuple[str, list[str]]] = []
    for country in countries:
        for name in corpus[country]:
            token = _country_token(rng, country, aliases)
            affs = [_affiliation(rng, token)]
            if rng.random() < 0.2:
                affs.append(_affiliation(rng, _country_token(rng, country, aliases)))
            rows.append((name, affs))
    labeled = len(rows)
    extra_names = NameSource(seed, "extra", countries)
    n_ambiguous = round(labeled * AMBIGUOUS_SHARE)
    n_unresolved = round(labeled * UNRESOLVED_SHARE)
    n_duplicate = round(labeled * DUPLICATE_SHARE)
    for name in extra_names.names("ambiguous", n_ambiguous):
        a, b = rng.sample(countries, 2)
        rows.append((name, [_affiliation(rng, _country_token(rng, a, aliases)),
                            _affiliation(rng, _country_token(rng, b, aliases))]))
    for i, name in enumerate(extra_names.names("unresolved", n_unresolved)):
        kind = i % 3
        if kind == 0:
            affs = [_affiliation(rng, "X").rpartition(",")[0].replace(",", "")]
        elif kind == 1:
            affs = [_affiliation(rng, rng.choice(_UNKNOWN_TAILS))]
        else:
            affs = []
        rows.append((name, affs))
    for _ in range(n_duplicate):
        country = rng.choice(countries)
        name = rng.choice(corpus[country])
        rows.append((name, [_affiliation(rng, _country_token(rng, country, aliases))]))
    rng.shuffle(rows)
    with path.open("w", encoding="utf-8") as fh:
        for i, (name, affs) in enumerate(rows):
            fh.write(json.dumps({"id": f"a{i:07d}", "name": name,
                                 "affiliations": affs}, ensure_ascii=False))
            fh.write("\n")
    return {"rows": len(rows), "labeled": labeled, "ambiguous": n_ambiguous,
            "unresolved": n_unresolved, "duplicate": n_duplicate}


def _write_records(path: Path, pairs: list[tuple[str, str]]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for name, label in pairs:
            fh.write(json.dumps({"name": name, "label": label,
                                 "provenance": "extracted"}, ensure_ascii=False))
            fh.write("\n")


def write_train_split(work: Path, corpus: dict[str, list[str]], seed: int) -> dict:
    """Real-only train/val files shaped like `train_oag`/`val_oag` (8:1 of 8:1:1)."""
    rng = random.Random(f"trainsplit:{seed}")
    train, val = [], []
    for country in sorted(corpus):
        names = list(corpus[country])
        rng.shuffle(names)
        n_train = int(len(names) * 0.8)
        n_val = int(len(names) * 0.1)
        train += [(n, country) for n in names[:n_train]]
        val += [(n, country) for n in names[n_train:n_train + n_val]]
    rng.shuffle(train)
    _write_records(work / "train.jsonl", train)
    _write_records(work / "val.jsonl", val)
    return {"train": len(train), "val": len(val)}


def write_score_inputs(work: Path, labels: list[str], seed: int) -> dict:
    """Held-out name pool and a seeded, default-size, 99-class checkpoint.

    The pool is drawn from a stream the corpus never uses, spread evenly over
    the countries. The checkpoint's weights are random: scoring cost and the
    batch-shape contract do not depend on their values.
    """
    from namecountry import classifier
    from namecountry.core import Taxonomy

    source = NameSource(seed, "pool", labels)
    per_country = -(-SCORE_POOL // len(labels))
    pool = [(n, c) for c in sorted(labels) for n in source.names(c, per_country)]
    random.Random(f"pool:{seed}").shuffle(pool)
    pool = pool[:SCORE_POOL]
    _write_records(work / "pool.jsonl", pool)

    chars = tuple(sorted({ch for name, _ in pool for ch in name}))
    tokenizer = classifier.Tokenizer(chars)
    config = classifier.ModelConfig()
    e, h, k = config.embedding_dim, config.hidden_dim, len(labels)
    rng = np.random.default_rng([seed, 99])
    shapes = {"embedding": (tokenizer.vocab_size, e), "conv_w": (3, e, h),
              "conv_b": (h,), "head_w": (h, k), "head_b": (k,)}
    params = {name: rng.normal(0.0, 0.1, shape).astype(np.float32)
              for name, shape in shapes.items()}
    model = classifier.ClassifierModel(
        tokenizer, Taxonomy("oag99", tuple(labels)), params)
    classifier.save_model(model, work / "model.bin")
    return {"pool": len(pool), "classes": k, "vocab": tokenizer.vocab_size}
