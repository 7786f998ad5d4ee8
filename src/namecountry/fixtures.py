"""Deterministic fixture corpora and files for tests and demos.

Three families:
  - a 4-country corpus with pairwise disjoint character alphabets, trivially
    separable by a character model;
  - a head/tail corpus (2 large, 4 small countries) drawn from the same
    per-country syllable inventories the stub generator uses, so synthetic
    augmentation is in-distribution;
  - 50 hand-labeled affiliation strings exercising the extraction rules.

`python -m namecountry.fixtures OUTDIR` writes the file tree the CLI
pipeline runs against; the checked-in fixtures/ directory is its output.
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .core import (
    NameRecord, Provenance, Taxonomy, atomic_open, name_key, write_json,
)
from .extraction import AffiliationRecord
from .enrichment import synth_name

# --- 4-country disjoint-alphabet corpus -----------------------------------

DISJOINT_ALPHABETS = {
    "arcadia": "abdlm",
    "borelia": "efgrs",
    "cascadia": "ikptv",
    "dorvania": "cnowz",
}


def disjoint_taxonomy() -> Taxonomy:
    return Taxonomy("fixture4", tuple(sorted(DISJOINT_ALPHABETS)))


def _distinct_names(make_name: Callable[[], str], count: int,
                    exclude: Iterable[str] = ()) -> list[str]:
    """`count` names from `make_name` whose name keys are distinct and not
    in `exclude`."""
    names: list[str] = []
    seen = set(exclude)
    attempts = 0
    while len(names) < count:
        attempts += 1
        if attempts > count * 200:
            raise RuntimeError("fixture name space exhausted")
        name = make_name()
        key = name_key(name)
        if key not in seen:
            seen.add(key)
            names.append(name)
    return names


def _inventory_names_from_alphabet(country: str, count: int,
                                   stream: str) -> list[str]:
    """Two-token names over the country's disjoint alphabet."""
    alphabet = DISJOINT_ALPHABETS[country]
    rng = random.Random(stream)

    def token() -> str:
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(3, 5)))

    return _distinct_names(lambda: f"{token()} {token()}", count)


def make_disjoint_corpus(per_country: int = 200, seed: int = 0,
                         sizes: Mapping[str, int] | None = None,
                         ) -> list[NameRecord]:
    """Names from four pairwise-disjoint alphabets, `per_country` each."""
    records = []
    for country in sorted(DISJOINT_ALPHABETS):
        count = sizes.get(country, per_country) if sizes else per_country
        records.extend(
            NameRecord(full_name=n, label=country,
                       provenance=Provenance.EXTRACTED)
            for n in _inventory_names_from_alphabet(
                country, count, f"fixture:disjoint:{seed}:{country}"))
    return records


# --- head/tail corpus for augmentation experiments ------------------------
# Country names chosen so their derived syllable inventories overlap little.

HEAD_COUNTRIES = ("brenmark", "hartland")
TAIL_COUNTRIES = ("kelwyn", "lunara", "norvena", "quvenia")


def head_tail_taxonomy() -> Taxonomy:
    return Taxonomy("fixture6", tuple(sorted(HEAD_COUNTRIES + TAIL_COUNTRIES)))


def _inventory_names(country: str, count: int, stream: str,
                     exclude: set[str]) -> list[str]:
    """Names from the country's stub-generator syllable inventory."""
    rng = random.Random(stream)
    return _distinct_names(lambda: synth_name(rng, country), count, exclude)


def make_head_tail_corpus(head_per_country: int = 5000,
                          tail_per_country: int = 50,
                          seed: int = 0) -> list[NameRecord]:
    records = []
    for country in sorted(HEAD_COUNTRIES + TAIL_COUNTRIES):
        count = (head_per_country if country in HEAD_COUNTRIES
                 else tail_per_country)
        names = _inventory_names(
            country, count, f"fixture:headtail:{seed}:{country}", set())
        records.extend(
            NameRecord(full_name=n, label=country,
                       provenance=Provenance.EXTRACTED)
            for n in names)
    return records


def make_tail_test_set(per_country: int = 100, seed: int = 1,
                       exclude: Sequence[str] = ()) -> list[NameRecord]:
    """Held-out tail-country names, disjoint from `exclude` and each other."""
    taken = {name_key(n) for n in exclude}
    records = []
    for country in sorted(TAIL_COUNTRIES):
        names = _inventory_names(
            country, per_country, f"fixture:tailtest:{seed}:{country}", taken)
        taken.update(name_key(n) for n in names)
        records.extend(
            NameRecord(full_name=n, label=country,
                       provenance=Provenance.EXTRACTED)
            for n in names)
    return records


# --- hand-labeled affiliation extraction cases ----------------------------
# (author_id, full_name, affiliations, expected label or None), resolved
# against the shipped oag99 taxonomy and alias table. Expected values are
# written by hand, not derived from the extraction code.

EXTRACTION_CASES: list[tuple[str, str, tuple[str, ...], str | None]] = [
    ("a01", "Alice Hartwell", ("University of Oxford, UK",), "united kingdom"),
    ("a02", "Bruno Keller", ("Institut für Physik, Deutschland",), "germany"),
    ("a03", "Carol Singh", ("MIT, Cambridge, USA",), "united states"),
    ("a04", "Daniel Roy", ("ETH Zurich",), None),
    ("a05", "Elena Moreau", ("Lab A, France", "Institut B, Germany"), None),
    ("a06", "Feng Li", ("Tsinghua University, Beijing, China",), "china"),
    ("a07", "Grace Okafor", ("University of Lagos, Nigeria",), "nigeria"),
    ("a08", "Hiro Tanaka", ("University of Tokyo, Nippon",), "japan"),
    ("a09", "Ingrid Olsen", ("NTNU, Norge",), "norway"),
    ("a10", "Jae-won Park", ("Seoul National University, Korea",), "south korea"),
    ("a11", "Kamal Haddad",
     ("AUB, Lebanon", "AUB Medical Center, Lebanon"), "lebanon"),
    ("a12", "Lucia Fernandez",
     ("Universidad de Buenos Aires, Argentina ",), "argentina"),
    ("a13", "Marek Nowak", ("Uniwersytet Warszawski, Polska",), "poland"),
    ("a14", "Nina Petrova",
     ("Moscow State University, Russian Federation",), "russia"),
    ("a15", "Omar Farouk", ("Cairo University, Egypt.",), "egypt"),
    ("a16", "Paula Costa", ("Universidade de São Paulo, Brasil",), "brazil"),
    ("a17", "Quentin Adams", ("Stanford University, CA",), None),
    ("a18", "Rosa Alvarez", ("UNAM, México",), "mexico"),
    ("a19", "Sven Eriksson", ("KTH, Sverige",), "sweden"),
    ("a20", "Tomás Silva",
     ("Instituto Superior Técnico, Portugal",), "portugal"),
    ("a21", "Uma Nair", ("IIT Bombay, India", "TIFR, India"), "india"),
    ("a22", "Viktor Horvath",
     ("ELTE, Hungary", "Central European University, Austria"), None),
    ("a23", "Wei Chen", ("Academia Sinica, Republic of China",), "taiwan"),
    ("a24", "Xavier Dubois", ("CNRS", "Université de Lyon, France"), "france"),
    ("a25", "Yuki Sato",
     ("RIKEN, Japan", "University of Tokyo, JAPAN"), "japan"),
    ("a26", "Zainab Qureshi", ("LUMS, Pakistan",), "pakistan"),
    ("a27", "Aaron Black", ("Trinity College Dublin, Ireland",), "ireland"),
    ("a28", "Bianca Rossi", ("Politecnico di Milano, Italia",), "italy"),
    ("a29", "Chen Wang", ("Peking University, P.R. China",), "china"),
    ("a30", "Dana Cohen", ("Technion, Israel",), "israel"),
    ("a31", "Emil Novak", ("Charles University, Czechia",), "czech republic"),
    ("a32", "Fatima Al-Sayed", ("KAUST, Saudi Arabia",), "saudi arabia"),
    ("a33", "George Brown",
     ("University of Edinburgh, Scotland",), "united kingdom"),
    ("a34", "Hana Kim", ("KAIST, Republic of Korea",), "south korea"),
    ("a35", "Ivan Sokolov", (), None),
    ("a36", "Jana Dvorak", ("Masaryk University,",), None),
    ("a37", "Khalid Mansour",
     ("Qatar University, Qatar", "Weill Cornell, Qatar"), "qatar"),
    ("a38", "Linh Nguyen", ("VNU, Viet Nam",), "vietnam"),
    ("a39", "Marta Kovac", ("University of Ljubljana, Slovenia",), "slovenia"),
    ("a40", "Noor Hassan", ("University of Khartoum, Sudan",), "sudan"),
    ("a41", "Otto Weber", ("TU Wien, Österreich",), "austria"),
    ("a42", "Priya Sharma", ("AIIMS, New Delhi",), None),
    ("a43", "Rashid Öztürk", ("Boğaziçi University, Türkiye",), "turkey"),
    ("a44", "Sofia Papadopoulos", ("NTUA, Hellas",), "greece"),
    ("a45", "Thanh Pham",
     ("Hanoi University, Vietnam", "HCMUT, Viet Nam"), "vietnam"),
    ("a46", "Ursula Meyer", ("ETH, Schweiz", "EPFL, Suisse"), "switzerland"),
    ("a47", "", ("University of Helsinki, Suomi",), None),
    ("a48", "Walter Scott", ("U.S. Naval Academy",), None),
    ("a49", "Xiomara Lopez",
     ("Universidad de Chile, Chile", "Harvard, USA",
      "MIT, United States"), None),
    ("a50", "Yusuf Ali", ("Bilkent University, Ankara, Turkey",), "turkey"),
]

EXTRACTION_EXPECTED: dict[str, str | None] = {
    case[0]: case[3] for case in EXTRACTION_CASES
}


def extraction_records() -> list[AffiliationRecord]:
    return [AffiliationRecord(author_id, full_name, affiliations)
            for author_id, full_name, affiliations, _ in EXTRACTION_CASES]


def write_affiliations(path: Path,
                       records: Sequence[AffiliationRecord]) -> None:
    _write_lines(path, [json.dumps(
        {"id": r.author_id, "name": r.full_name,
         "affiliations": list(r.affiliations)}, ensure_ascii=False)
        for r in records])


# --- pipeline fixture tree ------------------------------------------------

PIPELINE_SIZES = {"arcadia": 200, "borelia": 200,
                  "cascadia": 100, "dorvania": 100}
PIPELINE_ALIASES = {"arc": "arcadia", "bor": "borelia",
                    "casc": "cascadia", "dorv": "dorvania"}
FIXTURE3_MAPPING = {"arcadia": "group-west", "borelia": "group-west",
                    "cascadia": "group-east", "dorvania": "group-south"}
FIXTURE2_MAPPING = {"arcadia": "north", "borelia": "north",
                    "cascadia": "south", "dorvania": "south"}

PIPELINE_CONFIG = {
    "seed": 7,
    "split": {"ratios": [8, 1, 1], "filter_cap": 50},
    "augment": {"threshold": 1000, "budget": 120, "ratios": [3, 1, 1],
                "gold_per_country": 20, "chunk_size": 60},
    "train": {"learning_rate": 0.005, "batch_size": 64, "max_epochs": 3,
              "warmup_fraction": 0.1, "patience": 5, "weight_decay": 0.0,
              "embedding_dim": 32, "hidden_dim": 64, "max_len": 40},
    "bench": {"batch_sizes": [1, 16, 64], "warmup_batches": 1,
              "repetitions": 2, "cost_per_million": 0.0},
    "oracle": {"kind": "stub", "lenient_fraction": 0.2,
               "strictness": {c: "lenient" for c in sorted(PIPELINE_SIZES)}},
}


def make_pipeline_affiliations(seed: int = 0) -> list[AffiliationRecord]:
    """Affiliation rows whose extraction reproduces the disjoint corpus.

    The four templates rotate: plain label, uppercased label, alias lookup,
    and a multi-comma string where only the final token matters.
    """
    corpus = make_disjoint_corpus(seed=seed, sizes=PIPELINE_SIZES)
    alias_of = {v: k for k, v in PIPELINE_ALIASES.items()}
    records = []
    for i, name_record in enumerate(corpus):
        country = name_record.label
        town = name_record.full_name.split()[0].capitalize()
        variant = i % 4
        if variant == 0:
            affiliation = f"University of {town}, {country}"
        elif variant == 1:
            affiliation = f"{town} Institute, {country.upper()}"
        elif variant == 2:
            affiliation = f"{town} Lab, {alias_of[country]}"
        else:
            affiliation = f"Dept of Science, {town} College, {country.title()}"
        records.append(AffiliationRecord(f"p{i:04d}", name_record.full_name,
                                         (affiliation,)))
    return records


def make_bias_records(per_country: int = 10, seed: int = 0) -> list[dict]:
    countries = sorted(DISJOINT_ALPHABETS)
    pools = {
        c: _inventory_names_from_alphabet(c, per_country * 2,
                                          f"fixture:bias:{seed}:{c}")
        for c in countries
    }
    records = []
    for ci, country in enumerate(countries):
        other = countries[(ci + 1) % len(countries)]
        for i in range(per_country):
            correct = i % 3 != 0
            gold = pools[country][i]
            answered = gold if correct else pools[other][per_country + i]
            records.append({"gold_name": gold, "answered_name": answered,
                            "correct": correct})
    return records


def _write_lines(path: Path, lines: Sequence[str]) -> None:
    with atomic_open(path) as fh:
        fh.writelines(line + "\n" for line in lines)


def write_fixture_tree(out_dir: str | Path) -> None:
    """Write every file the CLI pipeline fixture needs under out_dir."""
    out = Path(out_dir)
    write_affiliations(out / "extraction_cases.jsonl", extraction_records())
    write_affiliations(out / "affiliations.jsonl", make_pipeline_affiliations())

    _write_lines(out / "taxonomy_fixture4.txt", sorted(DISJOINT_ALPHABETS))
    _write_lines(out / "taxonomy_fixture3.txt",
                 sorted(set(FIXTURE3_MAPPING.values())))
    _write_lines(out / "taxonomy_fixture2.txt",
                 sorted(set(FIXTURE2_MAPPING.values())))
    _write_lines(out / "mapping_fixture4_to_fixture3.tsv",
                 [f"{s}\t{t}" for s, t in sorted(FIXTURE3_MAPPING.items())])
    _write_lines(out / "mapping_fixture4_to_fixture2.tsv",
                 [f"{s}\t{t}" for s, t in sorted(FIXTURE2_MAPPING.items())])
    _write_lines(out / "aliases_fixture.tsv",
                 [f"{a}\t{c}" for a, c in sorted(PIPELINE_ALIASES.items())])

    _write_lines(out / "bias_records.jsonl",
                 [json.dumps(r, ensure_ascii=False) for r in make_bias_records()])
    write_json(out / "pipeline.json", PIPELINE_CONFIG)


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 1:
        print("usage: python -m namecountry.fixtures OUTDIR", file=sys.stderr)
        return 2
    write_fixture_tree(args[0])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
