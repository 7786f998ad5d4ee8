import random

import pytest
from hypothesis import given, settings, strategies as st

from namecountry import enrichment
from namecountry.core import NameRecord, Provenance, RecordError, name_key
from namecountry.corpus import SplitConfig, split_corpus
from namecountry.enrichment import (
    MAX_TOKEN_REPEATS,
    AugmentBudget,
    StubNameGenerator,
    StubNameValidator,
    collect_synthetic,
    compute_budgets,
    country_letters,
    country_syllables,
    render_prompt,
    synth_name,
)


class ScriptedGenerator:
    """Feeds a fixed name sequence in chunks; raises when told to."""

    def __init__(self, names, fail_calls=()):
        self.names = list(names)
        self.fail_calls = set(fail_calls)
        self.calls = 0

    def generate(self, country, n):
        self.calls += 1
        if self.calls in self.fail_calls:
            raise ConnectionError("down")
        out = self.names[:n]
        del self.names[:n]
        return out


# --- budgets ---

def test_compute_budgets_threshold_is_strict():
    counts = {"a": 5999, "b": 6000, "c": 6001, "d": 0}
    budgets = {b.country: b.requested for b in compute_budgets(counts)}
    assert budgets == {"a": 5000, "b": 0, "c": 0, "d": 5000}


def test_compute_budgets_sorted_and_counts_carried():
    budgets = compute_budgets({"zulu": 10, "alfa": 7000})
    assert [b.country for b in budgets] == ["alfa", "zulu"]
    assert [b.requested for b in budgets] == [0, 5000]


def test_compute_budgets_overrides():
    budgets = compute_budgets({"a": 10, "b": 10}, overrides={"a": 250})
    requested = {b.country: b.requested for b in budgets}
    assert requested == {"a": 250, "b": 5000}


def test_compute_budgets_custom_threshold_and_budget():
    budgets = compute_budgets({"a": 99, "b": 100}, threshold=100, budget=7)
    requested = {b.country: b.requested for b in budgets}
    assert requested == {"a": 7, "b": 0}


def test_compute_budgets_validation():
    with pytest.raises(ValueError):
        compute_budgets({}, threshold=0)
    with pytest.raises(ValueError):
        compute_budgets({}, budget=0)
    with pytest.raises(ValueError):
        AugmentBudget("a", -1)
    # Every override is checked, whether or not its country is counted.
    for amount in ("x", 1.5, True, -1, None):
        with pytest.raises(ValueError, match="override for 'z'"):
            compute_budgets({"a": 10}, overrides={"z": amount})
    assert compute_budgets({"a": 10}, overrides={"z": 0})[0].requested == 5000


def test_render_prompt_verbatim():
    assert render_prompt("vietnam", 5) == (
        "Generate 5 realistic full names for people from vietnam. "
        "Each line should contain a unique full name (first & last name). "
        "Avoid repeating the same first or last names more than 3 times.")
    with pytest.raises(ValueError):
        render_prompt("vietnam", 0)


# --- synthetic collection ---

def test_collect_enforces_first_token_repetition_cap():
    generator = ScriptedGenerator([
        "Anh Tran", "Anh Nguyen", "Anh Le", "Anh Pham", "Anh Hoang",
        "Binh Vo", "Chi Dang",
    ])
    out = collect_synthetic([AugmentBudget("vietnam", 5)], generator,
                            taken=set(), chunk_size=10)
    names = [r.full_name for r in out["vietnam"]]
    # only the first three "Anh" survive the 3-repeat cap
    assert names == ["Anh Tran", "Anh Nguyen", "Anh Le", "Binh Vo", "Chi Dang"]


def test_collect_enforces_last_token_repetition_cap():
    generator = ScriptedGenerator([
        "An Tran", "Binh Tran", "Chi Tran", "Duc Tran", "Em Tran", "Phuc Vo",
    ])
    out = collect_synthetic([AugmentBudget("vietnam", 4)], generator,
                            taken=set(), chunk_size=10)
    names = [r.full_name for r in out["vietnam"]]
    assert names == ["An Tran", "Binh Tran", "Chi Tran", "Phuc Vo"]


def test_collect_skips_duplicates_and_existing():
    generator = ScriptedGenerator([
        "Ana Silva", "ana  silva", "Bea Costa", "Caro Dias",
    ])
    out = collect_synthetic([AugmentBudget("brazil", 3)], generator,
                            taken={name_key("BEA COSTA")}, chunk_size=10)
    names = [r.full_name for r in out["brazil"]]
    assert names == ["Ana Silva", "Caro Dias"]  # budget left partially unfilled


def test_collect_records_are_synthetic_and_labeled():
    generator = ScriptedGenerator(["Ana Silva", "Bea Costa"])
    out = collect_synthetic([AugmentBudget("brazil", 2)], generator,
                            taken=set(), chunk_size=10)
    for record in out["brazil"]:
        assert record.provenance is Provenance.SYNTHETIC
        assert record.label == "brazil"


def test_collect_skips_zero_request_countries():
    generator = ScriptedGenerator(["Ana Silva"])
    out = collect_synthetic(
        [AugmentBudget("brazil", 0), AugmentBudget("chile", 1)],
        generator, taken=set(), chunk_size=10)
    assert set(out) == {"chile"}


def test_collect_chunked_requests():
    names = [f"Tok{i} Last{i}" for i in range(10)]
    generator = ScriptedGenerator(names)
    out = collect_synthetic([AugmentBudget("x", 10)], generator,
                            taken=set(), chunk_size=4)
    assert len(out["x"]) == 10
    assert generator.calls == 3  # 4 + 4 + 2


def test_collect_stops_after_stalled_chunks():
    # generator loops on one name forever; collection must not spin
    class Repeater:
        def __init__(self):
            self.calls = 0

        def generate(self, country, n):
            self.calls += 1
            return ["Same Name"] * n

    generator = Repeater()
    out = collect_synthetic([AugmentBudget("x", 5)], generator,
                            taken=set(), chunk_size=2)
    assert [r.full_name for r in out["x"]] == ["Same Name"]
    # 1 productive + MAX_STALLED_CHUNKS stalled
    assert generator.calls == 1 + enrichment.MAX_STALLED_CHUNKS == 4


def test_collect_generator_failure_moves_to_next_country():
    # One failure ends the country's collection, with no retry here: the
    # first country keeps its first chunk and the next is still collected.
    generator = ScriptedGenerator(["Ana Silva", "Bea Costa", "Caio Lima",
                                   "Duda Reis"], fail_calls={2})
    out = collect_synthetic([AugmentBudget("brazil", 3),
                             AugmentBudget("chile", 2)], generator,
                            taken=set(), chunk_size=2)
    assert [r.full_name for r in out["brazil"]] == ["Ana Silva", "Bea Costa"]
    assert [r.full_name for r in out["chile"]] == ["Caio Lima", "Duda Reis"]
    assert generator.calls == 3


def test_collect_partial_fill_after_retry_exhaustion():
    # An oracle that has used up its own retries leaves the country unfilled.
    class AlwaysDown:
        def generate(self, country, n):
            raise enrichment.OracleTransportError("down after 3 retries")

    out = collect_synthetic([AugmentBudget("brazil", 5)], AlwaysDown(),
                            taken=set(), chunk_size=10)
    assert list(out["brazil"]) == []  # left unfilled, no exception


def test_collect_drops_unparseable_names():
    generator = ScriptedGenerator(["   ", "Ana Silva"])
    out = collect_synthetic([AugmentBudget("brazil", 1)], generator,
                            taken=set(), chunk_size=10)
    assert [r.full_name for r in out["brazil"]] == ["Ana Silva"]


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 40), st.integers(1, 10), st.integers(0, 2**31))
def test_collect_respects_budget_and_repetition_invariants(requested,
                                                           chunk_size, seed):
    generator = StubNameGenerator(seed=seed)
    out = collect_synthetic([AugmentBudget("testland", requested)],
                            generator, taken={name_key("Existing Name")},
                            chunk_size=chunk_size)
    records = out["testland"]
    assert len(records) <= requested
    firsts, lasts = {}, {}
    keys = set()
    for record in records:
        assert record.key not in keys
        keys.add(record.key)
        first, *_, last = record.key.split() if len(record.key.split()) > 1 \
            else (record.key, record.key)
        firsts[first] = firsts.get(first, 0) + 1
        lasts[last] = lasts.get(last, 0) + 1
    assert all(v <= MAX_TOKEN_REPEATS for v in firsts.values())
    assert all(v <= MAX_TOKEN_REPEATS for v in lasts.values())


# The filter loop as it was before candidates were keyed once: a NameRecord
# per candidate, then its key, then the key's tokens. Kept here as the
# reference `collect_synthetic` must match. One `seen` set serves every
# country, so a name kept for one country is a duplicate for the next.
def reference_collect(budgets, generator, existing_names, chunk_size):
    existing = {name_key(n) for n in existing_names}
    seen = set()
    result = {}
    for budget in sorted(budgets, key=lambda b: b.country):
        if budget.requested == 0:
            continue
        kept, first_counts, last_counts = [], {}, {}
        stalled = 0
        while len(kept) < budget.requested and stalled < 3:
            want = min(chunk_size, budget.requested - len(kept))
            progress = 0
            for raw in generator.generate(budget.country, want):
                if len(kept) >= budget.requested:
                    break
                try:
                    record = NameRecord(full_name=raw, label=budget.country,
                                        provenance=Provenance.SYNTHETIC)
                except RecordError:
                    continue
                key = record.key
                if key in seen or key in existing:
                    continue
                tokens = name_key(record.full_name).split()
                first, last = tokens[0], tokens[-1]
                if (first_counts.get(first, 0) >= MAX_TOKEN_REPEATS
                        or last_counts.get(last, 0) >= MAX_TOKEN_REPEATS):
                    continue
                seen.add(key)
                first_counts[first] = first_counts.get(first, 0) + 1
                last_counts[last] = last_counts.get(last, 0) + 1
                kept.append(record)
                progress += 1
            stalled = 0 if progress else stalled + 1
        result[budget.country] = kept
    return result


def records_by_country(drawn):
    """`collect_synthetic`'s result with each country's records listed."""
    return {country: list(names) for country, names in drawn.items()}


EDGE_NAMES = [
    "", "   ", "\t\n", "\u00a0\u2003",                 # empty after normalizing
    "Ana Silva", "ana  silva", "ANA SILVA", " Ana\tSilva ",  # case, whitespace
    "Jos\u00e9 Lima", "Jose\u0301 Lima", "JOS\u00c9 LIMA",  # NFC / NFD / case
    "Stra\u00dfe M\u00fcller", "STRASSE M\u00dcLLER",         # casefold
    "Existing Name", "existing  NAME",                   # in existing_names
    "Bea Tran", "Bea Le", "Bea Vo", "Bea Pham", "bea Hoang",  # first-token cap
    "Chi Nguyen", "Duc Nguyen", "Em nguyen", "Gia NGUYEN",    # last-token cap
    "Mononym", "mononym", "Mononym Mononym",             # one token: first is last
    "Kim Ly", "Kim Ly Ha", "Ha  Kim",
    "Lan Mai Hoa", "Tuan Van Hoa", "Son Ngoc Hoa", "Vu Duc Hoa",  # 3 tokens
]


class EdgeGenerator:
    """EDGE_NAMES, shuffled per country; then one name forever, so it stalls.
    `calls` lists each call's (country, n)."""

    def __init__(self, seed):
        self.seed = seed
        self.queues = {}
        self.calls = []

    def generate(self, country, n):
        self.calls.append((country, n))
        queue = self.queues.get(country)
        if queue is None:
            queue = list(EDGE_NAMES) * 2
            random.Random(f"{self.seed}:{country}").shuffle(queue)
            self.queues[country] = queue
        out = queue[:n]
        del queue[:n]
        return out + ["Ana Silva"] * (n - len(out))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("chunk_size", [1, 3, 7, 200])
def test_collect_matches_reference_filter_loop(seed, chunk_size):
    budgets = [AugmentBudget("brazil", 40), AugmentBudget("vietnam", 9),
               AugmentBudget("chile", 0)]
    existing = ["EXISTING name", "Kim  Ly Ha"]
    expected_gen, actual_gen = EdgeGenerator(seed), EdgeGenerator(seed)
    expected = reference_collect(budgets, expected_gen, existing, chunk_size)
    taken = {name_key(n) for n in existing}
    actual = collect_synthetic(budgets, actual_gen, taken,
                               chunk_size=chunk_size)
    assert records_by_country(actual) == expected
    # Both countries draw from the same names, so the shared set matters.
    kept = [r.key for records in actual.values() for r in records]
    assert len(kept) == len(set(kept))
    assert taken == {name_key(n) for n in existing} | set(kept)
    assert actual_gen.calls == expected_gen.calls
    assert set(actual) == {"brazil", "vietnam"}
    assert len(actual["brazil"]) < 40  # the run ended in stalled chunks
    # As `augment` draws: one call per budget, in country order, all sharing
    # one key set and one generator, gives what one call gives, from the
    # same generator calls.
    per_country_gen = EdgeGenerator(seed)
    per_country_taken = {name_key(n) for n in existing}
    per_country = {}
    for budget in sorted(budgets, key=lambda b: b.country):
        per_country.update(collect_synthetic(
            [budget], per_country_gen, per_country_taken,
            chunk_size=chunk_size))
    assert records_by_country(per_country) == expected
    assert per_country_taken == taken
    assert per_country_gen.calls == actual_gen.calls


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_collect_matches_reference_on_stub_generator(seed):
    budgets = [AugmentBudget(c, 300) for c in ("brazil", "x", "vietnam")]
    existing = StubNameGenerator(seed=seed + 1).generate("brazil", 50)
    expected = reference_collect(budgets, StubNameGenerator(seed), existing, 40)
    actual = collect_synthetic(budgets, StubNameGenerator(seed),
                               {name_key(n) for n in existing}, chunk_size=40)
    assert records_by_country(actual) == expected


def test_one_key_set_keeps_each_name_under_one_label(same_names_generator):
    """The draws as `augment` makes them: the budgets, then test_gold, both
    against one key set that starts with the base splits' names. With a
    generator that offers every country the same names, each key is still
    under one label across the synthetic partitions and test_gold."""
    countries = ("arcadia", "borelia", "cascadia", "dorvania")
    base = [NameRecord(n, "arcadia")
            for n in StubNameGenerator(seed=1).generate("arcadia", 40)]
    taken = {r.key for r in base}
    generator = same_names_generator(seed=3)
    synthetic = collect_synthetic([AugmentBudget(c, 60) for c in countries],
                                  generator, taken, chunk_size=25)
    gold = collect_synthetic([AugmentBudget(c, 20) for c in countries],
                             generator, taken, chunk_size=25)
    records = [r for c in sorted(synthetic) for r in synthetic[c]]
    partitions = [*split_corpus(records, SplitConfig((3, 1, 1), seed=3)),
                  *gold.values()]
    labels = {}
    for partition in partitions:
        for record in partition:
            labels.setdefault(record.key, []).append(record.label)
    assert all(len(v) == 1 for v in labels.values())
    assert len({v[0] for v in labels.values()}) > 1
    assert sum(map(len, gold.values())) > 0
    assert not labels.keys() & {r.key for r in base}
    assert taken == labels.keys() | {r.key for r in base}


def test_collect_builds_no_record(monkeypatch):
    """A draw keeps names: `collect_synthetic` builds no NameRecord, and each
    country's result holds its kept names, in the order they were kept."""
    built = []
    init = NameRecord.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.full_name)

    generated = []

    class CountingGenerator(StubNameGenerator):
        def generate(self, country, n):
            names = super().generate(country, n)
            generated.extend(names)
            return names

    monkeypatch.setattr(NameRecord, "__init__", counting_init)
    out = collect_synthetic([AugmentBudget(c, 500) for c in ("a", "b")],
                            CountingGenerator(seed=5), taken=set(),
                            chunk_size=100)
    assert built == []
    kept = [name for country in sorted(out) for name in out[country].names()]
    assert len(generated) > len(kept) > 0  # some candidates were dropped
    assert kept == [r.full_name for country in sorted(out)
                    for r in out[country]]


# --- stub oracles ---

def test_country_syllables_shape_and_determinism():
    syllables = country_syllables("vietnam")
    assert len(syllables) == 21  # 7 consonants x 3 vowels
    assert len(set(syllables)) == 21
    for syllable in syllables:
        assert len(syllable) == 2
        assert syllable[0] in "bcdfghjklmnprstvz"
        assert syllable[1] in "aeiou"
    assert country_syllables("vietnam") == syllables
    assert country_syllables("brazil") != syllables


def test_synth_name_uses_inventory_only():
    rng = random.Random(0)
    for _ in range(20):
        name = synth_name(rng, "vietnam")
        first, last = name.split()
        for token in (first, last):
            assert token[0].isupper()
            assert set(token.lower()) <= country_letters("vietnam")


def reference_synth_name(rng, country):
    """synth_name as written over `Random.choice`."""
    syllables = country_syllables(country)

    def token():
        k = rng.choice((2, 3))
        return "".join(rng.choice(syllables) for _ in range(k)).capitalize()

    return f"{token()} {token()}"


@pytest.mark.parametrize("seed", [0, 1, "stubgen:0:vietnam", 2**40])
def test_synth_name_matches_random_choice_stream(seed):
    draws = 0
    for country in ("vietnam", "brazil", "x", "Côte d'Ivoire"):
        expected, actual = random.Random(seed), random.Random(seed)
        for _ in range(2500):
            assert synth_name(actual, country) == reference_synth_name(
                expected, country)
            draws += 1
        assert actual.getstate() == expected.getstate()
    assert draws == 10_000


def test_stub_generator_deterministic_and_streaming():
    first = StubNameGenerator(seed=3).generate("vietnam", 5)
    second = StubNameGenerator(seed=3).generate("vietnam", 5)
    assert first == second
    generator = StubNameGenerator(seed=3)
    chunk_a = generator.generate("vietnam", 5)
    chunk_b = generator.generate("vietnam", 5)
    assert chunk_a == first
    assert chunk_a != chunk_b  # stream continues across calls
    assert StubNameGenerator(seed=4).generate("vietnam", 5) != first


def test_stub_generator_rejects_nonpositive():
    with pytest.raises(ValueError):
        StubNameGenerator().generate("vietnam", 0)


def test_stub_validator_accepts_own_country_names():
    validator = StubNameValidator(strictness={"vietnam": "strict"})
    for name in StubNameGenerator(seed=1).generate("vietnam", 20):
        assert validator.judge(name, "vietnam")


def test_stub_validator_rejects_out_of_inventory_letters():
    # q/w/x/y are outside every inventory by construction
    validator = StubNameValidator(strictness={"vietnam": "lenient"})
    assert not validator.judge("Qwyx Wyxq", "vietnam")


def test_stub_validator_strict_vs_lenient_boundary():
    inventory = sorted(country_letters("vietnam"))[:5]
    half_in = "".join(inventory) + "qwxyq"  # exactly half the letters match
    validator = StubNameValidator(strictness={"vietnam": "lenient"})
    assert validator.judge(half_in, "vietnam")
    strict = StubNameValidator(strictness={"vietnam": "strict"})
    assert not strict.judge(half_in, "vietnam")


def test_stub_validator_fractions_configurable():
    validator = StubNameValidator(strictness={"x": "lenient"},
                                  lenient_fraction=0.0)
    assert validator.judge("Qwyx Wyxq", "x")


def test_stub_validator_unlisted_country_defaults_strict(caplog):
    validator = StubNameValidator()
    with caplog.at_level("WARNING"):
        validator.judge("Qwyx Wyxq", "atlantis")
        validator.judge("Qwyx Wyxq", "atlantis")
    warnings = [r for r in caplog.records if "atlantis" in r.getMessage()]
    assert len(warnings) == 1  # warned once, not per call
    caplog.clear()
    with caplog.at_level("WARNING"):
        other = StubNameValidator()
        assert not other.judge("Qwyx Wyxq", "atlantis")
        assert not other.judge("Qwyx Wyxq", "lemuria")
    warnings = [r for r in caplog.records
                if "no validator strictness" in r.getMessage()]
    assert len(warnings) == 1  # once per validator, not per country


def test_stub_validator_unknown_mode():
    with pytest.raises(ValueError, match="'medium' for 'x'"):
        StubNameValidator(strictness={"x": "medium"})


@pytest.mark.parametrize("fraction", [0, 1, 0.5])
def test_stub_validator_accepts_fractions_in_range(fraction):
    validator = StubNameValidator(strict_fraction=fraction,
                                  lenient_fraction=fraction)
    assert validator.strict_fraction == validator.lenient_fraction == fraction


@pytest.mark.parametrize("name", ["strict_fraction", "lenient_fraction"])
@pytest.mark.parametrize("fraction", [5, -3, 1.5, -0.1, float("nan")])
def test_stub_validator_refuses_fractions_out_of_range(name, fraction):
    with pytest.raises(ValueError, match=f"oracle.{name} must be between"):
        StubNameValidator(**{name: fraction})


def test_stub_validator_no_letters():
    assert not StubNameValidator(strictness={"x": "lenient"}).judge("12 34", "x")
