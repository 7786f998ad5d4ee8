"""Long-tail augmentation: budgets, prompt rendering, and name oracles.

Countries short on real names get synthetic ones from a generator oracle;
a validation oracle screens name/country pairs. Both oracles are interfaces
with two implementations: deterministic offline stubs (seeded syllable
synthesis, letter-inventory validation) and a generic HTTP chat-completion
client. Everything downstream of a fixed seed and the stub oracles is
reproducible byte for byte.
"""
from __future__ import annotations

import functools
import json
import logging
import os
import random
import time
from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence

from .core import NameRecord, Provenance, name_key, normalize_name

log = logging.getLogger(__name__)

DEFAULT_THRESHOLD = 6000
DEFAULT_BUDGET = 5000
DEFAULT_CHUNK_SIZE = 200

# Substituted verbatim; the repetition limit is also enforced locally in
# collect_synthetic because generators are free to ignore instructions.
PROMPT_TEMPLATE = (
    "Generate {n} realistic full names for people from {country}. "
    "Each line should contain a unique full name (first & last name). "
    "Avoid repeating the same first or last names more than 3 times."
)
MAX_TOKEN_REPEATS = 3
# A country is given up after this many chunks in a row add no name.
MAX_STALLED_CHUNKS = 3


class GeneratorOracle(Protocol):
    def generate(self, country: str, n: int) -> list[str]:
        """Return at most n candidate full names for the country."""


class ValidationOracle(Protocol):
    def judge(self, name: str, country: str) -> bool:
        """Accept or reject a name/country pair."""


@dataclass(frozen=True)
class AugmentBudget:
    country: str
    requested: int

    def __post_init__(self) -> None:
        if self.requested < 0:
            raise ValueError("requested must be non-negative")


def compute_budgets(
    counts: Mapping[str, int],
    threshold: int = DEFAULT_THRESHOLD,
    budget: int = DEFAULT_BUDGET,
    overrides: Mapping[str, int] | None = None,
) -> list[AugmentBudget]:
    """One AugmentBudget per country, requested>0 only strictly below threshold.

    Countries below the threshold request the flat default budget unless
    `overrides` names a country-specific amount. Output is sorted by country.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if budget <= 0:
        raise ValueError("budget must be positive")
    overrides = overrides or {}
    for country, amount in overrides.items():
        if not isinstance(amount, int) or isinstance(amount, bool) or amount < 0:
            raise ValueError(f"budget override for {country!r} must be a "
                             f"non-negative integer, not {amount!r}")
    budgets = []
    for country in sorted(counts):
        count = counts[country]
        if count < threshold:
            requested = overrides.get(country, budget)
        else:
            requested = 0
        budgets.append(AugmentBudget(country, requested))
    return budgets


def render_prompt(country: str, n: int) -> str:
    if n <= 0:
        raise ValueError("n must be positive")
    return PROMPT_TEMPLATE.format(n=n, country=country)


def collect_synthetic(
    budgets: Sequence[AugmentBudget],
    generator: GeneratorOracle,
    taken: set[str],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> dict[str, list[NameRecord]]:
    """Gather synthetic NameRecords per country, respecting each budget.

    Names are requested in chunks and filtered: empty names, names whose key
    (`name_key`) is in `taken`, and names whose first or last token has been
    used MAX_TOKEN_REPEATS times in the country are dropped. The key of each
    name kept joins `taken`, so calls that share the set keep a name once.
    A country stops early after MAX_STALLED_CHUNKS chunks in a row add
    nothing. A generator exception is not retried here (an oracle that
    retries does so itself): it is logged, the country is left partly filled
    and collection moves on. Countries are processed in sorted order so the
    result is deterministic for deterministic generators.

    Each candidate is normalized once (`normalize_name`). The token caps are
    checked on its first and last tokens, casefolded, before its key (the
    casefolded name, which is `name_key`) is built and looked up in `taken`;
    casefolding neither makes nor removes whitespace, so these are the
    key's own first and last tokens. A NameRecord is built, from the
    normalized name, only for a name that is kept.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    result: dict[str, list[NameRecord]] = {}
    for budget in sorted(budgets, key=lambda b: b.country):
        if budget.requested == 0:
            continue
        result[budget.country] = _collect_for_country(
            budget, generator, taken, chunk_size)
    return result


def _collect_for_country(
    budget: AugmentBudget,
    generator: GeneratorOracle,
    taken: set[str],
    chunk_size: int,
) -> list[NameRecord]:
    country, requested = budget.country, budget.requested
    kept: list[NameRecord] = []
    first_counts: dict[str, int] = {}
    last_counts: dict[str, int] = {}
    stalled = 0
    while len(kept) < requested and stalled < MAX_STALLED_CHUNKS:
        want = min(chunk_size, requested - len(kept))
        try:
            candidates = generator.generate(country, want)
        except Exception:
            log.warning("generator failed for %r; keeping %d of %d",
                        country, len(kept), requested, exc_info=True)
            break
        progress = 0
        for raw in candidates:
            if len(kept) >= requested:
                break
            name = normalize_name(raw)
            if not name:
                continue
            tokens = name.split(" ")
            first, last = tokens[0].casefold(), tokens[-1].casefold()
            if (first_counts.get(first, 0) >= MAX_TOKEN_REPEATS
                    or last_counts.get(last, 0) >= MAX_TOKEN_REPEATS):
                continue
            key = name.casefold()
            if key in taken:
                continue
            taken.add(key)
            first_counts[first] = first_counts.get(first, 0) + 1
            last_counts[last] = last_counts.get(last, 0) + 1
            kept.append(NameRecord(full_name=name, label=country,
                                   provenance=Provenance.SYNTHETIC))
            progress += 1
        stalled = 0 if progress else stalled + 1
    if len(kept) < requested:
        log.info("country %r filled %d of %d requested synthetic names",
                 country, len(kept), requested)
    return kept


# --- deterministic stub oracles -------------------------------------------

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"


@functools.lru_cache(maxsize=None)
def country_syllables(country: str) -> tuple[str, ...]:
    """A country's syllable inventory, a pure function of its name.

    Depending only on the country string (never on a generation seed) means
    independently seeded draws for the same country share one distribution,
    so stub-generated names resemble other names for that country.
    """
    rng = random.Random(f"inventory:{country}")
    consonants = rng.sample(_CONSONANTS, 7)
    vowels = rng.sample(_VOWELS, 3)
    return tuple(c + v for c in consonants for v in vowels)


@functools.lru_cache(maxsize=None)
def country_letters(country: str) -> frozenset[str]:
    return frozenset("".join(country_syllables(country)))


@functools.lru_cache(maxsize=None)
def _draw_table(country: str) -> tuple[tuple[str, ...], tuple[str, ...], int, int]:
    """What `synth_name` draws from: the country's syllables, the same
    syllables capitalized (for a token's first), their count and the number
    of random bits an index takes."""
    syllables = country_syllables(country)
    n = len(syllables)
    return (syllables, tuple(s.capitalize() for s in syllables), n,
            n.bit_length())


def synth_name(rng: random.Random, country: str) -> str:
    """Draw one two-token full name from the country's syllable inventory.

    Each token is 2 or 3 syllables, each drawn uniformly. The draws are the
    rejection sampling `Random.choice` does, written inline over
    `rng.getrandbits`, so the names and the generator state afterwards are
    those of `rng.choice((2, 3))` then `rng.choice(syllables)` per syllable;
    `test_synth_name_matches_random_choice_stream` pins this. A token's first
    syllable comes from the capitalized table, which is what capitalizing the
    lowercase token gives, and the draws of a token are unrolled: two
    syllables, then a third when `extra` is 1.
    """
    syllables, capitalized, n, bits = _draw_table(country)
    getrandbits = rng.getrandbits
    name = ""
    for separator in ("", " "):
        extra = getrandbits(2)  # choice((2, 3)): 2 + extra syllables
        while extra >= 2:
            extra = getrandbits(2)
        i = getrandbits(bits)
        while i >= n:
            i = getrandbits(bits)
        j = getrandbits(bits)
        while j >= n:
            j = getrandbits(bits)
        token = capitalized[i] + syllables[j]
        if extra:
            i = getrandbits(bits)
            while i >= n:
                i = getrandbits(bits)
            token += syllables[i]
        name += separator + token
    return name


class StubNameGenerator:
    """Offline GeneratorOracle: seeded syllable synthesis, no duplicates filter.

    Each country gets its own stream; successive calls continue the stream so
    chunked collection keeps seeing fresh names.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def generate(self, country: str, n: int) -> list[str]:
        if n <= 0:
            raise ValueError("n must be positive")
        rng = self._streams.get(country)
        if rng is None:
            rng = random.Random(f"stubgen:{self.seed}:{country}")
            self._streams[country] = rng
        return [synth_name(rng, country) for _ in range(n)]


@dataclass
class StubNameValidator:
    """Offline ValidationOracle: letter-inventory plausibility.

    A name passes when a large enough fraction of its letters belongs to the
    country's syllable inventory. `strictness` assigns "strict" or "lenient"
    per country; strictness for unlisted countries defaults to strict with
    one warning per validator (naming the first such country), since the
    right per-country choice is configuration.
    """

    strictness: dict[str, str] = field(default_factory=dict)
    strict_fraction: float = 0.8
    lenient_fraction: float = 0.5
    _warned: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for country, mode in self.strictness.items():
            if mode not in ("strict", "lenient"):
                raise ValueError(f"unknown strictness {mode!r} for {country!r};"
                                 f" expected 'strict' or 'lenient'")
        for name in ("strict_fraction", "lenient_fraction"):
            # `not 0 <= x <= 1` refuses NaN too.
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"oracle.{name} must be between 0 and 1, "
                                 f"got {getattr(self, name)!r}")

    def judge(self, name: str, country: str) -> bool:
        mode = self.strictness.get(country)
        if mode is None:
            if not self._warned:
                self._warned = True
                log.warning("no validator strictness configured for %r; "
                            "defaulting to strict for every unlisted "
                            "country", country)
            mode = "strict"
        required = (self.strict_fraction if mode == "strict"
                    else self.lenient_fraction)
        letters = [c for c in name_key(name) if c.isalpha()]
        if not letters:
            return False
        inventory = country_letters(country)
        fraction = sum(c in inventory for c in letters) / len(letters)
        return fraction >= required


# --- HTTP chat-completion oracle ------------------------------------------

class OracleTransportError(ValueError):
    """HTTP oracle failed after exhausting its retries."""


@dataclass(frozen=True)
class HttpOracleConfig:
    endpoint: str
    model: str
    api_key_env: str = "NAMECOUNTRY_API_KEY"
    timeout_seconds: float = 30.0
    max_retries: int = 3
    backoff_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.timeout_seconds <= 0:
            raise ValueError("oracle.http.timeout_seconds must be positive")
        if self.max_retries < 0:
            raise ValueError("oracle.http.max_retries must be non-negative")


class HttpChatOracle:
    """Generator and validation oracle over a chat-completion HTTP API.

    Requests use temperature 0; responses are parsed line by line with
    leading list markers stripped. The API key is read from the configured
    environment variable at call time; if unset the request is sent without
    an Authorization header (useful against local test servers).
    """

    def __init__(self, config: HttpOracleConfig):
        self.config = config
        self.calls = 0

    def generate(self, country: str, n: int) -> list[str]:
        content = self._chat(render_prompt(country, n))
        names = [_strip_list_marker(line) for line in content.splitlines()]
        return [name for name in names if name][:n]

    def judge(self, name: str, country: str) -> bool:
        prompt = (f'Is "{name}" a plausible full name for a person from '
                  f"{country}? Answer yes or no.")
        return self._chat(prompt).strip().casefold().startswith("yes")

    def _chat(self, prompt: str) -> str:
        payload = json.dumps({
            "model": self.config.model,
            "temperature": 0,
            "messages": [{"role": "user", "content": prompt}],
        }).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        # Imported here so that the stages on the stub oracles never load it.
        import urllib.request
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            request = urllib.request.Request(
                self.config.endpoint, data=payload, headers=headers)
            try:
                self.calls += 1
                with urllib.request.urlopen(
                        request, timeout=self.config.timeout_seconds) as resp:
                    body = json.loads(resp.read().decode("utf-8"))
                content = body["choices"][0]["message"]["content"]
                if not isinstance(content, str):
                    raise TypeError(f"reply content is "
                                    f"{type(content).__name__}, not a string")
                return content
            # OSError covers URLError and timeouts; ValueError covers bad JSON
            # and bad UTF-8; KeyError, IndexError and TypeError a reply of the
            # wrong shape.
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                last_error = exc
                if attempt == self.config.max_retries:
                    break
                delay = self.config.backoff_seconds * (2 ** attempt)
                log.warning("oracle request failed (attempt %d/%d): %s",
                            attempt + 1, self.config.max_retries, exc)
                if delay > 0:
                    time.sleep(delay)
        raise OracleTransportError(
            f"oracle request failed after {self.config.max_retries} "
            f"retries: {last_error}")


def _strip_list_marker(line: str) -> str:
    text = line.strip()
    for marker in ("-", "*", "•"):
        if text.startswith(marker):
            return text[1:].strip()
    head, sep, tail = text.partition(".")
    if sep and head.isdigit():
        return tail.strip()
    head, sep, tail = text.partition(")")
    if sep and head.isdigit():
        return tail.strip()
    return text
