import pytest

from namecountry import enrichment
from namecountry.core import register_taxonomy


@pytest.fixture
def tiny_taxonomy():
    return register_taxonomy("tiny", ["alfa", "bravo", "charlie"])


class SameNamesGenerator:
    """A generator oracle that offers every country the same names: each
    country gets a fresh stub stream for one fixed country."""

    def __init__(self, seed=0):
        self.seed = seed
        self.streams = {}

    def generate(self, country, n):
        stream = self.streams.setdefault(
            country, enrichment.StubNameGenerator(self.seed))
        return stream.generate("arcadia", n)


@pytest.fixture
def same_names_generator():
    return SameNamesGenerator
