import random
import sys

import pytest

from ucw import core
from ucw.core import Family, close_under_union, separating_quotient


def random_union_closed(rng: random.Random, m_max: int = 8) -> Family:
    """Union-closure of a few random generators; always has a non-empty member."""
    m = rng.randint(1, m_max)
    count = rng.randint(1, 4)
    gens = [rng.randint(1, (1 << m) - 1) for _ in range(count)]
    if rng.random() < 0.3:
        gens.append(0)
    return close_under_union(gens, m)


def random_separating_union_closed(rng: random.Random, m_max: int = 8) -> Family:
    """As above, then merged down to its separating quotient."""
    fam, _ = separating_quotient(random_union_closed(rng, m_max))
    return fam


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x5EED)


@pytest.fixture(params=[0, 640, 4300], ids=lambda limit: f"int-digits-{limit}")
def int_digit_limit(request):
    """Sets the interpreter's int-digit limit for one test: off, its least
    setting and its default. Readers of decimal input must not depend on it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    yield request.param
    sys.set_int_max_str_digits(saved)


@pytest.fixture
def union_augment_calls(monkeypatch) -> list[int]:
    """The masks passed to ``core._union_augment`` from here on.

    A family's closure scan makes one call per basis set, so the list counts
    scans.
    """
    calls = []

    def counted(closed, x, _orig=core._union_augment):
        calls.append(x)
        return _orig(closed, x)

    monkeypatch.setattr(core, "_union_augment", counted)
    return calls
