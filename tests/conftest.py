"""Deterministic sampling helpers shared by the test modules."""

import random
from fractions import Fraction


def sample_parameters(seed: int, count: int, max_num: int = 40, max_den: int = 12):
    """Family parameters drawn from a seeded generator, never 0 or +-1."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if a in (0, 1, -1):
            continue
        out.append(a)
    return out


def sample_rationals(seed: int, count: int, max_num: int = 30, max_den: int = 10):
    rng = random.Random(seed)
    return [
        Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        for _ in range(count)
    ]


try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # The same examples on every run, no example database on disk, and no
    # per-example deadline: a slow host must not make a property test fail.
    settings.register_profile(
        "bqec", derandomize=True, deadline=None, max_examples=100, database=None
    )
    settings.load_profile("bqec")
