import random

import pytest

# the CLI's own random-input generators, imported by the tests from here
from lppqs.cli import random_cover, random_filling, random_partition  # noqa: F401
from lppqs.lpp import Geometry, lpp_time
from lppqs.partitions import EMPTY, GTPattern, Partition, SpGTPattern


def random_gt_pattern(rng, height, max_part=5):
    """Random ordinary pattern built by a random upward chain."""
    chain = [EMPTY]
    for _ in range(height):
        chain.append(random_cover(rng, chain[-1], slack=max_part))
    chain.reverse()  # chain was grown upward; rows need smallest first
    rows = [chain[height - i].pad(i) for i in range(1, height + 1)]
    return GTPattern(rows)


def random_spgt_pattern(rng, n, max_part=5):
    """Random symplectic pattern of height 2n via a constrained chain."""
    chain = [EMPTY]
    for i in range(1, 2 * n + 1):
        cap = (i + 1) // 2
        nxt = random_cover(rng, chain[-1], slack=max_part)
        while len(nxt) > cap:
            nxt = Partition(nxt.parts[:cap])
        chain.append(nxt)
    return SpGTPattern.from_chain(chain)


def random_bounded_filling(rng, kind="p2hlr", max_n=3, max_u=4):
    """(filling, u) with the passage time <= u, by rejection."""
    while True:
        n = rng.randint(1, max_n)
        f = random_filling(Geometry(kind, n), rng)
        t = lpp_time(f)
        if t <= max_u:
            return f, rng.randint(max(t, 1), max_u)


def all_paths(geometry):
    """Every up-right polymer from (1, 1) to the terminal set, as square lists."""
    terminals = set(geometry.terminal_squares())
    paths = []

    def walk(square, acc):
        if square in terminals:
            paths.append(list(acc))
        i, j = square
        for nxt in ((i + 1, j), (i, j + 1)):
            if geometry.contains(*nxt):
                acc.append(nxt)
                walk(nxt, acc)
                acc.pop()

    walk((1, 1), [(1, 1)])
    return paths


def lpp_time_by_paths(filling):
    """Independent passage-time oracle: explicit path enumeration."""
    return max(
        sum(filling.weights[sq] for sq in path)
        for path in all_paths(filling.geometry)
    )


@pytest.fixture
def rng():
    return random.Random(20240817)
