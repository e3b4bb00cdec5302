import os
import random
from pathlib import Path

import pytest

from lppqs.characters import unpack_exponents
# the CLI's own random-input generators, imported by the tests from here
from lppqs.cli import random_cover, random_filling, random_partition  # noqa: F401
from lppqs.lpp import Geometry, lpp_time

# pytest puts src on sys.path (pyproject.toml); the tests that run
# `python -m lppqs` or a demo in a subprocess need it on PYTHONPATH too
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH")])
)


def random_bounded_filling(rng, kind="p2hlr", max_n=3, max_u=4):
    """(filling, u) with the passage time <= u, by rejection."""
    while True:
        n = rng.randint(1, max_n)
        f = random_filling(Geometry(kind, n), rng)
        t = lpp_time(f)
        if t <= max_u:
            return f, rng.randint(max(t, 1), max_u)


# The domains and their terminal sets, written straight from the inequalities
# of the lpp module docstring: the oracle side of Geometry.squares().
def in_domain(kind, n, i, j):
    if i < 1 or j < 1:
        return False
    if kind == "p2hlr":
        return i <= j and i + j <= 2 * n + 1
    if kind == "p2pr":
        return i <= j <= n
    return i + j <= n + 1


def terminal_set(kind, n):
    """Where the polymers end, row-major: the anti-diagonal i + j = 2n + 1
    (p2hlr) or n + 1 (p2l), and the corner (n, n) of p2pr."""
    if kind == "p2pr":
        return [(n, n)]
    line = 2 * n + 1 if kind == "p2hlr" else n + 1
    return [(line - j, j) for j in range(1, line) if in_domain(kind, n, line - j, j)]


def all_paths(geometry):
    """Every up-right polymer from (1, 1) to the terminal set, as square lists."""
    kind, n = geometry.kind, geometry.n
    terminals = set(terminal_set(kind, n))
    paths = []

    def walk(square, acc):
        if square in terminals:
            paths.append(list(acc))
        i, j = square
        for nxt in ((i + 1, j), (i, j + 1)):
            if in_domain(kind, n, *nxt):
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


def exponent_dict(p):
    """The terms of a LaurentPolynomial keyed by exponent vector, so a test can
    substitute variables without the ring's own code."""
    return {unpack_exponents(k, p.nvars): c for k, c in p.terms.items()}
