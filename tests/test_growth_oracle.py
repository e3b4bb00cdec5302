"""The local growth rules on parts tuples against their index-based oracle.

The oracle below reads every part through the zero-padded indexing
``Partition.__getitem__`` and tests each interlacing relation on its own, as
the rules were first written.  The rules in ``lppqs`` pad the parts tuples
once and fuse the paired tests; on every input, valid or not, both must give
the same partition or raise the same exception with the same message.
"""

import random

import pytest

import lppqs.growth as growth
from conftest import random_cover, random_filling, random_partition
from lppqs.growth import apply_local, col_rsk_local, invert_local, row_rsk_local
from lppqs.lpp import Geometry, bz_map, lpp_time, p2l_map
from lppqs.partitions import EMPTY, Partition, interlaces


def interlaces_by_index(mu, lam):
    top = max(len(mu), len(lam))
    return all(lam[i] >= mu[i] >= lam[i + 1] for i in range(top))


def _check_local_input_by_index(alpha, beta, kappa, g):
    if g < 0:
        raise ValueError("g must be non-negative")
    if not interlaces_by_index(kappa, alpha) or not interlaces_by_index(kappa, beta):
        raise ValueError(
            f"kappa must interlace below alpha and beta: {kappa!r}, {alpha!r}, {beta!r}"
        )


def row_rsk_local_by_index(alpha, beta, kappa, g):
    _check_local_input_by_index(alpha, beta, kappa, g)
    ell = min(len(alpha), len(beta)) + 1
    nu = [max(alpha[0], beta[0]) + g]
    for s in range(1, ell):
        nu.append(max(alpha[s], beta[s]) + min(alpha[s - 1], beta[s - 1]) - kappa[s - 1])
    return Partition(nu)


def col_rsk_local_by_index(alpha, beta, kappa, g):
    _check_local_input_by_index(alpha, beta, kappa, g)
    ell = min(len(alpha), len(beta)) + 1
    nu = [0] * ell
    gs = g
    for s in range(ell, 0, -1):
        grown = max(alpha[s - 1], beta[s - 1]) + gs
        if s == 1:
            nu[0] = grown
        else:
            cap = kappa[s - 2]
            nu[s - 1] = min(grown, cap)
            gs = (
                gs
                - min(gs, cap - max(alpha[s - 1], beta[s - 1]))
                + min(alpha[s - 2], beta[s - 2])
                - cap
            )
    return Partition(nu)


def invert_local_by_index(rule, alpha, beta, nu):
    if not interlaces_by_index(alpha, nu) or not interlaces_by_index(beta, nu):
        raise ValueError(
            f"nu must interlace above alpha and beta: {nu!r}, {alpha!r}, {beta!r}"
        )
    ell = min(len(alpha), len(beta)) + 1
    if rule == "row":
        g = nu[0] - max(alpha[0], beta[0])
        kappa_parts = [
            max(alpha[s], beta[s]) + min(alpha[s - 1], beta[s - 1]) - nu[s]
            for s in range(1, ell)
        ]
    elif rule == "col":
        gs = nu[0] - max(alpha[0], beta[0])
        kappa_parts = []
        for s in range(1, ell):
            k = max(min(alpha[s - 1], beta[s - 1]) - gs, nu[s])
            kappa_parts.append(k)
            gs = nu[s] + gs - max(alpha[s], beta[s]) - min(alpha[s - 1], beta[s - 1]) + k
        g = gs
    else:
        raise ValueError(f"unknown rule {rule!r}")
    if g < 0:
        raise ValueError("inconsistent input: reconstructed g is negative")
    try:
        kappa = Partition(kappa_parts)
    except ValueError as exc:
        raise ValueError(f"inconsistent input: {exc}") from exc
    if not interlaces_by_index(kappa, alpha) or not interlaces_by_index(kappa, beta):
        raise ValueError("inconsistent input: kappa does not interlace")
    return kappa, g


def _outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)


def _any_partition(rng):
    """A partition of 0..5 parts, often empty."""
    return random_partition(rng, max_len=rng.choice((0, 1, 2, 5)), max_part=5)


def _nudged(rng, p):
    """p with one part raised or lowered by one, kept a partition if possible."""
    parts = list(p.parts) + [0]
    k = rng.randrange(len(parts))
    parts[k] += rng.choice((-1, 1))
    parts.sort(reverse=True)
    return Partition(parts) if parts[-1] >= 0 else p


def _above_both(rng, alpha, beta):
    """A random nu interlacing above alpha and beta, or None if there is none."""
    shortest, longest = sorted((len(alpha), len(beta)))
    if longest > shortest + 1:
        return None
    length = rng.randint(longest, shortest + 1)
    parts = []
    for s in range(length):
        lo = max(alpha[s], beta[s])
        hi = min(alpha[s - 1], beta[s - 1]) if s else lo + rng.randint(0, 3)
        if hi < lo:
            return None
        parts.append(rng.randint(lo, hi))
    return Partition(parts)


def test_interlaces_matches_the_index_oracle():
    rng = random.Random(11)
    pairs = [(EMPTY, EMPTY), (EMPTY, Partition([1])), (Partition([1]), EMPTY)]
    for _ in range(4000):
        mu = _any_partition(rng)
        lam = random_cover(rng, mu) if rng.random() < 0.5 else _any_partition(rng)
        pairs.append((mu, lam))
    results = [interlaces(mu, lam) for mu, lam in pairs]
    assert results == [interlaces_by_index(mu, lam) for mu, lam in pairs]
    assert 0.2 < sum(results) / len(results) < 0.8  # both answers well represented


@pytest.mark.parametrize("rule,fast,oracle", [
    ("row", row_rsk_local, row_rsk_local_by_index),
    ("col", col_rsk_local, col_rsk_local_by_index),
])
def test_forward_rules_match_the_index_oracle(rule, fast, oracle):
    rng = random.Random(12 if rule == "row" else 13)
    kinds = set()
    for _ in range(3000):
        kappa = _any_partition(rng)
        if rng.random() < 0.6:
            alpha, beta = random_cover(rng, kappa), random_cover(rng, kappa)
            if rng.random() < 0.3:
                alpha = _nudged(rng, alpha)
        else:
            alpha, beta = _any_partition(rng), _any_partition(rng)
        g = rng.randint(-1, 6)
        got = _outcome(fast, alpha, beta, kappa, g)
        assert got == _outcome(oracle, alpha, beta, kappa, g), (alpha, beta, kappa, g)
        kinds.add(got[0] if got[0] == "value" else got[1].split(":")[0])
    assert kinds == {"value", "g must be non-negative",
                     "kappa must interlace below alpha and beta"}


@pytest.mark.parametrize("rule", ["row", "col"])
def test_inverse_rule_matches_the_index_oracle(rule):
    rng = random.Random(14 if rule == "row" else 15)
    kinds = set()
    for _ in range(4000):
        kappa = _any_partition(rng)
        alpha, beta = random_cover(rng, kappa), random_cover(rng, kappa)
        roll = rng.random()
        if roll < 0.3:
            nu = apply_local(rule, alpha, beta, kappa, rng.randint(0, 6))
        elif roll < 0.5:
            nu = _nudged(rng, apply_local(rule, alpha, beta, kappa, rng.randint(0, 6)))
        elif roll < 0.9:
            alpha, beta = _any_partition(rng), _any_partition(rng)
            nu = _above_both(rng, alpha, beta) or _any_partition(rng)
        else:
            alpha, beta, nu = _any_partition(rng), _any_partition(rng), _any_partition(rng)
        got = _outcome(invert_local, rule, alpha, beta, nu)
        assert got == _outcome(invert_local_by_index, rule, alpha, beta, nu), (
            alpha, beta, nu)
        kinds.add(got[0] if got[0] == "value" else got[1].split(":")[0])
    assert _outcome(invert_local, "diagonal", EMPTY, EMPTY, Partition([1])) == _outcome(
        invert_local_by_index, "diagonal", EMPTY, EMPTY, Partition([1]))
    # once nu interlaces above alpha and beta, the inverse exists (the rule is
    # a bijection), so the "inconsistent input" checks guard inputs no
    # random draw reaches
    assert kinds == {"value", "nu must interlace above alpha and beta"}


@pytest.mark.parametrize("kind", ["p2hlr", "p2l"])
def test_bijections_at_n16_match_growth_by_the_index_oracle(kind, monkeypatch):
    # n = 16 is the largest rsk size of the benchmark's verify workload
    rng = random.Random(16)
    cases = []
    for _ in range(3):
        f = random_filling(Geometry(kind, 16), rng, max_entry=3, density=0.4)
        cases.append((f, lpp_time(f) + rng.randint(0, 2)))

    def both_ways(f, u):
        if kind == "p2hlr":
            z = bz_map(f, u, "forward")
            return z, bz_map(z, u, "inverse")
        z = p2l_map(f, "forward")
        return z, p2l_map(z, "inverse")

    fast = [both_ways(f, u) for f, u in cases]
    for f, (_z, back) in zip(cases, fast):
        assert back == f[0]
    calls = []

    def counted(fn):
        def wrapped(*args):
            calls.append(fn)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(growth, "row_rsk_local", counted(row_rsk_local_by_index))
    monkeypatch.setattr(growth, "col_rsk_local", counted(col_rsk_local_by_index))
    monkeypatch.setattr(growth, "invert_local", counted(invert_local_by_index))
    assert [both_ways(f, u) for f, u in cases] == fast
    # every square grew and shrank through the oracle
    squares = len(Geometry(kind, 16).squares()) if kind == "p2hlr" else 16 * 17 // 2
    assert calls.count(invert_local_by_index) == 3 * squares
    assert len(calls) == 6 * squares
