"""Workload op lists, seeded input generation and output checks.

An op is one call of the public CLI, ``lppqs.cli.main(argv)``.  Each op
carries the name its reference output is stored under in
``expected.json`` and the kind of check applied to it:

* ``verify``: the JSON report, with every wall-clock ``seconds`` key removed,
  must equal the recorded one;
* ``stdout``: the stdout text must equal the recorded bytes;
* ``rc``: only the exit code is checked (the ``rsk --roundtrip`` ops, whose
  inputs are generated per seed and print nothing).

This module imports nothing from the program, so generating inputs never
loads it.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

WORKLOADS = ("verify", "exact_cdf", "montecarlo")

# The op of each workload reported as ``largest_op_s``.
LARGEST_OP = {
    "verify": "okada n=3 u=5",
    "exact_cdf": "cdf p2l n=5",
    "montecarlo": "deep",
}

# An op slower than this counts as failed.
OP_TIME_LIMIT_S = 60.0

# Factorization budget for the deep Monte Carlo op (acceptance criterion 7).
SUP_DISTANCE_LIMIT = 0.02

CDF_CASES = (
    ("p2hlr", 3, 6),
    ("p2pr", 3, 6),
    ("p2l", 3, 3),
    ("p2pr", 4, 6),
    ("p2l", 5, 4),
    ("p2hlr", 2, 12),
)

RSK_OPS = 80
RSK_SIZES = (8, 16)


class Op(NamedTuple):
    name: str
    argv: list[str]
    check: str


def _verify_ops(seed: int) -> list[Op]:
    ops = [
        Op(f"verify {scope}", ["verify", "--scope", scope, "--format", "json"], "verify")
        for scope in ("theorem", "stembridge")
    ]
    # greene and roundtrips draw their random inputs from --seed; their
    # reports hold only counts, so the reference output is seed-free
    for scope in ("greene", "roundtrips"):
        ops.append(Op(f"verify {scope}",
                      ["verify", "--scope", scope, "--seed", str(seed), "--format", "json"],
                      "verify"))
    for n in (1, 2, 3):
        for u in range(7):
            if (n, u) == (3, 6):
                continue  # 16 s alone: it would dominate the workload
            ops.append(Op(f"okada n={n} u={u}",
                          ["verify", "--scope", "okada", "--n", str(n), "--u", str(u),
                           "--format", "json"],
                          "verify"))
    return ops


def fixed_ops(workload: str, seed: int = 0) -> list[Op]:
    """The ops of a workload whose outputs are recorded in expected.json."""
    if workload == "verify":
        return _verify_ops(seed)
    if workload == "exact_cdf":
        return [
            Op(f"cdf {geo} n={n}",
               ["cdf", "--geometry", geo, "--n", str(n), "--y", "7/10",
                "--u-max", str(u), "--format", "json"],
               "stdout")
            for geo, n, u in CDF_CASES
        ]
    if workload == "montecarlo":
        return [
            Op("wide", ["simulate", "--geometry", "p2hlr", "--n", "200", "--samples", "2000",
                        "--y", "0.7", "--seed", "7", "--format", "json"], "stdout"),
            Op("deep", ["simulate", "--factorization", "--n", "30", "--samples", "100000",
                        "--y", "0.7", "--seed", "7", "--format", "json"], "stdout"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# --- seeded rsk inputs ---------------------------------------------------------
# The filling file format of lppqs: one line per row j, top row first, one
# cell per column i = 1..n, '-' for squares outside the domain.


def _contains(kind: str, n: int, i: int, j: int) -> bool:
    if kind == "p2hlr":
        return i <= j and i + j <= 2 * n + 1
    return i + j <= n + 1


def _rows(kind: str, n: int) -> int:
    return 2 * n if kind == "p2hlr" else n


def _passage_time(kind: str, n: int, weights: dict) -> int:
    best: dict[tuple[int, int], int] = {}
    for j in range(1, _rows(kind, n) + 1):
        for i in range(1, n + 1):
            if (i, j) in weights:
                best[(i, j)] = weights[(i, j)] + max(
                    best.get((i - 1, j), 0), best.get((i, j - 1), 0)
                )
    return max(best.values())


def _filling_text(kind: str, n: int, weights: dict) -> str:
    lines = []
    for j in range(_rows(kind, n), 0, -1):
        lines.append(" ".join(
            str(weights[(i, j)]) if (i, j) in weights else "-" for i in range(1, n + 1)
        ))
    return "\n".join(lines) + "\n"


def make_rsk_ops(seed: int, directory: Path) -> list[Op]:
    """Write RSK_OPS seeded filling files into directory; return their ops.

    Kinds alternate p2hlr / p2l; sizes are uniform in RSK_SIZES.  A p2hlr
    op's bound is the filling's passage time plus 0..2, so the bijection's
    precondition holds and every round trip must exit 0.
    """
    rng = random.Random(seed)
    ops = []
    for k in range(RSK_OPS):
        kind = "p2hlr" if k % 2 == 0 else "p2l"
        n = rng.randint(*RSK_SIZES)
        weights = {
            (i, j): (rng.randint(1, 3) if rng.random() < 0.4 else 0)
            for j in range(1, _rows(kind, n) + 1)
            for i in range(1, n + 1)
            if _contains(kind, n, i, j)
        }
        path = directory / f"rsk-{k:02d}-{kind}-n{n}.txt"
        path.write_text(_filling_text(kind, n, weights))
        argv = ["rsk", "--geometry", kind, "--input", str(path), "--roundtrip"]
        if kind == "p2hlr":
            argv += ["--u", str(_passage_time(kind, n, weights) + rng.randint(0, 2))]
        ops.append(Op(f"rsk {k:02d} {kind} n={n}", argv, "rc"))
    return ops


def make_ops(workload: str, seed: int, directory: Path) -> list[Op]:
    ops = fixed_ops(workload, seed)
    if workload == "verify":
        ops += make_rsk_ops(seed, directory)
    return ops


# --- checks -----------------------------------------------------------------------


def strip_seconds(obj):
    """Drop every wall-clock ``seconds`` key from a decoded verify report."""
    if isinstance(obj, dict):
        return {k: strip_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [strip_seconds(v) for v in obj]
    return obj


def canonical_output(op: Op, outcome: dict) -> tuple:
    """What two runs of an op must agree on: exit code and stdout, with the
    wall-clock seconds of a verify report removed."""
    text = outcome["stdout"]
    if op.check == "verify":
        try:
            text = json.dumps(strip_seconds(json.loads(text)), sort_keys=True)
        except ValueError:
            pass
    return outcome["rc"], text


def check_op(op: Op, outcome: dict, expected: dict) -> str | None:
    """Why one op's outcome is wrong, or None when it is right.

    outcome holds ``rc``, ``stdout``, ``stderr``, ``seconds`` and ``error``
    (the text of an exception the op raised, or None).
    """
    if outcome["error"] is not None:
        return f"raised {outcome['error']}"
    if outcome["seconds"] > OP_TIME_LIMIT_S:
        return f"took {outcome['seconds']:.1f}s > {OP_TIME_LIMIT_S}s"
    want_rc = 0 if op.check == "rc" else expected.get(op.name, {}).get("rc")
    if want_rc is None:
        return "no reference output recorded"
    if outcome["rc"] != want_rc:
        return f"exit code {outcome['rc']} != {want_rc}: {outcome['stderr'][-300:]!r}"
    if op.check == "rc":
        return None
    ref = expected[op.name]
    if op.check == "verify":
        try:
            got = strip_seconds(json.loads(outcome["stdout"]))
        except ValueError:
            return "stdout is not JSON"
        return None if got == ref["report"] else "verify report differs"
    return None if outcome["stdout"] == ref["stdout"] else "stdout differs"


def _cdf_table(stdout: str) -> dict[int, Fraction]:
    return {u: Fraction(p) for u, p in json.loads(stdout)["cdf"]}


def cross_checks(workload: str, outcomes: dict[str, dict]) -> dict[str, str]:
    """Independent checks across ops; maps an op name to why it failed.

    exact_cdf: P_hlr(u) = P_pr(u) * P_l(u/2) exactly at n=3 for even u.
    montecarlo: the deep op's factorization sup distance is within budget.
    """
    failures = {}
    try:
        if workload == "exact_cdf":
            hlr = _cdf_table(outcomes["cdf p2hlr n=3"]["stdout"])
            pr = _cdf_table(outcomes["cdf p2pr n=3"]["stdout"])
            pl = _cdf_table(outcomes["cdf p2l n=3"]["stdout"])
            bad = [u for u in range(0, 7, 2) if hlr[u] != pr[u] * pl[u // 2]]
            if bad:
                failures["cdf p2hlr n=3"] = f"factorization fails at u={bad}"
        elif workload == "montecarlo":
            sup = json.loads(outcomes["deep"]["stdout"])["sup_distance"]
            if not sup <= SUP_DISTANCE_LIMIT:
                failures["deep"] = f"sup_distance {sup} > {SUP_DISTANCE_LIMIT}"
    except (KeyError, ValueError, TypeError) as exc:
        failures[LARGEST_OP[workload]] = f"cross check could not read outputs: {exc!r}"
    return failures


def check_pass(workload: str, ops: list[Op], outcomes: dict[str, dict],
               expected: dict) -> dict[str, str]:
    """All failed ops of one pass, each with its first reason."""
    failures = {}
    for op in ops:
        reason = check_op(op, outcomes[op.name], expected)
        if reason:
            failures[op.name] = reason
    for name, reason in cross_checks(workload, outcomes).items():
        failures.setdefault(name, reason)
    return failures
