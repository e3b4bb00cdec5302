"""Command-line front end: identity verification, bijection demos, CDFs, simulation.

Exit codes: 0 success, 1 mathematical failure (an identity or round trip
does not hold), 2 usage or budget errors.  A subcommand reports a usage
error by raising ValueError, which main prints as "error: ..." with exit 2.
Configuration precedence is flags > LPPQS_* environment variables >
built-in defaults.

All exact numbers print as rational strings ("15/16"); decimals appear only
in Monte Carlo statistics.  JSON and CSV output is byte-stable for a fixed
seed (timings are shown in text mode only).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction

from .characters import (
    _kronecker_mul,
    bounded_character_sum,
    character_jt,  # noqa: F401  test_traced_and_untraced_outputs_are_identical wraps it here
    character_tab,
    okada_product,
    product_of_variables,
)
from .growth import apply_local, check_weight_matrix, greene_oracle, grow_grid, invert_local
from .lpp import (
    KINDS,
    NODE_BUDGET,
    EnumerationBudgetError,
    Filling,
    Geometry,
    bz_map,
    generating_series,
    lpp_time,
    p2l_map,
)
from .partitions import GTPattern, Partition, SpGTPattern
from .probability import (
    GeometricSpec,
    exact_cdf,
    factorization_report,
    sample_lpp,
)

FORMATS = ("text", "json", "csv")
SCOPES = ("theorem", "okada", "stembridge", "greene", "roundtrips")


# --- verification suites ------------------------------------------------------
# The three instance suites share one signature (n, u, node_budget); only the
# theorem suite enumerates, so only it reads the budget.


def _theorem_instance(n: int, u: int, node_budget: int) -> dict:
    """Product identity plus the two route identities behind it at one size."""
    if u % 2:
        raise ValueError("the product identity needs even u")
    hlr = generating_series(Geometry("p2hlr", n), u, node_budget=node_budget)
    pr = generating_series(Geometry("p2pr", n), u, node_budget=node_budget)
    pl = generating_series(Geometry("p2l", n), u // 2, node_budget=node_budget)
    product = _kronecker_mul(pr, pl)
    sp_sum = bounded_character_sum("symplectic", u, n)
    checks = {
        "product": hlr == product,
        "half_pattern_series": hlr == product_of_variables(n, u) * sp_sum,
        "schur_series": pr == bounded_character_sum("schur", u, n),
        "even_schur_series": pl == bounded_character_sum("schur", u, n, even_rows_only=True),
    }
    return {
        "n": n,
        "u": u,
        "checks": checks,
        "ok": all(checks.values()),
        "lhs": hlr.canonical_text(),
        "rhs": product.canonical_text(),
    }


def _okada_instance(n: int, u: int, _node_budget: int) -> dict:
    lhs, rhs = okada_product(u, n)
    return {"n": n, "u": u, "ok": lhs == rhs}


def _stembridge_instance(n: int, u: int, _node_budget: int) -> dict:
    v = u // 2
    full = bounded_character_sum("schur", u, n)
    even = bounded_character_sum("schur", u, n, even_rows_only=True)
    ok = full == product_of_variables(n, v) * character_tab(
        "odd_orthogonal", Partition([v] * n), n
    ) and even == product_of_variables(n, v) * character_tab(
        "symplectic", Partition([v] * n), n
    )
    return {"n": n, "u": u, "ok": ok}


def _greene_suite(trials: int, max_dim: int, seed: int) -> dict:
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        m = rng.randint(1, max_dim)
        n = rng.randint(1, max_dim)
        mat = [[rng.randint(0, 4) for _ in range(n)] for _ in range(m)]
        lam = grow_grid(mat, "row")[m, n]
        mu = grow_grid(mat, "col")[m, n]
        for k in range(1, min(m, n) + 1):
            if sum(lam[i] for i in range(k)) != greene_oracle(mat, k, "up_right"):
                failures += 1
            if sum(mu[i] for i in range(k)) != greene_oracle(mat, k, "down_right"):
                failures += 1
    return {"trials": trials, "max_dim": max_dim, "failures": failures, "ok": failures == 0}


def random_partition(rng: random.Random, max_len: int = 4, max_part: int = 6) -> Partition:
    parts = sorted(
        (rng.randint(0, max_part) for _ in range(rng.randint(0, max_len))), reverse=True
    )
    return Partition(parts)


def random_cover(rng: random.Random, kappa: Partition, slack: int = 4) -> Partition:
    """A random partition interlacing above kappa."""
    length = len(kappa) + rng.randint(0, 1)
    parts = []
    for i in range(length):
        lo = kappa[i]
        hi = kappa[i - 1] if i >= 1 else lo + rng.randint(0, slack)
        parts.append(rng.randint(lo, hi))
    return Partition(parts)


def random_filling(geometry: Geometry, rng: random.Random, max_entry: int = 2,
                   density: float = 0.4) -> Filling:
    weights = {
        sq: (rng.randint(1, max_entry) if rng.random() < density else 0)
        for sq in geometry.squares()
    }
    return Filling(geometry, weights)


def _roundtrip_suite(local_trials: int, map_trials: int, seed: int) -> dict:
    rng = random.Random(seed)
    failures = 0
    for rule in ("row", "col"):
        for _ in range(local_trials):
            kappa = random_partition(rng)
            alpha = random_cover(rng, kappa)
            beta = random_cover(rng, kappa)
            g = rng.randint(0, 6)
            nu = apply_local(rule, alpha, beta, kappa, g)
            size_ok = kappa.size() + nu.size() == alpha.size() + beta.size() + g
            if not size_ok or invert_local(rule, alpha, beta, nu) != (kappa, g):
                failures += 1
    done = 0
    while done < map_trials:
        n = rng.randint(1, 3)
        f = random_filling(Geometry("p2hlr", n), rng)
        t = lpp_time(f)
        if t > 4:
            continue
        u = rng.randint(max(t, 1), 4)
        z = bz_map(f, u, "forward")
        bounds_ok = all(0 <= e <= u for row in z.rows for e in row)
        if not bounds_ok or bz_map(z, u, "inverse") != f:
            failures += 1
        done += 1
    for _ in range(map_trials):
        n = rng.randint(1, 4)
        f = random_filling(Geometry("p2l", n), rng, max_entry=3, density=0.5)
        z = p2l_map(f, "forward")
        sh = z.shape()
        ok = sh.has_even_rows() and sh[0] == 2 * lpp_time(f) and p2l_map(z, "inverse") == f
        if not ok:
            failures += 1
    return {
        "local_trials": local_trials,
        "map_trials": map_trials,
        "failures": failures,
        "ok": failures == 0,
    }


# scope -> (check at one size, default (n, u) sizes)
INSTANCE_SUITES = {
    "theorem": (_theorem_instance, [(1, 2), (1, 4), (2, 2), (2, 4), (3, 2)]),
    "okada": (_okada_instance, [(n, u) for n in (1, 2, 3) for u in range(0, 7)]),
    "stembridge": (_stembridge_instance, [(n, u) for n in (1, 2, 3) for u in (0, 2, 4, 6)]),
}


def cmd_verify(args) -> int:
    scopes = SCOPES if args.scope == "all" else (args.scope,)
    if args.scope not in (*INSTANCE_SUITES, "all") and (args.n, args.u) != (None, None):
        raise ValueError(f"--scope {args.scope} takes no --n or --u")
    for flag, value, readers in (("--max-dim", args.max_dim, ("greene",)),
                                 ("--seed", args.seed, ("greene", "roundtrips")),
                                 ("--node-budget", args.node_budget, ("theorem",))):
        if value is not None and args.scope not in (*readers, "all"):
            raise ValueError(f"--scope {args.scope} takes no {flag}")
    if (args.n is None) != (args.u is None):
        raise ValueError("give --n and --u together")
    for flag, value, least in (("--n", args.n, 1), ("--u", args.u, 0),
                               ("--trials", args.trials, 1), ("--max-dim", args.max_dim, 1)):
        if value is not None and value < least:
            raise ValueError(f"{flag} must be at least {least}")
    if args.scope in ("theorem", "stembridge", "all") and args.u is not None and args.u % 2:
        raise ValueError(f"--scope {args.scope} needs an even --u")
    seed = _int_default(args.seed, "LPPQS_SEED", 0)
    node_budget = _int_default(args.node_budget, "LPPQS_NODE_BUDGET", NODE_BUDGET)
    results = []
    seconds = []  # wall clock per result, shown in text output only
    show_polys = args.n is not None

    def run(scope, label, fn, *fargs):
        t0 = time.perf_counter()
        try:
            res = fn(*fargs)
        except ValueError as exc:
            res = {"ok": False, "error": str(exc)}
        seconds.append(round(time.perf_counter() - t0, 3))
        res["scope"] = scope
        res["label"] = label
        results.append(res)

    for scope in scopes:
        if scope in INSTANCE_SUITES:
            fn, defaults = INSTANCE_SUITES[scope]
            for n, u in [(args.n, args.u)] if show_polys else defaults:
                run(scope, f"n={n} u={u}", fn, n, u, node_budget)
        elif scope == "greene":
            trials = args.trials or 200
            run(scope, f"trials={trials}", _greene_suite, trials, args.max_dim or 5, seed)
        else:
            local = args.trials or 1000
            maps = max(1, local // 2)
            run(scope, f"local={local} maps={maps}", _roundtrip_suite, local, maps, seed)

    all_ok = all(r["ok"] for r in results)
    if args.format == "json":
        out = {"results": results, "all_pass": all_ok}
        _emit(json.dumps(out, sort_keys=True), args.output)
    elif args.format == "csv":
        lines = ["scope,label,ok"] + [
            f"{r['scope']},{r['label']},{str(r['ok']).lower()}" for r in results
        ]
        _emit("\n".join(lines), args.output)
    else:
        lines = []
        for r, secs in zip(results, seconds):
            status = "PASS" if r["ok"] else "FAIL"
            lines.append(f"[{r['scope']}] {r['label']}: {status} ({secs}s)")
            if show_polys and "lhs" in r:
                lines.append(f"  lhs = {r['lhs']}")
                lines.append(f"  rhs = {r['rhs']}")
        lines.append(f"overall: {'PASS' if all_ok else 'FAIL'}")
        _emit("\n".join(lines), args.output)
    return 0 if all_ok else 1


# --- bijection driver ----------------------------------------------------------


def _partition_to_text(p: Partition) -> str:
    return " ".join(str(x) for x in p.parts) if p else "-"


def cmd_rsk(args) -> int:
    matrix = args.geometry in ("matrix-row", "matrix-col")
    if matrix and (args.direction is not None or args.roundtrip):
        raise ValueError(f"--direction and --roundtrip do not apply to {args.geometry}")
    if args.geometry != "p2hlr" and args.u is not None:
        raise ValueError(f"--u applies to p2hlr only, not {args.geometry}")
    if args.geometry == "p2hlr" and (args.u is None or args.u < 0):
        raise ValueError("p2hlr needs a bound --u of at least 0")
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input) as fh:
                text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read input: {exc}") from None

    forward = args.direction != "inverse"
    try:
        if matrix:
            obj = [[int(tok) for tok in line.split()] for line in text.strip().splitlines()]
            check_weight_matrix(obj)
        elif forward:
            obj = Filling.from_text(args.geometry, text)
        else:
            obj = (SpGTPattern if args.geometry == "p2hlr" else GTPattern).from_text(text)
    except ValueError as exc:
        raise ValueError(f"cannot parse input: {exc}") from None

    try:
        if matrix:
            rule = "row" if args.geometry.endswith("row") else "col"
            pts = grow_grid(obj, rule)
            m, n = len(obj), len(obj[0])
            north = [_partition_to_text(pts[i, n]) for i in range(m + 1)]
            east = [_partition_to_text(pts[m, j]) for j in range(n + 1)]
            lines = [f"corner: {_partition_to_text(pts[m, n])}",
                     "north: " + " | ".join(north), "east: " + " | ".join(east)]
            _emit("\n".join(lines), args.output)
            return 0
        # the maps are looked up on every call, so a module attribute replaced
        # later (a test's monkeypatch, a tracer's wrapper) is the one that runs
        bijection = functools.partial(bz_map, u=args.u) if args.geometry == "p2hlr" else p2l_map
        image = bijection(obj, direction="forward" if forward else "inverse")
        if args.roundtrip:
            back = bijection(image, direction="inverse" if forward else "forward")
            return 0 if back == obj else 1
        _emit(image.to_text().rstrip("\n"), args.output)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# --- probability drivers --------------------------------------------------------


def _rational(p: Fraction) -> str:
    """str(p) at any length.  str refuses an int of more than
    sys.get_int_max_str_digits() digits; the digits of Decimal(int) are
    exact and have no such limit."""
    num = str(Decimal(p.numerator))
    return num if p.denominator == 1 else f"{num}/{Decimal(p.denominator)}"


def cmd_cdf(args) -> int:
    try:
        y = Fraction(args.y)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse --y {args.y!r} as a rational") from None
    if not 0 < y < 1:
        raise ValueError("--y must lie strictly between 0 and 1")
    if args.u_max < 0:
        raise ValueError("--u-max must be non-negative")
    geo = Geometry(args.geometry, args.n)
    rows = [(u, exact_cdf(geo, u, y)) for u in range(0, args.u_max + 1)]
    if args.format == "json":
        out = {
            "geometry": args.geometry,
            "n": args.n,
            "y": _rational(y),
            "cdf": [[u, _rational(p)] for u, p in rows],
        }
        _emit(json.dumps(out, sort_keys=True), args.output)
    elif args.format == "csv":
        lines = ["bound,prob"] + [f"{u},{_rational(p)}" for u, p in rows]
        _emit("\n".join(lines), args.output)
    else:
        lines = [f"P(L <= {u}) = {_rational(p)}" for u, p in rows]
        _emit("\n".join(lines), args.output)
    return 0


def cmd_simulate(args) -> int:
    if (args.q is None) == (args.y is None):
        raise ValueError("give exactly one of --q or --y")
    # test the given parameter before the square root: a negative q has a
    # complex root, which does not compare with 0 and 1
    if not 0 < (args.q if args.y is None else args.y) < 1:
        raise ValueError("parameter must lie strictly between 0 and 1")
    y = args.y if args.y is not None else args.q ** 0.5
    seed = _int_default(args.seed, "LPPQS_SEED", 0)

    if args.factorization:
        if args.geometry is not None:
            raise ValueError("--factorization takes no --geometry")
        rep = factorization_report(
            args.n, y, "monte_carlo", n_samples=args.samples, seed=seed
        )
        if args.format == "csv":
            lines = ["field,value"] + [f"{k},{v}" for k, v in sorted(rep.items())]
            _emit("\n".join(lines), args.output)
        else:
            _emit(json.dumps(rep, sort_keys=True), args.output)
        return 0

    spec = GeometricSpec(y, Geometry(args.geometry or "p2hlr", args.n), seed)
    report = sample_lpp(spec, args.samples)
    if args.format == "csv":
        _emit(report.to_csv().rstrip("\n"), args.output)
    elif args.format == "text":
        lines = [
            f"geometry {report.geometry} n={report.n} q={report.q} "
            f"seed={report.seed} samples={report.samples}",
            f"mean {report.mean:.6f} variance {report.variance:.6f}",
            f"normalized mean {report.normalized['mean']:.6f} "
            f"variance {report.normalized['variance']:.6f} "
            f"skewness {report.normalized['skewness']:.6f}",
            f"wall clock {report.wall_clock:.3f}s",
        ]
        _emit("\n".join(lines), args.output)
    else:
        _emit(report.to_json(), args.output)
    return 0


# --- plumbing -------------------------------------------------------------------


def _emit(text: str, output: str | None):
    if output and output != "-":
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _int_default(value: int | None, var: str, default: int) -> int:
    """An integer option's value: the flag, else the environment variable
    var, else the built-in default.  Read after parsing, so that a command
    can tell a flag it does not read from a default that applies to all."""
    if value is not None:
        return value
    text = os.environ.get(var)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{var}: invalid int value: {text!r}") from None


def _format_name(text: str) -> str:
    if text not in FORMATS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(FORMATS)})"
        )
    return text


@functools.lru_cache(maxsize=1)
def _parser() -> tuple[argparse.ArgumentParser, list]:
    """The parser, built once per process, and the (action, variable,
    fallback) of each option whose default comes from the environment."""
    parser = argparse.ArgumentParser(
        prog="lppqs",
        description="Exact identities and simulation for planar last passage percolation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run exact identity and round-trip suites")
    verify.add_argument("--scope", required=True, choices=[*SCOPES, "all"])
    verify.add_argument("--n", type=int, default=None)
    verify.add_argument("--u", type=int, default=None)
    verify.add_argument("--trials", type=int, default=None)
    verify.add_argument("--max-dim", type=int, default=None)

    rsk = sub.add_parser("rsk", help="apply a growth bijection to a filling file")
    rsk.add_argument(
        "--geometry",
        required=True,
        choices=["p2hlr", "p2l", "matrix-row", "matrix-col"],
    )
    rsk.add_argument("--direction", choices=["forward", "inverse"], default=None,
                     help="p2hlr and p2l only (default forward)")
    rsk.add_argument("--u", type=int, default=None, help="bound for the p2hlr bijection")
    rsk.add_argument("--input", required=True, help="filling/pattern file, '-' = stdin")
    rsk.add_argument("--roundtrip", action="store_true",
                     help="apply forward then inverse and exit 0 iff identical")

    cdf = sub.add_parser("cdf", help="exact distribution table of the passage time")
    cdf.add_argument("--geometry", required=True, choices=KINDS)
    cdf.add_argument("--n", type=int, required=True)
    cdf.add_argument("--y", required=True, help="rational like 1/2 (all x_i = y)")
    cdf.add_argument("--u-max", type=int, required=True)

    simulate = sub.add_parser("simulate", help="seeded Monte Carlo for the passage time")
    simulate.add_argument("--geometry", choices=KINDS)
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--q", type=float, default=None,
                          help="geometric parameter (y = sqrt(q))")
    simulate.add_argument("--y", type=float, default=None)
    simulate.add_argument("--samples", type=int, default=10000)
    simulate.add_argument("--factorization", action="store_true",
                          help="compare the three empirical laws instead of one run")

    # main sets the defaults of --output and --format from LPPQS_OUTPUT and
    # LPPQS_FORMAT on every call, as the raw environment strings: argparse
    # applies an option's type to a string default, so a bad value is a
    # usage error (exit 2) like a bad flag.  The integer defaults are read
    # by _int_default instead.
    env_defaults = []
    for p in (verify, rsk, cdf, simulate):
        action = p.add_argument("--output",
                                help="output file, '-' = stdout (env LPPQS_OUTPUT)")
        env_defaults.append((action, "LPPQS_OUTPUT", None))
    for p in (verify, cdf, simulate):
        action = p.add_argument("--format", type=_format_name, metavar="{text,json,csv}",
                                help="output format (env LPPQS_FORMAT)")
        env_defaults.append((action, "LPPQS_FORMAT", "text"))
    for p in (verify, simulate):
        p.add_argument("--seed", type=int, default=None,
                       help="random seed (env LPPQS_SEED)")
    verify.add_argument("--node-budget", type=int, default=None,
                        help="generating-series node budget (env LPPQS_NODE_BUDGET)")

    return parser, env_defaults


def main(argv=None) -> int:
    parser, env_defaults = _parser()
    for action, var, fallback in env_defaults:
        action.default = os.environ.get(var, fallback)
    args = parser.parse_args(argv)
    # looked up on every call, not bound into the parser that outlives it, so
    # a module attribute replaced later (a test's monkeypatch, a tracer's
    # wrapper) is the one that runs
    command = {"verify": cmd_verify, "rsk": cmd_rsk, "cdf": cmd_cdf,
               "simulate": cmd_simulate}[args.command]
    try:
        return command(args)
    except (EnumerationBudgetError, MemoryError, OverflowError, ValueError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
