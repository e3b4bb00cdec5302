"""One workload in a fresh process: timed passes over its op list.

Usage (run.py starts it with PYTHONPATH=src):
    python3 perfbench/worker.py OPS_JSON SECONDS TRACE SPANS_PATH

Starts passes while the elapsed time plus the median pass fits in SECONDS
(at least one), each op a call of ``lppqs.cli.main`` with stdout captured.
With TRACE=1 one traced pass follows; its outputs must equal the last
untraced pass byte for byte (verify reports without their wall-clock
seconds).  Prints one JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import Tracer, layer_metrics  # noqa: E402
from workloads import LARGEST_OP, Op, canonical_output, check_pass  # noqa: E402


def run_op(cli, op: Op) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "seconds": seconds, "error": error}


def run_pass(cli, ops, tracer=None) -> tuple[float, dict[str, dict]]:
    outcomes = {}
    t0 = time.perf_counter()
    for op in ops:
        if tracer is None:
            outcomes[op.name] = run_op(cli, op)
        else:
            with tracer.span(f"op:{op.name}"):
                outcomes[op.name] = run_op(cli, op)
    return time.perf_counter() - t0, outcomes


def run_workload(workload: str, ops: list[Op], expected: dict, seconds: float,
                 trace: bool, spans_path: str | None) -> dict:
    import lppqs.cli as cli

    walls, largest, failures = [], [], []
    attempted = 0
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        wall, outcomes = run_pass(cli, ops)
        if peak_rss_mb is None:
            # one pass is what a process serving these ops once would hold;
            # later passes only add allocator fragmentation
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        walls.append(wall)
        largest.append(outcomes[LARGEST_OP[workload]]["seconds"])
        attempted += len(ops)
        failures += sorted(check_pass(workload, ops, outcomes, expected).items())
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            break
    result = {
        "walls": walls,
        "largest": largest,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, traced = run_pass(cli, ops, tracer)
        finally:
            tracer.uninstall()
        attempted += len(ops)
        traced_failures = check_pass(workload, ops, traced, expected)
        for op in ops:
            if canonical_output(op, traced[op.name]) != canonical_output(
                    op, outcomes[op.name]):
                traced_failures.setdefault(op.name, "traced output differs from untraced")
        failures += sorted(traced_failures.items())
        result["layers"] = layer_metrics(
            tracer, traced_wall, statistics.median(walls),
            sum(len(o["stdout"].encode()) for o in traced.values()))
        if spans_path:
            tracer.write(spans_path)
    result["attempted"] = attempted
    result["failures"] = failures
    return result


def main(argv: list[str]) -> int:
    ops_path, seconds, trace, spans_path = argv
    spec = json.loads(Path(ops_path).read_text())
    ops = [Op(**d) for d in spec["ops"]]
    expected = json.loads((HERE / "expected.json").read_text()).get(spec["workload"], {})
    result = run_workload(spec["workload"], ops, expected, float(seconds),
                          trace == "1", spans_path or None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
