"""The lppqs benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload {verify,exact_cdf,montecarlo} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The run

1. generates the workload's seeded inputs under perfbench/.work/ (kept out
   of every metric);
2. measures set-up: the time to import ``lppqs.cli`` in a fresh
   interpreter, several times, reporting the median;
3. runs the workload in a fresh single-threaded worker process
   (perfbench/worker.py), which times passes over the op list for S seconds
   and checks every op's output;
4. prints, as its last stdout line, {"correct", "attempted", "failed",
   "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
   of one extra traced pass with --trace 1.

See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_ops  # noqa: E402

SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import lppqs.cli; "
    "print(time.perf_counter() - t)"
)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(root: Path, env: dict) -> float:
    """Median import time of lppqs.cli over fresh interpreters.

    One untimed probe first compiles the bytecode cache, which a user pays
    once per install, not per run.
    """
    times = []
    for k in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=root, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        if k:
            times.append(float(out.stdout))
    return statistics.median(times)


def run_worker(root: Path, env: dict, work: Path, workload: str, ops, seconds: int,
               trace: bool) -> dict:
    ops_path = work / "ops.json"
    ops_path.write_text(json.dumps({"workload": workload,
                                    "ops": [op._asdict() for op in ops]}))
    spans_path = HERE / ".work" / f"spans-{workload}.jsonl.gz" if trace else ""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(ops_path), str(seconds),
         "1" if trace else "0", str(spans_path)],
        cwd=root, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res: dict, setup_s: float) -> dict:
    return {
        "wall_s": {"value": statistics.median(res["walls"]), "unit": "s"},
        "wall_max_s": {"value": max(res["walls"]), "unit": "s"},
        "largest_op_s": {"value": statistics.median(res["largest"]), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(res: dict) -> dict:
    metrics = {name: {"value": value, "unit": _unit(name)}
               for name, value in res["layers"].items()}
    metrics["bench.passes"] = {"value": len(res["walls"]), "unit": "count"}
    metrics["bench.fail_ratio"] = {
        "value": len(res["failures"]) / res["attempted"], "unit": "ratio"}
    return metrics


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".share"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lppqs" / "cli.py").is_file():
        print("error: run from the lppqs repository root (src/lppqs not found)",
              file=sys.stderr)
        return 2
    env = child_env(root)
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    try:
        ops = make_ops(args.workload, args.seed, work.relative_to(root))
        setup_s = measure_setup(root, env)
        res = run_worker(root, env, work, args.workload, ops, args.seconds,
                         bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, reason in res["failures"]:
        print(f"FAILED {name}: {reason}", file=sys.stderr)
    metrics = per_layer(res) if args.trace else end_to_end(res, setup_s)
    print(json.dumps({
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
