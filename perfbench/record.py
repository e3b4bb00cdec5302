"""Record the reference outputs of every fixed op into expected.json.

Run from the repository root, on the commit whose outputs are the
reference:

    PYTHONPATH=src python3 perfbench/record.py

verify reports are stored decoded with their wall-clock ``seconds`` keys
removed; cdf and simulate outputs are stored as the exact stdout text.  The
seeded ``rsk --roundtrip`` ops are not recorded: their inputs change with the
seed and the check is their exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import run_op  # noqa: E402
from workloads import WORKLOADS, fixed_ops, strip_seconds  # noqa: E402


def record() -> dict:
    import lppqs.cli as cli

    expected = {}
    for workload in WORKLOADS:
        refs = {}
        for op in fixed_ops(workload):
            outcome = run_op(cli, op)
            if outcome["error"] is not None:
                raise RuntimeError(f"{op.name}: {outcome['error']}")
            if op.check == "verify":
                refs[op.name] = {"rc": outcome["rc"],
                                 "report": strip_seconds(json.loads(outcome["stdout"]))}
            else:
                refs[op.name] = {"rc": outcome["rc"], "stdout": outcome["stdout"]}
        expected[workload] = refs
    return expected


if __name__ == "__main__":
    path = HERE / "expected.json"
    path.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
