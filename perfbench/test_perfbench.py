"""Tests of the benchmark's own code: span arithmetic, output checks, tracing.

Run from the repository root:  PYTHONPATH=src python -m pytest perfbench
"""

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, canonical_output, fixed_ops  # noqa: E402

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())

# The n=3 tables the factorization cross check reads; together about 2 s.
N3_TABLES = ("cdf p2hlr n=3", "cdf p2pr n=3", "cdf p2l n=3")


def n3_cdf_ops():
    return [op for op in fixed_ops("exact_cdf") if op.name in N3_TABLES]


def test_self_time_is_span_minus_child_spans():
    tr = layers.Tracer()
    root, a, leaf, b = (tr._name_id(x) for x in ("op:x", "a", "leaf", "b"))
    tr.spans = [
        (root, -1, 0.0, 10.0),
        (a, 0, 1.0, 4.0),
        (leaf, 1, 2.0, 3.0),
        (b, 0, 5.0, 9.0),
        (a, -1, 20.0, 22.5),  # a second root, outside op:x
    ]
    assert tr.self_times() == [3.0, 2.0, 1.0, 4.0, 2.5]
    assert tr.roots() == [0, 0, 0, 0, 4]
    assert tr.self_by_name() == {"op:x": 3.0, "a": 4.5, "leaf": 1.0, "b": 4.0}
    assert tr.self_by_name("op:x") == {"op:x": 3.0, "a": 2.0, "leaf": 1.0, "b": 4.0}


def test_span_context_records_parent():
    tr = layers.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    (o, o_parent, o0, o1), (i, i_parent, i0, i1) = tr.spans
    assert (tr.names[o], o_parent, tr.names[i], i_parent) == ("outer", -1, "inner", 0)
    assert o0 <= i0 <= i1 <= o1


def test_cross_checks_pass_on_recorded_outputs():
    cdf = {name: {"stdout": ref["stdout"]} for name, ref in EXPECTED["exact_cdf"].items()}
    mc = {name: {"stdout": ref["stdout"]} for name, ref in EXPECTED["montecarlo"].items()}
    assert workloads.cross_checks("exact_cdf", cdf) == {}
    assert workloads.cross_checks("montecarlo", mc) == {}


def test_corrupted_reference_output_fails_ops(monkeypatch):
    monkeypatch.setitem(workloads.LARGEST_OP, "exact_cdf", "cdf p2l n=3")
    ops = n3_cdf_ops()
    clean = worker.run_workload("exact_cdf", ops, EXPECTED["exact_cdf"], 0, False, None)
    assert clean["failures"] == [] and clean["attempted"] == len(ops)

    corrupted = copy.deepcopy(EXPECTED["exact_cdf"])
    corrupted["cdf p2pr n=3"]["stdout"] = corrupted["cdf p2pr n=3"]["stdout"].replace("1", "2", 1)
    res = worker.run_workload("exact_cdf", ops, corrupted, 0, False, None)
    assert [name for name, _ in res["failures"]] == ["cdf p2pr n=3"]
    assert len(res["failures"]) / res["attempted"] > 0


def test_check_op_counts_errors_exit_codes_and_slow_ops():
    op = Op("rsk 00", ["rsk"], "rc")
    ok = {"rc": 0, "stdout": "", "stderr": "", "seconds": 0.1, "error": None}
    assert workloads.check_op(op, ok, {}) is None
    assert workloads.check_op(op, dict(ok, rc=1), {})
    assert workloads.check_op(op, dict(ok, error="ValueError: x"), {})
    assert workloads.check_op(op, dict(ok, seconds=workloads.OP_TIME_LIMIT_S + 1), {})


def test_verify_reference_ignores_wall_clock_seconds():
    op = next(op for op in fixed_ops("verify") if op.name == "okada n=1 u=2")
    ref = EXPECTED["verify"][op.name]
    base = {"rc": 0, "stderr": "", "seconds": 0.0, "error": None}
    stdout = ('{"all_pass": true, "results": [{"label": "n=1 u=2", "n": 1, "ok": true, '
              '"scope": "okada", "seconds": %s, "u": 2}]}')
    fast, slow = dict(base, stdout=stdout % "0.001"), dict(base, stdout=stdout % "9.5")
    assert workloads.check_op(op, fast, {op.name: ref}) is None
    assert canonical_output(op, fast) == canonical_output(op, slow)
    wrong = dict(base, stdout=(stdout % "0.001").replace('"ok": true', '"ok": false'))
    assert workloads.check_op(op, wrong, {op.name: ref}) == "verify report differs"


def test_rsk_inputs_depend_only_on_seed(tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    ops_a = workloads.make_rsk_ops(5, a)
    ops_b = workloads.make_rsk_ops(5, b)
    workloads.make_rsk_ops(6, c)
    argv = lambda ops, d: [[arg.replace(str(d), "") for arg in op.argv] for op in ops]  # noqa: E731
    assert argv(ops_a, a) == argv(ops_b, b)
    files = lambda d: [p.read_text() for p in sorted(d.iterdir())]  # noqa: E731
    assert files(a) == files(b) != files(c)


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    import lppqs.characters as characters
    import lppqs.cli as cli

    poly = characters.LaurentPolynomial
    original = (poly.__mul__, cli.character_jt, characters.okada_product)
    ops = [op for op in fixed_ops("verify", seed=3)
           if op.name in ("okada n=2 u=4", "verify greene", "verify theorem")]
    ops += n3_cdf_ops()[1:]
    ops.append(Op("small simulate", ["simulate", "--factorization", "--n", "4",
                                     "--samples", "300", "--y", "0.5", "--format", "json"],
                  "stdout"))
    ops += workloads.make_rsk_ops(3, tmp_path)[:4]

    _, untraced = worker.run_pass(cli, ops)
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert poly.__rmul__ is poly.__mul__ is not original[0]
        assert cli.character_jt is characters.character_jt is not original[1]
        _, traced = worker.run_pass(cli, ops, tracer)
    finally:
        tracer.uninstall()
    assert (poly.__mul__, cli.character_jt, characters.okada_product) == original

    for op in ops:
        assert canonical_output(op, traced[op.name]) == canonical_output(op, untraced[op.name])
        assert traced[op.name]["rc"] == 0, op.name
    c = tracer.counts
    for layer in ("characters.okada_product", "characters.poly_mul", "lpp.bz_map",
                  "lpp.p2l_map", "probability.sample_passage_times", "cli.main"):
        assert c[f"{layer}.calls"] > 0, layer
    assert c["cli.main.calls"] == len(ops)
    assert c["characters.poly_mul.term_pairs"] > 0


def test_layer_metrics_of_an_empty_trace():
    m = layers.layer_metrics(layers.Tracer(), traced_wall=2.0, untraced_wall=1.5,
                             output_bytes=7)
    assert m["characters.poly_mul.term_pairs"] == 0
    assert m["characters.poly_mul.term_pairs_per_s"] == 0.0
    assert m["trace.overhead_s"] == 0.5 and m["cli.output_bytes"] == 7
