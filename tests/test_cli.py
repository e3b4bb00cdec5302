import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest


def run_cli(*args, input_text=None):
    return subprocess.run(
        [sys.executable, "-m", "lppqs", *args],
        capture_output=True,
        text=True,
        input=input_text,
        timeout=300,
    )


def test_verify_theorem_single_instance_prints_polynomials():
    res = run_cli("verify", "--scope", "theorem", "--n", "1", "--u", "2")
    assert res.returncode == 0
    assert "[theorem] n=1 u=2: PASS" in res.stdout
    poly = "1 + 1 * x1^1 + 2 * x1^2 + 1 * x1^3 + 1 * x1^4"
    assert f"lhs = {poly}" in res.stdout
    assert f"rhs = {poly}" in res.stdout
    assert res.stdout.strip().endswith("overall: PASS")


def test_verify_okada_trivial():
    res = run_cli("verify", "--scope", "okada", "--n", "1", "--u", "0")
    assert res.returncode == 0
    assert "PASS" in res.stdout


def test_verify_greene_json():
    res = run_cli(
        "verify", "--scope", "greene", "--trials", "25", "--max-dim", "4",
        "--format", "json",
    )
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["all_pass"] is True
    assert data["results"][0]["failures"] == 0


def test_verify_roundtrips_small():
    res = run_cli("verify", "--scope", "roundtrips", "--trials", "40")
    assert res.returncode == 0


def test_cdf_golden_text_and_csv():
    res = run_cli("cdf", "--geometry", "p2pr", "--n", "1", "--y", "1/2", "--u-max", "3")
    assert res.returncode == 0
    assert res.stdout.splitlines() == [
        "P(L <= 0) = 1/2",
        "P(L <= 1) = 3/4",
        "P(L <= 2) = 7/8",
        "P(L <= 3) = 15/16",
    ]
    res = run_cli(
        "cdf", "--geometry", "p2hlr", "--n", "1", "--y", "1/2", "--u-max", "2",
        "--format", "csv",
    )
    assert res.stdout.splitlines() == [
        "bound,prob",
        "0,3/8",
        "1,21/32",
        "2,105/128",
    ]


def test_cdf_rejects_bad_parameter():
    res = run_cli("cdf", "--geometry", "p2pr", "--n", "1", "--y", "3/2", "--u-max", "2")
    assert res.returncode == 2


def test_cdf_budget_exceeded_exit_code():
    # cdf walks no fillings, so it has no node budget: the run that once
    # exceeded a budget of 10 nodes prints the walk's values
    from lppqs.lpp import Geometry, degree_series
    from lppqs.probability import normalization_constant

    argv = ["cdf", "--geometry", "p2hlr", "--n", "3", "--y", "1/2", "--u-max", "4"]
    res = run_cli(*argv)
    assert res.returncode == 0
    geo, y = Geometry("p2hlr", 3), Fraction(1, 2)
    walked = [normalization_constant(geo, y) * degree_series(geo, u).specialize([y])
              for u in range(5)]
    assert res.stdout.splitlines() == [f"P(L <= {u}) = {p}" for u, p in enumerate(walked)]
    res = run_cli(*argv, "--node-budget", "10")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "unrecognized arguments: --node-budget 10" in res.stderr


def test_cdf_never_walks(monkeypatch, capsys):
    import lppqs.lpp
    from lppqs.cli import main

    def no_walk(*args, **kwargs):
        raise AssertionError("cdf reached the frontier walk")

    monkeypatch.setattr(lppqs.lpp, "_frontier_walk", no_walk)
    for geometry in ("p2hlr", "p2pr", "p2l"):
        assert main(["cdf", "--geometry", geometry, "--n", "7", "--y", "7/10",
                     "--u-max", "8"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.count("\n") == 9


def test_exponent_overflow_is_a_usage_error():
    # exponents up to 3 * 10^9 leave the packed range before any node is spent
    res = run_cli("verify", "--scope", "theorem", "--n", "1", "--u", "1000000000")
    assert res.returncode == 2
    assert res.stderr == (
        "error: exponents up to 3000000000 leave the packed range |e| < 2**31\n"
    )


def test_cdf_past_the_recursion_limit(capsys):
    # 1640 squares; at bound 0 the cdf is the normalization constant
    from lppqs.cli import main
    from lppqs.lpp import Geometry
    from lppqs.probability import normalization_constant

    argv = ["cdf", "--geometry", "p2hlr", "--n", "40", "--y", "1/2", "--u-max", "0"]
    assert main(argv) == 0
    z = normalization_constant(Geometry("p2hlr", 40), Fraction(1, 2))
    assert capsys.readouterr() == (f"P(L <= 0) = {z}\n", "")


@pytest.mark.parametrize("args,digest", [
    (("--geometry", "p2hlr", "--n", "3", "--y", "7/10", "--u-max", "6", "--format", "json"),
     "a136d39963f33b2c80c05b16aa655dc4"),
    (("--geometry", "p2l", "--n", "5", "--y", "7/10", "--u-max", "4", "--format", "json"),
     "32eb9cd2ff7d73296c7338d7754404d3"),
    (("--geometry", "p2pr", "--n", "4", "--y", "7/10", "--u-max", "6", "--format", "json"),
     "f3a111cf0f6c004b97d68f53249ac58a"),
    (("--geometry", "p2l", "--n", "5", "--y", "1/2", "--u-max", "4", "--format", "csv"),
     "033e3660d7c801b8ff21afd20c0bf53b"),
], ids=["p2hlr-json", "p2l-json", "p2pr-json", "p2l-csv"])
def test_cdf_bytes_are_pinned(capsys, args, digest):
    # md5 of stdout as first recorded, when cdf specialized the n-variable series
    from lppqs.cli import main

    assert main(["cdf", *args]) == 0
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == digest


def test_rsk_p2l_forward_golden(tmp_path):
    f = tmp_path / "w.txt"
    f.write_text("3\n")
    res = run_cli("rsk", "--geometry", "p2l", "--input", str(f))
    assert res.returncode == 0
    assert res.stdout.strip() == "6"


def test_rsk_p2hlr_zero_filling(tmp_path):
    f = tmp_path / "w.txt"
    f.write_text("0\n0\n")
    res = run_cli("rsk", "--geometry", "p2hlr", "--u", "2", "--input", str(f))
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["2", "2"]


def test_rsk_roundtrip_exit_zero(tmp_path):
    f = tmp_path / "w.txt"
    f.write_text("0 - -\n2 0 -\n1 0 3\n")
    res = run_cli("rsk", "--geometry", "p2l", "--input", str(f), "--roundtrip")
    assert res.returncode == 0, res.stderr


def test_rsk_inverse_round_trips_through_files(tmp_path):
    fin = tmp_path / "w.txt"
    fin.write_text("0 -\n1 0\n0 2\n1 -\n")
    fwd = run_cli("rsk", "--geometry", "p2hlr", "--u", "4", "--input", str(fin))
    assert fwd.returncode == 0, fwd.stderr
    pat = tmp_path / "z.txt"
    pat.write_text(fwd.stdout)
    inv = run_cli(
        "rsk", "--geometry", "p2hlr", "--u", "4", "--direction", "inverse",
        "--input", str(pat),
    )
    assert inv.returncode == 0, inv.stderr
    assert inv.stdout.strip() == fin.read_text().strip()


def test_rsk_bytes_are_pinned(tmp_path, capsys):
    # md5 of the forward and inverse stdout of 20 seeded fillings per
    # geometry, as first recorded, when the CLI held its own pattern format
    import random

    from conftest import random_filling
    from lppqs.cli import main
    from lppqs.lpp import Geometry, lpp_time

    rng = random.Random(15)
    digest = hashlib.md5()
    for t in range(20):
        for kind in ("p2hlr", "p2l"):
            f = random_filling(Geometry(kind, rng.randint(1, 5)), rng, max_entry=3, density=0.5)
            bound = ["--u", str(lpp_time(f) + rng.randint(0, 2))] if kind == "p2hlr" else []
            src, image = tmp_path / f"{kind}{t}.txt", tmp_path / f"{kind}{t}.pattern"
            src.write_text(f.to_text())
            assert main(["rsk", "--geometry", kind, *bound, "--input", str(src),
                         "--output", str(image)]) == 0
            assert main(["rsk", "--geometry", kind, *bound, "--direction", "inverse",
                         "--input", str(image)]) == 0
            back = capsys.readouterr().out
            assert back == f.to_text()
            digest.update((image.read_text() + back).encode())
    assert digest.hexdigest() == "8a7ba15436917467917bbff0e02aac68"


def test_rsk_negative_bound_is_a_usage_error(tmp_path):
    f = tmp_path / "w.txt"
    f.write_text("0\n0\n")
    res = run_cli("rsk", "--geometry", "p2hlr", "--u", "-1", "--input", str(f))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ")


def test_flags_a_run_ignores_are_usage_errors(tmp_path):
    f = tmp_path / "w.txt"
    f.write_text("3\n")
    m = tmp_path / "m.txt"
    m.write_text("1 2\n0 3\n")
    for args in (
        ("rsk", "--geometry", "p2l", "--u", "3", "--input", str(f)),
        ("rsk", "--geometry", "matrix-row", "--u", "1", "--input", str(m)),
        ("rsk", "--geometry", "matrix-col", "--u", "0", "--input", str(m)),
        ("rsk", "--geometry", "matrix-row", "--roundtrip", "--input", str(m)),
        ("rsk", "--geometry", "matrix-col", "--direction", "inverse", "--input", str(m)),
        ("rsk", "--geometry", "matrix-row", "--direction", "forward", "--input", str(m)),
        ("verify", "--scope", "greene", "--n", "1", "--u", "2", "--trials", "3"),
        ("verify", "--scope", "roundtrips", "--n", "1", "--u", "2", "--trials", "3"),
        ("verify", "--scope", "greene", "--u", "2", "--trials", "3"),
    ):
        res = run_cli(*args)
        assert res.returncode == 2, args
        assert res.stdout == "", args
        assert res.stderr.startswith("error: "), args
    # --trials stays accepted on the instance scopes, which do not read it
    res = run_cli("verify", "--scope", "okada", "--n", "1", "--u", "1", "--trials", "3")
    assert res.returncode == 0, res.stderr


def test_max_dim_off_greene_is_a_usage_error():
    # only the greene suite reads --max-dim
    for args in (
        ("--scope", "okada", "--n", "1", "--u", "1"),
        ("--scope", "theorem", "--n", "1", "--u", "2"),
        ("--scope", "stembridge", "--n", "1", "--u", "2"),
        ("--scope", "roundtrips", "--trials", "2"),
    ):
        res = run_cli("verify", *args, "--max-dim", "3")
        assert res.returncode == 2, args
        assert res.stdout == "", args
        assert res.stderr == f"error: --scope {args[1]} takes no --max-dim\n", args


def test_rsk_empty_pattern_file_is_a_parse_error(tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("\n")
    for geometry, bound in (("p2hlr", ["--u", "2"]), ("p2l", [])):
        res = run_cli("rsk", "--geometry", geometry, *bound, "--direction", "inverse",
                      "--input", str(f))
        assert res.returncode == 2, geometry
        assert res.stdout == "", geometry
        assert res.stderr == "error: cannot parse input: empty pattern file\n", geometry


def test_rsk_parse_error_exit_two(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("1 2\n3 4\n")  # full square is not a p2l domain
    res = run_cli("rsk", "--geometry", "p2l", "--input", str(f))
    assert res.returncode == 2


def test_rsk_domain_violation_exit_one(tmp_path):
    f = tmp_path / "z.txt"
    f.write_text("3\n")  # odd-row shape cannot come from the p2l map
    res = run_cli("rsk", "--geometry", "p2l", "--direction", "inverse", "--input", str(f))
    assert res.returncode == 1


def test_rsk_matrix_growth(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("1 2\n0 3\n")
    res = run_cli("rsk", "--geometry", "matrix-row", "--input", str(f))
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "corner: 6"
    res = run_cli("rsk", "--geometry", "matrix-col", "--input", str(f))
    assert res.stdout.splitlines()[0] == "corner: 5 1"


def test_simulate_byte_identical():
    args = (
        "simulate", "--geometry", "p2hlr", "--n", "4", "--q", "0.49",
        "--samples", "3000", "--seed", "7", "--format", "json",
    )
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    data = json.loads(a.stdout)
    assert data["seed"] == 7
    assert data["samples"] == 3000


@pytest.mark.parametrize("args,digest", [
    # three sample chunks, the last one partial
    (("--geometry", "p2l", "--n", "7", "--samples", "40003", "--y", "0.55", "--seed", "3"),
     "1e656175d2e505593febdc8721a7e698"),
    # a one-sample tail chunk
    (("--geometry", "p2hlr", "--n", "4", "--samples", "16385", "--q", "0.3", "--seed", "2"),
     "dab74ab2db87fdd23eeab1a0875a097e"),
], ids=["p2l-three-chunks", "p2hlr-one-sample-tail"])
def test_simulate_bytes_are_pinned(capsys, args, digest):
    # md5 of stdout as first recorded, when each square drew its whole stream at once
    from lppqs.cli import main

    assert main(["simulate", *args, "--format", "json"]) == 0
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == digest


def test_simulate_seed_range_ends_draw_different_samples(capsys):
    # 0 and 2**64 - 1 are the ends of the 64-bit Philox key word; a seed
    # past them is a usage error, not a wrap onto one of these
    from lppqs.cli import main

    outputs = []
    for seed in ("0", str(2**64 - 1)):
        assert main(["simulate", "--n", "3", "--y", "0.5", "--samples", "50",
                     "--seed", seed, "--format", "csv"]) == 0
        outputs.append(capsys.readouterr().out)
    # the csv is the empirical cdf alone, with no seed field
    assert outputs[0] != outputs[1]


def test_simulate_rejects_conflicting_parameters():
    res = run_cli("simulate", "--n", "2", "--q", "0.5", "--y", "0.5")
    assert res.returncode == 2
    res = run_cli("simulate", "--n", "2")
    assert res.returncode == 2


def test_simulate_factorization_mode():
    res = run_cli(
        "simulate", "--factorization", "--n", "4", "--q", "0.25",
        "--samples", "5000", "--seed", "1", "--format", "json",
    )
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["mode"] == "monte_carlo"
    assert data["sup_distance"] <= 0.05


def test_environment_variable_defaults(tmp_path):
    import os

    env = dict(os.environ)
    env["LPPQS_FORMAT"] = "csv"
    res = subprocess.run(
        [sys.executable, "-m", "lppqs", "cdf", "--geometry", "p2pr", "--n", "1",
         "--y", "1/2", "--u-max", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "bound,prob"


def test_non_integer_environment_default_is_a_usage_error():
    import os

    for var in ("LPPQS_NODE_BUDGET", "LPPQS_SEED"):
        env = dict(os.environ, **{var: "abc"})
        res = subprocess.run(
            [sys.executable, "-m", "lppqs", "verify", "--scope", "greene", "--trials", "1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert res.returncode == 2, var
        assert "invalid int value: 'abc'" in res.stderr
        assert "Traceback" not in res.stderr


@pytest.mark.parametrize("scope,flag", [
    *((scope, "--seed") for scope in ("theorem", "okada", "stembridge")),
    *((scope, "--node-budget") for scope in ("okada", "stembridge", "greene", "roundtrips")),
])
def test_verify_rejects_seed_and_budget_a_scope_ignores(scope, flag, capsys):
    from lppqs.cli import main

    sizes = ["--trials", "1"] if scope in ("greene", "roundtrips") else ["--n", "1", "--u", "2"]
    assert main(["verify", "--scope", scope, *sizes, flag, "4"]) == 2
    assert capsys.readouterr() == ("", f"error: --scope {scope} takes no {flag}\n")


def test_seed_and_budget_environment_defaults_apply_to_every_scope(monkeypatch, capsys):
    from lppqs.cli import main

    monkeypatch.setenv("LPPQS_SEED", "4")
    monkeypatch.setenv("LPPQS_NODE_BUDGET", "1")
    for scope in ("okada", "stembridge"):
        assert main(["verify", "--scope", scope, "--n", "1", "--u", "2"]) == 0, scope
    assert main(["verify", "--scope", "greene", "--trials", "1"]) == 0
    # the theorem suite reads the budget from the environment
    assert main(["verify", "--scope", "theorem", "--n", "1", "--u", "2"]) == 2
    assert capsys.readouterr().err == "error: enumeration exceeded 1 nodes\n"
    argv = ["simulate", "--n", "2", "--y", "0.5", "--samples", "20", "--format", "json"]
    assert main(argv) == 0
    from_env = capsys.readouterr().out
    monkeypatch.delenv("LPPQS_SEED")
    assert main([*argv, "--seed", "4"]) == 0
    assert capsys.readouterr().out == from_env
    # --scope all runs every suite, so it takes both flags
    assert main(["verify", "--scope", "all", "--n", "1", "--u", "2", "--trials", "2",
                 "--seed", "3", "--node-budget", "100000"]) == 0


def test_verify_theorem_and_okada_at_four_by_four(capsys):
    from lppqs.cli import main

    argv = ["verify", "--n", "4", "--u", "4", "--format", "json"]
    assert main([*argv, "--scope", "theorem"]) == 0
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert result["checks"] == dict.fromkeys(
        ("product", "half_pattern_series", "schur_series", "even_schur_series"), True)
    assert main([*argv, "--scope", "okada"]) == 0
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert (result["n"], result["u"], result["ok"]) == (4, 4, True)


def test_okada_and_stembridge_instances_at_n_4():
    # theorem (4, 4) is checked through main by the test above
    from lppqs.cli import INSTANCE_SUITES
    from lppqs.lpp import NODE_BUDGET

    for scope, bounds in (("okada", range(7)), ("stembridge", range(0, 9, 2))):
        check = INSTANCE_SUITES[scope][0]
        for u in bounds:
            assert check(4, u, NODE_BUDGET)["ok"], (scope, u)


def test_cdf_rejects_negative_u_max():
    res = run_cli("cdf", "--geometry", "p2pr", "--n", "1", "--y", "1/2", "--u-max", "-3")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: --u-max")


def test_rsk_bad_matrix_exit_two(tmp_path):
    for name, text in (("ragged", "1 2\n3\n"), ("empty", "\n"), ("negative", "1 -1\n0 2\n")):
        f = tmp_path / f"{name}.txt"
        f.write_text(text)
        res = run_cli("rsk", "--geometry", "matrix-row", "--input", str(f))
        assert res.returncode == 2, name
        assert res.stderr.startswith("error: cannot parse input"), name
        assert "Traceback" not in res.stderr


@pytest.mark.parametrize("argv", [
    ["verify", "--scope", "theorem", "--n", "1", "--u", "2"],
    ["cdf", "--geometry", "p2l", "--n", "1", "--y", "1/2", "--u-max", "1"],
    ["simulate", "--n", "1", "--y", "0.5", "--samples", "10"],
    ["rsk", "--geometry", "p2l", "--input", "INPUT"],
], ids=["verify", "cdf", "simulate", "rsk"])
def test_unwritable_output_is_a_usage_error(argv, tmp_path, capsys):
    from lppqs.cli import main

    f = tmp_path / "w.txt"
    f.write_text("3\n")
    argv = [str(f) if a == "INPUT" else a for a in argv]
    target = tmp_path / "missing" / "out.txt"
    assert main(argv + ["--output", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write output") and err.count("\n") == 1


def test_rsk_closes_its_input_file(tmp_path, capsys):
    import warnings

    from lppqs.cli import main

    f = tmp_path / "w.txt"
    f.write_text("3\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["rsk", "--geometry", "p2l", "--input", str(f)]) == 0
    assert capsys.readouterr().out == "6\n"
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_verify_json_byte_identical():
    args = ("verify", "--scope", "okada", "--n", "2", "--u", "3", "--format", "json")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert "seconds" not in a.stdout


def test_options_belong_to_the_subcommands_that_read_them(tmp_path):
    f = tmp_path / "w.txt"
    f.write_text("3\n")
    for args in (
        ("rsk", "--geometry", "p2l", "--input", str(f), "--format", "json"),
        ("rsk", "--geometry", "p2l", "--input", str(f), "--node-budget", "5"),
        ("simulate", "--n", "2", "--y", "0.5", "--samples", "10", "--node-budget", "5"),
    ):
        res = run_cli(*args)
        assert res.returncode == 2, args
        assert "unrecognized arguments" in res.stderr


def test_verify_csv_lists_one_row_per_result():
    res = run_cli("verify", "--scope", "okada", "--n", "1", "--u", "1", "--format", "csv")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["scope,label,ok", "okada,n=1 u=1,true"]


def test_invalid_format_environment_default_is_a_usage_error():
    import os

    env = dict(os.environ, LPPQS_FORMAT="xml")
    res = subprocess.run(
        [sys.executable, "-m", "lppqs", "cdf", "--geometry", "p2pr", "--n", "1",
         "--y", "1/2", "--u-max", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 2
    assert res.stdout == ""
    assert "invalid choice: 'xml'" in res.stderr


CDF_ARGV = ["cdf", "--geometry", "p2pr", "--n", "1", "--y", "1/2", "--u-max", "1"]


def test_each_main_call_reads_its_own_environment(monkeypatch, capsys, tmp_path):
    # the parser is built once per process; the env defaults are not
    from lppqs.cli import main

    monkeypatch.delenv("LPPQS_OUTPUT", raising=False)
    monkeypatch.setenv("LPPQS_FORMAT", "csv")
    assert main(CDF_ARGV) == 0
    assert capsys.readouterr() == ("bound,prob\n0,1/2\n1,3/4\n", "")
    out = tmp_path / "cdf.json"
    monkeypatch.setenv("LPPQS_FORMAT", "json")
    monkeypatch.setenv("LPPQS_OUTPUT", str(out))
    assert main(CDF_ARGV) == 0
    assert capsys.readouterr() == ("", "")
    assert json.loads(out.read_text())["cdf"] == [[0, "1/2"], [1, "3/4"]]
    monkeypatch.delenv("LPPQS_FORMAT")
    monkeypatch.delenv("LPPQS_OUTPUT")
    assert main(CDF_ARGV) == 0
    assert capsys.readouterr() == ("P(L <= 0) = 1/2\nP(L <= 1) = 3/4\n", "")


def test_an_argparse_error_leaves_the_next_call_alone(monkeypatch, capsys):
    from lppqs.cli import main

    monkeypatch.delenv("LPPQS_OUTPUT", raising=False)
    monkeypatch.setenv("LPPQS_FORMAT", "xml")
    with pytest.raises(SystemExit) as exc:
        main(CDF_ARGV)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(
        "lppqs cdf: error: argument --format: invalid choice: 'xml' "
        "(choose from text, json, csv)\n"
    )
    monkeypatch.setenv("LPPQS_FORMAT", "csv")
    with pytest.raises(SystemExit) as exc:
        main([*CDF_ARGV, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert main(CDF_ARGV) == 0
    assert capsys.readouterr() == ("bound,prob\n0,1/2\n1,3/4\n", "")
    assert main([*CDF_ARGV, "--format", "text"]) == 0
    assert capsys.readouterr() == ("P(L <= 0) = 1/2\nP(L <= 1) = 3/4\n", "")


def test_main_runs_the_command_the_module_holds_now(monkeypatch, capsys):
    import lppqs.cli

    assert lppqs.cli.main(CDF_ARGV) == 0  # the parser exists from here on
    capsys.readouterr()
    monkeypatch.setattr(lppqs.cli, "cmd_cdf", lambda args: 7)
    assert lppqs.cli.main(CDF_ARGV) == 7


HELP = {
    "": """usage: lppqs [-h] {verify,rsk,cdf,simulate} ...

Exact identities and simulation for planar last passage percolation.

positional arguments:
  {verify,rsk,cdf,simulate}
    verify              run exact identity and round-trip suites
    rsk                 apply a growth bijection to a filling file
    cdf                 exact distribution table of the passage time
    simulate            seeded Monte Carlo for the passage time

options:
  -h, --help            show this help message and exit
""",
    "cdf": """usage: lppqs cdf [-h] --geometry {p2hlr,p2pr,p2l} --n N --y Y --u-max U_MAX
                 [--output OUTPUT] [--format {text,json,csv}]

options:
  -h, --help            show this help message and exit
  --geometry {p2hlr,p2pr,p2l}
  --n N
  --y Y                 rational like 1/2 (all x_i = y)
  --u-max U_MAX
  --output OUTPUT       output file, '-' = stdout (env LPPQS_OUTPUT)
  --format {text,json,csv}
                        output format (env LPPQS_FORMAT)
""",
}


@pytest.mark.parametrize("command", ["", "cdf"])
def test_help_is_pinned(command, monkeypatch, capsys):
    # as printed at 80 columns under Python 3.11, whatever the env defaults
    from lppqs.cli import main

    monkeypatch.setenv("COLUMNS", "80")
    for fmt, output in (("json", "x.out"), ("text", None)):
        monkeypatch.setenv("LPPQS_FORMAT", fmt)
        if output:
            monkeypatch.setenv("LPPQS_OUTPUT", output)
        else:
            monkeypatch.delenv("LPPQS_OUTPUT", raising=False)
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr() == (HELP[command], "")


def test_exact_layers_never_load_numpy(tmp_path):
    script = (
        "import sys\n"
        "import lppqs.cli\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        "from lppqs.cli import main\n"
        f"for argv in ({CDF_ARGV!r}, ['verify', '--scope', 'okada', '--n', '1', '--u', '1'],\n"
        f"             ['rsk', '--geometry', 'p2l', '--input', {str(tmp_path / 'w.txt')!r}]):\n"
        "    assert main(argv) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, argv\n"
    )
    (tmp_path / "w.txt").write_text("3\n")
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("geometry,n", [("p2hlr", 100), ("p2pr", 120)])
def test_cdf_prints_exact_values_past_the_int_digit_limit(geometry, n, capsys):
    # str() refuses ints of more than 4300 digits; these values have more
    from lppqs.cli import main
    from lppqs.lpp import Geometry
    from lppqs.probability import exact_cdf

    z = exact_cdf(Geometry(geometry, n), 0, Fraction(1, 2))
    assert z.denominator > 10 ** 4300
    argv = ["cdf", "--geometry", geometry, "--n", str(n), "--y", "1/2", "--u-max", "0"]
    for fmt in ("text", "json", "csv"):
        assert main([*argv, "--format", fmt]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        if fmt == "text":
            text = out.removeprefix("P(L <= 0) = ")
        elif fmt == "json":
            text = json.loads(out)["cdf"][0][1]
        else:
            text = out.splitlines()[1].removeprefix("0,")
        num, den = text.strip().split("/")
        assert Fraction(_int_of(num), _int_of(den)) == z


def _int_of(digits: str) -> int:
    """int(digits) for any number of digits, read in blocks under the limit."""
    value = 0
    for k in range(0, len(digits), 1000):
        block = digits[k:k + 1000]
        value = value * 10 ** len(block) + int(block)
    return value


def test_verify_bad_sizes_are_usage_errors():
    for args in (
        ("--scope", "okada", "--n", "1"),
        ("--scope", "okada", "--u", "2"),
        ("--scope", "okada", "--n", "-1", "--u", "2"),
        ("--scope", "theorem", "--n", "0", "--u", "2"),
        ("--scope", "okada", "--n", "1", "--u", "-1"),
        ("--scope", "greene", "--max-dim", "0"),
        ("--scope", "roundtrips", "--trials", "-3"),
        ("--scope", "all", "--n", "1", "--u", "1", "--trials", "2"),
    ):
        res = run_cli("verify", *args)
        assert res.returncode == 2, args
        assert res.stdout == "", args
        assert res.stderr.startswith("error: "), args


def test_simulate_rejects_negative_q():
    res = run_cli("simulate", "--n", "2", "--q", "-0.1")
    assert res.returncode == 2
    assert res.stderr.startswith("error: parameter")


@pytest.mark.parametrize("exc,message", [
    (MemoryError("Unable to allocate 72.8 TiB"), "Unable to allocate 72.8 TiB"),
    (MemoryError(), "MemoryError"),
], ids=["message", "bare"])
def test_out_of_memory_is_a_budget_error(monkeypatch, capsys, exc, message):
    # stands in for numpy's allocation failure on a huge --samples, so
    # nothing is allocated
    import lppqs.cli

    def no_memory(spec, n_samples):
        raise exc

    monkeypatch.setattr(lppqs.cli, "sample_lpp", no_memory)
    argv = ["simulate", "--n", "1", "--samples", "10000000000000", "--y", "0.5"]
    assert lppqs.cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_exit_codes_on_drawn_arguments(tmp_path):
    """Any small drawn command line exits 0, 1 or 2; only argparse's
    SystemExit(2) escapes main, never another exception."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from lppqs.cli import SCOPES, main

    formats = st.sampled_from(["text", "json", "csv"])
    budget = st.sampled_from(["1", "50", "2000000"])
    token = st.sampled_from(["0", "1", "2", "3", "-", "-1", "x"])
    filling = st.lists(st.lists(token, max_size=4).map(" ".join), max_size=5).map("\n".join)

    def flag(draw, name, values):
        value = draw(st.none() | values)
        return [] if value is None else [name, str(value)]

    @st.composite
    def verify(draw):
        scope = draw(st.sampled_from([*SCOPES, "all"]))
        argv = ["verify", "--scope", scope]
        # a lone --n or --u is a usage error; neither would run the default
        # sizes, and no --trials the default trial counts, which take seconds.
        # greene and roundtrips take no sizes, so they also draw none.
        n, u = draw(st.integers(-1, 3)), draw(st.integers(-1, 4))
        sizes = [["--n", str(n), "--u", str(u)], ["--n", str(n)], ["--u", str(u)]]
        argv += draw(st.sampled_from(sizes + ([[]] if scope in ("greene", "roundtrips") else [])))
        argv += ["--trials", str(draw(st.integers(-1, 5)))]
        argv += flag(draw, "--max-dim", st.integers(-1, 4))
        argv += flag(draw, "--seed", st.integers(0, 3))
        argv += flag(draw, "--node-budget", budget)
        return argv + flag(draw, "--format", formats)

    @st.composite
    def rsk(draw):
        path = tmp_path / "input.txt"
        path.write_text(draw(filling))
        argv = ["rsk", "--input", str(path), "--geometry",
                draw(st.sampled_from(["p2hlr", "p2l", "matrix-row", "matrix-col"]))]
        argv += flag(draw, "--direction", st.sampled_from(["forward", "inverse"]))
        argv += flag(draw, "--u", st.integers(-1, 4))
        return argv + (["--roundtrip"] if draw(st.booleans()) else [])

    @st.composite
    def cdf(draw):
        argv = ["cdf", "--geometry", draw(st.sampled_from(["p2hlr", "p2pr", "p2l"])),
                "--n", str(draw(st.integers(-1, 3))),
                "--y", draw(st.sampled_from(["1/2", "7/10", "0", "3/2", "1/0", "abc"])),
                "--u-max", str(draw(st.integers(-1, 4)))]
        return argv + flag(draw, "--format", formats)

    @st.composite
    def simulate(draw):
        argv = ["simulate", "--n", str(draw(st.integers(-1, 3)))]
        argv += flag(draw, "--geometry", st.sampled_from(["p2hlr", "p2pr", "p2l"]))
        param = st.sampled_from(["0.25", "0.5", "0", "1", "1.5", "-0.1", "nan"])
        argv += flag(draw, "--q", param) + flag(draw, "--y", param)
        argv += flag(draw, "--samples", st.integers(-1, 50))
        argv += flag(draw, "--seed", st.integers(0, 3))
        argv += ["--factorization"] if draw(st.booleans()) else []
        return argv + flag(draw, "--format", formats)

    @hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.one_of(verify(), rsk(), cdf(), simulate()))
    def check(argv):
        try:
            rc = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
        else:
            assert rc in (0, 1, 2), argv

    check()


# Every usage error the subcommands detect themselves: argv (INPUT, BAD,
# EMPTY, MATRIX and MISSING name files made by the test; a leading NAME=VALUE
# sets that environment variable) and the exact stderr.
USAGE_ERRORS = {
    "verify-greene-n-u": (["verify", "--scope", "greene", "--n", "1", "--u", "2"],
                          "--scope greene takes no --n or --u"),
    "verify-roundtrips-u": (["verify", "--scope", "roundtrips", "--u", "2"],
                            "--scope roundtrips takes no --n or --u"),
    "verify-okada-max-dim": (["verify", "--scope", "okada", "--max-dim", "3"],
                             "--scope okada takes no --max-dim"),
    "verify-theorem-seed": (["verify", "--scope", "theorem", "--seed", "3"],
                            "--scope theorem takes no --seed"),
    "verify-greene-node-budget": (["verify", "--scope", "greene", "--node-budget", "3"],
                                  "--scope greene takes no --node-budget"),
    "verify-lone-n": (["verify", "--scope", "okada", "--n", "1"],
                      "give --n and --u together"),
    "verify-lone-u": (["verify", "--scope", "okada", "--u", "1"],
                      "give --n and --u together"),
    "verify-n-zero": (["verify", "--scope", "okada", "--n", "0", "--u", "1"],
                      "--n must be at least 1"),
    "verify-u-negative": (["verify", "--scope", "okada", "--n", "1", "--u", "-1"],
                          "--u must be at least 0"),
    "verify-trials-zero": (["verify", "--scope", "greene", "--trials", "0"],
                           "--trials must be at least 1"),
    "verify-max-dim-zero": (["verify", "--scope", "greene", "--max-dim", "0"],
                            "--max-dim must be at least 1"),
    "verify-theorem-odd-u": (["verify", "--scope", "theorem", "--n", "1", "--u", "3"],
                             "--scope theorem needs an even --u"),
    "verify-stembridge-odd-u": (["verify", "--scope", "stembridge", "--n", "1", "--u", "3"],
                                "--scope stembridge needs an even --u"),
    "verify-all-odd-u": (["verify", "--scope", "all", "--n", "1", "--u", "3"],
                         "--scope all needs an even --u"),
    "rsk-matrix-roundtrip": (["rsk", "--geometry", "matrix-row", "--roundtrip",
                              "--input", "MATRIX"],
                             "--direction and --roundtrip do not apply to matrix-row"),
    "rsk-matrix-direction": (["rsk", "--geometry", "matrix-col", "--direction", "forward",
                              "--input", "MATRIX"],
                             "--direction and --roundtrip do not apply to matrix-col"),
    "rsk-p2l-u": (["rsk", "--geometry", "p2l", "--u", "2", "--input", "INPUT"],
                  "--u applies to p2hlr only, not p2l"),
    "rsk-p2hlr-no-u": (["rsk", "--geometry", "p2hlr", "--input", "INPUT"],
                       "p2hlr needs a bound --u of at least 0"),
    "rsk-p2hlr-negative-u": (["rsk", "--geometry", "p2hlr", "--u", "-1", "--input", "INPUT"],
                             "p2hlr needs a bound --u of at least 0"),
    "rsk-unreadable": (["rsk", "--geometry", "p2l", "--input", "MISSING"],
                       "cannot read input: [Errno 2] No such file or directory: 'MISSING'"),
    "rsk-bad-filling": (["rsk", "--geometry", "p2l", "--input", "BAD"],
                        "cannot parse input: line 1: expected 1 cells"),
    "rsk-bad-matrix": (["rsk", "--geometry", "matrix-row", "--input", "BAD"],
                       "cannot parse input: invalid literal for int() with base 10: 'x'"),
    "rsk-empty-pattern": (["rsk", "--geometry", "p2l", "--direction", "inverse",
                           "--input", "EMPTY"],
                          "cannot parse input: empty pattern file"),
    "rsk-empty-matrix": (["rsk", "--geometry", "matrix-col", "--input", "EMPTY"],
                         "cannot parse input: matrix must be at least 1x1"),
    "cdf-y-unparsable": (["cdf", "--geometry", "p2l", "--n", "1", "--y", "x", "--u-max", "1"],
                         "cannot parse --y 'x' as a rational"),
    "cdf-y-zero-denominator": (["cdf", "--geometry", "p2l", "--n", "1", "--y", "1/0",
                                "--u-max", "1"],
                               "cannot parse --y '1/0' as a rational"),
    "cdf-y-out-of-range": (["cdf", "--geometry", "p2l", "--n", "1", "--y", "3/2",
                            "--u-max", "1"],
                           "--y must lie strictly between 0 and 1"),
    "cdf-u-max-negative": (["cdf", "--geometry", "p2l", "--n", "1", "--y", "1/2",
                            "--u-max", "-1"],
                           "--u-max must be non-negative"),
    "simulate-q-and-y": (["simulate", "--n", "1", "--q", "0.5", "--y", "0.5"],
                         "give exactly one of --q or --y"),
    "simulate-neither": (["simulate", "--n", "1"], "give exactly one of --q or --y"),
    "simulate-q-negative": (["simulate", "--n", "1", "--q", "-0.1"],
                            "parameter must lie strictly between 0 and 1"),
    "simulate-y-above-one": (["simulate", "--n", "1", "--y", "1.5"],
                             "parameter must lie strictly between 0 and 1"),
    "simulate-factorization-geometry": (["simulate", "--factorization", "--geometry", "p2l",
                                         "--n", "3", "--samples", "100", "--y", "0.5"],
                                        "--factorization takes no --geometry"),
    "simulate-seed-negative": (["simulate", "--n", "3", "--y", "0.5", "--seed", "-1"],
                               "seed must lie between 0 and 2**64 - 1"),
    "simulate-seed-2-64": (["simulate", "--n", "3", "--y", "0.5",
                            "--seed", "18446744073709551616"],
                           "seed must lie between 0 and 2**64 - 1"),
    "simulate-env-seed-negative": (["LPPQS_SEED=-1", "simulate", "--n", "3", "--y", "0.5"],
                                   "seed must lie between 0 and 2**64 - 1"),
    "simulate-env-seed-2-64": (["LPPQS_SEED=18446744073709551616",
                                "simulate", "--n", "3", "--y", "0.5"],
                               "seed must lie between 0 and 2**64 - 1"),
    "simulate-factorization-seed-negative": (["simulate", "--factorization", "--n", "3",
                                              "--y", "0.5", "--seed", "-1"],
                                             "seed must lie between 0 and 2**64 - 1"),
}


@pytest.mark.parametrize("argv,message", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_messages_are_pinned(argv, message, tmp_path, capsys, monkeypatch):
    from lppqs.cli import main

    while "=" in argv[0]:
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    files = {"INPUT": "3\n", "BAD": "1 x\n", "EMPTY": "\n", "MATRIX": "1 2\n0 3\n"}
    names = {"MISSING": str(tmp_path / "missing.txt")}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        names[name] = str(tmp_path / name)
    argv = [names.get(a, a) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message.replace('MISSING', names['MISSING'])}\n")


@pytest.mark.parametrize("demo",["01_patterns_and_characters.py", "02_growth_rules.py",
                                  "03_bijections.py", "04_product_identity.py"])
def test_demo_runs(demo):
    path = Path(__file__).resolve().parent.parent / "demos" / demo
    res = subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
