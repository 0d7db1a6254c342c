import argparse
import hashlib
import json
from pathlib import Path

import pytest

from kcrystals import golden
from kcrystals.cli import build_parser, main
from kcrystals.kohnert import KKohnertDiagram
from kcrystals.polynomials import parse_polynomial
from kcrystals.skyline import SkylineTableau
from kcrystals.tableaux import SetValuedTableau
from kcrystals.verify import Bounds, run_suite, worker_count

GOLDEN = Path(__file__).parent / "golden"
WORKLOADS = Path(__file__).parents[1] / "benchmarks" / "workloads.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_lascoux_command_golden(capsys):
    code, out = run(capsys, "lascoux", "--weight", "0,2,2", "--n", "3")
    assert code == 0
    assert out.strip() == golden.text("lascoux_022.txt").strip()


def test_lascoux_command_trivial_and_atom(capsys):
    code, out = run(capsys, "lascoux", "--weight", "2,2,0", "--n", "3")
    assert (code, out.strip()) == (0, "x1^2*x2^2")
    code, out = run(capsys, "lascoux", "--weight", "2,0,2", "--n", "3", "--atom")
    assert code == 0
    assert len(out.strip().split(" + ")) == 4


def test_lascoux_command_json(capsys):
    code, out = run(capsys, "lascoux", "--weight", "2,2,0", "--n", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["polynomial"] == "x1^2*x2^2"
    assert payload["atom"] is False


def test_enumerate_svt(capsys):
    code, out = run(capsys, "enumerate", "svt", "--shape", "2,2", "--n", "3")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 13
    assert lines == (GOLDEN / "square22_tableaux.txt").read_text().splitlines()
    assert run(capsys, "enumerate", "svt", "--shape", "2,2", "--n", "3", "--format", "text") == (code, out)
    code, out = run(capsys, "enumerate", "svt", "--shape", "2,2", "--n", "3", "--count")
    assert out.strip() == "13"


def test_enumerate_kohnert(capsys):
    code, out = run(capsys, "enumerate", "kohnert", "--shape", "0,2,2")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 13
    parsed = [KKohnertDiagram.from_json_dict(json.loads(line)) for line in lines]
    assert len(set(parsed)) == 13


def test_enumerate_kohnert_rejects_an_explicit_n(capsys):
    # a diagram's columns are the composition's parts, so --n has no meaning
    for n in ("1", "0", "3"):
        assert main(["enumerate", "kohnert", "--shape", "2,0,2", "--n", n, "--count"]) == 2, n
        captured = capsys.readouterr()
        assert captured.out == "" and "does not read --n" in captured.err
    assert run(capsys, "enumerate", "kohnert", "--shape", "2,0,2", "--count") == (0, "5\n")


@pytest.mark.parametrize("kind", ["svt", "skyline"])
def test_enumerate_says_which_n_it_rejects(capsys, kind):
    assert main(["enumerate", kind, "--shape", "2"]) == 2
    assert capsys.readouterr().err == "error: --n is required for svt and skyline\n"
    for n in ("0", "-1"):
        assert main(["enumerate", kind, "--shape", "2", "--n", n]) == 2, n
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --n must be a positive integer for svt and skyline\n"), n


def test_enumerate_skyline(capsys):
    code, out = run(capsys, "enumerate", "skyline", "--shape", "2,0,2", "--n", "3")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 4
    parsed = [SkylineTableau.from_json_dict(json.loads(line)) for line in lines]
    assert len(set(parsed)) == 4


@pytest.mark.parametrize("kind,argv", [("kohnert", ()), ("skyline", ("--n", "3"))])
def test_enumerate_kohnert_and_skyline_reject_format(capsys, kind, argv):
    # both print JSON lines only, so a --format, even json, is an error
    for fmt in ("text", "json"):
        assert main(["enumerate", kind, "--shape", "2,0,2", *argv, "--format", fmt]) == 2, fmt
        captured = capsys.readouterr()
        error = f"error: enumerate {kind} prints JSON lines only and does not read --format\n"
        assert (captured.out, captured.err) == ("", error), fmt


def test_graph_without_k_edges(capsys):
    code, out = run(capsys, "graph", "--shape", "2,2", "--n", "3")
    assert code == 0
    solid = [l for l in out.splitlines() if "->" in l and "dashed" not in l]
    dashed = [l for l in out.splitlines() if "dashed" in l]
    nodes = [l for l in out.splitlines() if l.endswith('";')]
    assert (len(nodes), len(solid), len(dashed)) == (13, 10, 0)


def test_graph_with_k_edges(capsys):
    code, out = run(capsys, "graph", "--shape", "2,2", "--n", "3", "--with-k-ops")
    solid = [l for l in out.splitlines() if "->" in l and "dashed" not in l]
    dashed = [l for l in out.splitlines() if "dashed" in l]
    assert (len(solid), len(dashed)) == (10, 6)


def test_graph_single_node(capsys):
    code, out = run(capsys, "graph", "--shape", "1", "--n", "1")
    assert "->" not in out
    assert out.count('";') == 1


def test_graph_is_deterministic(capsys):
    _, first = run(capsys, "graph", "--shape", "2,2", "--n", "3", "--with-k-ops")
    _, second = run(capsys, "graph", "--shape", "2,2", "--n", "3", "--with-k-ops")
    assert first == second


def test_verify_small_suite_exit_code_and_determinism(capsys):
    args = ("verify", "demazure-flag", "--max-n", "3", "--max-side", "2")
    code, first = run(capsys, *args)
    assert code == 0
    assert all(line.startswith("[PASS]") for line in first.strip().splitlines())
    _, second = run(capsys, *args)
    assert first == second


def test_verify_json_format(capsys):
    code, out = run(
        capsys, "verify", "grothendieck-vexillary", "--format", "json"
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 3 and all(r["status"] == "pass" for r in rows)
    assert all("elapsed" not in r for r in rows)


def test_verify_bounds_default_to_bounds():
    args = build_parser().parse_args(["verify", "character"])
    assert Bounds(args.max_n, args.max_side, args.max_cells, args.shape, args.n) == Bounds()


def test_verify_conjecture_scan_reports_the_key_counterexample(capsys):
    code, out = run(
        capsys,
        "verify",
        "conjecture-scan",
        "--shape",
        "2,1",
        "--n",
        "3",
        "--format",
        "json",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    key_rows = [r for r in rows if r["case"]["check"] == "scan-keys"]
    assert key_rows
    report = json.loads(key_rows[0]["witness"])
    assert any(r["involution"] == "calK" and not r["match"] for r in report)


def test_verify_exit_code_is_nonzero_on_failure(capsys, monkeypatch):
    from kcrystals import cli as cli_module
    from kcrystals.verify import SuiteResult

    failing = SuiteResult("demazure-flag", {"check": "flag"}, "fail", "witness text")
    monkeypatch.setattr(cli_module, "run_suite", lambda *a, **k: [failing])
    assert main(["verify", "demazure-flag"]) == 1
    captured = capsys.readouterr()
    assert "[FAIL]" in captured.out and "witness text" in captured.out


def test_bad_inputs_exit_with_errors(capsys):
    assert main(["enumerate", "svt", "--shape", "1,2", "--n", "3"]) == 2
    assert main(["enumerate", "svt", "--shape", "2,1"]) == 2
    assert main(["graph", "--shape", "1,2", "--n", "3"]) == 2
    assert main(["graph", "--shape", "2,1", "--n", "0"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["verify", "not-a-suite"])
    capsys.readouterr()
    # bounds that select no case are an error, not a vacuous pass
    for argv in (
        ["crystal-axioms", "--max-n", "1"],
        ["crystal-axioms", "--max-cells", "0"],
        ["crystal-axioms", "--max-n", "-3"],
        ["k-crystal-axioms", "--max-side", "0"],
        ["conjecture-scan", "--shape", "2,2,2,2", "--n", "3"],
        ["conjecture-scan", "--shape", "2,1", "--n", "0"],
        # bounds that leave only a suite's fixed golden case
        ["character", "--max-n", "-1"],
        ["character", "--max-cells", "0"],
        ["demazure-flag", "--max-n", "1"],
        ["kohnert-bijection", "--max-side", "0"],
        ["skyline-bijection", "--max-n", "1"],
    ):
        assert main(["verify", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "select no case" in captured.err
    # a shape or n the suite never reads is an error, not silently ignored
    for argv, flag in (
        (["grothendieck-vexillary", "--shape", "5,5", "--n", "9", "--max-n", "1"], "--shape"),
        (["grothendieck-vexillary", "--n", "9"], "--n"),
        (["crystal-axioms", "--shape", "2,1"], "--shape"),
        (["keys-rectangle", "--n", "3"], "--n"),
    ):
        assert main(["verify", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and f"does not read {flag}" in captured.err


def test_round_trip_serializations():
    t = SetValuedTableau.from_text("1 1,2/2,3 3", 3)
    assert SetValuedTableau.from_text(t.to_text(), 3) == t
    d = KKohnertDiagram(frozenset({(1, 1), (2, 1)}), frozenset({(2, 1)}))
    assert KKohnertDiagram.from_json_dict(json.loads(json.dumps(d.to_json_dict()))) == d
    s = SkylineTableau.build((2, 0, 2), {1: [[1], [1]], 3: [[2, 3], [2]]})
    assert SkylineTableau.from_json_dict(json.loads(json.dumps(s.to_json_dict()))) == s
    from kcrystals.polynomials import lascoux

    p = lascoux((0, 2, 2), 3)
    assert parse_polynomial(p.to_text(), 3) == p


def test_workers_match_a_serial_run(capsys):
    argv = ("verify", "demazure-flag", "--max-n", "3", "--max-side", "2")
    code, pooled = run(capsys, *argv, "--jobs", "2")
    assert code == 0
    assert run(capsys, *argv, "--jobs", "1") == (0, pooled)


def test_worker_count_rejects_bad_requests():
    for jobs in (0, -2, 1.5):
        with pytest.raises(ValueError, match="--jobs"):
            worker_count(jobs, 8, 100)


def test_worker_count_clamps_to_cpus_and_cases():
    assert worker_count(None, 8, 100) == 1
    assert worker_count(3, 8, 100) == 3
    assert worker_count(64, 2, 100) == 2
    assert worker_count(64, 8, 5) == 5
    assert worker_count(4, None, 100) == 1
    assert worker_count(4, 8, 0) == 1


def test_bad_worker_requests_exit_with_status_2(capsys):
    argv = ["verify", "demazure-flag", "--max-n", "2", "--max-side", "1"]
    assert main([*argv, "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_library_errors_exit_with_status_2(capsys):
    # the library's ValueError is reported once, by main, before any output
    for argv, message in (
        (["lascoux", "--weight", "1,2,3,4", "--n", "3"], "longer than n=3"),
        (["enumerate", "svt", "--shape", "1,2", "--n", "3"], "shape must be a partition: (1, 2)"),
        (["graph", "--shape", "1,2", "--n", "3"], "shape must be a partition: (1, 2)"),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err


def test_a_shape_that_is_not_a_partition_exits_with_status_2(capsys):
    for argv, shape in (
        (["graph", "--shape", "0,2", "--n", "2"], "(0, 2)"),
        (["enumerate", "svt", "--shape", "2,0,1", "--n", "3"], "(2, 0, 1)"),
        (["verify", "conjecture-scan", "--shape", "1,2"], "(1, 2)"),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: shape must be a partition: {shape}\n"


def test_verify_drops_the_trailing_zeros_of_a_shape(capsys):
    argv = ("verify", "conjecture-scan", "--n", "3", "--format", "json")
    code, out = run(capsys, *argv, "--shape", "2,2,0")
    assert code == 0 and '"shape": [2, 2]' in out
    assert run(capsys, *argv, "--shape", "2,2") == (0, out)


def test_run_suite_keys_a_shape_as_the_cli_does(capsys):
    results = run_suite("conjecture-scan", Bounds(shape=(2, 2, 0), n=3))
    code, out = run(capsys, "verify", "conjecture-scan", "--shape", "2,2,0", "--n", "3", "--format", "json")
    assert code == 0 and [result.to_json() for result in results] == out.splitlines()
    assert all(result.case["shape"] == [2, 2] for result in results)


def test_enumerate_count_is_the_number_of_lines(capsys):
    for argv in (
        ["svt", "--shape", "2,1", "--n", "3"],
        ["svt", "--shape", "2,2", "--n", "3", "--format", "json"],
        ["kohnert", "--shape", "0,2,0,2"],
        ["skyline", "--shape", "0,2,0,2", "--n", "4"],
    ):
        code, out = run(capsys, "enumerate", *argv)
        assert code == 0 and out
        assert run(capsys, "enumerate", *argv, "--count") == (0, f"{len(out.splitlines())}\n")


@pytest.mark.parametrize("command", ["kcrystals", "lascoux", "enumerate", "graph", "verify"])
def test_help_text_is_frozen(capsys, monkeypatch, command):
    # at a fixed width, the text must not depend on when or how often the parser is built
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"] if command == "kcrystals" else [command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == (GOLDEN / f"help_{command}.txt").read_text()


def test_one_process_answers_the_query_cold_pool_back_to_back(capsys):
    # warm caches and a reused parser print what a cold forked query prints
    pool = json.loads(WORKLOADS.read_text())["query-cold"]["pool"]
    changed = []
    for query in pool:
        code, out = run(capsys, *query["argv"])
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != query["digest"]:
            changed.append(query["argv"])
    assert len(pool) == 27 and changed == []


def test_flags_do_not_leak_between_calls(capsys):
    plain = ("lascoux", "--weight", "2,0,2", "--n", "3")
    code, first = run(capsys, *plain)
    atom = run(capsys, *plain, "--atom")
    assert code == 0 and atom[0] == 0 and atom[1] != first
    assert run(capsys, *plain) == (0, first)
    svt = ("enumerate", "svt", "--shape", "2,2", "--n", "3")
    code, out = run(capsys, *svt, "--format", "json")
    assert code == 0 and json.loads(out.splitlines()[0]).keys() == {"tableau", "weight", "excess"}
    code, out = run(capsys, *svt)
    assert code == 0 and out.splitlines() == (GOLDEN / "square22_tableaux.txt").read_text().splitlines()


def test_a_call_after_an_argparse_error_still_works(capsys):
    for argv in (["lascoux", "--weight", "2,x", "--n", "3"], ["graph", "--n", "3"], ["no-such-command"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2, argv
        assert capsys.readouterr().out == ""
        assert run(capsys, "lascoux", "--weight", "2,2,0", "--n", "3") == (0, "x1^2*x2^2\n")


def test_main_builds_no_parser(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("main built an ArgumentParser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert run(capsys, "lascoux", "--weight", "2,2,0", "--n", "3") == (0, "x1^2*x2^2\n")
    assert run(capsys, "enumerate", "svt", "--shape", "2,2", "--n", "3", "--count") == (0, "13\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["graph", "--n", "3"])
    assert exit_info.value.code == 2
