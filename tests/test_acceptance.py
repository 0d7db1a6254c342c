"""
Acceptance criteria, one test per criterion.  All arithmetic is exact:
every comparison is set equality or polynomial identity, tolerance zero.
Each test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure) and enforces the stated runtime budget where one exists.
"""

import json
import time


from kcrystals import golden
from kcrystals.crystal import flagged_set
from kcrystals.kohnert import KKohnertDiagram, closure, phi
from kcrystals.polynomials import lascoux, parse_polynomial
from kcrystals.tableaux import enumerate_svt
from kcrystals.verify import Bounds, iter_cases, run_case, run_suite

BOUNDS = Bounds(max_n=4, max_side=3, max_cells=6)


def _report(number, name, ok, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} {name}: {status} ({elapsed:.2f}s"
    if budget is not None:
        line += f" / budget {budget:.0f}s"
    print(line + ")")


def _run(number, name, suite, budget=None, bounds=BOUNDS, checks=None):
    """Run the suite, or only its cases of the named checks, and report."""
    started = time.monotonic()
    if checks is None:
        results = run_suite(suite, bounds)
    else:
        results = [
            run_case(suite, case)
            for case in iter_cases(suite, bounds)
            if case["check"] in checks
        ]
    elapsed = time.monotonic() - started
    assert results, f"no case of {suite} selected"
    failures = [r for r in results if r.status == "fail"]
    ok = not failures and (budget is None or elapsed < budget)
    _report(number, name, ok, elapsed, budget)
    assert not failures, "\n".join(r.to_text() for r in failures[:10])
    if budget is not None:
        assert elapsed < budget
    return results


def test_criterion_01_golden_lascoux():
    started = time.monotonic()
    poly = lascoux((0, 2, 2), 3)
    expected = parse_polynomial(golden.text("lascoux_022.txt"), 3)
    elapsed = time.monotonic() - started
    ok = poly == expected and sum(poly.terms.values()) == 13 and elapsed < 1.0
    _report(1, "golden-lascoux", ok, elapsed, 1.0)
    assert poly == expected
    assert sum(poly.terms.values()) == 13
    assert elapsed < 1.0


def test_criterion_02_buch_identity():
    _run(2, "full-character-identity", "character", budget=60.0, checks={"full-character"})


def test_criterion_03_k_crystal_theorem():
    _run(3, "k-crystal-theorem", "k-crystal-axioms", budget=120.0, checks={"k-demazure", "k-ops"})


def test_criterion_04_flagging():
    results = _run(4, "demazure-flagging", "demazure-flag")
    assert len(flagged_set((1, 3, 2), (2, 2), 3)) == 5
    assert len(enumerate_svt(3, (2, 2))) == 13


def test_criterion_05_k_strings():
    _run(5, "k-strings", "k-crystal-axioms", checks={"k-strings", "k-monotone"})


def test_criterion_06_kohnert_bijection():
    results = _run(6, "kohnert-bijection", "kohnert-bijection")
    assert len(closure((0, 2, 2))) == 13
    for pair in json.loads(golden.text("phi_pairs_s2.json")):
        diagram = KKohnertDiagram.from_json_dict(pair["diagram"])
        assert phi(diagram, 2, 2, 3).to_text() == pair["tableau"]


def test_criterion_07_skyline_bijection():
    _run(7, "skyline-bijection", "skyline-bijection")


def test_criterion_08_operator_algebra():
    _run(8, "operator-algebra", "operator-algebra")


def test_criterion_09_grothendieck_goldens():
    _run(9, "grothendieck-vexillary", "grothendieck-vexillary", budget=30.0)


def test_criterion_10_keys():
    results = _run(10, "keys-rectangle", "keys-rectangle")
    started = time.monotonic()
    scan = run_suite(
        "conjecture-scan", Bounds(max_n=3, max_side=3, max_cells=3, shape=(2, 1), n=3)
    )
    elapsed = time.monotonic() - started
    key_rows = [r for r in scan if r.case["check"] == "scan-keys"]
    assert key_rows and all(r.status == "pass" for r in scan)
    report = json.loads(key_rows[0].witness)
    counterexample = [
        row for row in report if row["involution"] == "calK" and not row["match"]
    ]
    _report(10, "keys-counterexample-report", bool(counterexample), elapsed)
    assert counterexample, "the greatest-entry key map must fail for shape (2,1)"
