"""
Self-tests of the benchmark itself:

    python3 -m pytest benchmarks -q

They check that the output gate counts a wrong digest as failed work, that
a process that exits nonzero fails its work without aborting the run, that
the tracer's self times partition the root span and its counts agree with
``cache_info()``, and that a traced suite reaches every cached function
only through the wrappers.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import time
from functools import lru_cache
from types import SimpleNamespace

import run
import tracer

SPEC = json.loads(run.SPEC_FILE.read_text())
WRONG = "0" * 64


def small_spec(pool_size: int) -> tuple[dict, dict]:
    """The grothendieck-vexillary suite and the first few pooled queries,
    with their frozen digests."""
    suite = next(
        s for s in SPEC["verify-polynomial"]["suites"] if s["suite"] == "grothendieck-vexillary"
    )
    spec = {
        "verify-small": {"suites": [copy.deepcopy(suite)]},
        "query-cold": {"pool": copy.deepcopy(SPEC["query-cold"]["pool"][:pool_size])},
    }
    return spec, spec["verify-small"]


def test_frozen_digests_pass(tmp_path):
    spec, verify = small_spec(3)
    result = run.run_verify(verify, 0.0, False)
    assert result["attempted"] == verify["suites"][0]["cases"] + run.SETUP_STARTS
    assert result["failed"] == 0
    assert result["counts"]["setup_samples"] == {"grothendieck-vexillary": 1 + run.SETUP_STARTS}
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    record = run.query_server(7, 0.0, False, spec_file)
    assert len(record["queries"]) == 3
    assert all(q["ok"] for q in record["queries"])


def test_wrong_digest_counts_as_failed(tmp_path):
    spec, verify = small_spec(3)
    verify["suites"][0]["digest"] = WRONG
    result = run.run_verify(verify, 0.0, False)
    assert result["failed"] / result["attempted"] > 0
    spec["query-cold"]["pool"][1]["digest"] = WRONG
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    record = run.query_server(7, 0.0, False, spec_file)
    failed = [q["index"] for q in record["queries"] if not q["ok"]]
    assert failed == [1]


def test_dead_processes_count_as_failed_and_do_not_abort(tmp_path):
    """A suite whose process exits nonzero without output fails all its
    frozen cases; a pool where every query exits nonzero fails every
    query.  Neither raises, and metrics without samples are left out."""
    spec, verify = small_spec(0)
    verify["suites"][0]["args"] = ["--max-n", "not-a-number"]
    result = run.run_verify(verify, 0.0, False)
    assert result["failed"] == result["attempted"] > 0
    assert "case_p50_ms" not in result["metrics"]
    assert "setup_s" not in result["metrics"]
    spec["query-cold"]["pool"] = [{"argv": ["lascoux"], "digest": WRONG}]
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    result = run.run_query_cold(spec_file, 3, 0.0, False)
    assert result["failed"] == result["attempted"] == run.QUERY_SERVERS
    assert "query_p50_ms" not in result["metrics"]
    assert "wall_s" in result["metrics"]


def spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_partition_the_root_span():
    trace = tracer.Tracer()

    def leaf():
        spin(0.002)

    def middle():
        spin(0.001)
        ns.leaf()
        ns.leaf()

    def root():
        ns.middle()
        spin(0.003)
        ns.leaf()
        ns.middle()

    ns = SimpleNamespace(leaf=leaf, middle=middle, root=root)
    for name in ("leaf", "middle", "root"):
        trace.patch(name, getattr(ns, name), [ns])
    start = time.perf_counter()
    ns.root()
    outer = time.perf_counter() - start
    snap = trace.snapshot()["layers"]
    assert [snap[n]["calls"] for n in ("leaf", "middle", "root")] == [5, 2, 1]
    total_self = sum(entry["self_s"] for entry in snap.values())
    assert abs(total_self - trace.root_s) < 1e-9
    assert trace.root_s <= outer
    assert snap["leaf"]["self_s"] >= 5 * 0.002
    assert snap["middle"]["self_s"] >= 2 * 0.001
    assert snap["root"]["self_s"] >= 0.003


def test_counts_and_hit_ratio_match_cache_info():
    @lru_cache(maxsize=None)
    def square(x):
        return [x] * x

    square(2)  # a miss before wrapping must not count
    ns = SimpleNamespace(square=square)
    trace = tracer.Tracer()
    trace.patch("square", square, [ns])
    before = square.cache_info()
    for x in (1, 2, 3, 1, 2, 1):
        ns.square(x)
    after = square.cache_info()
    entry = trace.snapshot()["layers"]["square"]
    hits, misses = after.hits - before.hits, after.misses - before.misses
    assert entry["calls"] == hits + misses
    assert (entry["hits"], entry["misses"]) == (hits, misses)
    assert entry["hits"] / entry["calls"] == 4 / 6


def test_cache_check_sees_a_warm_cache():
    code = (
        "import child; from kcrystals import tableaux; "
        "tableaux.enumerate_svt(2, (1,)); child.assert_caches_empty()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=run.child_env(), cwd=run.BENCH_DIR,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "enumerate_svt holds 1 cached entries" in proc.stderr


def test_traced_suites_reach_caches_only_through_wrappers():
    flags = ["--max-n", "4", "--max-side", "2", "--max-cells", "4"]
    suites = [s["suite"] for w in SPEC.values() for s in w.get("suites", [])]
    for suite in suites:
        record, _ = run.start_child(["--trace", "suite", suite, *flags])
        assert record["rc"] == 0
        layers = record["trace"]["layers"]
        cached = {name: e for name, e in layers.items() if "hits" in e}
        for name, entry in cached.items():
            assert entry["calls"] == entry["hits"] + entry["misses"], (suite, name)
        total_self = sum(e["self_s"] for e in layers.values())
        assert abs(total_self - record["trace"]["root_s"]) < 1e-6
        assert layers["cli.main"]["calls"] == 1
