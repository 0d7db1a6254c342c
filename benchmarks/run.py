"""
Benchmark of kcrystals through its public entry points.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --freeze

Run from the root of a source checkout (the package is imported from
``src``).  Workloads, bounds, the query pool and the frozen output digests
live in ``benchmarks/workloads.json``; the metric names and units come
from ``BENCHMARK.json``.

* ``verify-*`` workloads run each suite as ``kcrystals verify SUITE
  --jobs 1 --format json --timings`` in its own fresh process, one at a
  time, and repeat the whole battery until the time is up.  They are
  exhaustive and deterministic: the seed changes nothing.
* ``query-cold`` starts a few query servers in turn.  Each imports
  kcrystals, then runs rounds of the query pool, in orders drawn from the
  seed, each query in a child forked after import.

Every suite stream (without its ``elapsed`` fields) and every query's
stdout must hash to its frozen digest; a mismatch, a failed case or a
nonzero exit counts as a failure and never aborts the run.  With
``--trace 1`` the same work also runs under the span tracer of
``tracer.py`` and the per-layer metrics are reported instead.

Every reported time is scaled to a nominal host speed by the reference
loop of ``reference.py``, timed between the measured spans throughout the
run; the record gives the factor as ``host_factor``.

The last line of stdout is the result object; the line before it is the
run record (environment, bounds, counts, failed_share).
``--freeze`` re-records the digests and case counts from the current code;
use it only when a workload's bounds or pool change on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_FILE = BENCH_DIR / "workloads.json"
CHILD_TIMEOUT_S = 150
QUERY_SERVERS = 20
SETUP_STARTS = 4  # set-up-only processes per suite and verify run


def child_env() -> dict:
    """Children import the package from src; an ambient KCRYSTALS_JOBS
    must not switch on the worker pool, and a fixed hash seed keeps the
    iteration order of str-keyed sets and dicts the same in every run."""
    env = {k: v for k, v in os.environ.items() if k != "KCRYSTALS_JOBS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_child(args: list[str]) -> tuple[dict | None, float]:
    """Run child.py to completion; returns its record (None if it failed)
    and the wall time from spawn to exit."""
    spawned_at = time.monotonic()
    command = [sys.executable, str(BENCH_DIR / "child.py"), "--spawned-at", repr(spawned_at), *args]
    try:
        proc = subprocess.run(
            command, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - spawned_at
    wall = time.monotonic() - spawned_at
    try:
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1]), wall
    except (ValueError, IndexError):
        pass
    sys.stderr.write(proc.stderr[-2000:])
    return None, wall


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# -- verify workloads ---------------------------------------------------------


def stream_digest(stdout: str) -> tuple[str, list[float], int]:
    """Digest of a verify JSON stream with the elapsed fields dropped, the
    printed elapsed values, and the number of failed cases."""
    canonical, printed, fails = [], [], 0
    for line in stdout.splitlines():
        payload = json.loads(line)
        printed.append(payload.pop("elapsed", None))
        fails += payload["status"] != "pass"
        canonical.append(json.dumps(payload, sort_keys=True))
    text = "\n".join(canonical) + "\n" if canonical else ""
    return hashlib.sha256(text.encode()).hexdigest(), printed, fails


def check_suite(record: dict | None, suite: dict) -> int:
    """Failed cases of one suite run, out of its frozen count: failed or
    missing cases, a digest mismatch, a nonzero exit, and (untraced) a
    timing hook that did not fire or per-case timings that disagree with
    --timings.  A process that died fails every case."""
    cases = suite["cases"]
    if record is None:
        return cases
    try:
        digest, printed, fails = stream_digest(record["stdout"])
    except (ValueError, KeyError, TypeError, AttributeError):
        return cases
    failed = fails + max(0, cases - len(printed))
    failed += (digest != suite["digest"]) + (record["rc"] != 0)
    if "trace" not in record:
        failed += "setup_s" not in record
        timings = sorted(round(e, 3) for e in record.get("case_s", []))
        failed += None in printed or timings != sorted(printed)
    return min(failed, cases)


def host_scale(samples: list[float]) -> float:
    """The factor that brings times measured alongside these reference
    samples to the nominal host speed."""
    return reference.NOMINAL_S / statistics.fmean(samples)


def case_scales(before: float, record: dict) -> list[float]:
    """A scale for each case of an untraced suite record, from the
    reference samples taken just before and just after the case."""
    marks = [(0, before), *zip(record["ref_after"], record["ref_s"])]
    scales, j = [], 0
    for k in range(1, len(record["case_s"]) + 1):
        while j + 1 < len(marks) and marks[j + 1][0] < k:
            j += 1
        scales.append(host_scale([sample for _, sample in marks[j:j + 2]]))
    return scales


def verify_pass(spec: dict, tracing: bool) -> dict:
    """One run of every suite of the workload, each in a fresh process.

    A reference sample is taken before each process.  The samples a child
    took between its cases are taken out of its wall time and latency,
    and the times of each process are scaled by the mean of its own
    samples and the one before it, its cases by the samples around each
    ("raw_wall_s" keeps the wall times unscaled)."""
    out = {"wall_s": 0.0, "raw_wall_s": 0.0, "setup_s": {}, "case_s": [], "query_s": {},
           "rss": [], "ref_s": [], "attempted": 0, "failed": 0, "traces": []}
    for suite in spec["suites"]:
        before = reference.sample()
        args = [*(["--trace"] if tracing else []), "suite", suite["suite"], *suite["args"]]
        record, wall = start_child(args)
        inner = (record or {}).get("ref_s", [])
        scale = host_scale([before, *inner])
        out["ref_s"] += [before, *inner]
        out["raw_wall_s"] += wall - sum(inner)
        out["wall_s"] += scale * (wall - sum(inner))
        out["attempted"] += suite["cases"]
        out["failed"] += check_suite(record, suite)
        if record is None:
            continue
        if "setup_s" in record:
            out["setup_s"][suite["suite"]] = scale * record["setup_s"]
        if not tracing:
            out["case_s"] += [c * e for c, e in zip(case_scales(before, record), record["case_s"])]
        out["query_s"][suite["suite"]] = scale * (record["latency_s"] - sum(inner))
        out["rss"].append(record["maxrss_mb"])
        if tracing:
            out["traces"].append(record["trace"])
    return out


def setup_samples(spec: dict, plain: list[dict]) -> tuple[dict, int]:
    """Scaled set-up times of each suite: one from every untraced battery,
    plus SETUP_STARTS processes that stop once the cases are generated,
    each scaled by a reference sample taken just before it.  Also returns
    how many of those starts failed."""
    samples = {suite["suite"]: [p["setup_s"][suite["suite"]] for p in plain
                                if suite["suite"] in p["setup_s"]]
               for suite in spec["suites"]}
    failed = 0
    for _ in range(SETUP_STARTS):
        for suite in spec["suites"]:
            before = reference.sample()
            record, _ = start_child(["--setup-only", "suite", suite["suite"], *suite["args"]])
            if record is None or record["rc"] != 0 or "setup_s" not in record:
                failed += 1
            else:
                samples[suite["suite"]].append(host_scale([before]) * record["setup_s"])
    return samples, failed


def latency_metrics(case_ms: list[float], query_ms: list[float]) -> dict:
    """The case and query percentiles; a metric with no samples is left
    out of the result rather than reported as 0."""
    metrics = {}
    if case_ms:
        metrics["case_p50_ms"] = percentile(case_ms, 50)
        metrics["case_p90_ms"] = percentile(case_ms, 90)
    if query_ms:
        metrics["query_p50_ms"] = percentile(query_ms, 50)
        metrics["query_p95_ms"] = percentile(query_ms, 95)
    return metrics


def run_verify(spec: dict, seconds: float, tracing: bool) -> dict:
    """Repeat the battery until the time is up (at least once); with
    tracing, alternate untraced and traced passes."""
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(verify_pass(spec, False))
        if tracing:
            traced.append(verify_pass(spec, True))
        if time.monotonic() - start >= seconds:
            break
    setup, setup_failed = setup_samples(spec, plain)
    every = plain + traced
    case_ms = [s * 1000 for p in plain for s in p["case_s"]]
    # One sample per suite command: its median latency over the batteries.
    per_suite = [[p["query_s"][s["suite"]] for p in plain if s["suite"] in p["query_s"]]
                 for s in spec["suites"]]
    query_ms = [1000 * statistics.median(values) for values in per_suite if values]
    metrics = {"wall_s": statistics.median(p["wall_s"] for p in plain)}
    if all(setup.values()):
        metrics["setup_s"] = sum(statistics.median(values) for values in setup.values())
    rss = [r for p in every for r in p["rss"]]
    if rss:
        metrics["peak_rss_mb"] = max(rss)
    metrics.update(latency_metrics(case_ms, query_ms))
    return {
        "attempted": sum(p["attempted"] for p in every) + SETUP_STARTS * len(spec["suites"]),
        "failed": sum(p["failed"] for p in every) + setup_failed,
        "metrics": metrics,
        "counts": {"passes": len(plain), "case_samples": len(case_ms),
                   "suite_commands": len(query_ms),
                   "setup_samples": {name: len(values) for name, values in setup.items()}},
        "samples": {"wall_s": [p["wall_s"] for p in plain],
                    "raw_wall_s": [p["raw_wall_s"] for p in plain], "setup_s": setup},
        "host_factor": 1 / host_scale([r for p in plain for r in p["ref_s"]]),
        "traced": {
            "units": len(traced),
            "wall_s": [p["raw_wall_s"] for p in traced],
            "plain_wall_s": [p["raw_wall_s"] for p in plain],
            "trace": tracer.merge(t for p in traced for t in p["traces"]),
        } if traced else None,
    }


# -- query-cold -------------------------------------------------------------


def query_server(seed: int, seconds: float, tracing: bool, spec_file: Path) -> dict:
    args = ["--seed", str(seed), "--seconds", repr(seconds), "--spec", str(spec_file),
            *(["--trace"] if tracing else []), "queries"]
    record, _ = start_child(args)
    return record


def run_query_cold(spec_file: Path, seed: int, seconds: float, tracing: bool) -> dict:
    """QUERY_SERVERS servers in turn, each for an equal share of the time;
    with tracing, every other server runs traced.  The times of each
    server are scaled by the mean of its reference samples (taken between
    rounds) and the one taken before it started."""
    count = QUERY_SERVERS * (2 if tracing else 1)
    servers = []
    for k in range(count):
        traced_server = tracing and k % 2 == 1
        before = reference.sample()
        record = query_server(seed * 100 + k, seconds / count, traced_server, spec_file)
        servers.append((record, traced_server, before))
    pool_size = len(json.loads(spec_file.read_text())["query-cold"]["pool"])
    attempted = failed = 0
    for record, _, _ in servers:
        if record is None:  # a server that died counts as a lost round
            attempted += pool_size
            failed += pool_size
        else:
            attempted += len(record["queries"])
            failed += sum(not q["ok"] for q in record["queries"])
    plain = [(r, host_scale([before, *r["ref_s"]]))
             for r, t, before in servers if r is not None and not t]
    traced = [r for r, t, _ in servers if r is not None and t]
    case_ms, query_ms, rounds = [], [], []
    for r, scale in plain:
        done = [q for q in r["queries"] if q["rc"] == 0]
        case_ms += [q["case_s"] * 1000 * scale for q in done]
        query_ms += [q["latency_s"] * 1000 * scale for q in done]
        rounds += [s * scale for s in r["round_s"]]
    traced_rounds = [s for r in traced for s in r["round_s"]]
    rss = [r["maxrss_mb"] for r, _ in plain] + [r["maxrss_mb"] for r in traced]
    rss += [q["maxrss_mb"] for r in [r for r, _ in plain] + traced
            for q in r["queries"] if "maxrss_mb" in q]
    metrics = {}
    if plain:
        metrics["wall_s"] = statistics.median(rounds)
        metrics["setup_s"] = statistics.median(r["setup_s"] * scale for r, scale in plain)
    if rss:
        metrics["peak_rss_mb"] = max(rss)
    metrics.update(latency_metrics(case_ms, query_ms))
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "counts": {"servers": len(plain), "rounds": len(rounds),
                   "query_samples": len(query_ms), "pool": pool_size},
        "samples": {"setup_s": [r["setup_s"] * scale for r, scale in plain]},
        "host_factor": statistics.fmean(1 / scale for _, scale in plain) if plain else None,
        "traced": {
            "units": len(traced_rounds),
            "wall_s": traced_rounds,
            "plain_wall_s": [s for r, _ in plain for s in r["round_s"]],
            "trace": tracer.merge(
                q["trace"] for r in traced for q in r["queries"] if "trace" in q
            ),
        } if traced and plain else None,
    }


# -- per-layer metrics --------------------------------------------------------


def layer_metrics(traced: dict | None) -> dict:
    """Per-unit (pass or round) layer figures from the merged trace; none
    if no traced unit finished."""
    if traced is None:
        return {}
    units = traced["units"]
    layers = traced["trace"]["layers"]
    values = {}
    for layer in tracer.TARGETS:
        entry = layers.get(layer, {})
        values[f"{layer}.calls"] = entry.get("calls", 0) / units
        values[f"{layer}.self_s"] = entry.get("self_s", 0.0) / units
        values[f"{layer}.objects"] = entry.get("objects", 0) / units
        lookups = entry.get("hits", 0) + entry.get("misses", 0)
        values[f"{layer}.hit_ratio"] = entry.get("hits", 0) / lookups if lookups else 0.0
    validations = values["skyline.validate_skyline.calls"]
    values["skyline.enumerate_skyline.accept_ratio"] = (
        values["skyline.enumerate_skyline.objects"] / validations if validations else 0.0
    )
    wall = statistics.fmean(traced["wall_s"])
    wrapped = sum(values[f"{layer}.self_s"] for layer in tracer.TARGETS)
    values["trace.wall_s"] = wall
    values["trace.unwrapped_s"] = wall - wrapped
    values["trace.overhead_ratio"] = (
        statistics.median(traced["wall_s"]) / statistics.median(traced["plain_wall_s"])
    )
    root = traced["trace"]["root_s"] / units
    if abs(root - wrapped) > 1e-6 * max(1.0, root) or wrapped > wall:
        raise RuntimeError(
            f"self times do not partition the spans: {wrapped} vs {root}, wall {wall}"
        )
    return values


# -- entry point ---------------------------------------------------------------


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, tracing: bool) -> dict:
    start_child(["warmup"])  # byte-compile once, outside every measurement
    if name == "query-cold":
        return run_query_cold(SPEC_FILE, seed, seconds, tracing)
    return run_verify(json.loads(SPEC_FILE.read_text())[name], seconds, tracing)


def dump_spec(spec: dict) -> str:
    """workloads.json with one suite or pooled query per line."""
    blocks = []
    for name, workload in spec.items():
        (key, items), = workload.items()
        rows = ",\n".join("  " + json.dumps(item) for item in items)
        blocks.append(f' "{name}": {{"{key}": [\n{rows}\n ]}}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def freeze() -> None:
    """Record the current outputs as the frozen digests and case counts."""
    spec = json.loads(SPEC_FILE.read_text())
    for name, workload in spec.items():
        for suite in workload.get("suites", []):
            record, _ = start_child(["suite", suite["suite"], *suite["args"]])
            suite["digest"], printed, fails = stream_digest(record["stdout"])
            suite["cases"] = len(printed)
            if fails or record["rc"]:
                raise SystemExit(f"{name}/{suite['suite']}: {fails} failed case(s)")
    record = query_server(0, 0.0, False, SPEC_FILE)
    pool = spec["query-cold"]["pool"]
    for query in record["queries"]:
        if query["rc"] != 0:
            raise SystemExit(f"query {pool[query['index']]['argv']} exited {query['rc']}")
        pool[query["index"]]["digest"] = query["digest"]
    SPEC_FILE.write_text(dump_spec(spec))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kcrystals" / "__init__.py").is_file():
        print(f"error: no kcrystals sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.freeze:
        freeze()
        return 0
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in config["workloads"]}:
        parser.error(f"--workload must be one of {[w['name'] for w in config['workloads']]}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        values, wanted = layer_metrics(result["traced"]), config["per_layer"]
    else:
        values, wanted = result["metrics"], config["end_to_end"]
    spec = json.loads(SPEC_FILE.read_text())[args.workload]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "jobs": 1,
        "bounds": {s["suite"]: s["args"] for s in spec.get("suites", [])} or
                  {"pool": [q["argv"] for q in spec.get("pool", [])]},
        "counts": result["counts"],
        "samples": result["samples"],
        "host_factor": result["host_factor"],
        "failed_share": result["failed"] / result["attempted"],
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0 and all(m["name"] in values for m in wanted),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
