"""
Processes the kcrystals benchmark starts; run.py is the only caller.

    child.py warmup
    child.py --spawned-at T [--trace | --setup-only] suite SUITE [verify flags...]
    child.py --spawned-at T --seed S --seconds X [--trace] [--spec FILE] queries

``suite`` runs ``kcrystals verify SUITE`` through ``cli.main`` in this
fresh process; with ``--setup-only`` it stops as soon as the cases are
generated, so that only the set-up is timed.  ``queries`` imports kcrystals once, then runs each pooled
query in a child forked from it, so no cache survives between queries.
Each mode prints one JSON record as its last line of output; T is the
parent's ``time.monotonic()`` just before it started this process.
Untraced, both modes time the loop of ``reference.py`` between cases or
rounds, at most every ``reference.INTERVAL_S``, and list those times as
``ref_s`` so that the parent can take them out of its spans; a suite also
lists, as ``ref_after``, the number of cases run before each sample.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import reference

BENCH_DIR = Path(__file__).resolve().parent


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def call_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run cli.main(argv) as a user would, capturing stdout; returns the
    exit code, the output and the seconds spent inside the call."""
    from kcrystals import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        latency = time.perf_counter() - start
    return code, out.getvalue(), latency


def install_tracer():
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def run_suite(
    suite: str, flags: list[str], spawned_at: float, tracing: bool, setup_only: bool
) -> dict:
    """One verify suite, jobs=1, JSON stream with per-case timings."""
    import kcrystals  # noqa: F401  (the import is part of set-up)
    from kcrystals import verify

    record: dict = {}
    tracer = install_tracer() if tracing else None
    if tracer is None:
        # Two boundary hooks, one call per suite and one per case: the end
        # of case generation, and each case's unrounded elapsed time (the
        # reference loop runs after a case has been timed).
        iter_cases, run_case = verify.iter_cases, verify.run_case
        elapsed: list[float] = []
        ref: list[float] = []
        ref_after: list[int] = []
        last_ref = [time.perf_counter()]

        def timed_iter_cases(*args, **kwargs):
            cases = iter_cases(*args, **kwargs)
            record["setup_s"] = time.monotonic() - spawned_at
            if setup_only:
                raise SystemExit(0)
            return cases

        def timed_run_case(*args, **kwargs):
            result = run_case(*args, **kwargs)
            elapsed.append(result.elapsed)
            if time.perf_counter() - last_ref[0] >= reference.INTERVAL_S:
                ref.append(reference.sample())
                ref_after.append(len(elapsed))
                last_ref[0] = time.perf_counter()
            return result

        verify.iter_cases, verify.run_case = timed_iter_cases, timed_run_case
        record["case_s"] = elapsed
        record["ref_s"] = ref
        record["ref_after"] = ref_after
    argv = ["verify", suite, *flags, "--jobs", "1", "--format", "json", "--timings"]
    code, out, latency = call_cli(argv)
    record.update(
        rc=code,
        stdout=out,
        latency_s=latency,
        maxrss_mb=maxrss_mb(),
        process_s=time.monotonic() - spawned_at,
    )
    if tracer is not None:
        record["trace"] = tracer.snapshot()
    return record


def assert_caches_empty() -> None:
    """Every lru_cache in kcrystals.* must be empty (also behind a tracer
    wrapper, which keeps the cached function as __wrapped__)."""
    from tracer import package_modules

    for module in package_modules():
        for name, value in vars(module).items():
            for fn in (value, getattr(value, "__wrapped__", None)):
                info = getattr(fn, "cache_info", None)
                if callable(info) and info().currsize:
                    raise RuntimeError(
                        f"{module.__name__}.{name} holds {info().currsize} cached entries"
                    )


def run_forked(argv: list[str], tracer) -> dict:
    """One query in a child forked from this process; the parent times it
    from the fork to the reap."""
    read_fd, write_fd = os.pipe()
    start = time.monotonic()
    pid = os.fork()
    if pid == 0:  # the child: never returns
        os.close(read_fd)
        try:
            assert_caches_empty()
            code, out, latency = call_cli(argv)
            payload = {
                "rc": code,
                "digest": hashlib.sha256(out.encode()).hexdigest(),
                "latency_s": latency,
                "maxrss_mb": maxrss_mb(),
            }
            if tracer is not None:
                payload["trace"] = tracer.snapshot()
        except BaseException:
            payload = {"rc": -1, "error": traceback.format_exc()}
        with os.fdopen(write_fd, "w") as pipe:
            pipe.write(json.dumps(payload))
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    result = json.loads(text) if text else {"rc": -1, "error": "no result"}
    result["case_s"] = time.monotonic() - start
    if status != 0:
        result["rc"] = result.get("rc") or -1
    return result


def run_queries(
    seed: int, seconds: float, spawned_at: float, tracing: bool, spec: Path
) -> dict:
    """Rounds of the query pool, each in an order drawn from the seed,
    until the time is up (at least one round)."""
    import kcrystals.cli  # noqa: F401  (children fork after the whole import)
    import tracer  # noqa: F401

    pool = json.loads(spec.read_text())["query-cold"]["pool"]
    rng = random.Random(seed)
    order = rng.sample(range(len(pool)), len(pool))
    tracer = install_tracer() if tracing else None
    setup_s = time.monotonic() - spawned_at
    deadline = time.monotonic() + seconds
    rounds, queries, ref = [], [], []
    last_ref = time.monotonic()
    while True:
        round_start = time.monotonic()
        for index in order:
            result = run_forked(pool[index]["argv"], tracer)
            result["ok"] = result["rc"] == 0 and result.get("digest") == pool[index].get("digest")
            result["index"] = index
            queries.append(result)
        rounds.append(time.monotonic() - round_start)
        if time.monotonic() >= deadline:
            break
        if tracer is None and time.monotonic() - last_ref >= reference.INTERVAL_S:
            ref.append(reference.sample())
            last_ref = time.monotonic()
        order = rng.sample(range(len(pool)), len(pool))
    return {
        "setup_s": setup_s,
        "round_s": rounds,
        "ref_s": ref,
        "queries": queries,
        "maxrss_mb": maxrss_mb(),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("warmup", "suite", "queries"))
    parser.add_argument("--spawned-at", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spec", type=Path, default=BENCH_DIR / "workloads.json")
    parser.add_argument("verify_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "warmup":
        import kcrystals  # noqa: F401
        import tracer  # noqa: F401

        record = {}
    elif args.mode == "suite":
        suite, *flags = args.verify_args
        record = run_suite(suite, flags, args.spawned_at, args.trace, args.setup_only)
    else:
        record = run_queries(args.seed, args.seconds, args.spawned_at, args.trace, args.spec)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
