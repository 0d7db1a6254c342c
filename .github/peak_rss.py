"""Run one verification suite into a file and fail when its peak RSS is
over budget, so that no memo trades unbounded memory for time.

    python .github/peak_rss.py SUITE MAX_N BUDGET_MB OUT [VERIFY_ARG ...]

writes the `kcrystals verify SUITE --max-n MAX_N --format json` stream,
with any further arguments passed on to `verify` (say `--max-side 2`), to
OUT, prints the suite's wall time and peak RSS, and exits nonzero when
the suite fails or when the ru_maxrss of its process exceeds BUDGET_MB.
"""

import resource
import subprocess
import sys
import time

suite, max_n, budget, out, *extra = sys.argv[1:]
argv = [sys.executable, "-m", "kcrystals.cli", "verify", suite, "--max-n", max_n, "--format", "json", *extra]
start = time.monotonic()
with open(out, "w") as stream:
    subprocess.run(argv, stdout=stream, check=True)
wall = time.monotonic() - start
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"{suite}: wall {wall:.1f} s, peak RSS {peak:.0f} MB")
if peak > float(budget):
    sys.exit(f"{suite}: peak RSS {peak:.0f} MB exceeds the {budget} MB budget")
