"""Record the benchmark of this checkout in BENCH_<PR>.json.

    python tools/bench_record.py PR

Runs `perfbench/run.py` on each of its four workloads at seed 7 for
10 s, once plain (the end-to-end metrics) and once traced (the per-layer
spans and counters), then the tier-1 tests, and writes `BENCH_<PR>.json`
at the root of the checkout, keys sorted:

    commit     the checked-out commit
    dirty      whether the working tree differs from it
    trees      the git tree hashes of `perfbench/` and `src/` as
               measured; `git rev-parse C:src` prints the same hash
               exactly when commit C holds the measured `src/`
    runs       workload -> {"plain": ..., "traced": ...}, each the last
               line of that run's output, parsed as JSON
    tier1      the tier-1 run (`python -m pytest -q
               --continue-on-collection-errors`, src/ on PYTHONPATH):
               {"seconds": wall time, "passed": n, "failed": n}, where
               failed counts pytest's failures and errors
    seed, seconds, src.lines (the lines of src/**/*.py)
    cpus       how many CPUs the runs may use (`os.sched_getaffinity`):
               `scan-logs` cuts a corpus into one byte range per CPU, so
               the log workloads' figures depend on it
    python     the interpreter's version, as `platform.python_version()`

A run that exits non-zero is recorded as {"exit": code, "stderr": its
last lines}.  Standard library only; `perfbench/` is run, not changed.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("logs-monitor", "logs-forensics", "bytecode-audit", "source-audit")
SEED = 7
SECONDS = 10.0


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True, env=env).stdout.strip()


def tree(path: str) -> str:
    """The git tree hash of `path` as it is on disk, built in a scratch
    index so that the checkout's own index is left alone."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        git("add", "-A", "--", path, env=env)
        return git("write-tree", f"--prefix={path}/", env=env)


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def run(workload: str, trace: bool) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"exit": proc.returncode, "stderr": proc.stderr.splitlines()[-5:]}
    return json.loads(proc.stdout.splitlines()[-1])


def tier1() -> dict:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep + path if path else ''}"}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                          cwd=ROOT, capture_output=True, text=True, env=env)
    seconds = time.perf_counter() - start
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error)", last[0])}
    return {"seconds": round(seconds, 1), "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0)}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = ROOT / f"BENCH_{argv[0]}.json"
    record = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain")),
        "trees": {path: tree(path) for path in ("perfbench", "src")},
        "seconds": SECONDS,
        "seed": SEED,
        "src.lines": src_lines(),
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }
    if record["dirty"]:
        print(f"WARNING: the working tree differs from {record['commit'][:12]}; "
              "only `trees` names the code measured", file=sys.stderr)
    record["runs"] = {}
    for workload in WORKLOADS:
        record["runs"][workload] = {mode: run(workload, mode == "traced")
                                    for mode in ("plain", "traced")}
        print(f"{workload}: done", file=sys.stderr)
    record["tier1"] = tier1()
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
