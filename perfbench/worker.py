"""Audit process: runs the library pipeline the CLI runs, one contract at a time.

    python3 perfbench/worker.py JOB.json RESULT.json

The job names a layer, a signature database, the contracts (name and
text) and a duration.  The worker analyzes the whole list in rounds
until the duration has passed, timing each contract from input text to
serialized report, and writes every distinct report once.  With
tracing on it also writes the summed per-layer spans of the loop.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from common import use_program

use_program()

from tracing import Tracer  # noqa: E402


def pipeline(layer: str, sigdb):
    # every call goes through its module, so installed spans see it
    from phantomscan import findings, report, taint
    from phantomscan.evm import disasm
    from phantomscan.lifter import functions
    from phantomscan.minisol import parser
    from phantomscan.symexec import engine

    def bytecode(name: str, text: str) -> str:
        icfg = functions.build_icfg(disasm.Bytecode.from_hex(text, origin=name), sigdb)
        raw = taint.detect(icfg, sigdb)
        return report.merge(findings.from_bytecode(f, origin=name) for f in raw).to_json()

    def source(name: str, text: str) -> str:
        raw = engine.analyze_source(parser.load(text))
        return report.merge(findings.from_source(f, origin=name) for f in raw).to_json()

    return bytecode if layer == "bytecode" else source


def main(job_path: str, result_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    from phantomscan.lifter import SigDb

    sigdb = SigDb.from_file(job["sigdb"])
    if job["trace"]:
        tracer = Tracer()
        tracer.install()

    contracts = job["contracts"]
    analyze = pipeline(job["layer"], sigdb)
    times: list[float] = []
    outcomes: list[str] = []
    reports: dict[str, str] = {}
    rounds = 0
    clock = time.perf_counter
    start = clock()
    while True:
        for c in contracts:
            t0 = clock()
            try:
                text = analyze(c["name"], c["text"])
            except Exception as exc:  # a crash is this contract's outcome, not the worker's
                times.append(clock() - t0)
                outcomes.append(f"error: {type(exc).__name__}: {exc}"[:300])
                continue
            times.append(clock() - t0)
            digest = hashlib.sha256(text.encode()).hexdigest()
            reports.setdefault(digest, text)
            outcomes.append(digest)
        rounds += 1
        if clock() - start >= job["seconds"]:
            break
    result = dict(times=times, outcomes=outcomes, reports=reports, rounds=rounds,
                  loop_s=clock() - start)
    if job["trace"]:
        result["trace"] = tracer.dump()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
