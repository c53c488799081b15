"""phantomscan benchmark: one seeded, offline run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Inputs are generated from the seed
(generation is not timed), the program is run for S seconds in a closed
loop, one operation at a time, and every output is checked against an
answer computed apart from the program.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics,
end-to-end ones with --trace 0, per-layer ones with --trace 1.

Workloads:
  logs-monitor    scan-logs (CLI child) on an everyday corpus, 1% planted forgeries
  logs-forensics  scan-logs (CLI child) on the acceptance suite's attack-dense corpus
  bytecode-audit  bytecode pipeline (audit process) on generated contracts + fixtures
  source-audit    source pipeline (audit process) on generated contracts + fixtures
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from common import ROOT, SRC, WORK, FIXTURES, MissingProgram, child_env, use_program

WORKLOADS = ("logs-monitor", "logs-forensics", "bytecode-audit", "source-audit")
MONITOR_RECORDS = 60_000
FORENSICS_RECORDS = 50_000
SETUP_REPEATS = 8  # probes before the timed loop, and as many after it
CHILD_TIMEOUT_S = 120  # a child still running then is killed, so a run stays under 180 s

def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "phantomscan.cli", *args]


def run_child(argv: list[str], stdout_path: Path) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def probe_setup(argv: list[str], work: Path, times: list[float]) -> None:
    """Append the wall times of SETUP_REPEATS runs of the same subcommand
    on an empty input.

    A run calls this before and after its timed loop and reports the
    median of both groups, so that a burst of machine noise meets only
    one of them."""
    for _ in range(SETUP_REPEATS):
        wall, code, _ = run_child(argv, work / "setup.out")
        if code not in (0, 1):
            raise RuntimeError(f"set-up probe exited {code}: "
                               + (work / "setup.err").read_text()[-500:])
        times.append(wall)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def layer_values(dump: dict, passes: int) -> dict:
    """Per-layer metrics, per pass over the workload's inputs."""
    from tracing import layer_metrics

    return layer_metrics(dump, max(passes, 1), src_lines())


def run_worker(job: dict, work: Path) -> tuple[dict, float]:
    (work / "job.json").write_text(json.dumps(job))
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
            str(work / "job.json"), str(work / "result.json")]
    _, code, rss = run_child(argv, work / "worker.out")
    if code != 0:
        raise RuntimeError(f"audit worker exited {code}: "
                           + (work / "worker.err").read_text()[-2000:])
    return json.loads((work / "result.json").read_text()), rss


# --------------------------------------------------------------------------
# log workloads
# --------------------------------------------------------------------------

def bridge_projects():
    import yaml
    from phantomscan._keccak import event_topic
    from reference import Project

    doc = yaml.safe_load((FIXTURES / "bridge_rules.yaml").read_text())
    projects = []
    for p in doc["projects"]:
        events = {event_topic(f"{e['name']}({','.join(x['type'] for x in e['params'])})"): e["name"]
                  for e in p["events"]}
        projects.append(Project(p["name"], p["authentic_emitters"], events))
    return projects


def logs_inputs(workload: str, seed: int, work: Path):
    import gen_logs
    from reference import scan_reference

    if workload == "logs-monitor":
        records, expected = gen_logs.monitor_corpus(seed, MONITOR_RECORDS)
        caveats = 0
    else:
        records = gen_logs.forensics_corpus(seed, FORENSICS_RECORDS)
        expected, caveats = scan_reference(
            records, bridge_projects(), gen_logs.T_TRANSFER, gen_logs.T_APPROVAL,
            gen_logs.event_topic("ApprovalForAll(address,address,bool)"))
    corpus = work / "corpus.jsonl"
    gen_logs.write_jsonl(records, corpus)
    return corpus, len(records), expected, caveats


def run_logs(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from reference import check_scan_report

    rules = ["--rules", str(FIXTURES / "bridge_rules.yaml"), "--json"]
    (work / "empty.jsonl").write_text("")
    probe = cli("scan-logs", str(work / "empty.jsonl"), *rules)
    setup: list[float] = []
    if not trace:
        probe_setup(probe, work, setup)
    corpus, n_records, expected, caveats = logs_inputs(workload, seed, work)

    args = ["scan-logs", str(corpus), *rules]
    walls, rss, codes, digests = [], [], [], []
    kept: dict[str, Path] = {}
    dumps: list[dict] = []
    start = time.perf_counter()
    while True:
        out = work / "scan.out"
        trace_path = work / f"trace{len(walls)}.json"
        argv = ([sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(trace_path), *args]
                if trace else cli(*args))
        wall, code, peak = run_child(argv, out)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if digest not in kept:
            kept[digest] = out.rename(work / f"report-{len(kept)}.json")
        walls.append(wall)
        rss.append(peak)
        codes.append(code)
        digests.append(digest)
        if trace:
            dumps.append(json.loads(trace_path.read_text()))
        if time.perf_counter() - start >= seconds:
            break

    problems_by_output: dict[tuple, list[str]] = {}
    for digest, code in set(zip(digests, codes)):
        problems_by_output[(digest, code)] = check_scan_report(
            kept[digest].read_text(), code, expected, caveats)
    failed = sum(1 for key in zip(digests, codes) if problems_by_output[key])
    notes = sorted({p for ps in problems_by_output.values() for p in ps})

    if trace:
        from tracing import add_dumps

        work_dump: dict = {}
        for d in dumps:
            work_dump = add_dumps(work_dump, d)
        metrics = layer_values(work_dump, len(walls))
    else:
        probe_setup(probe, work, setup)
        wall_ms = [w * 1000 for w in walls]
        metrics = {"setup_s": (statistics.median(setup), "s")}
        metrics["records_per_s"] = (statistics.median([n_records / w for w in walls]), "1/s")
        metrics["verdict_p50_ms"] = (statistics.median(wall_ms), "ms")
        metrics["verdict_p95_ms"] = (tail_ms(wall_ms), "ms")
        metrics["peak_rss_mb"] = (statistics.median(rss), "MB")
    return {"attempted": len(walls), "failed": failed, "unexpected": failed,
            "notes": notes, "metrics": metrics}


def tail_ms(values: list[float]) -> float:
    """p95 when at least ten samples lie above it, else the median: with
    fewer than 200 samples there is no tail to report."""
    if len(values) >= 200:
        return statistics.quantiles(values, n=20, method="inclusive")[18]
    return statistics.median(values)


# --------------------------------------------------------------------------
# audit workloads
# --------------------------------------------------------------------------

def run_audit(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import gen_contracts

    layer = "bytecode" if workload == "bytecode-audit" else "source"
    draw = gen_contracts.bytecode_draw(seed) if layer == "bytecode" else gen_contracts.source_draw(seed)
    sigdb = work / "sigdb.txt"
    sigdb.write_text(gen_contracts.sigdb_text(draw))
    if layer == "bytecode":
        (work / "empty.hex").write_text("0x00\n")
        probe = cli("analyze-bytecode", str(work / "empty.hex"), "--sigdb", str(sigdb), "--json")
    else:
        (work / "empty.msol").write_text("contract Empty {\n}\n")
        probe = cli("analyze-source", str(work / "empty.msol"), "--json")
    setup: list[float] = []
    if not trace:
        probe_setup(probe, work, setup)

    job = {"layer": layer, "sigdb": str(sigdb), "seconds": seconds, "trace": trace,
           "contracts": [{"name": c.name, "text": c.text} for c in draw]}
    result, rss = run_worker(job, work)

    verdicts: dict[tuple[int, str], tuple[list[str], bool]] = {}
    failed = unexpected = 0
    notes: set[str] = set()
    for i, outcome in enumerate(result["outcomes"]):
        contract = draw[i % len(draw)]
        key = (i % len(draw), outcome)
        if key not in verdicts:
            verdicts[key] = judge(contract, outcome, result["reports"])
        problems, known = verdicts[key]
        if not problems:
            continue
        failed += 1
        if known:
            notes.add(f"known fault ({contract.fault}): {contract.family}")
        else:
            unexpected += 1
            notes.add(f"{contract.name}: {problems[0]}")

    times_ms = [t * 1000 for t in result["times"]]
    if trace:
        metrics = layer_values(result["trace"], result["rounds"])
    else:
        probe_setup(probe, work, setup)
        metrics = {"setup_s": (statistics.median(setup), "s")}
        metrics["records_per_s"] = (len(times_ms) / result["loop_s"], "1/s")
        metrics["verdict_p50_ms"] = (statistics.median(times_ms), "ms")
        metrics["verdict_p95_ms"] = (tail_ms(times_ms), "ms")
        metrics["peak_rss_mb"] = (rss, "MB")
    return {"attempted": len(times_ms), "failed": failed, "unexpected": unexpected,
            "notes": sorted(notes), "metrics": metrics}


def shows_fault(fault: str, outcome: str, reports: dict) -> bool:
    """Whether a contract failed the way its known fault makes it fail today."""
    import gen_contracts as g

    if outcome.startswith("error: "):
        return fault == g.FAULT_RECURSION and outcome.startswith("error: RecursionError")
    findings = json.loads(reports[outcome])["findings"]
    if fault == g.FAULT_BUDGET:
        return any(f["confidence"] == "INCOMPLETE" for f in findings)
    return fault == g.FAULT_DEPTH and not findings


def judge(contract, outcome: str, reports: dict) -> tuple[list[str], bool]:
    """A contract's problems, and whether they are its known fault's usual failure."""
    from reference import check_audit_report

    if outcome.startswith("error: "):
        problems = [outcome]
    else:
        problems = check_audit_report(reports[outcome], contract.layer, contract.expected)
    known = bool(problems) and contract.fault is not None and shows_fault(
        contract.fault, outcome, reports)
    return problems, known


# --------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    try:
        use_program()
    except MissingProgram as exc:
        print(f"error: {exc}; run from the root of a phantomscan checkout", file=sys.stderr)
        return 2

    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{opts.workload}-{opts.seed}-", dir=WORK))
    try:
        runner = run_logs if opts.workload.startswith("logs-") else run_audit
        out = runner(opts.workload, opts.seed, opts.seconds, bool(opts.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in out["notes"]:
        print(f"note: {note}")
    for name, (value, unit) in out["metrics"].items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": out["unexpected"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
