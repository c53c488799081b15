"""The forked workers of a split log scan: exit codes, messages, and no
worker outliving the command.

Each test cuts a small corpus into three byte ranges (one per CPU of a
3-CPU process, with no minimum range size), so the CLI scans the first
range itself and forks a worker for each of the other two.  Every worker
writes its pid to a file, and after each test each of those pids must be
gone."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from phantomscan import cli, txscan
from phantomscan.resources import fixture_path
from phantomscan.txscan import records
from test_txscan import ranged_corpus, write_rows

pytestmark = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                                reason="workers are forked, one per CPU this process may use")

RULES = str(fixture_path("bridge_rules.yaml"))
SRC = Path(cli.__file__).resolve().parent.parent


def _running(pid: int) -> bool:
    """Whether process `pid` exists and is not a zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _gone(pids, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while any(_running(pid) for pid in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def _pids(path: Path) -> list[int]:
    return [int(line) for line in path.read_text().split()] if path.exists() else []


@pytest.fixture
def split(tmp_path, monkeypatch):
    """Three ranges per corpus; a worker runs `split.in_worker(start)` before
    its scan, and its pid is checked to be gone after the test, which fails
    if it runs for more than 60 s."""
    pid_file = tmp_path / "workers.txt"
    test_pid = os.getpid()
    real = txscan.scan_range

    def recorded(path, start=0, end=None, *args, **kwargs):
        if os.getpid() != test_pid:
            with open(pid_file, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            hooks.in_worker(start)
        return real(path, start, end, *args, **kwargs)

    class hooks:
        @staticmethod
        def in_worker(start):
            pass

    def time_out(signum, frame):
        raise TimeoutError("the scan did not finish in 60 s")

    cpus = os.sched_getaffinity(0)
    monkeypatch.setattr(records, "MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(cli, "_cpus", lambda: 3)
    monkeypatch.setattr(txscan, "scan_range", recorded)
    handler = signal.signal(signal.SIGALRM, time_out)
    signal.alarm(60)
    try:
        yield hooks
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert os.sched_getaffinity(0) == cpus  # the CLI's own CPUs, restored
    workers = _pids(pid_file)
    assert _gone(workers)
    for pid in workers:  # each one waited for by the CLI
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _corpus(tmp_path, defect_at: float | None = None) -> str:
    rows, _ = ranged_corpus(11, 300)
    if defect_at is not None:
        rows[int(len(rows) * defect_at)] = '{"txHash": "0x12",'
    path = tmp_path / "corpus.jsonl"
    write_rows(path, rows)
    return str(path)


def _scan(corpus: str, *args: str):
    return CliRunner().invoke(cli.main, ["scan-logs", corpus, "--rules", RULES, *args])


def _one_pass(corpus: str, *args: str, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(cli, "_cpus", lambda: 1)
        return _scan(corpus, *args)


@pytest.mark.parametrize("args", [("--json",), ("--no-spoofing",)])
def test_a_split_scan_prints_the_one_pass_output(split, tmp_path, monkeypatch, args):
    corpus = _corpus(tmp_path)
    assert len(records.line_ranges(corpus, cli._cpus())) == 3
    res = _scan(corpus, *args)
    one = _one_pass(corpus, *args, monkeypatch=monkeypatch)
    assert res.exit_code == one.exit_code == 1
    assert res.stdout_bytes == one.stdout_bytes
    assert len(_pids(tmp_path / "workers.txt")) == 2


@pytest.mark.parametrize("defect_at", [0.1, 0.5, 0.9])
def test_an_error_in_any_range_exits_2_with_the_one_pass_message(split, tmp_path, monkeypatch,
                                                                 defect_at):
    corpus = _corpus(tmp_path, defect_at)
    res = _scan(corpus)
    one = _one_pass(corpus, monkeypatch=monkeypatch)
    assert res.exit_code == one.exit_code == 2
    assert res.stderr == one.stderr
    assert res.stderr.startswith(f"error: {corpus}: line ")
    assert res.stdout == ""


@pytest.mark.parametrize("victim", ["first", "second"])
def test_a_worker_that_dies_exits_3_with_one_internal_error_line(split, tmp_path, victim):
    corpus = _corpus(tmp_path)
    starts = [start for start, _ in records.line_ranges(corpus, 3)]
    doomed = starts[1] if victim == "first" else starts[2]

    def die(start):
        if start == doomed:
            os.kill(os.getpid(), signal.SIGKILL)

    split.in_worker = die
    res = _scan(corpus, "--json")
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == (f"error: {corpus}: internal error: RuntimeError: the worker scanning "
                          f"bytes from {doomed} ended with signal 9\n")


def test_a_failing_worker_exits_3_with_its_error(split, tmp_path):
    corpus = _corpus(tmp_path)

    def fail(start):
        raise KeyError("boom")

    split.in_worker = fail
    res = _scan(corpus)
    assert res.exit_code == 3
    assert res.stderr == f"error: {corpus}: internal error: RuntimeError: KeyError: 'boom'\n"


def test_an_error_in_the_first_range_stops_the_workers(split, tmp_path, monkeypatch):
    corpus = _corpus(tmp_path, 0.1)
    split.in_worker = lambda start: time.sleep(60)
    began = time.monotonic()
    res = _scan(corpus)
    assert res.exit_code == 2
    assert time.monotonic() - began < 30


_KILLED_MID_SCAN = """
import os, sys, time
from phantomscan import cli, txscan
from phantomscan.txscan import records

records.MIN_RANGE_BYTES = 1
cli._cpus = lambda: 3
real = txscan.scan_range
parent = os.getpid()

def slow(path, *args):
    if os.getpid() != parent:
        with open(sys.argv[1], "a") as fh:
            fh.write(f"{os.getpid()}\\n")
        time.sleep(60)
    return real(path, *args)

txscan.scan_range = slow
cli.main(sys.argv[2:])
"""


def test_no_worker_outlives_a_killed_cli(tmp_path):
    corpus = _corpus(tmp_path)
    pid_file = tmp_path / "workers.txt"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen([sys.executable, "-c", _KILLED_MID_SCAN, str(pid_file),
                             "scan-logs", corpus], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while len(_pids(pid_file)) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        workers = _pids(pid_file)
        assert len(workers) == 2
        assert all(_running(pid) for pid in workers)
    finally:
        proc.kill()
        proc.wait()
    assert _gone(workers)
