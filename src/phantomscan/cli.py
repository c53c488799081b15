"""Command line interface.

Exit codes are uniform across subcommands: 0 means the analysis ran
and found nothing, 1 means findings were produced, 2 means the input
could not be processed or the output could not be written, and 3 means
the analysis itself failed (an internal error, reported on one stderr
line without a traceback).
Output is deterministic; there are no timestamps and all JSON is
key-sorted.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import click

from . import SCHEMA, __version__, jsonout
from .findings import from_bytecode, from_source, from_txlog
from .report import merge

_INPUT_ERRORS = (OSError, ValueError)
_ORIGIN = "phantomscan.origin"


# The analysis layers are imported when a subcommand first calls into them, so
# each subcommand loads only the layers it runs.  An import made at call time
# reads the layer module's attribute, so a wrapped or patched function is used.

def build_icfg(bytecode, sigdb=None):
    from .lifter.functions import build_icfg
    return build_icfg(bytecode, sigdb)


def detect(icfg, sigdb=None, **options):
    from .taint import detect
    return detect(icfg, sigdb, **options)


def analyze_source(contract):
    from .symexec import analyze_source
    return analyze_source(contract)


def _sigdb(path: str):
    from .lifter.functions import SigDb
    return SigDb.from_file(path)


def _rules(path: str):
    from .txscan import load_rules_file
    return load_rules_file(path)


def _load(path: str | None, loader, *errors):
    """`loader(path)`, or None when no path is given.  An input error, or
    one of `errors`, exits 2 naming the file."""
    if path is None:
        return None
    try:
        return loader(path)
    except (*_INPUT_ERRORS, *errors) as exc:
        # some loaders already put the file name in the message; don't repeat it
        text = str(exc).removeprefix(f"{Path(path).name}: ")
        click.echo(f"error: {path}: {text}", err=True)
        sys.exit(2)


def _read_source(path: str):
    from .minisol import ResolutionError, SyntaxError as SourceSyntaxError, load
    return _load(path, lambda p: load(Path(p).read_text(encoding="utf-8")),
                 SourceSyntaxError, ResolutionError)


# One function per layer serves that layer's subcommand and `report`.  Each
# returns the layer's findings in the order it finds them; `merge` orders a
# report.

def _bytecode_findings(path: str, db, strict_eq2: bool = False) -> list:
    """The bytecode layer's findings on one hex file."""
    from .evm.disasm import Bytecode
    graph = build_icfg(_load(path, Bytecode.from_hex_file), db)
    return [from_bytecode(f, origin=Path(path).name)
            for f in detect(graph, db, strict_eq2=strict_eq2)]


def _source_findings(path: str) -> list:
    """The source layer's findings on one restricted-Solidity file."""
    return [from_source(f, origin=Path(path).name) for f in analyze_source(_read_source(path))]


def _log_findings(path: str, ruleset, spoofing: bool = True):
    """The log layer's findings on one corpus, wrapped, and the scanner's caveats.

    A regular file is cut at line boundaries into one byte range per CPU
    this process may use (`line_ranges`, which keeps a small file whole).
    The first range is scanned here and each other one in a forked worker,
    and `join_ranges` makes of their scans exactly the findings, caveats
    and first error of one pass, however the file was cut."""
    from .txscan import line_ranges
    return _load(path, lambda p: _scan_ranges(p, line_ranges(p, _cpus()), ruleset, spoofing))


def _cpus() -> int:
    """How many CPUs this process may use, where it can fork workers; else 1."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _scan_ranges(path: str, ranges: list, ruleset, spoofing: bool):
    """`join_ranges` over the scans of the byte `ranges` of the corpus at
    `path`: the first scanned here, each other one in a forked worker, and
    each process kept on a CPU of its own."""
    from .txscan import join_ranges
    cpus = sorted(os.sched_getaffinity(0)) if len(ranges) > 1 else []
    workers: list[_Worker] = []
    try:
        for i, (start, end) in enumerate(ranges[1:], 1):
            workers.append(_Worker(path, start, end, ruleset, spoofing, cpus[i % len(cpus)],
                                   workers))
        if workers:
            _pin({cpus[0]})
        try:
            scans = [_scan_range(path, *ranges[0], ruleset, spoofing)]
        finally:
            if workers:
                _pin(set(cpus))
        for worker in workers:
            if scans[-1].error is not None:
                break  # the join stops there; the later ranges don't count
            scans.append(worker.result())
        return join_ranges(scans, ruleset, wrap=from_txlog)
    finally:
        for worker in workers:
            worker.stop()


def _pin(cpus: set[int]) -> None:
    """Let this process run on `cpus` only.  Left to itself, the kernel of a
    2-vCPU VM kept a worker on its parent's CPU in most runs, and a split
    scan took longer than one pass (a 60,000-record corpus: 752 ms median
    unpinned, 451 ms pinned, 697 ms in one pass, over 15 runs each)."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:  # a CPU gone offline, or a sandbox that forbids it: run anywhere
        pass


def _scan_range(path: str, start: int, end: int | None, ruleset, spoofing: bool):
    """`scan_range` with its findings wrapped."""
    from .txscan import scan_range
    scan = scan_range(path, start, end, ruleset, spoofing)
    scan.findings = list(map(from_txlog, _consume(scan.findings)))
    return scan


class _Worker:
    """A forked process that scans one byte range of a corpus and sends its
    `RangeScan` back, pickled, through a pipe only the two of them hold."""

    def __init__(self, path: str, start: int, end: int | None, ruleset, spoofing: bool,
                 cpu: int, others: list[_Worker]):
        self.start, self.end = start, end
        parent = os.getpid()
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError as exc:
            os.close(read_fd)
            os.close(write_fd)
            raise RuntimeError(f"cannot start a worker: {exc}") from exc
        if self.pid == 0:  # the worker: never returns
            self._run(path, ruleset, spoofing, cpu, parent, write_fd,
                      [read_fd, *(other.pipe.fileno() for other in others)])
        os.close(write_fd)
        self.pipe = open(read_fd, "rb")

    def _run(self, path: str, ruleset, spoofing: bool, cpu: int, parent: int, write_fd: int,
             unused_fds: list[int]):
        code = 1
        try:
            import pickle
            import signal

            def stop_if_orphaned(signum, frame):
                if os.getppid() != parent:  # no one is left to read the result
                    os._exit(1)

            signal.signal(signal.SIGALRM, stop_if_orphaned)
            signal.setitimer(signal.ITIMER_REAL, 0.2, 0.2)
            for fd in unused_fds:  # the read ends: this one's, and other workers'
                os.close(fd)
            _pin({cpu})
            try:
                scan = _scan_range(path, self.start, self.end, ruleset, spoofing)
            except Exception as exc:
                from .txscan import RangeScan
                scan = RangeScan(error=("internal", 0, f"{type(exc).__name__}: {exc}"))
            with open(write_fd, "wb") as out:
                pickle.dump(scan, out, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            # runs none of the parent's exit handlers and flushes no inherited buffer
            os._exit(code)

    def result(self):
        """The worker's `RangeScan`, if it sent it whole and exited with 0."""
        import pickle
        try:
            scan = pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):  # it died before it sent the whole scan
            scan = None
        code = self.stop(kill=False)
        if scan is None or code != 0:
            from .txscan import RangeScan
            how = f"signal {-code}" if code < 0 else f"code {code}"
            scan = RangeScan(error=("internal", 0, f"the worker scanning bytes from {self.start} "
                                                   f"ended with {how}"))
        return scan

    def stop(self, kill: bool = True) -> int:
        """Wait for the worker, killed first if `kill`, once its pipe is read
        to the end, and return its exit code (0 if it was waited for before)."""
        if self.pid is None:
            return 0
        if kill:
            import signal
            os.kill(self.pid, signal.SIGKILL)
        with self.pipe:
            while self.pipe.read(1 << 16):
                pass
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return os.waitstatus_to_exitcode(status)


def _consume(items: list):
    """Yield the items of `items` in order and drop each from the list, so an
    item is freed as soon as its consumer lets go of it."""
    items.reverse()
    while items:
        yield items.pop()


def _write_json(report, stream) -> None:
    """Write the report's JSON one finding at a time: its whole text is never held."""
    stream.writelines(report.json_pieces())
    stream.write("\n")
    stream.flush()  # a closed stdout fails here, in the command, as `click.echo` does


def _unwritable(name: str, exc: OSError):
    """Exit 2: the output `name` cannot be written, which is no failure of the analysis."""
    click.echo(f"error: {name}: {exc.strerror or exc}", err=True)
    sys.exit(2)


def _emit(report, as_json: bool) -> None:
    if as_json:
        _write_json(report, sys.stdout)
    else:
        for f in report.findings:
            mark = " (superseded)" if f.id in report.superseded else ""
            subject = f.subject.get("event") or f.subject.get("txHash") or ""
            where = f.subject.get("origin") or f.subject.get("address") or ""
            extra = ""
            if f.subject.get("functions"):
                extra = " functions=" + ",".join(f.subject["functions"])
            elif f.subject.get("logIndex") is not None:
                extra = f" block={f.subject['blockNumber']} log={f.subject['logIndex']}"
            check = f.evidence.get("check") or f.evidence.get("condition")
            via = f" via {check}" if check else ""
            click.echo(
                f"[{f.confidence}] {f.kind} ({f.layer}) {where} {subject}{extra}{via}{mark}"
            )
        for c in report.caveats:
            click.echo(f"caveat: {c}")
        n = len(report.findings)
        click.echo(f"{n} finding{'s' if n != 1 else ''}")
    sys.exit(1 if report.findings else 0)


class _Command(click.Command):
    """A subcommand whose unexpected exceptions exit 3, never 1 ("findings")."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except BrokenPipeError as exc:  # stdout is the only pipe this process writes
            # send what is still buffered to nowhere, so the flush at exit cannot fail
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            _unwritable(sys.stdout.name, exc)
        except Exception as exc:
            origin = (ctx.meta.get(_ORIGIN) or ctx.params.get("file")
                      or ctx.params.get("corpus") or ctx.info_name)
            click.echo(f"error: {origin}: internal error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(3)


class _Group(click.Group):
    command_class = _Command


def _working_on(path: str | None) -> None:
    """Name ``path`` in an internal error raised from here on."""
    click.get_current_context().meta[_ORIGIN] = path


@click.group(cls=_Group)
@click.version_option(__version__, prog_name="phantomscan")
def main() -> None:
    """Detect forged smart-contract events at three levels: compiled
    bytecode, restricted source, and logged transaction corpora."""


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--keep-metadata", is_flag=True, help="Do not strip the trailing metadata blob.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
def disasm(file: str, keep_metadata: bool, as_json: bool) -> None:
    """Disassemble runtime bytecode from a hex FILE."""
    from .evm.disasm import Bytecode
    bc = _load(file, lambda p: Bytecode.from_hex_file(p, strip=not keep_metadata))
    if as_json:
        doc = {
            "schema": SCHEMA,
            "origin": bc.origin,
            "bytes": len(bc.code),
            "metadata_stripped": bc.metadata.hex() if bc.metadata else None,
            "instructions": [
                {
                    "pc": ins.offset,
                    "op": ins.mnemonic,
                    "arg": "0x" + ins.operand.hex() if ins.operand is not None else None,
                }
                for ins in bc.instructions
            ],
        }
        click.echo(jsonout.dumps(doc))
    else:
        for ins in bc.instructions:
            click.echo(str(ins))


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--sigdb", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Signature database for naming selectors and topics.")
@click.option("--dot", "as_dot", is_flag=True, help="Emit Graphviz instead of JSON.")
def icfg(file: str, sigdb: str | None, as_dot: bool) -> None:
    """Lift bytecode into functions and print the recovered graph."""
    from .evm.disasm import Bytecode
    db = _load(sigdb, _sigdb)
    graph = build_icfg(_load(file, Bytecode.from_hex_file), db)
    click.echo(graph.to_dot() if as_dot else graph.to_json())


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--summary", "as_summary", is_flag=True,
              help="Print an event/state/function digest instead of source.")
def parse(file: str, as_summary: bool) -> None:
    """Parse a restricted-Solidity contract and reprint it canonically."""
    from .minisol import summarize, to_source

    contract = _read_source(file)
    if as_summary:
        click.echo(jsonout.dumps(summarize(contract)))
    else:
        click.echo(to_source(contract), nl=False)


@main.command("analyze-bytecode")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--sigdb", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--strict-eq2", is_flag=True,
              help="Use the structural per-function check in place of NO_TAINT_RELATED_SSTORE.")
@click.option("--json", "as_json", is_flag=True)
def analyze_bytecode(file: str, sigdb: str | None, strict_eq2: bool, as_json: bool) -> None:
    """Taint-analyze every LOG site in compiled bytecode."""
    _emit(merge(_bytecode_findings(file, _load(sigdb, _sigdb), strict_eq2)), as_json)


@main.command("analyze-source")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True)
def analyze_source_cmd(file: str, as_json: bool) -> None:
    """Symbolically execute a restricted-Solidity contract."""
    _emit(merge(_source_findings(file)), as_json)


@main.command("scan-logs")
@click.argument("corpus", type=click.Path(exists=True, dir_okay=False))
@click.option("--rules", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Project ruleset (YAML).")
@click.option("--no-spoofing", is_flag=True, help="Skip the transfer-spoofing heuristic.")
@click.option("--json", "as_json", is_flag=True)
def scan_logs(corpus: str, rules: str | None, no_spoofing: bool, as_json: bool) -> None:
    """Scan a JSONL event-log corpus against rules and heuristics."""
    _emit(merge(*_log_findings(corpus, _load(rules, _rules), not no_spoofing)), as_json)


@main.command()
@click.option("--bytecode", "bytecode_files", multiple=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--source", "source_files", multiple=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--logs", "log_files", multiple=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--rules", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--sigdb", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", "-o", type=click.Path(dir_okay=False), default=None,
              help="Write the JSON report here instead of stdout.")
def report(bytecode_files, source_files, log_files, rules, sigdb, out) -> None:
    """Run every requested layer and merge the results.

    A confirmed source-level finding supersedes a potential
    bytecode-level one that points at the same event of the same
    artifact stem, so paired inputs like a .hex and .msol of one
    contract do not double-count.
    """
    if not bytecode_files and not source_files and not log_files:
        click.echo("error: nothing to analyze; pass --bytecode, --source or --logs", err=True)
        sys.exit(2)
    db = _load(sigdb, _sigdb)
    ruleset = _load(rules, _rules)

    findings = []
    caveats: list[str] = []
    for path in bytecode_files:
        _working_on(path)
        findings += _bytecode_findings(path, db)
    for path in source_files:
        _working_on(path)
        findings += _source_findings(path)
    for path in log_files:
        _working_on(path)
        wrapped, cavs = _log_findings(path, ruleset)
        findings.extend(wrapped)
        caveats.extend(cavs)
    _working_on(None)

    merged = merge(findings, caveats)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                _write_json(merged, fh)
        except OSError as exc:
            _unwritable(out, exc)
        click.echo(f"wrote {out}")
    else:
        _write_json(merged, sys.stdout)
    sys.exit(1 if merged.findings else 0)


if __name__ == "__main__":
    main()
