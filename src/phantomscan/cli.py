"""Command line interface.

Exit codes are uniform across subcommands: 0 means the analysis ran
and found nothing, 1 means findings were produced, 2 means the input
could not be processed, and 3 means the analysis itself failed (an
internal error, reported on one stderr line without a traceback).
Output is deterministic; there are no timestamps and all JSON is
key-sorted.
"""

from __future__ import annotations

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
    """The log layer's findings on one corpus, each wrapped as it is
    consumed, and the scanner's caveats."""
    from .txscan import read_records_file, scan_records
    raw, caveats = _load(path, lambda p: scan_records(read_records_file(p), ruleset,
                                                      spoofing=spoofing))
    return map(from_txlog, _consume(raw)), caveats


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
        with open(out, "w", encoding="utf-8") as fh:
            _write_json(merged, fh)
        click.echo(f"wrote {out}")
    else:
        _write_json(merged, sys.stdout)
    sys.exit(1 if merged.findings else 0)


if __name__ == "__main__":
    main()
