"""Per-layer spans, recorded from outside the program.

`Tracer.install` wraps the public functions each layer calls into and
replaces every reference to them held by a loaded `phantomscan` module,
so calls made through re-exports (`phantomscan.cli` imports most of them
by name) are traced too.  Spans nest on a stack: a span's self time is
its duration minus the time of the spans it encloses.  Spans are summed
per name in memory and written out once, at the end.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)   # inclusive seconds
        self.self_: dict[str, float] = defaultdict(float)   # minus enclosed spans
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, start, time of enclosed spans]

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> None:
        self._stack.append([name, _clock(), 0.0])

    def _close(self) -> None:
        name, start, inner = self._stack.pop()
        took = _clock() - start
        self.total[name] += took
        self.self_[name] += took - inner
        self.counts[name + ".calls"] += 1
        if self._stack:
            self._stack[-1][2] += took

    def span(self, fn, name: str, on_result=None):
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if on_result is not None:
                on_result(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def generator_span(self, fn, name: str, per_item: str):
        """Time spent producing each item of a generator function."""
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close()
                self.counts[per_item] += 1
                yield item
        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------

    def install(self) -> None:
        import phantomscan.cli  # noqa: F401  (loads every layer and the CLI's re-imports)
        from phantomscan import findings, report
        from phantomscan.evm import disasm
        from phantomscan.lifter import functions
        from phantomscan.minisol import parser
        from phantomscan.symexec import engine, solver
        from phantomscan.txscan import records, scan
        from phantomscan import taint

        c = self.counts

        def icfg_counts(icfg):
            c["lifter.blocks"] += len(icfg.blocks)
            c["lifter.functions"] += len(icfg.functions)
            c["lifter.unresolved_jumps"] += icfg.unresolved_jumps

        def slice_counts(result):
            paths, exceeded = result
            c["taint.paths"] += len(paths)
            c["taint.budget_hits"] += bool(exceeded)

        def log_site_counts(ops):
            c["taint.log_sites"] += len(ops)

        def path_counts(path_set):
            c["symexec.paths"] += len(path_set.paths)

        def solve_counts(result):
            c["symexec.solve_unknown"] += result[0] == solver.UNKNOWN

        def report_counts(text):
            c["report.bytes"] += len(text)

        swaps = [
            (records.read_records,
             self.generator_span(records.read_records, "txscan.parse", "txscan.records")),
            (scan.scan_records, self.span(scan.scan_records, "txscan.scan")),
            (disasm.disassemble, self.span(disasm.disassemble, "evm.disasm")),
            (functions.build_icfg, self.span(functions.build_icfg, "lifter.icfg", icfg_counts)),
            (taint.detect, self.span(taint.detect, "taint.detect")),
            (taint.extract_log_ops, self.span(taint.extract_log_ops, "taint.log_ops", log_site_counts)),
            (taint.backward_slice, self.span(taint.backward_slice, "taint.slice", slice_counts)),
            (taint.taint_analysis, self.span(taint.taint_analysis, "taint.taint")),
            (parser.load, self.span(parser.load, "minisol.load")),
            (engine.search_paths, self.span(engine.search_paths, "symexec.search_paths", path_counts)),
            (engine.solve, self.span(engine.solve, "symexec.solve", solve_counts)),
            (report.merge, self.span(report.merge, "report.merge")),
        ]
        for fn in (findings.from_txlog, findings.from_bytecode, findings.from_source):
            swaps.append((fn, self.span(fn, "findings.wrap")))
        for original, traced in swaps:
            _replace_everywhere(original, traced)

        to_json = report.Report.to_json
        report.Report.to_json = self.span(to_json, "report.serialize", report_counts)

    def dump(self) -> dict:
        return {"total": dict(self.total), "self": dict(self.self_), "counts": dict(self.counts)}


def _replace_everywhere(original, traced) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("phantomscan"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, traced)


def write(tracer: Tracer, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)


def add_dumps(a: dict, b: dict) -> dict:
    """a + b, key by key."""
    out = {part: dict(a.get(part, {})) for part in ("total", "self", "counts")}
    for part in out:
        for key, value in b.get(part, {}).items():
            out[part][key] = out[part].get(key, 0) + value
    return out


def layer_metrics(d: dict, passes: int, src_lines: int) -> dict:
    """The benchmark's per-layer metrics, per pass over the inputs, from a
    (possibly summed) dump.  A layer the workload does not use reads 0."""
    def get(part: str, key: str, unit: str) -> tuple[float, str]:
        return d.get(part, {}).get(key, 0) / passes, unit

    return {
        "txscan.parse_s": get("total", "txscan.parse", "s"),
        "txscan.scan_s": get("self", "txscan.scan", "s"),
        "txscan.records": get("counts", "txscan.records", "count"),
        "findings.wrap_s": get("total", "findings.wrap", "s"),
        "findings.count": get("counts", "findings.wrap.calls", "count"),
        "report.merge_s": get("self", "report.merge", "s"),
        "report.serialize_s": get("total", "report.serialize", "s"),
        "report.bytes": get("counts", "report.bytes", "bytes"),
        "evm.disasm_s": get("total", "evm.disasm", "s"),
        "lifter.icfg_s": get("total", "lifter.icfg", "s"),
        "lifter.blocks": get("counts", "lifter.blocks", "count"),
        "lifter.functions": get("counts", "lifter.functions", "count"),
        "lifter.unresolved_jumps": get("counts", "lifter.unresolved_jumps", "count"),
        "taint.detect_s": get("total", "taint.detect", "s"),
        "taint.log_sites": get("counts", "taint.log_sites", "count"),
        "taint.slice_s": get("total", "taint.slice", "s"),
        "taint.slice_calls": get("counts", "taint.slice.calls", "count"),
        "taint.paths": get("counts", "taint.paths", "count"),
        "taint.taint_s": get("total", "taint.taint", "s"),
        "taint.budget_hits": get("counts", "taint.budget_hits", "count"),
        "minisol.load_s": get("total", "minisol.load", "s"),
        "symexec.search_paths_s": get("total", "symexec.search_paths", "s"),
        "symexec.search_paths_calls": get("counts", "symexec.search_paths.calls", "count"),
        "symexec.paths": get("counts", "symexec.paths", "count"),
        "symexec.solve_s": get("total", "symexec.solve", "s"),
        "symexec.solve_calls": get("counts", "symexec.solve.calls", "count"),
        "symexec.solve_unknown": get("counts", "symexec.solve_unknown", "count"),
        "src.lines": (src_lines, "count"),
    }
