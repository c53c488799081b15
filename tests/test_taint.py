"""Backward slicing, taint propagation, and the bytecode detectors."""

import pytest
from hypothesis import given, strategies as st

from phantomscan._keccak import event_topic
from phantomscan.evm import Bytecode
from phantomscan.evm.opcodes import MNEMONIC_TO_OPCODE
from phantomscan.lifter import SigDb, build_icfg
from phantomscan.lifter.tac import TacInstruction
from phantomscan.resources import fixture_path
from phantomscan import taint
from phantomscan.taint import (
    LogOp,
    PathSlice,
    backward_slice,
    build_value_keys,
    detect,
    extract_log_ops,
    taint_analysis,
)
from test_fuzz import _time_box, assemble

FIXTURES = ["counterfeit", "inconsistent", "inconsistent_safe",
            "emit_helper", "nocheck_call", "checked_call"]


def icfg_for(name: str):
    sigdb = SigDb.from_text(fixture_path("sigdb.txt").read_text())
    bc = Bytecode.from_hex_file(str(fixture_path(name + ".hex")))
    return build_icfg(bc, sigdb=sigdb), sigdb


def topic(sig: str) -> int:
    return int(event_topic(sig), 16)


# --------------------------------------------------------------------------
# independent path oracle: enumerates (function, block) traces backwards
# over the plain block graph, one crossing per directed edge
# --------------------------------------------------------------------------

def oracle_traces(icfg, logop) -> set:
    results = set()

    def go(fn_name, block, ctx, used, trace):
        fn = icfg.functions[fn_name]
        if block in fn.lift_failed:
            return
        moves = []
        for p in fn.pred.get(block, []):
            moves.append((("cfg", fn_name, p, block), fn_name, p, ctx))
        for e in icfg.return_edges_at(fn_name, block):
            for x in icfg.callee_exit_blocks(e):
                moves.append((("ret", e.caller, e.call_block, x),
                              e.callee, x, ctx + (e,)))
        if block == fn.entry:
            if ctx:
                e = ctx[-1]
                if e.callee == fn_name:
                    moves.append((("call", e.caller, e.call_block, fn_name),
                                  e.caller, e.call_block, ctx[:-1]))
            else:
                incoming = icfg.edges_into(fn_name)
                for e in incoming:
                    moves.append((("call", e.caller, e.call_block, fn_name),
                                  e.caller, e.call_block, ctx))
                if not incoming:
                    results.add(tuple(trace))
        for key, nfn, nblk, nctx in moves:
            if key in used:
                continue
            go(nfn, nblk, nctx, used | {key}, trace + [(nfn, nblk)])

    go(logop.function, logop.block, (), frozenset(),
       [(logop.function, logop.block)])
    return results


class TestLogOpExtraction:
    def test_signature_topics_resolve_to_constants(self):
        icfg, _ = icfg_for("counterfeit")
        ops = extract_log_ops(icfg)
        assert len(ops) == 2
        assert all(o.topic0 == topic("Deposit(address,uint256,address,uint256)")
                   for o in ops)
        assert {o.function for o in ops} == {"deposit", "depositETH"}

    def test_each_log_site_appears_once(self):
        for name in FIXTURES:
            icfg, _ = icfg_for(name)
            ops = extract_log_ops(icfg)
            assert len({o.pc for o in ops}) == len(ops), name

    def test_constant_region_resolves_stored_words(self):
        icfg, _ = icfg_for("counterfeit")
        eth = next(o for o in extract_log_ops(icfg) if o.function == "depositETH")
        assert len(eth.data_vars) == 3  # amount, token=0, chain id
        assert not eth.synthetic
        assert len(eth.topic_vars) == 1  # indexed sender

    def test_stack_passed_value_matches_through_extern(self):
        icfg, _ = icfg_for("emit_helper")
        op = next(o for o in extract_log_ops(icfg) if o.function == "helper_0x49")
        assert op.data_vars == ("S0@0x49",)

    def test_dynamic_size_falls_back_to_opaque_region(self):
        # MSTORE(0, 0x2a); LOG1 with size read from calldata
        bc = Bytecode.from_hex("602a60005260aa6000356000a100")
        icfg = build_icfg(bc)
        op, = extract_log_ops(icfg)
        assert len(op.data_vars) == 1
        assert op.data_vars[0].startswith("mem")
        assert op.synthetic and op.synthetic[0].op == "MEMREGION"
        # the region is fed by the one store in scope
        assert len(op.synthetic[0].uses) == 1


class TestBackwardSlice:
    def test_paths_match_oracle_on_all_fixtures(self):
        for name in FIXTURES:
            icfg, _ = icfg_for(name)
            for op in extract_log_ops(icfg):
                slices, exceeded = backward_slice(icfg, op)
                assert not exceeded, name
                got = {s.block_trace for s in slices}
                assert got == oracle_traces(icfg, op), (name, op.pc)

    def test_helper_log_reaches_both_callers(self):
        icfg, _ = icfg_for("emit_helper")
        op = next(o for o in extract_log_ops(icfg) if o.function == "helper_0x49")
        slices, _ = backward_slice(icfg, op)
        assert {s.entry_function for s in slices} == {"touch", "poke"}
        assert all("helper_0x49" in s.crossed_functions for s in slices)

    def test_loop_unrolls_once(self):
        # entry block jumps back to itself on a calldata flag, then logs
        bc = Bytecode.from_hex("5b600035600057602a60005260aa60206000a100")
        icfg = build_icfg(bc)
        op, = extract_log_ops(icfg)
        slices, exceeded = backward_slice(icfg, op)
        assert not exceeded
        traces = {s.block_trace for s in slices}
        assert traces == {
            (("fallback", 0x7), ("fallback", 0x0)),
            (("fallback", 0x7), ("fallback", 0x0), ("fallback", 0x0)),
        }

    def test_path_budget_flags_incomplete(self):
        icfg, _ = icfg_for("emit_helper")
        op = next(o for o in extract_log_ops(icfg) if o.function == "helper_0x49")
        slices, exceeded = backward_slice(icfg, op, max_paths=1)
        assert exceeded
        assert len(slices) == 1

    def test_phi_copies_bridge_extern_vars(self):
        icfg, _ = icfg_for("emit_helper")
        op = next(o for o in extract_log_ops(icfg) if o.function == "helper_0x49")
        slices, _ = backward_slice(icfg, op)
        for s in slices:
            phis = [t for t in s.instrs if t.op == "PHI"]
            assert any(t.defs == ("S0@0x49",) for t in phis)


class TestTaintPropagation:
    def test_repeated_calldata_reads_share_one_key(self):
        # the safe variant reloads the same argument slot three times;
        # its storage write must still count as related to the logged value
        icfg, _ = icfg_for("inconsistent_safe")
        vk = build_value_keys(icfg)
        op, = extract_log_ops(icfg)
        slices, _ = backward_slice(icfg, op)
        for s in slices:
            r = taint_analysis(s, vk)
            assert r.tainted
            assert taint._has_taint_related_sstore(s, r.taint_keys, vk)

    def test_sources_report_calldata_slots(self):
        icfg, _ = icfg_for("counterfeit")
        vk = build_value_keys(icfg)
        op = next(o for o in extract_log_ops(icfg) if o.function == "deposit")
        s, = backward_slice(icfg, op)[0]
        r = taint_analysis(s, vk)
        assert r.calldata_slots == (4, 36, 68)
        assert ("CALLER", None) in r.sources

    def test_untainted_when_nothing_flows_from_input(self):
        icfg, _ = icfg_for("nocheck_call")
        vk = build_value_keys(icfg)
        op, = extract_log_ops(icfg)
        s, = backward_slice(icfg, op)[0]
        assert not taint_analysis(s, vk).tainted

    @given(st.data())
    def test_larger_seed_never_shrinks_taint(self, data):
        n_vars = data.draw(st.integers(3, 8))
        names = [f"v{i}" for i in range(n_vars)]
        instrs = []
        for i, d in enumerate(names[1:], start=1):
            uses = data.draw(st.lists(st.sampled_from(names[:i]),
                                      min_size=0, max_size=2))
            instrs.append(TacInstruction(pc=i, op="ADD", defs=(d,),
                                         uses=tuple(uses)))
        dummy = LogOp(function="f", block=0, pc=0, topic_count=1,
                      topic0=0, topic_vars=(), data_vars=())
        sl = PathSlice(logop=dummy, instrs=list(reversed(instrs)),
                       entry_function="f", entry_block=0,
                       crossed_functions=())
        seed_small = tuple(data.draw(st.lists(
            st.sampled_from(names), min_size=1, max_size=2, unique=True)))
        extra = data.draw(st.sampled_from(names))
        seed_big = tuple(sorted(set(seed_small) | {extra}))
        small = taint_analysis(sl, {}, seed=seed_small).taint_keys
        big = taint_analysis(sl, {}, seed=seed_big).taint_keys
        assert small <= big


class TestDetection:
    def expect(self, name):
        icfg, sigdb = icfg_for(name)
        return [(f.kind, f.condition, f.entries, f.confidence)
                for f in detect(icfg, sigdb=sigdb)]

    def test_multi_entry_counterfeiting(self):
        assert self.expect("counterfeit") == [(
            "EVENT_COUNTERFEITING", "MULTI_TAINTED_PATHS",
            ("deposit", "depositETH"), "POTENTIAL",
        )]

    def test_unanchored_logging(self):
        assert self.expect("inconsistent") == [(
            "INCONSISTENT_LOGGING", "NO_TAINT_RELATED_SSTORE",
            ("requestWithdraw",), "POTENTIAL",
        )]

    def test_anchored_variant_is_clean(self):
        assert self.expect("inconsistent_safe") == []

    def test_unchecked_call_before_emit(self):
        assert self.expect("nocheck_call") == [(
            "EVENT_COUNTERFEITING", "NO_CONSTRAINT_EXTERNAL_CALL",
            ("fallback",), "POTENTIAL",
        )]

    def test_checked_call_is_clean(self):
        assert self.expect("checked_call") == []

    def test_shared_helper_flags_both_kinds(self):
        got = self.expect("emit_helper")
        assert ("EVENT_COUNTERFEITING", "MULTI_TAINTED_PATHS",
                ("poke", "touch"), "POTENTIAL") in got
        assert ("INCONSISTENT_LOGGING", "NO_TAINT_RELATED_SSTORE",
                ("poke", "touch"), "POTENTIAL") in got
        assert len(got) == 2

    def test_event_names_resolve_via_signature_db(self):
        icfg, sigdb = icfg_for("counterfeit")
        f, = detect(icfg, sigdb=sigdb)
        assert f.event == "Deposit(address,uint256,address,uint256)"
        assert f.topic0 == topic("Deposit(address,uint256,address,uint256)")

    def test_findings_are_deterministic(self):
        for name in FIXTURES:
            icfg, sigdb = icfg_for(name)
            assert detect(icfg, sigdb=sigdb) == detect(icfg, sigdb=sigdb), name

    def test_budget_exhaustion_degrades_confidence(self):
        icfg, sigdb = icfg_for("emit_helper")
        findings = detect(icfg, sigdb=sigdb, max_paths=1)
        assert findings
        assert all(f.confidence == "INCOMPLETE" for f in findings)


class TestStrictMode:
    def test_structural_rule_misses_guarded_unanchored_emit(self):
        # the guarded fixture branches and reads storage, so the literal
        # per-function conjunction stays silent where the path-based rule
        # reports the missing taint-related write
        icfg, sigdb = icfg_for("inconsistent")
        assert len(detect(icfg, sigdb=sigdb)) == 1
        strict = detect(icfg, sigdb=sigdb, strict_eq2=True)
        assert strict == []

    def test_structural_rule_still_flags_storageless_emitters(self):
        icfg, sigdb = icfg_for("emit_helper")
        strict = detect(icfg, sigdb=sigdb, strict_eq2=True)
        assert any(f.condition == "STRICT_STRUCTURAL" for f in strict)


# --------------------------------------------------------------------------
# no hidden depth limits: long block chains and wide dispatchers
# --------------------------------------------------------------------------

def log1_of_word0(signature: str) -> list:
    return [("PUSH32", topic(signature)), ("PUSH1", 32), ("PUSH1", 0), "LOG1"]


def padded_chain(blocks: int, store_near_log: bool) -> Bytecode:
    """CALLDATALOAD 4, then `blocks` JUMPDEST blocks, then a LOG1 of that
    word; its MSTORE sits right before the LOG or above every pad block."""
    store = [("PUSH1", 0), "MSTORE"]
    pad = ["JUMPDEST"] * blocks
    items = [("PUSH1", 4), "CALLDATALOAD"]
    items += pad + store if store_near_log else store + pad
    items += log1_of_word0("Padded(uint256)") + ["STOP"]
    return Bytecode(code=assemble(items))


SELECTOR_BASE = 0x10000000


def callers(n: int, helper: str = "single-block") -> Bytecode:
    """n public selectors, each passing its argument to one helper that
    logs it without a storage write.  `helper` names the helper's body,
    from its entry JUMPDEST to its return JUMP, in HELPERS."""
    items = [("PUSH1", 4), "CALLDATASIZE", "LT", ("pushl", "revert"), "JUMPI",
             ("PUSH1", 0), "CALLDATALOAD", ("PUSH1", 0xE0), "SHR"]
    for i in range(n):
        items += ["DUP1", ("PUSH4", SELECTOR_BASE + i), "EQ", ("pushl", f"f{i}"), "JUMPI"]
    items += [("label", "revert"), "JUMPDEST", ("PUSH1", 0), ("PUSH1", 0), "REVERT"]
    for i in range(n):
        items += [("label", f"f{i}"), "JUMPDEST", ("pushl", f"r{i}"),
                  ("PUSH1", 4), "CALLDATALOAD", ("pushl", "helper"), "JUMP",
                  ("label", f"r{i}"), "JUMPDEST", "STOP"]
    items += [("label", "helper"), "JUMPDEST", *HELPERS[helper], "JUMP"]
    return Bytecode(code=assemble(items))


ROUTED = [("PUSH1", 0), "MSTORE", *log1_of_word0("Routed(uint256)")]
# helper bodies, entered with (argument, return label); all but the first
# split into several blocks, as any require or branch in a compiled
# helper does
HELPERS = {
    "single-block": ROUTED,
    # the return JUMP one block below the helper's entry
    "jumpdest-before-return": [*ROUTED, "JUMPDEST"],
    # 40 blocks, the LOG and the return JUMP in the last
    "40-blocks": ["JUMPDEST"] * 39 + ROUTED,
    # a branch on calldata whose two arms join before the LOG
    "branch": [("PUSH1", 0x24), "CALLDATALOAD", ("pushl", "arm"), "JUMPI",
               ("pushl", "join"), "JUMP", ("label", "arm"), "JUMPDEST",
               ("label", "join"), "JUMPDEST", *ROUTED, "JUMPDEST"],
    # calls a second multi-block helper, which logs, and returns through
    # a block of its own
    "nested": ["JUMPDEST", ("pushl", "back"), "SWAP1", ("pushl", "inner"), "JUMP",
               ("label", "back"), "JUMPDEST", "JUMPDEST", ("pushl", "done"), "JUMP",
               ("label", "inner"), "JUMPDEST", "JUMPDEST", *ROUTED, "JUMPDEST", "JUMP",
               ("label", "done"), "JUMPDEST"],
}


class TestNoDepthLimit:
    @pytest.mark.parametrize("store_near_log", [True, False])
    @pytest.mark.parametrize("blocks", [9, 65, 1000, 5000])
    def test_long_chain_reports_the_unanchored_log(self, blocks, store_near_log):
        # neither the backward walk nor the search for the logged word's
        # MSTORE stops after a fixed number of blocks
        with _time_box(2.0):
            findings = detect(build_icfg(padded_chain(blocks, store_near_log)))
        assert [(f.kind, f.condition, f.entries, f.confidence) for f in findings] == [
            ("INCONSISTENT_LOGGING", "NO_TAINT_RELATED_SSTORE", ("fallback",), "POTENTIAL"),
        ]

    def test_paths_come_out_in_walk_order_and_share_edges(self):
        # an entry block falls into a branch whose two arms join at the LOG:
        # both reverse paths cross the edge out of the entry block, lower
        # predecessor first
        code = assemble([
            ("PUSH1", 4), "CALLDATALOAD",
            ("label", "branch"), "JUMPDEST", ("PUSH1", 0), "CALLDATALOAD",
            ("pushl", "right"), "JUMPI",
            ("pushl", "join"), "JUMP",
            ("label", "right"), "JUMPDEST",
            ("label", "join"), "JUMPDEST", ("PUSH1", 0), "MSTORE",
            *log1_of_word0("Joined(uint256)"), "STOP",
        ])
        icfg = build_icfg(Bytecode(code=code))
        op, = extract_log_ops(icfg)
        slices, exceeded = backward_slice(icfg, op)
        assert not exceeded
        assert [[b for _, b in s.block_trace] for s in slices] == [
            [0x10, 0xB, 0x3, 0x0],
            [0x10, 0xF, 0x3, 0x0],
        ]
        # a path ends at an entry only after the longer paths through it
        loop = build_icfg(Bytecode.from_hex("5b600035600057602a60005260aa60206000a100"))
        op, = extract_log_ops(loop)
        assert [[b for _, b in s.block_trace] for s in backward_slice(loop, op)[0]] == [
            [0x7, 0x0, 0x0],
            [0x7, 0x0],
        ]

    @pytest.mark.parametrize("n,helper", [
        *(pytest.param(n, "single-block", id=str(n)) for n in (64, 70, 128)),
        *((3, helper) for helper in HELPERS if helper != "single-block"),
        (64, "nested"),
    ])
    def test_wide_dispatcher_keeps_every_caller(self, n, helper):
        # every selector of a wide dispatcher is its own public entry, and
        # each reaches the helper's LOG through its own call edge, however
        # many blocks lie between the helper's entry and its return jump
        icfg = build_icfg(callers(n, helper))
        entries = tuple(sorted(f"func_{SELECTOR_BASE + i:08x}" for i in range(n)))
        assert icfg.unresolved_jumps == 0
        calls = sorted((e.caller, e.callee) for e in icfg.call_edges if e.caller in entries)
        assert [caller for caller, _ in calls] == list(entries)
        assert len({callee for _, callee in calls}) == 1
        findings = detect(icfg)
        assert [(f.kind, f.condition, f.entries, f.confidence) for f in findings] == [
            ("EVENT_COUNTERFEITING", "MULTI_TAINTED_PATHS", entries, "POTENTIAL"),
            ("INCONSISTENT_LOGGING", "NO_TAINT_RELATED_SSTORE", entries, "POTENTIAL"),
        ]

