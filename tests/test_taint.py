"""Backward slicing, taint propagation, and the bytecode detectors."""

import itertools
import random

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
    detect,
    extract_log_ops,
    taint_analysis,
)
from reference_slice import reference_detect, reference_slice
from test_fuzz import _random_call_code, _random_code, _time_box, assemble

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
# over the plain block graph, one crossing per directed edge and call
# context, crossing every call through its callee
# --------------------------------------------------------------------------

def oracle_traces(icfg, logop) -> set:
    results = set()

    def go(fn_name, block, ctx, used, trace):
        fn = icfg.functions[fn_name]
        returns = icfg.return_edges_at(fn_name, block)
        moves = []
        for p in fn.pred.get(block, []):
            if all(e.call_block != p for e in returns):
                moves.append((("cfg", ctx, fn_name, p, block), fn_name, p, ctx))
        for e in returns:
            if e in ctx:
                continue
            for x in icfg.callee_exit_blocks(e):
                moves.append((("ret", ctx, e.caller, e.call_block, x),
                              e.callee, x, ctx + (e,)))
        if block == fn.entry:
            if ctx:
                e = ctx[-1]
                if e.callee == fn_name:
                    moves.append((("call", ctx[:-1], e.caller, e.call_block, fn_name),
                                  e.caller, e.call_block, ctx[:-1]))
            else:
                incoming = icfg.edges_into(fn_name)
                for e in incoming:
                    moves.append((("call", ctx, e.caller, e.call_block, fn_name),
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

    @pytest.mark.parametrize("unknown_nearer", [True, False], ids=["nearer", "farther"])
    def test_a_store_at_an_unknown_address_nearer_the_log_makes_it_opaque(self, unknown_nearer):
        # MSTORE(CALLDATALOAD(4), CALLER) may overwrite the 42 at word 0;
        # ahead of that store, the 42 overwrites whatever it wrote there
        constant = [("PUSH1", 42), ("PUSH1", 0), "MSTORE"]
        unknown = ["CALLER", ("PUSH1", 4), "CALLDATALOAD", "MSTORE"]
        body = constant + unknown if unknown_nearer else unknown + constant
        icfg = build_icfg(one_function([*body, *log1_of_word0("Paid(uint256)"), "STOP"]))
        op, = extract_log_ops(icfg)
        assert bool(op.synthetic) is unknown_nearer
        assert [(f.kind, f.condition, f.entries, f.confidence)
                for f in detect(icfg)] == (UNANCHORED if unknown_nearer else [])


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

    def test_path_budget_flags_incomplete(self, monkeypatch):
        icfg, _ = icfg_for("emit_helper")
        op = next(o for o in extract_log_ops(icfg) if o.function == "helper_0x49")
        monkeypatch.setattr(taint, "MAX_PATHS", 1)
        slices, exceeded = backward_slice(icfg, op)
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
        vk = icfg.value_keys
        op, = extract_log_ops(icfg)
        slices, _ = backward_slice(icfg, op)
        assert slices
        for s in slices:
            assert taint_analysis(s, vk).tainted
            assert {"source", "anchor"} <= s.verdicts

    def test_sources_report_calldata_slots(self):
        icfg, _ = icfg_for("counterfeit")
        vk = icfg.value_keys
        op = next(o for o in extract_log_ops(icfg) if o.function == "deposit")
        s, = backward_slice(icfg, op)[0]
        r = taint_analysis(s, vk)
        assert r.calldata_slots == (4, 36, 68)
        assert ("CALLER", None) in r.sources

    def test_untainted_when_nothing_flows_from_input(self):
        icfg, _ = icfg_for("nocheck_call")
        vk = icfg.value_keys
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

    def test_budget_exhaustion_degrades_confidence(self, monkeypatch):
        icfg, sigdb = icfg_for("emit_helper")
        monkeypatch.setattr(taint, "MAX_PATHS", 1)
        findings = detect(icfg, sigdb=sigdb)
        assert findings
        assert all(f.confidence == "INCOMPLETE" for f in findings)
        # the structural rule reads no path, so a spent path budget leaves it settled
        strict = [f for f in detect(icfg, sigdb=sigdb, strict_eq2=True)
                  if f.condition == "STRICT_STRUCTURAL"]
        assert [(f.confidence, f.paths) for f in strict] == [("POTENTIAL", ())]


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
        # the walk tries the lower predecessor first, and the other arm
        # reaches the branch block in the state the first walk finished
        # there, so it stops where the two paths would share their edges
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
        assert [[b for _, b in s.block_trace] for s in slices] == [[0x10, 0xB, 0x3, 0x0]]
        assert [[b for _, b in s.block_trace] for s in reference_slice(icfg, op)[0]] == [
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


# --------------------------------------------------------------------------
# branches and repeated calls in front of a LOG
# --------------------------------------------------------------------------

def one_function(body: list) -> Bytecode:
    """A size guard and a one-selector dispatcher into `body`, labelled f."""
    return Bytecode(code=assemble([
        ("PUSH1", 0x80), ("PUSH1", 0x40), "MSTORE",
        ("PUSH1", 4), "CALLDATASIZE", "LT", ("pushl", "revert"), "JUMPI",
        ("PUSH1", 0), "CALLDATALOAD", ("PUSH1", 0xE0), "SHR",
        "DUP1", ("PUSH4", SELECTOR_BASE), "EQ", ("pushl", "f"), "JUMPI",
        ("label", "revert"), "JUMPDEST", ("PUSH1", 0), ("PUSH1", 0), "REVERT",
        ("label", "f"), "JUMPDEST", *body,
    ]))


def flag_branches(k: int, arm: list) -> list:
    """k independent JUMPI diamonds on calldata flags, both arms `arm`."""
    body = []
    for i in range(k):
        body += [("PUSH2", 0x24 + 0x20 * i), "CALLDATALOAD", ("pushl", f"t{i}"), "JUMPI",
                 *arm, ("pushl", f"j{i}"), "JUMP",
                 ("label", f"t{i}"), "JUMPDEST", *arm,
                 ("label", f"j{i}"), "JUMPDEST"]
    return body


def diamonds(k: int, carry: bool = False, sstore: bool = False) -> Bytecode:
    """k independent JUMPI diamonds on calldata flags, then a LOG1 of
    calldata word 4, as in the benchmark's diamond-k contracts.  With
    `carry` the word is loaded first and every arm reads it from the
    stack, as compiled code keeps values there; with `sstore` it is
    also written to storage."""
    body = [("PUSH1", 4), "CALLDATALOAD", ("PUSH1", 7), "SSTORE"] if sstore else []
    body += [("PUSH1", 4), "CALLDATALOAD"] if carry else []
    body += flag_branches(k, ["DUP1", "POP"] if carry else [("PUSH1", 0x55), "POP"])
    body += [] if carry else [("PUSH1", 4), "CALLDATALOAD"]
    return one_function(body + [("PUSH1", 0), "MSTORE", *log1_of_word0("Settled(uint256)"), "STOP"])


EXTERNAL_CALL = [*[("PUSH1", 0)] * 6, "GAS", "CALL"]  # leaves the call's result
CHECK = ["ISZERO", ("pushl", "revert"), "JUMPI"]  # reverts when the value is 0


def call_and_branches(k: int, call_below: bool, checked: bool = False) -> Bytecode:
    """An external call above or below k calldata diamonds, then a LOG1 of
    a constant.  The call's result is dropped, or with `checked` goes
    through ISZERO to a JUMPI to revert."""
    call = [*EXTERNAL_CALL, *(CHECK if checked else ["POP"])]
    branches = flag_branches(k, [("PUSH1", 0x55), "POP"])
    body = branches + call if call_below else call + branches
    return one_function(body + [("PUSH1", 42), ("PUSH1", 0), "MSTORE",
                                *log1_of_word0("Paid(uint256)"), "STOP"])


def repeated_calls(n: int) -> Bytecode:
    """A function that passes its argument through n calls of a one-block
    helper (which adds 1) and logs the result without a storage write."""
    body = [("PUSH1", 4), "CALLDATALOAD"]
    for i in range(n):
        body += [("pushl", f"r{i}"), "SWAP1", ("pushl", "helper"), "JUMP",
                 ("label", f"r{i}"), "JUMPDEST"]
    body += [("PUSH1", 0), "MSTORE", *log1_of_word0("Stepped(uint256)"), "STOP",
             ("label", "helper"), "JUMPDEST", ("PUSH1", 1), "ADD", "SWAP1", "JUMP"]
    return one_function(body)


def same_as_reference(icfg, sigdb=None) -> bool:
    """detect and the exhaustive per-path search give the same findings on
    every event whose log sites the search finished; False when there is
    no such event."""
    ref, incomplete = reference_detect(icfg, sigdb)

    def summary(findings):
        return sorted(((f.kind, f.condition, f.topic0, f.entries, f.confidence)
                       for f in findings if f.topic0 not in incomplete), key=repr)

    assert summary(detect(icfg, sigdb=sigdb)) == summary(ref)
    return not incomplete


UNANCHORED = [("INCONSISTENT_LOGGING", "NO_TAINT_RELATED_SSTORE",
               (f"func_{SELECTOR_BASE:08x}",), "POTENTIAL")]
UNCHECKED = [("EVENT_COUNTERFEITING", "NO_CONSTRAINT_EXTERNAL_CALL",
              (f"func_{SELECTOR_BASE:08x}",), "POTENTIAL")]


class TestJoinsAndRepeatedCalls:
    @pytest.mark.parametrize("code,paths", [
        pytest.param(diamonds(16), 1, id="diamonds-16"),
        pytest.param(diamonds(9, carry=True), 1, id="carried-diamonds-9"),
        pytest.param(diamonds(16, carry=True), 1, id="carried-diamonds-16"),
        pytest.param(repeated_calls(9), 1, id="calls-9"),
        pytest.param(repeated_calls(16), 1, id="calls-16"),
    ])
    def test_exponentially_many_paths_give_a_complete_finding(self, code, paths):
        # 2^k reverse paths through the branches that join, walked once per
        # state, not once per path.  Every call is crossed through the
        # helper, never around it, so the calls give the one path that
        # enters the helper at each call site
        icfg = build_icfg(code)
        with _time_box(2.0):
            findings = detect(icfg)
        assert [(f.kind, f.condition, f.entries, f.confidence) for f in findings] == UNANCHORED
        assert len(findings[0].paths) == paths

    @pytest.mark.parametrize("call_below", [False, True], ids=["call-above", "call-below"])
    @pytest.mark.parametrize("k", [9, 16])
    def test_unchecked_call_with_many_branches_gives_one_path(self, k, call_below):
        # every arm reaches the join in the same state, the call's result
        # and the flags the JUMPIs read in classes of their own
        icfg = build_icfg(call_and_branches(k, call_below))
        with _time_box(2.0):
            findings = detect(icfg)
        assert [(f.kind, f.condition, f.entries, f.confidence) for f in findings] == UNCHECKED
        assert len(findings[0].paths) == 1

    @pytest.mark.parametrize("call_below", [False, True], ids=["call-above", "call-below"])
    @pytest.mark.parametrize("k", [9, 16])
    def test_checked_call_with_many_branches_is_clean(self, k, call_below):
        icfg = build_icfg(call_and_branches(k, call_below, checked=True))
        with _time_box(2.0):
            assert detect(icfg) == []
        op, = extract_log_ops(icfg)
        assert backward_slice(icfg, op)[1] is False

    @staticmethod
    def branch(before: list, first: list, second: list, log: list) -> Bytecode:
        """`before` in a block of its own, then a calldata flag chooses
        between two arms that join before `log`; the walk tries `first`,
        the fall-through arm, first."""
        return one_function([
            *before, ("label", "head"), "JUMPDEST",
            ("PUSH2", 0x24), "CALLDATALOAD", ("pushl", "second"), "JUMPI",
            *first, ("pushl", "join"), "JUMP",
            ("label", "second"), "JUMPDEST", *second,
            ("label", "join"), "JUMPDEST", ("PUSH1", 0), "MSTORE", *log, "STOP",
            # takes (return label, argument) and returns argument + 1
            ("label", "helper"), "JUMPDEST", "SWAP1", ("PUSH1", 1), "ADD", "SWAP1", "JUMP",
        ])

    @pytest.mark.parametrize("before,first,second,expected", [
        # the argument sits below the return label, so only the walk through
        # the helper's return edge reaches it: the second call's context is
        # walked although the first left the helper in the same state
        pytest.param(
            [],
            [("PUSH1", 7), ("pushl", "r1"), ("pushl", "helper"), "JUMP", ("label", "r1"), "JUMPDEST"],
            [("PUSH1", 4), "CALLDATALOAD", ("pushl", "r2"), ("pushl", "helper"), "JUMP",
             ("label", "r2"), "JUMPDEST"],
            ("INCONSISTENT_LOGGING", "NO_TAINT_RELATED_SSTORE"), id="call-context"),
        # a constant is logged; the second arm crosses an unchecked external call
        pytest.param(
            [("PUSH1", 42)],
            [],
            [*EXTERNAL_CALL, "POP"],
            ("EVENT_COUNTERFEITING", "NO_CONSTRAINT_EXTERNAL_CALL"), id="external-call"),
        # the caller is logged; the first arm stores a caller read of its own,
        # which counts only once the walk reaches the logged read above the
        # branch, and the second arm stores nothing
        pytest.param(
            ["CALLER"],
            ["CALLER", ("PUSH1", 7), "SSTORE"],
            [],
            ("INCONSISTENT_LOGGING", "NO_TAINT_RELATED_SSTORE"), id="undecided-sstore"),
    ])
    def test_arms_in_different_states_are_both_walked(self, before, first, second, expected):
        icfg = build_icfg(self.branch(before, first, second, log1_of_word0("Paid(uint256)")))
        assert [(f.kind, f.condition, f.entries, f.confidence) for f in detect(icfg)] == [
            (*expected, (f"func_{SELECTOR_BASE:08x}",), "POTENTIAL")]
        assert same_as_reference(icfg)

    def test_a_checked_arm_does_not_hide_an_unchecked_one(self):
        # an external call, then a branch whose first-walked arm checks the
        # call's result and whose other arm does not: the second arm reaches
        # the branch with the same taint as the first, but with the call's
        # result and the checked conditions still apart, so it is walked on
        icfg = build_icfg(one_function([
            *EXTERNAL_CALL,
            ("PUSH2", 0x24), "CALLDATALOAD", ("pushl", "unchecked"), "JUMPI",
            "DUP1", "ISZERO", ("pushl", "revert"), "JUMPI", ("pushl", "join"), "JUMP",
            ("label", "unchecked"), "JUMPDEST",
            ("label", "join"), "JUMPDEST", "POP", ("PUSH1", 42), ("PUSH1", 0), "MSTORE",
            *log1_of_word0("Paid(uint256)"), "STOP",
        ]))
        findings = detect(icfg)
        assert [(f.kind, f.condition, f.entries, f.confidence) for f in findings] == [
            ("EVENT_COUNTERFEITING", "NO_CONSTRAINT_EXTERNAL_CALL",
             (f"func_{SELECTOR_BASE:08x}",), "POTENTIAL")]
        assert same_as_reference(icfg)

    @pytest.mark.parametrize("order", ["as-written", "swapped"])
    def test_arms_that_relate_keys_differently_are_both_walked(self, order):
        # the call's result is added to word 0xa4 and the JUMPI below the
        # join checks word 0xc4; only the arm that adds the two words
        # relates the check to the call.  Both arms reach the call's block
        # with the same taint, and differ only in whether the two words,
        # which a later step can read, are in one class
        together = [("PUSH1", 0xA4), "CALLDATALOAD", ("PUSH1", 0xC4), "CALLDATALOAD", "ADD", "POP"]
        apart = [("PUSH1", 0xA4), "CALLDATALOAD", "POP", ("PUSH1", 0xC4), "CALLDATALOAD", "POP"]
        first, second = (together, apart) if order == "as-written" else (apart, together)
        icfg = build_icfg(self.branch(
            [*EXTERNAL_CALL, ("PUSH1", 0xA4), "CALLDATALOAD", "ADD", "POP", ("PUSH1", 42)],
            first, second,
            [("PUSH1", 0xC4), "CALLDATALOAD", ("pushl", "revert"), "JUMPI",
             *log1_of_word0("Paid(uint256)")]))
        assert [(f.kind, f.condition, f.entries, f.confidence) for f in detect(icfg)] == UNCHECKED
        assert same_as_reference(icfg)

    def test_repeated_calls_resolve_to_each_call_site(self):
        icfg = build_icfg(repeated_calls(9))
        assert icfg.unresolved_jumps == 0
        assert len(icfg.call_edges) == 9


HELPER_BODIES = {  # take (return label, argument), return a new argument
    "add": ["SWAP1", ("PUSH1", 1), "ADD", "SWAP1"],
    "store": ["SWAP1", "DUP1", ("PUSH1", 5), "SSTORE", "SWAP1"],
    "caller": ["SWAP1", "CALLER", "ADD", "SWAP1"],
    # two blocks, as in checked arithmetic: a JUMPI to revert on overflow
    "checked": ["SWAP1", ("PUSH1", 1), "ADD", "DUP1", "ISZERO", ("pushl", "revert"), "JUMPI",
                "SWAP1"],
}
STEPS = {
    "one": [("PUSH1", 1), "ADD"],
    "caller": ["CALLER", "ADD"],
    "store": ["DUP1", ("PUSH1", 2), "SSTORE"],
    "reset": ["POP", ("PUSH1", 0)],
}
# external calls and the calldata words A = 0xa4 and B = 0xc4, away from
# the flags of branches and loops; none changes the value.  Every call
# ends its block, so that a branch below it is a block of its own
CALL_STEPS = {
    "unchecked": [*EXTERNAL_CALL, "POP", "JUMPDEST"],
    "checked": [*EXTERNAL_CALL, *CHECK],
    "call-a": [*EXTERNAL_CALL, ("PUSH1", 0xA4), "CALLDATALOAD", "ADD", "POP", "JUMPDEST"],
    "together": [("PUSH1", 0xA4), "CALLDATALOAD", ("PUSH1", 0xC4), "CALLDATALOAD", "ADD", "POP"],
    "apart": [("PUSH1", 0xA4), "CALLDATALOAD", "POP", ("PUSH1", 0xC4), "CALLDATALOAD", "POP"],
    "check-b": [("PUSH1", 0xC4), "CALLDATALOAD", *CHECK],
}


def structured(segments: list, helper: str = "add", start: tuple = (("PUSH1", 0),)) -> Bytecode:
    """One function that pushes `start`, changes that value by each of
    `segments` and logs it.  A segment is a STEPS or CALL_STEPS name,
    "inc" (the value goes through a one-block helper with a HELPER_BODIES
    body), "side" (the helper runs on a constant, whose result is
    dropped), "tail" (a second helper drops the value, reverts on a zero
    word B and tail-jumps into the first helper on 9), or a tuple
    (kind, first, second[, head]) with kind "branch", "loop", "break" or
    "rotated": a calldata flag chooses between two lists of segments, the
    fall-through `first` walked first.  A loop runs the segments `head`
    (none if left out), leaves on another flag and otherwise runs the
    branch as its body; both arms go back to the head, except that in a
    "break" loop `second` leaves the loop, so the head has two successors
    towards the LOG.  A "rotated" loop is a "break" loop laid out with its
    body above its head, so the walk tries the break before the head."""
    counter = itertools.count()

    def emit(seg) -> list:
        n = next(counter)
        callee = "tail" if seg == "tail" else "helper"
        call = [("pushl", f"r{n}"), ("pushl", callee), "JUMP", ("label", f"r{n}"), "JUMPDEST"]
        if seg in ("inc", "side", "tail"):
            return [("PUSH1", 9), *call, "POP"] if seg == "side" else call
        if isinstance(seg, str):
            return STEPS.get(seg) or CALL_STEPS[seg]
        kind, first, second, head = (*seg, [])[:4]
        head, first, second = ([x for s in arm for x in emit(s)] for arm in (head, first, second))
        branch = [("PUSH2", 0x24 + 0x20 * (n % 3)), "CALLDATALOAD", ("pushl", f"s{n}"), "JUMPI"]
        if kind == "branch":
            return [*branch, *first, ("pushl", f"j{n}"), "JUMP", ("label", f"s{n}"), "JUMPDEST",
                    *second, ("label", f"j{n}"), "JUMPDEST"]
        test = [("label", f"h{n}"), "JUMPDEST", *head, ("PUSH1", 0x84), "CALLDATALOAD",
                ("pushl", f"o{n}"), "JUMPI"]
        body = [*branch, *first, ("pushl", f"h{n}"), "JUMP", ("label", f"s{n}"), "JUMPDEST",
                *second, ("pushl", f"{'h' if kind == 'loop' else 'o'}{n}"), "JUMP"]
        if kind == "rotated":
            return [("pushl", f"h{n}"), "JUMP", ("label", f"b{n}"), "JUMPDEST", *body,
                    *test, ("pushl", f"b{n}"), "JUMP", ("label", f"o{n}"), "JUMPDEST"]
        return [*test, *body, ("label", f"o{n}"), "JUMPDEST"]

    code = [*start, *(x for seg in segments for x in emit(seg)),
            ("PUSH1", 0), "MSTORE", *log1_of_word0("Paid(uint256)"), "STOP",
            ("label", "helper"), "JUMPDEST", *HELPER_BODIES[helper], "JUMP"]
    if ("pushl", "tail") in code:
        code += [("label", "tail"), "JUMPDEST", "SWAP1", "POP", ("PUSH1", 0xC4), "CALLDATALOAD",
                 *CHECK, ("PUSH1", 9), "SWAP1", ("pushl", "helper"), "JUMP"]
    return one_function(code)


def swapped(segments: list) -> list:
    """`segments` with the two arms of every branch and loop exchanged."""
    return [seg if isinstance(seg, str)
            else (seg[0], swapped(seg[2]), swapped(seg[1]), *map(swapped, seg[3:]))
            for seg in segments]


def random_segments(rng: random.Random) -> list:
    def arm():
        return [rng.choice(["one", "caller", "store", "inc", "side"])
                for _ in range(rng.randrange(3))]
    out = []
    for _ in range(rng.randrange(1, 5)):
        kind = rng.choice(["step", "branch", "loop"])
        out += arm() if kind == "step" else [(kind, arm(), arm())]
    return out


def loop_segments(rng: random.Random) -> list:
    """Loops, most of them nested or with a second exit towards the LOG,
    with steps and helper calls in their heads and bodies."""
    def arm(depth: int) -> list:
        out = [rng.choice(["one", "caller", "store", "reset", "inc", "side"])
               for _ in range(rng.randrange(3))]
        if depth < 2 and rng.random() < 0.3:
            out.insert(rng.randrange(len(out) + 1), loop(depth + 1))
        return out

    def loop(depth: int) -> tuple:
        return (rng.choice(["loop", "break", "rotated"]), arm(depth), arm(depth), arm(depth))

    return [loop(0) if rng.random() < 0.7 else rng.choice(list(STEPS))
            for _ in range(rng.randrange(1, 4))]


def call_segments(rng: random.Random) -> list:
    """External calls, JUMPIs on B and helper calls, some through a
    helper that tail-jumps into the other, as steps, and branches and a
    few loops whose arms mostly read the words A and B together or
    apart, so that whether a JUMPI on B checks a call depends on the arm."""
    def arm() -> list:
        return [rng.choice(["together", "apart"] * 4 + list(CALL_STEPS) + ["inc", "tail", "one"])
                for _ in range(rng.randrange(1, 3))]
    out = []
    for _ in range(rng.randrange(2, 5)):
        kind = rng.choice(["step"] * 3 + ["branch"] * 3 + ["loop"])
        out += ([rng.choice(["call-a", "check-b"] * 2 + ["unchecked", "checked", "inc", "tail"])]
                if kind == "step"
                else [(kind, arm(), arm())])
    return out + ["check-b"] * rng.randrange(2)


CALL_STARTS = [(("PUSH1", 0),)] * 3 + [("CALLER",)]  # a constant logged, mostly


class TestAgainstReference:
    def test_fixtures(self):
        for name in FIXTURES:
            assert same_as_reference(*icfg_for(name)), name

    @pytest.mark.parametrize("k", range(1, 9))
    def test_diamonds(self, k):
        for carry in (False, True):
            for sstore in (False, True):
                assert same_as_reference(build_icfg(diamonds(k, carry, sstore)))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_repeated_calls(self, n):
        assert same_as_reference(build_icfg(repeated_calls(n)))

    @pytest.mark.parametrize("helper", HELPERS)
    def test_callers(self, helper):
        for n in (1, 2, 5):
            assert same_as_reference(build_icfg(callers(n, helper)))

    def test_random_codes(self):
        rng = random.Random(7)
        complete = sum(same_as_reference(build_icfg(Bytecode(code=_random_code(rng))))
                       for _ in range(1500))
        assert complete > 1400

    def test_random_call_codes(self):
        rng = random.Random(11)
        complete = sum(same_as_reference(build_icfg(Bytecode(code=_random_call_code(rng)[0])))
                       for _ in range(60))
        assert complete > 50

    @pytest.mark.parametrize("order", ["as-written", "swapped"])
    def test_loop_whose_body_branches(self, order):
        # the loop head H joins the entry E and both arms A1 and A2 of the
        # body's branch; only the CALLER arm taints the logged value.  The
        # walk through one arm reaches H again and walks the other arm up to
        # the branch block, where the edge back into H is already used: what
        # that walk finished there must not stand in for the first-level walk
        segments = [("loop", ["one"], ["caller"])]
        icfg = build_icfg(structured(segments if order == "as-written" else swapped(segments)))
        assert [(f.kind, f.condition, f.confidence) for f in detect(icfg)] == [
            ("INCONSISTENT_LOGGING", "NO_TAINT_RELATED_SSTORE", "POTENTIAL")]
        assert same_as_reference(icfg)

    @pytest.mark.parametrize("order", ["as-written", "swapped"])
    def test_helper_called_in_arms_and_between_them(self, order):
        # every call of the helper walks its block again, each run with
        # values of its own, and the walk must agree with the search that
        # judges every path whole
        segments = [("branch", ["store"], ["inc", "store"]), "inc",
                    ("branch", [], ["inc"]), ("branch", ["inc"], ["side"])]
        icfg = build_icfg(structured(segments if order == "as-written" else swapped(segments),
                                     start=(("PUSH1", 4), "CALLDATALOAD")))
        assert len(icfg.call_edges) == 5
        assert same_as_reference(icfg)

    @pytest.mark.parametrize("segments,start", [
        # the body's CALLER arm goes back to the head, the other arm leaves
        # the loop.  Laid out body first, the walk tries that break first; it
        # comes back round the CALLER arm to the body's branch block, whose
        # edge from the head's exit test it has crossed already, and what it
        # finished there must not stand in for the later walk through the
        # head's exit
        pytest.param([("rotated", ["caller"], [], ["one"])], (("PUSH1", 0),), id="break-first"),
        # the head adds 1 to the value, and only the walk through the head's
        # exit taints that addition, because the breaking arm resets the
        # value; the walk back into the head through the body then reads
        # the head's variables again
        *(pytest.param([(kind, ["caller"], ["reset"], ["one"])], (("PUSH1", 4), "CALLDATALOAD"),
                       id=f"{kind}-resets") for kind in ("break", "rotated")),
    ])
    def test_loop_with_two_exits_towards_the_log(self, segments, start):
        icfg = build_icfg(structured(segments, start=start))
        assert [(f.kind, f.condition, f.confidence) for f in detect(icfg)] == [
            ("INCONSISTENT_LOGGING", "NO_TAINT_RELATED_SSTORE", "POTENTIAL")]
        assert same_as_reference(icfg)

    def test_two_loops_give_one_evidence_path(self):
        # the logged value is CALLER, plus CALLER once per round of the
        # second loop's first arm; a round of the first loop's first arm
        # stores it.  The path that skips both loop bodies is the evidence:
        # every other way round the loops reaches a state that a finished
        # walk left, as the helper's run in the second loop's "side" step
        # has values of its own, and adds no path
        icfg = build_icfg(structured([("loop", ["inc"], []), ("loop", ["caller", "side"], [])],
                                     "store", ("CALLER",)))
        findings = detect(icfg)
        assert [(f.kind, f.condition, f.confidence) for f in findings] == [
            ("INCONSISTENT_LOGGING", "NO_TAINT_RELATED_SSTORE", "POTENTIAL")]
        assert len(findings[0].paths) == 1
        assert same_as_reference(icfg)

    def test_each_run_of_a_helper_bridges_its_own_slots(self):
        # round the loop's second arm the walk meets the helper block twice:
        # first the run on 9 whose result the arm drops, which bridges the
        # logged value in its third entry slot, then the run on the value,
        # which reads only its own two.  Handed only what its own successor
        # reads, the second run bridges no third slot, so the round reaches
        # the entry in the state the path that skips the loop finished
        # there, and lists no second path
        icfg = build_icfg(structured([("loop", [], ["inc", "side"])], "add", ("CALLER",)))
        findings = detect(icfg)
        assert [(f.kind, f.condition, f.confidence) for f in findings] == [
            ("INCONSISTENT_LOGGING", "NO_TAINT_RELATED_SSTORE", "POTENTIAL")]
        assert findings[0].paths == (
            "func_10000000 [func_10000000:0x24->func_10000000:0x26->func_10000000:0x52] log@0x7b",)
        assert same_as_reference(icfg)

    def test_loop_dense_programs(self):
        rng = random.Random(10)
        compared = 0
        for _ in range(150):
            icfg = build_icfg(structured(loop_segments(rng), rng.choice(list(HELPER_BODIES)),
                                         rng.choice([(("PUSH1", 0),), ("CALLER",),
                                                     (("PUSH1", 4), "CALLDATALOAD")])))
            compared += same_as_reference(icfg)
        assert compared > 140

    def test_call_dense_programs(self):
        rng = random.Random(5)
        compared = 0
        for _ in range(200):
            icfg = build_icfg(structured(call_segments(rng), rng.choice(list(HELPER_BODIES)),
                                         rng.choice(CALL_STARTS)))
            compared += same_as_reference(icfg)
        assert compared > 180

    def test_helpers_that_share_their_return_block(self):
        # two helpers jump to one tail block that adds 1 and returns, so
        # the tail belongs to both; the second helper drops its argument
        # and passes 0 to the tail, so the logged value is the constant 1.
        # The tail runs once in each helper, each run with values of its
        # own, so calldata word 4, which the first run adds 1 to, does
        # not reach the LOG
        def call(n: int, helper: str) -> list:
            return [("pushl", f"r{n}"), ("pushl", helper), "JUMP", ("label", f"r{n}"), "JUMPDEST"]

        icfg = build_icfg(one_function([
            ("PUSH1", 4), "CALLDATALOAD", *call(1, "first"), ("PUSH1", 1), "ADD", "JUMPDEST",
            *call(2, "second"), ("PUSH1", 0), "MSTORE", *log1_of_word0("Paid(uint256)"), "STOP",
            ("label", "first"), "JUMPDEST", ("pushl", "tail"), "JUMP",
            ("label", "second"), "JUMPDEST", "SWAP1", "POP", ("PUSH1", 0), "SWAP1",
            ("pushl", "tail"), "JUMP",
            ("label", "tail"), "JUMPDEST", "SWAP1", ("PUSH1", 1), "ADD", "SWAP1", "JUMP",
        ]))
        assert detect(icfg) == []
        assert same_as_reference(icfg)

    def test_random_branches_loops_and_calls(self):
        rng = random.Random(3)
        compared = 0
        for _ in range(300):
            icfg = build_icfg(structured(random_segments(rng), rng.choice(list(HELPER_BODIES)),
                                         rng.choice([(("PUSH1", 0),), ("CALLER",)])))
            compared += same_as_reference(icfg)
        assert compared > 295


class TestCallsThroughTheCallee:
    @pytest.mark.parametrize("order", ["as-written", "swapped"])
    def test_a_call_in_one_arm_keeps_the_log(self, order):
        # one arm calls the helper on a constant and drops its result, the
        # other does nothing: both leave the stack as it was, so the join
        # below them is walked, and the logged CALLER reaches the entry
        segments = [("branch", ["side"], [])]
        icfg = build_icfg(structured(segments if order == "as-written" else swapped(segments),
                                     start=("CALLER",)))
        findings = detect(icfg)
        assert [(f.kind, f.condition, f.entries, f.confidence) for f in findings] == UNANCHORED
        assert len(findings[0].paths) == 1
        assert same_as_reference(icfg)

    def test_a_dropped_argument_does_not_reach_the_result(self):
        # the helper pops its CALLER argument and returns 7: the logged
        # value is the helper's result, which no input reaches
        icfg = build_icfg(one_function([
            ("pushl", "r0"), "CALLER", ("pushl", "helper"), "JUMP", ("label", "r0"), "JUMPDEST",
            ("PUSH1", 0), "MSTORE", *log1_of_word0("Paid(uint256)"), "STOP",
            ("label", "helper"), "JUMPDEST", "POP", ("PUSH1", 7), "SWAP1", "JUMP",
        ]))
        assert detect(icfg) == []
        op, = extract_log_ops(icfg)
        paths, exceeded = backward_slice(icfg, op)
        assert not exceeded
        assert [p.crossed_functions for p in paths] == [("helper_0x58",)]
        assert same_as_reference(icfg)

    def test_a_two_block_helper_called_twice_keeps_the_log(self):
        # the helper checks its sum with a JUMPI to revert, as checked
        # arithmetic does, and returns from a second block.  The walk
        # crosses the edge between its blocks once under each call, so
        # calldata word 4 reaches the entry through both calls
        icfg = build_icfg(structured(["inc", "inc"], "checked", (("PUSH1", 4), "CALLDATALOAD")))
        assert [len(icfg.functions[e.callee].block_offsets) for e in icfg.call_edges] == [3, 3]
        findings = detect(icfg)
        assert [(f.kind, f.condition, f.entries, f.confidence) for f in findings] == UNANCHORED
        assert len(findings[0].paths) == 1
        assert findings[0].paths[0].count("helper_0x62:0x62") == 2
        assert same_as_reference(icfg)

    def test_a_tail_jump_is_walked_through_the_jumping_helper(self):
        # f calls b, then a, and a tail-jumps into b, which returns for
        # both: a owns b's block, whose return jump is a's exit block, so
        # the walk crosses the second call through a and the first
        # through b
        icfg = build_icfg(one_function([
            ("PUSH1", 4), "CALLDATALOAD",
            ("pushl", "r1"), "SWAP1", ("pushl", "b"), "JUMP", ("label", "r1"), "JUMPDEST",
            ("pushl", "r2"), "SWAP1", ("pushl", "a"), "JUMP", ("label", "r2"), "JUMPDEST",
            ("PUSH1", 0), "MSTORE", *log1_of_word0("Paid(uint256)"), "STOP",
            ("label", "a"), "JUMPDEST", ("PUSH1", 1), "ADD", ("pushl", "b"), "JUMP",
            ("label", "b"), "JUMPDEST", ("PUSH1", 1), "ADD", "SWAP1", "JUMP",
        ]))
        assert [(e.callee, icfg.callee_exit_blocks(e)) for e in icfg.call_edges] == [
            ("helper_0x6c", [0x6C]), ("helper_0x64", [0x6C])]
        findings = detect(icfg)
        assert [(f.kind, f.condition, f.entries, f.confidence) for f in findings] == UNANCHORED
        assert findings[0].paths == (
            "func_10000000 [func_10000000:0x24->helper_0x6c:0x6c->func_10000000:0x30"
            "->helper_0x64:0x64->helper_0x64:0x6c->func_10000000:0x39] log@0x62",)
        assert same_as_reference(icfg)

    def test_a_call_with_one_tail_jumping_target_is_walked_through_both(self):
        # the call block's jump goes to a or b by a calldata flag; a
        # returns, b adds CALLER and tail-jumps into a.  b owns a's block,
        # so the walk crosses the call through a and through b into a,
        # and never along the call block's edge to the return block
        icfg = build_icfg(one_function([
            ("PUSH1", 4), "CALLDATALOAD",
            ("pushl", "a"), ("PUSH1", 0x24), "CALLDATALOAD", ("pushl", "j"), "JUMPI",
            "POP", ("pushl", "b"), ("label", "j"), "JUMPDEST",
            ("pushl", "r"), "SWAP2", "SWAP1", "JUMP", ("label", "r"), "JUMPDEST",
            ("PUSH1", 0), "MSTORE", *log1_of_word0("Paid(uint256)"), "STOP",
            ("label", "a"), "JUMPDEST", ("PUSH1", 1), "ADD", "SWAP1", "JUMP",
            ("label", "b"), "JUMPDEST", "CALLER", "ADD", ("pushl", "a"), "JUMP",
        ]))
        assert [(e.callee, icfg.callee_exit_blocks(e)) for e in icfg.call_edges] == [
            ("helper_0x68", [0x68]), ("helper_0x6e", [0x68])]
        op, = extract_log_ops(icfg)
        paths, _ = backward_slice(icfg, op)
        assert [p.crossed_functions for p in paths] == [("helper_0x68",), ("helper_0x6e",)]
        assert {t[1] for t in oracle_traces(icfg, op)} == {
            ("helper_0x68", 0x68), ("helper_0x6e", 0x68)}
        findings = detect(icfg)
        assert [(f.kind, f.condition, f.entries, f.confidence) for f in findings] == UNANCHORED
        assert len(findings[0].paths) == 2
        assert same_as_reference(icfg)


def helper_call(n: int, target: str) -> list:
    """Call `target` on the value on top of the stack, returning to r`n`."""
    return [("pushl", f"r{n}"), "SWAP1", ("pushl", target), "JUMP", ("label", f"r{n}"), "JUMPDEST"]


# a helper that adds 1 to its argument and returns
ADD_ONE = [("label", "a"), "JUMPDEST", ("PUSH1", 1), "ADD", "SWAP1", "JUMP"]
LOG_WORD0 = [("PUSH1", 0), "MSTORE", *log1_of_word0("Paid(uint256)")]


class TestTailJumps:
    """Tail jumps, with answers worked out by hand.  The first three
    programs call a on 7 first, so that a is a function of its own, and
    then reach a, or a reaches the other helper, by a tail jump."""

    def test_a_tail_jump_that_drops_the_argument_logs_a_constant(self):
        # b pops its calldata argument, pushes 9 and tail-jumps into a,
        # so the logged value is the constant 10 and no input reaches it
        icfg = build_icfg(one_function([
            ("PUSH1", 7), *helper_call(1, "a"), "POP",
            ("PUSH1", 4), "CALLDATALOAD", *helper_call(2, "b"), *LOG_WORD0, "STOP", *ADD_ONE,
            ("label", "b"), "JUMPDEST", "POP", ("PUSH1", 9), ("pushl", "a"), "JUMP",
        ]))
        assert detect(icfg) == []
        op, = extract_log_ops(icfg)
        paths, exceeded = backward_slice(icfg, op)
        assert not exceeded
        assert [(p.crossed_functions, p.verdicts) for p in paths] == [
            (("helper_0x67", "helper_0x6d"), frozenset())]
        assert same_as_reference(icfg)

    def test_a_helper_that_returns_or_tail_jumps_is_walked_on_both(self):
        # c returns 5 when word 0x24 is zero, and otherwise loads word 4
        # and tail-jumps into a: on that arm word 4 + 1 is logged
        icfg = build_icfg(one_function([
            ("PUSH1", 7), *helper_call(1, "a"), "POP",
            ("pushl", "r2"), ("pushl", "c"), "JUMP", ("label", "r2"), "JUMPDEST",
            *LOG_WORD0, "STOP", *ADD_ONE,
            ("label", "c"), "JUMPDEST", ("PUSH1", 0x24), "CALLDATALOAD", ("pushl", "arm"), "JUMPI",
            ("PUSH1", 5), "SWAP1", "JUMP",
            ("label", "arm"), "JUMPDEST", ("PUSH1", 4), "CALLDATALOAD", ("pushl", "a"), "JUMP",
        ]))
        findings = detect(icfg)
        assert [(f.kind, f.condition, f.entries, f.confidence) for f in findings] == UNANCHORED
        assert findings[0].paths == (
            "func_10000000 [func_10000000:0x24->helper_0x63:0x63->func_10000000:0x2f"
            "->helper_0x69:0x69->helper_0x69:0x75->helper_0x69:0x63->func_10000000:0x38]"
            " log@0x61",)
        assert same_as_reference(icfg)

    def test_a_log_in_a_tail_target_is_walked_from_each_owner(self):
        # a adds 1 and tail-jumps into b, which logs its argument and
        # returns it.  f calls a on 7 and then b on word 4, so the LOG
        # block belongs to a and to b, and only the walk from b's copy
        # reaches word 4
        icfg = build_icfg(one_function([
            ("PUSH1", 7), *helper_call(1, "a"), "POP",
            ("PUSH1", 4), "CALLDATALOAD", *helper_call(2, "b"), "POP", "STOP",
            ("label", "a"), "JUMPDEST", ("PUSH1", 1), "ADD", ("pushl", "b"), "JUMP",
            ("label", "b"), "JUMPDEST", "DUP1", *LOG_WORD0, "SWAP1", "JUMP",
        ]))
        assert [(op.function, op.block) for op in extract_log_ops(icfg)] == [
            ("helper_0x3f", 0x47), ("helper_0x47", 0x47)]
        findings = detect(icfg)
        assert [(f.kind, f.condition, f.entries, f.confidence) for f in findings] == UNANCHORED
        assert findings[0].paths == (
            "func_10000000 [func_10000000:0x24->helper_0x3f:0x3f->helper_0x3f:0x47"
            "->func_10000000:0x2f->helper_0x47:0x47] log@0x71",)
        assert same_as_reference(icfg)

    def test_a_tail_jump_into_a_public_entry_is_walked_through(self):
        # two selectors: f0 calls h on word 4, and h tail-jumps into f1's
        # entry, whose code adds 1 and returns, so word 4 + 1 is logged.
        # Only the fallback stops at public entries, so h owns f1's block
        icfg = build_icfg(Bytecode(code=assemble([
            ("PUSH1", 0), "CALLDATALOAD", ("PUSH1", 0xE0), "SHR",
            "DUP1", ("PUSH4", SELECTOR_BASE), "EQ", ("pushl", "f0"), "JUMPI",
            "DUP1", ("PUSH4", SELECTOR_BASE + 1), "EQ", ("pushl", "f1"), "JUMPI",
            ("PUSH1", 0), ("PUSH1", 0), "REVERT",
            ("label", "f0"), "JUMPDEST", ("PUSH1", 4), "CALLDATALOAD", *helper_call(0, "h"),
            *LOG_WORD0, "STOP",
            ("label", "h"), "JUMPDEST", ("pushl", "f1"), "JUMP",
            ("label", "f1"), "JUMPDEST", ("PUSH1", 1), "ADD", "SWAP1", "JUMP",
        ])))
        edge, = icfg.call_edges
        assert icfg.callee_exit_blocks(edge) == [icfg.functions["func_10000001"].entry]
        assert [(f.kind, f.condition, f.entries, f.confidence) for f in detect(icfg)] == UNANCHORED
        assert same_as_reference(icfg)

    def test_the_fallback_owns_a_public_entry_its_own_code_jumps_to(self):
        # the no-match path jumps to f0's entry, so f0's code, which logs
        # calldata word 4, runs from two public entries: the fallback
        # stops only at the dispatcher's selector branch into f0
        icfg = build_icfg(Bytecode(code=assemble([
            ("PUSH1", 0), "CALLDATALOAD", ("PUSH1", 0xE0), "SHR",
            "DUP1", ("PUSH4", SELECTOR_BASE), "EQ", ("pushl", "f0"), "JUMPI",
            ("pushl", "f0"), "JUMP",
            ("label", "f0"), "JUMPDEST", ("PUSH1", 4), "CALLDATALOAD", *LOG_WORD0, "STOP",
        ])))
        f0 = icfg.functions["func_10000000"]
        assert f0.block_offsets <= icfg.functions["fallback"].block_offsets
        assert [(op.function, op.block) for op in extract_log_ops(icfg)] == [
            ("fallback", f0.entry), ("func_10000000", f0.entry)]
        entries = ("fallback", "func_10000000")
        assert [(f.kind, f.condition, f.entries, f.confidence) for f in detect(icfg)] == [
            ("EVENT_COUNTERFEITING", "MULTI_TAINTED_PATHS", entries, "POTENTIAL"),
            ("INCONSISTENT_LOGGING", "NO_TAINT_RELATED_SSTORE", entries, "POTENTIAL"),
        ]
        assert same_as_reference(icfg)


def call_add(n: int) -> list:
    """Call the `add` helper on the value on top of the stack."""
    return [("pushl", f"r{n}"), ("pushl", "add"), "JUMP", ("label", f"r{n}"), "JUMPDEST"]


WORD_4 = [("PUSH1", 4), "CALLDATALOAD"]


class TestEachRunOfAHelperHasValuesOfItsOwn:
    """One path runs the `add` helper twice, once on calldata word 4 and
    once on the constant 7, and logs one of the two results without a
    storage write.  The answers are worked out by hand; the walk and the
    exhaustive search must both give them."""

    @pytest.mark.parametrize("first,second,drop,expected", [
        # add(word 4), then add(7); logs the second result, the constant 8
        pytest.param(WORD_4, [("PUSH1", 7)], [], [], id="word-first-log-second"),
        # add(word 4), then add(7); logs the first result, word 4 + 1
        pytest.param(WORD_4, [("PUSH1", 7)], ["POP"], UNANCHORED, id="word-first-log-first"),
        # add(7), then add(word 4); logs the second result, word 4 + 1
        pytest.param([("PUSH1", 7)], WORD_4, [], UNANCHORED, id="constant-first-log-second"),
        # add(7), then add(word 4); logs the first result, the constant 8
        pytest.param([("PUSH1", 7)], WORD_4, ["POP"], [], id="constant-first-log-first"),
    ])
    def test_a_helper_run_twice_on_one_path(self, first, second, drop, expected):
        icfg = build_icfg(one_function([
            *first, *call_add(1), *second, *call_add(2), *drop, *LOG_WORD0, "STOP",
            ("label", "add"), "JUMPDEST", *HELPER_BODIES["add"], "JUMP",
        ]))
        assert len(icfg.call_edges) == 2
        summary = [(f.kind, f.condition, f.entries, f.confidence) for f in detect(icfg)]
        assert summary == expected
        reference = [(f.kind, f.condition, f.entries, f.confidence)
                     for f in reference_detect(icfg)[0]]
        assert reference == expected


# --------------------------------------------------------------------------
# the Cancun opcodes
# --------------------------------------------------------------------------

def word4_logged(before_log: list, before_store: list = ()) -> Bytecode:
    """Calldata word 4 stored at memory word 0 and logged, with
    `before_store` ahead of the store and `before_log` between the store
    and the LOG, in one block."""
    return one_function([*before_store, *WORD_4, *LOG_WORD0[:2], *before_log,
                         *LOG_WORD0[2:], "STOP"])


CANCUN = {
    "TLOAD": [("PUSH1", 1), "TLOAD", "POP"],
    "TSTORE": [*WORD_4, ("PUSH1", 1), "TSTORE"],
    "MCOPY": [("PUSH1", 32), ("PUSH1", 64), ("PUSH1", 0), "MCOPY"],
    "BLOBHASH": [("PUSH1", 0), "BLOBHASH", "POP"],
    "BLOBBASEFEE": ["BLOBBASEFEE", "POP"],
}


class TestCancunOpcodes:
    @pytest.mark.parametrize("name", sorted(CANCUN))
    def test_an_opcode_before_the_log_keeps_the_finding(self, name):
        # each one used to decode as INVALID, which ended the block before
        # the LOG, so the site and its finding were gone
        icfg = build_icfg(word4_logged(CANCUN[name]))
        assert name in {t.op for b in icfg.lifted.values() for t in b.tac}
        assert [(f.kind, f.condition, f.entries, f.confidence) for f in detect(icfg)] == UNANCHORED
        assert same_as_reference(icfg)

    def test_tstore_is_not_a_taint_related_sstore(self):
        # transient storage is gone after the transaction, so it anchors nothing
        stored = build_icfg(word4_logged([*WORD_4, ("PUSH1", 1), "SSTORE"]))
        assert detect(stored) == []
        icfg = build_icfg(word4_logged(CANCUN["TSTORE"]))
        assert [(f.kind, f.condition) for f in detect(icfg)] == [UNANCHORED[0][:2]]

    @pytest.mark.parametrize("store,flagged", [("SSTORE", False), ("TSTORE", True)])
    def test_strict_mode_does_not_count_tstore_as_storage(self, store, flagged):
        branch = [("PUSH2", 0x24), "CALLDATALOAD", ("pushl", "on"), "JUMPI",
                  ("label", "on"), "JUMPDEST"]
        icfg = build_icfg(word4_logged([("PUSH1", 7), ("PUSH1", 1), store], branch))
        strict = detect(icfg, strict_eq2=True)
        assert any(f.condition == "STRICT_STRUCTURAL" for f in strict) is flagged

    @pytest.mark.parametrize("in_block", [True, False], ids=["same-block", "chain"])
    def test_mcopy_makes_the_log_data_opaque(self, in_block):
        # MCOPY moves memory that no store names, as a store at an unknown address
        plain, = extract_log_ops(build_icfg(word4_logged([])))
        assert not plain.synthetic
        copy = CANCUN["MCOPY"] if in_block else [*CANCUN["MCOPY"], ("label", "next"), "JUMPDEST"]
        icfg = build_icfg(word4_logged(copy))
        op, = extract_log_ops(icfg)
        region, = op.synthetic
        assert op.data_vars == (*plain.data_vars, region.defs[0])
        assert region.op == "MEMREGION" and len(region.uses) == 1
        assert [(f.kind, f.condition) for f in detect(icfg)] == [UNANCHORED[0][:2]]

    def test_a_store_after_mcopy_does_not_hide_the_copied_word(self):
        # word 0 holds calldata when MCOPY copies it to word 1; a constant
        # then overwrites word 0, and the LOG covers both words
        icfg = build_icfg(one_function([
            *WORD_4, ("PUSH1", 0), "MSTORE",
            ("PUSH1", 32), ("PUSH1", 0), ("PUSH1", 32), "MCOPY",
            ("PUSH1", 42), ("PUSH1", 0), "MSTORE",
            ("PUSH32", topic("Paid(uint256)")), ("PUSH1", 64), ("PUSH1", 0), "LOG1", "STOP",
        ]))
        op, = extract_log_ops(icfg)
        region, = op.synthetic
        assert len(region.uses) == 2
        assert [(f.kind, f.condition, f.entries, f.confidence) for f in detect(icfg)] == UNANCHORED
        assert same_as_reference(icfg)


class TestSingleByteStores:
    """An MSTORE8 writes one byte of a word: the memory model blurs the word
    that holds its byte, and only that word."""

    def test_a_byte_stored_into_the_logged_word_feeds_the_log(self):
        # the last byte of word 0 becomes calldata after a constant fills the word
        icfg = build_icfg(one_function([
            ("PUSH1", 42), ("PUSH1", 0), "MSTORE",
            *WORD_4, ("PUSH1", 31), "MSTORE8",
            *log1_of_word0("Paid(uint256)"), "STOP",
        ]))
        op, = extract_log_ops(icfg)
        region, = op.synthetic
        assert len(region.uses) == 2
        assert [(f.kind, f.condition, f.entries, f.confidence) for f in detect(icfg)] == UNANCHORED
        assert same_as_reference(icfg)

    def test_a_word_stored_over_the_byte_hides_it(self):
        icfg = build_icfg(one_function([
            *WORD_4, ("PUSH1", 31), "MSTORE8",
            ("PUSH1", 42), ("PUSH1", 0), "MSTORE",
            *log1_of_word0("Paid(uint256)"), "STOP",
        ]))
        op, = extract_log_ops(icfg)
        assert not op.synthetic
        assert detect(icfg) == []
        assert same_as_reference(icfg)

    def test_a_byte_stored_into_another_word_leaves_the_logged_word_alone(self):
        # the byte goes to 0x100, outside the logged word 0, which holds 42
        icfg = build_icfg(one_function([
            ("PUSH1", 42), ("PUSH1", 0), "MSTORE",
            *WORD_4, ("PUSH2", 0x100), "MSTORE8",
            *log1_of_word0("Paid(uint256)"), "STOP",
        ]))
        op, = extract_log_ops(icfg)
        assert not op.synthetic
        assert [icfg.consts.get(v) for v in op.data_vars] == [42]
        assert detect(icfg) == []
        assert same_as_reference(icfg)
