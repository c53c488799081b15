"""Function recovery and interprocedural CFG assembly on the bundled
bytecode fixtures."""

import json

import pytest

from phantomscan._keccak import function_selector
from phantomscan.evm import Bytecode
from phantomscan.lifter import Icfg, SigDb, SigDbError, build_icfg
from phantomscan.resources import fixture_path
from test_taint import callers, structured


def icfg_for(name: str) -> Icfg:
    sigdb = SigDb.from_text(fixture_path("sigdb.txt").read_text())
    bc = Bytecode.from_hex_file(str(fixture_path(name + ".hex")))
    return build_icfg(bc, sigdb=sigdb)


def owned(icfg: Icfg, fn: str) -> list[int]:
    return sorted(icfg.functions[fn].block_offsets)


class TestDispatcherRecovery:
    def test_two_selector_dispatch(self):
        icfg = icfg_for("counterfeit")
        names = set(icfg.functions)
        assert names == {"fallback", "deposit", "depositETH"}
        assert icfg.functions["deposit"].selector == function_selector(
            "deposit(address,uint256,uint256)")
        assert icfg.functions["depositETH"].selector == function_selector(
            "depositETH(uint256)")

    def test_fallback_owns_the_dispatcher_chain(self):
        icfg = icfg_for("counterfeit")
        fb = icfg.functions["fallback"]
        assert fb.entry == 0x0
        assert fb.is_public
        assert {0x0, 0xD, 0x1E} <= fb.block_offsets

    def test_fallback_only_contract(self):
        icfg = icfg_for("nocheck_call")
        assert set(icfg.functions) == {"fallback"}
        assert owned(icfg, "fallback") == [0x0]

    def test_entry_zero_stays_in_fallback_even_with_early_branch(self):
        # the first block ends in a guard JUMPI: it still belongs to the
        # fallback, since execution always starts at offset 0
        icfg = icfg_for("checked_call")
        assert owned(icfg, "fallback") == [0x0, 0x13, 0x3F]

    def test_unknown_selector_gets_synthetic_name(self):
        bc = Bytecode.from_hex_file(str(fixture_path("counterfeit.hex")))
        icfg = build_icfg(bc, sigdb=None)
        synthetic = [n for n in icfg.functions if n.startswith("func_")]
        assert len(synthetic) == 2
        for n in synthetic:
            assert icfg.functions[n].selector == "0x" + n[5:]


class TestOwnershipAndSharing:
    def test_frozen_block_ownership(self):
        icfg = icfg_for("counterfeit")
        assert owned(icfg, "depositETH") == [0x29, 0x2F, 0x36]
        assert owned(icfg, "deposit") == [0x29, 0x81, 0x8B, 0x9F]

    def test_shared_revert_stub_is_cloned_into_each_owner(self):
        icfg = icfg_for("counterfeit")
        holders = [n for n, f in icfg.functions.items() if 0x29 in f.block_offsets]
        assert sorted(holders) == ["deposit", "depositETH", "fallback"]

    def test_log_blocks_belong_to_exactly_one_function(self):
        for name in ["counterfeit", "inconsistent", "inconsistent_safe",
                     "emit_helper", "nocheck_call", "checked_call"]:
            icfg = icfg_for(name)
            for off, lb in icfg.lifted.items():
                if not any(t.op.startswith("LOG") for t in lb.tac):
                    continue
                holders = [n for n, f in icfg.functions.items()
                           if off in f.block_offsets]
                assert len(holders) == 1, (name, hex(off), holders)

    def test_no_unresolved_jumps_on_fixtures(self):
        for name in ["counterfeit", "inconsistent", "inconsistent_safe",
                     "emit_helper", "nocheck_call", "checked_call"]:
            icfg = icfg_for(name)
            assert icfg.unresolved_jumps == 0, name

    def test_a_jump_no_function_owns_is_not_counted(self):
        # the helper is never called, so nothing supplies its return
        # jump's target, and no function owns that jump's block
        icfg = build_icfg(structured(["caller"], "store", ("CALLER",)))
        assert icfg.blocks[0x52].has_unresolved_jump
        assert all(0x52 not in fn.block_offsets for fn in icfg.functions.values())
        assert icfg.unresolved_jumps == 0


class TestCallEdges:
    def test_helper_called_from_two_entries(self):
        icfg = icfg_for("emit_helper")
        assert set(icfg.functions) == {"fallback", "touch", "poke", "helper_0x49"}
        helper = icfg.functions["helper_0x49"]
        assert not helper.is_public
        assert owned(icfg, "helper_0x49") == [0x49]

        edges = {(e.caller, e.call_block, e.callee, e.return_block)
                 for e in icfg.call_edges}
        assert edges == {
            ("touch", 0x2F, "helper_0x49", 0x3A),
            ("poke", 0x3C, "helper_0x49", 0x47),
        }

    def test_callers_keep_their_return_blocks(self):
        icfg = icfg_for("emit_helper")
        assert owned(icfg, "touch") == [0x2F, 0x3A]
        assert owned(icfg, "poke") == [0x3C, 0x47]
        assert 0x3A not in icfg.functions["helper_0x49"].block_offsets

    def test_callee_exit_blocks_resolve_through_return_jump(self):
        icfg = icfg_for("emit_helper")
        for e in icfg.call_edges:
            assert icfg.callee_exit_blocks(e) == [0x49]


    def test_helpers_return_from_blocks_below_their_entry(self):
        # two callers of a multi-block helper that calls a second one; each
        # helper returns from a block below its entry
        icfg = build_icfg(callers(2, "nested"))
        assert icfg.unresolved_jumps == 0
        edges = {(e.caller, e.call_block, e.callee, e.return_block): icfg.callee_exit_blocks(e)
                 for e in icfg.call_edges}
        assert edges == {
            ("func_10000000", 0x2A, "helper_0x44", 0x35): [0x81],
            ("func_10000001", 0x37, "helper_0x44", 0x42): [0x81],
            ("helper_0x44", 0x45, "helper_0x54", 0x4E): [0x7F],
        }
        assert owned(icfg, "helper_0x44") == [0x44, 0x45, 0x4E, 0x4F, 0x81]
        assert owned(icfg, "helper_0x54") == [0x54, 0x55, 0x7F]


class TestSerialization:
    def test_json_deterministic_across_builds(self):
        a = icfg_for("counterfeit").to_json()
        b = icfg_for("counterfeit").to_json()
        assert a == b
        parsed = json.loads(a)
        assert sorted(parsed["functions"]) == ["deposit", "depositETH", "fallback"]

    def test_dot_contains_function_clusters(self):
        dot = icfg_for("emit_helper").to_dot()
        assert "digraph" in dot
        for fn in ["touch", "poke", "helper_0x49"]:
            assert fn in dot


class TestSigDb:
    def test_parses_selectors_and_topics(self):
        db = SigDb.from_text(
            "# comment\n"
            "a9059cbb transfer(address,uint256)\n"
            "ddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef "
            "Transfer(address,address,uint256)\n"
        )
        assert db.selector_signature(0xA9059CBB) == "transfer(address,uint256)"
        topic = 0xDDF252AD1BE2C89B69C2B068FC378DAA952BA7F163C4A11628F55A4DF523B3EF
        assert db.topic_signature(topic) == "Transfer(address,address,uint256)"

    def test_rejects_bad_hex_with_line_number(self):
        with pytest.raises(SigDbError) as exc:
            SigDb.from_text("zzzz broken(uint256)\n")
        assert exc.value.lineno == 1

    def test_rejects_missing_parens(self):
        with pytest.raises(SigDbError):
            SigDb.from_text("a9059cbb notasignature\n")

    def test_unknown_lookup_returns_none(self):
        db = SigDb.from_text("")
        assert db.selector_signature(0x12345678) is None
        assert db.topic_signature(0x1) is None
