"""Path enumeration and the source-level detectors."""

from phantomscan import minisol, symexec
from phantomscan._keccak import event_topic
from phantomscan.resources import fixture_path
from phantomscan.symexec import analyze_source, search_paths
from phantomscan.symexec.values import (
    BinOp,
    CallSuccessSym,
    Literal,
    StorageSym,
)


def load_fixture(name: str):
    return minisol.load(fixture_path(name + ".msol").read_text())


def load_src(body: str):
    return minisol.load(body)


def findings_of(kind: str, contract) -> list:
    """The findings of one check, as `analyze_source` returns them."""
    return [f for f in analyze_source(contract) if f.kind == kind]


class TestPathEnumeration:
    def test_straight_line_single_path(self):
        c = load_fixture("inconsistent")
        ps = search_paths(c, "requestWithdraw")
        assert len(ps.paths) == 1
        p = ps.paths[0]
        assert len(p.conjuncts) == 1
        assert len(p.emits) == 1 and p.emits[0].event == "WithdrawalRequested"
        assert not ps.truncated

    def test_if_else_forks(self):
        c = load_src("""
            contract C { event E(uint256 x); uint256 s;
            function f(uint256 a) external {
                if (a > 5) { s = 1; } else { s = 2; }
                emit E(a);
            } }""")
        ps = search_paths(c, "f")
        assert len(ps.paths) == 2
        conds = {str(p.conjuncts[0]) for p in ps.paths}
        assert conds == {"(a > 5)", "!(a > 5)"}
        assert all(len(p.emits) == 1 for p in ps.paths)

    def test_revert_branch_publishes_nothing(self):
        c = load_src("""
            contract C { event E(uint256 x);
            function f(uint256 a) external {
                if (a > 5) { revert(); }
                emit E(a);
            } }""")
        ps = search_paths(c, "f")
        assert len(ps.paths) == 1
        assert str(ps.paths[0].conjuncts[0]) == "!(a > 5)"

    def test_storage_read_after_write_sees_written_value(self):
        c = load_src("""
            contract C { event E(uint256 x); mapping(address => uint256) m;
            function f() external {
                m[msg.sender] = 5;
                emit E(m[msg.sender]);
            } }""")
        ps = search_paths(c, "f")
        arg = ps.paths[0].emits[0].args[0]
        assert arg == Literal(value=5)

    def test_storage_reads_memoize_before_write(self):
        c = load_fixture("inconsistent_safe")
        p = search_paths(c, "requestWithdraw").paths[0]
        read = p.conjuncts[0].left
        assert isinstance(read, StorageSym) and read.version == 0
        # the write value, balance - amount, reuses the identical read symbol
        assert any(s is read for s, _ in p.writes[0].value.terms)

    def test_equal_mapping_keys_share_a_slot(self):
        c = load_src("""
            contract C { event E(uint256 x); mapping(uint256 => uint256) m;
            function f(uint256 x) external {
                require(m[2 * x - x] > 0);
                m[x + 1] = 5;
                m[x] = m[x] + 1;
                emit E(m[1 + x]);
            } }""")
        p = search_paths(c, "f").paths[0]
        assert p.emits[0].args[0] == Literal(value=5)
        read = p.conjuncts[0].left
        # m[2 * x - x] and m[x] are one slot: the read is memoized
        assert isinstance(read, StorageSym) and str(read) == "m[(x)]#v0"
        assert p.writes[1].value.terms == ((read, 1),)

    def test_call_result_is_fresh_bool(self):
        c = load_fixture("counterfeit")
        p = search_paths(c, "depositToken").paths[0]
        assert isinstance(p.conjuncts[1], CallSuccessSym)

    def test_internal_call_inlines_with_argument_binding(self):
        c = load_fixture("relay")
        p = search_paths(c, "poke").paths[0]
        assert [e.event for e in p.emits] == ["Pinged"]
        assert str(p.emits[0].args[0]) == "code"
        assert [w.var for w in p.writes] == ["hits"]

    def test_recursion_truncates_at_depth(self):
        c = load_src("""
            contract C { event E(uint256 x); uint256 s;
            function f(uint256 a) external { loop(a); }
            function loop(uint256 a) internal {
                emit E(a);
                loop(a);
            } }""")
        ps = search_paths(c, "f")
        assert ps.truncated
        assert all(p.truncated for p in ps.paths)
        # four inlined frames, each emitting once
        assert len(ps.paths[0].emits) == 4


class TestInconsistencyCheck:
    def test_unvalidated_event_arguments_flagged(self):
        c = load_fixture("inconsistent")
        f, = findings_of("INCONSISTENT_LOGGING", c)
        assert f.kind == "INCONSISTENT_LOGGING"
        assert f.functions == ("requestWithdraw",)
        assert set(f.detail["unvalidated"]) == {"account", "assetType", "amount"}
        assert f.confidence == "CONFIRMED"
        assert f.topic0 == event_topic("WithdrawalRequested(address,uint256,uint256)")

    def test_guard_and_writes_validate_everything(self):
        c = load_fixture("inconsistent_safe")
        assert findings_of("INCONSISTENT_LOGGING", c) == []

    def test_storage_write_key_counts_as_validation(self):
        # msg.sender is only used as a mapping key, never in a guard
        c = load_src("""
            contract C { event E(address who); mapping(address => uint256) m;
            function f() external {
                m[msg.sender] = 1;
                emit E(msg.sender);
            } }""")
        assert findings_of("INCONSISTENT_LOGGING", c) == []

    def test_guard_key_counts_as_validation(self):
        c = load_src("""
            contract C { event E(address who); mapping(address => uint256) m;
            function f() external {
                require(m[msg.sender] > 0);
                emit E(msg.sender);
            } }""")
        assert findings_of("INCONSISTENT_LOGGING", c) == []

    def test_helper_emission_attributed_to_entry(self):
        c = load_fixture("relay")
        f, = findings_of("INCONSISTENT_LOGGING", c)
        assert f.functions == ("touch",)
        assert f.detail["unvalidated"] == {"code": ["code"]}

    def test_truncated_paths_degrade_confidence(self):
        c = load_src("""
            contract C { event E(uint256 x);
            function f(uint256 a) external { loop(a); }
            function loop(uint256 a) internal {
                emit E(a);
                loop(a);
            } }""")
        findings = findings_of("INCONSISTENT_LOGGING", c)
        assert findings
        assert all(f.confidence == "INCOMPLETE" for f in findings)


class TestCounterfeitPairCheck:
    def test_compatible_pair_with_witness(self):
        c = load_fixture("counterfeit")
        f, = findings_of("EVENT_COUNTERFEITING", c)
        assert f.kind == "EVENT_COUNTERFEITING"
        assert f.functions == ("depositETH", "depositToken")
        assert f.detail["witness"]["token"] == 0
        assert f.detail["witness"]["amount"] >= 1
        assert f.confidence == "CONFIRMED"

    def test_disjoint_guards_produce_nothing(self):
        c = load_fixture("disjoint")
        assert findings_of("EVENT_COUNTERFEITING", c) == []
        assert analyze_source(c) == []

    def test_pair_through_internal_helper(self):
        c = load_fixture("relay")
        f, = findings_of("EVENT_COUNTERFEITING", c)
        assert f.functions == ("poke", "touch")
        assert f.detail["witness"]["code"] >= 1

    def test_single_emitter_is_not_a_pair(self):
        c = load_fixture("inconsistent")
        assert findings_of("EVENT_COUNTERFEITING", c) == []

    def test_value_coupling_respects_both_guards(self):
        # f requires x in [10, 20], g requires x in [15, 30]:
        # a witness must land in the overlap
        c = load_src("""
            contract C { event E(uint256 x); uint256 s;
            function f(uint256 a) external {
                require(a >= 10); require(a <= 20); s = a; emit E(a);
            }
            function g(uint256 a) external {
                require(a >= 15); require(a <= 30); s = a; emit E(a);
            } }""")
        found, = findings_of("EVENT_COUNTERFEITING", c)
        assert 15 <= found.detail["witness"]["x"] <= 20


class TestAnalyzeSource:
    def test_full_report_on_counterfeit(self):
        c = load_fixture("counterfeit")
        kinds = [(f.kind, f.functions) for f in analyze_source(c)]
        assert kinds == [
            ("EVENT_COUNTERFEITING", ("depositETH", "depositToken")),
            ("INCONSISTENT_LOGGING", ("depositETH",)),
            ("INCONSISTENT_LOGGING", ("depositToken",)),
        ]

    def test_paths_searched_once_per_entry(self, monkeypatch):
        calls = []

        def counting(contract, fn_name, **kw):
            calls.append(fn_name)
            return search_paths(contract, fn_name, **kw)

        monkeypatch.setattr(symexec.engine, "search_paths", counting)
        analyze_source(load_fixture("counterfeit"))
        assert sorted(calls) == ["depositETH", "depositToken"]

    def test_each_event_hashed_once_per_analysis(self, monkeypatch):
        # three findings on one event, from both checks
        calls = []

        def counting(signature):
            calls.append(signature)
            return event_topic(signature)

        monkeypatch.setattr(symexec.engine, "event_topic", counting)
        c = load_fixture("counterfeit")
        findings = analyze_source(c)
        assert len(findings) == 3
        assert calls == ["Deposit(address,uint256,address,uint256)"]
        assert {f.topic0 for f in findings} == {event_topic(calls[0])}
        analyze_source(c)  # and no hash outlives its analysis
        assert len(calls) == 2

    def test_results_deterministic(self):
        for name in ["counterfeit", "inconsistent", "inconsistent_safe",
                     "disjoint", "relay"]:
            c = load_fixture(name)
            a = [(f.kind, f.functions, f.detail) for f in analyze_source(c)]
            b = [(f.kind, f.functions, f.detail) for f in analyze_source(c)]
            assert a == b, name
