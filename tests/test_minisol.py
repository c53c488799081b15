"""Parsing, resolution, and printing of the restricted contract language."""

import re
import sys

import pytest
from hypothesis import given, strategies as st

from phantomscan import minisol
from phantomscan.minisol import ResolutionError, SyntaxError, ast
from phantomscan.resources import fixture_path

MSOL_FIXTURES = ["counterfeit", "inconsistent", "inconsistent_safe",
                 "disjoint", "relay"]


def load_fixture(name: str):
    src = fixture_path(name + ".msol").read_text()
    return src, minisol.load(src)


def wrap(body: str) -> str:
    return ("contract C { uint256 a; uint256 b; bool flag;\n"
            "function f() external { " + body + " } }")


class TestParsing:
    def test_fixture_shapes(self):
        _, c = load_fixture("counterfeit")
        assert c.name == "BridgeDeposit"
        assert [e.name for e in c.events] == ["Deposit"]
        assert c.events[0].signature == \
            "Deposit(address,uint256,address,uint256)"
        assert c.events[0].params[0].indexed
        assert [f.name for f in c.functions] == ["depositETH", "depositToken"]
        assert all(f.visibility == "external" for f in c.functions)

    def test_mapping_state_declaration(self):
        _, c = load_fixture("counterfeit")
        sv = c.state_var("ethBalance")
        assert sv.is_mapping and sv.key_type == "address" and sv.type == "uint256"

    def test_spans_slice_source_exactly(self):
        src, c = load_fixture("counterfeit")
        assert src[c.span[0]:c.span[1]].startswith("contract BridgeDeposit")
        assert src[c.span[0]:c.span[1]].endswith("}")
        fn = c.function("depositToken")
        assert src[fn.span[0]:fn.span[1]].startswith("function depositToken(")
        req = fn.body[0]
        assert src[req.span[0]:req.span[1]] == "require(amount > 0);"
        emit = fn.body[-1]
        assert src[emit.span[0]:emit.span[1]].startswith("emit Deposit(")

    def test_call_statement(self):
        _, c = load_fixture("counterfeit")
        fn = c.function("depositToken")
        call = next(s for s in fn.body if isinstance(s, ast.CallStmt))
        assert call.result == "ok"
        assert isinstance(call.target, ast.Name) and call.target.ident == "token"

    def test_address_literal(self):
        _, c = load_fixture("counterfeit")
        emit = c.function("depositETH").body[-1]
        assert isinstance(emit.args[2], ast.AddressLit)
        assert emit.args[2].value == 0

    def test_if_else(self):
        c = minisol.load(wrap("if (a > 0) { a = 1; } else { a = 2; }"))
        stmt = c.function("f").body[0]
        assert isinstance(stmt, ast.If)
        assert len(stmt.then) == 1 and len(stmt.orelse) == 1

    def test_precedence(self):
        c = minisol.load(wrap("require(a + b * 2 == 1 && !flag || a > b);"))
        cond = c.function("f").body[0].cond
        assert cond.op == "||"
        assert cond.left.op == "&&"
        mul = cond.left.left.left.right
        assert mul.op == "*" and isinstance(mul.right, ast.Lit)

    def test_parenthesized_group_keeps_wide_span(self):
        src = wrap("require((a + b) > 1);")
        c = minisol.parse(src)
        cond = c.function("f").body[0].cond
        left = cond.left
        assert src[left.span[0]:left.span[1]] == "(a + b)"


class TestSyntaxErrors:
    def test_missing_semicolon_reports_position(self):
        with pytest.raises(SyntaxError) as exc:
            minisol.parse("contract C {\n    uint256 a\n}")
        assert exc.value.line == 3
        assert "';'" in exc.value.expected

    def test_bad_character(self):
        with pytest.raises(SyntaxError):
            minisol.parse("contract C { uint256 a; % }")

    def test_missing_visibility(self):
        with pytest.raises(SyntaxError) as exc:
            minisol.parse("contract C { function f() { } }")
        assert "visibility" in exc.value.expected

    def test_truncated_input(self):
        with pytest.raises(SyntaxError) as exc:
            minisol.parse("contract C { function f() external {")
        assert "end of input" in str(exc.value)

    def test_trailing_garbage(self):
        with pytest.raises(SyntaxError):
            minisol.parse("contract C { } contract D { }")

    def test_a_number_with_leading_zeros_is_positioned(self):
        # int(text, 0) rejects it; it used to escape load() as a ValueError
        with pytest.raises(SyntaxError) as exc:
            minisol.load(wrap("a = 0123;"))
        assert (exc.value.line, exc.value.col) == (2, 29)
        assert str(exc.value) == "2:29: expected a number without leading zeros, found '0123'"

    def test_a_number_with_more_digits_than_int_converts_is_positioned(self):
        # int(text, 0) rejects it; it used to escape load() as a ValueError
        limit = sys.get_int_max_str_digits()
        with pytest.raises(SyntaxError) as exc:
            minisol.load(wrap(f"a = {'1' * (limit + 1)};"))
        assert str(exc.value) == \
            f"2:29: expected a number of at most {limit} digits, found {limit + 1} digits"

    def test_the_largest_literals_of_each_sort_load(self):
        contract = minisol.load("contract C { uint256 a; address o;\nfunction f() external { "
                                f"a = 0x{'f' * 64}; o = address(0x{'f' * 40}); }} }}")
        first, second = contract.function("f").body
        assert (first.value.value, second.value.value) == (2**256 - 1, 2**160 - 1)

    def test_zero_written_with_several_zeros_still_loads(self):
        stmt = minisol.load(wrap("a = 00;")).function("f").body[0]
        assert stmt.value.value == 0

    def test_a_non_ascii_digit_is_a_stray_character(self):
        # str.isdigit takes the superscript; int(text, 0) does not
        with pytest.raises(SyntaxError) as exc:
            minisol.load(wrap("a = \u00b2;"))
        assert str(exc.value) == "2:29: expected a token, found '\u00b2'"

    def test_a_non_ascii_identifier_is_a_stray_character(self):
        with pytest.raises(SyntaxError) as exc:
            minisol.load("contract C {\n  event P\u00e9(uint256 amount);\n}")
        assert (exc.value.line, exc.value.col) == (2, 10)

    def test_a_comment_may_hold_any_character(self):
        c = minisol.load("// d\u00e9p\u00f4t \u00b2 \U0001f600\ncontract C { uint256 a; }")
        assert c.name == "C"


def require_of(cond: str) -> str:
    return ("contract C { uint256 a;\nfunction f(uint256 x) external {\n"
            "require(" + cond + ");\n} }")


class TestNestingLimit:
    """Deep input is rejected with a positioned SyntaxError, never a
    RecursionError."""

    def test_two_hundred_parentheses(self):
        with pytest.raises(SyntaxError) as exc:
            minisol.load(require_of("(" * 200 + "x" + ")" * 200 + " > 0"))
        assert exc.value.line == 3 and exc.value.col > 1
        assert "nesting" in exc.value.expected

    def test_long_operator_chain(self):
        with pytest.raises(SyntaxError) as exc:
            minisol.load(require_of(" + ".join(["x"] * 1000) + " > 0"))
        assert (exc.value.line, exc.value.col) == (3, 9)
        assert "levels deep" in exc.value.expected

    def test_long_conjunction(self):
        with pytest.raises(SyntaxError):
            minisol.load(require_of(" && ".join(["x > 0"] * 1000)))

    def test_many_negations(self):
        with pytest.raises(SyntaxError):
            minisol.load(require_of("!" * 1000 + "(x > 0)"))

    def test_nested_map_keys(self):
        with pytest.raises(SyntaxError):
            minisol.load("contract C { mapping(uint256 => uint256) m;\n"
                         "function f(uint256 x) external { require("
                         + "m[" * 300 + "x" + "]" * 300 + " > 0); } }")

    def test_nested_blocks(self):
        body = "if (x > 0) { " * 500 + "x = 1;" + " }" * 500
        with pytest.raises(SyntaxError):
            minisol.load("contract C { function f(uint256 x) external { "
                         + body + " } }")

    def test_nesting_below_the_limit_still_loads(self):
        limit = minisol.parser.MAX_DEPTH
        c = minisol.load(require_of("(" * (limit - 3) + "x" + ")" * (limit - 3) + " > 0"))
        assert c.function("f").body[0].cond.op == ">"
        c = minisol.load(require_of(" + ".join(["x"] * (limit - 1)) + " > 0"))
        assert c.function("f").body[0].cond.op == ">"


class TestResolution:
    def test_unknown_event(self):
        with pytest.raises(ResolutionError, match="unknown event"):
            minisol.load(wrap("emit Nope(a);"))

    def test_event_arity(self):
        src = ("contract C { event E(uint256 x); uint256 a;\n"
               "function f() external { emit E(a, a); } }")
        with pytest.raises(ResolutionError, match="takes 1 argument"):
            minisol.load(src)

    def test_unknown_name(self):
        with pytest.raises(ResolutionError, match="unknown name 'c'"):
            minisol.load(wrap("a = c;"))

    def test_mapping_requires_key(self):
        src = ("contract C { mapping(address => uint256) m;\n"
               "function f() external { m = 1; } }")
        with pytest.raises(ResolutionError, match="needs a key"):
            minisol.load(src)

    def test_indexing_a_scalar(self):
        with pytest.raises(ResolutionError, match="not a mapping"):
            minisol.load(wrap("a[1] = 2;"))

    def test_call_result_must_be_bool_local(self):
        with pytest.raises(ResolutionError, match="must be a bool local"):
            minisol.load(wrap("a = call(b);"))

    def test_internal_call_target_visibility(self):
        src = ("contract C {\n"
               "function f() external { g(); }\n"
               "function g() external { return; } }")
        with pytest.raises(ResolutionError, match="not internal"):
            minisol.load(src)

    def test_duplicate_declaration(self):
        with pytest.raises(ResolutionError, match="duplicate"):
            minisol.load("contract C { uint256 a; uint256 a; }")

    def test_multiplication_needs_literal(self):
        with pytest.raises(ResolutionError, match="literal operand"):
            minisol.load(wrap("a = a * b;"))

    def test_locals_do_not_escape_branches(self):
        src = wrap("if (flag) { uint256 x = 1; a = x; } a = x;")
        with pytest.raises(ResolutionError, match="unknown name 'x'"):
            minisol.load(src)

    def test_error_carries_line_and_col(self):
        with pytest.raises(ResolutionError) as exc:
            minisol.load("contract C {\n  uint256 a;\n"
                         "  function f() external {\n    a = zz;\n  } }")
        assert exc.value.line == 4


class TestTypes:
    """As in Solidity, bool and non-bool values do not mix."""

    @pytest.mark.parametrize("body,expected", [
        ("require(x + (x > 1) > 3);", "a non-bool operand of '+'"),
        ("require((x > 1) < 3);", "a non-bool operand of '<'"),
        ("require((x > 1) == 5);", "a bool operand of '=='"),
        ("require(x);", "a bool condition"),
        ("require(!x);", "a bool operand of '!'"),
        ("require(flag && x);", "a bool operand of '&&'"),
        ("uint256 t = x > 1;", "a non-bool value for 't'"),
        ("a = flag;", "a non-bool value for 'a'"),
        ("flag = 1;", "a bool value for 'flag'"),
    ])
    def test_mixed_operands_are_rejected_with_their_line(self, body, expected):
        src = ("contract C { uint256 a; bool flag;\n"
               "function f(uint256 x) external {\n" + body + "\n} }")
        with pytest.raises(SyntaxError, match=re.escape(expected)) as exc:
            minisol.load(src)
        assert exc.value.line == 3

    def test_bool_equality_and_connectives_load(self):
        minisol.load("contract C { bool flag;\n"
                     "function f(uint256 x) external {\n"
                     "require(flag == (x > 1) && !(flag != true) || x + 1 >= 2 * x);\n} }")


class TestPrinting:
    def test_fixture_round_trips(self):
        for name in MSOL_FIXTURES:
            _, c = load_fixture(name)
            again = minisol.load(minisol.to_source(c))
            assert again.strip() == c.strip(), name

    def test_printing_is_idempotent(self):
        for name in MSOL_FIXTURES:
            _, c = load_fixture(name)
            once = minisol.to_source(c)
            assert minisol.to_source(minisol.load(once)) == once, name


def _name(s):
    return ast.Name(ident=s)


_arith = st.recursive(
    st.sampled_from([_name("a"), _name("b")])
    | st.integers(0, 99).map(lambda v: ast.Lit(value=v))
    | st.just(ast.MsgValue()),
    lambda ch: st.builds(
        lambda l, r, op: ast.Binary(op=op, left=l, right=r),
        ch, ch, st.sampled_from(["+", "-"]))
    | st.builds(
        lambda l, v: ast.Binary(op="*", left=l, right=ast.Lit(value=v)),
        ch, st.integers(0, 9)),
    max_leaves=6,
)

_cmp = st.builds(
    lambda l, r, op: ast.Binary(op=op, left=l, right=r),
    _arith, _arith, st.sampled_from(["==", "!=", "<", "<=", ">", ">="]))

_boolish = st.recursive(
    _cmp | st.sampled_from([ast.BoolLit(value=True), ast.BoolLit(value=False),
                            _name("flag")]),
    lambda ch: st.builds(
        lambda l, r, op: ast.Binary(op=op, left=l, right=r),
        ch, ch, st.sampled_from(["&&", "||"]))
    | ch.map(lambda e: ast.Unary(op="!", operand=e)),
    max_leaves=8,
)


class TestPrinterParserInverse:
    @given(_boolish)
    def test_printed_condition_reparses_to_same_tree(self, expr):
        src = wrap(f"require({ast.expr_source(expr)});")
        c = minisol.load(src)
        assert c.function("f").body[0].cond.strip() == expr.strip()

    @given(_arith)
    def test_printed_arithmetic_reparses_to_same_tree(self, expr):
        src = wrap(f"a = {ast.expr_source(expr)};")
        c = minisol.load(src)
        assert c.function("f").body[0].value.strip() == expr.strip()


class TestSummarize:
    def test_digest_of_relay(self):
        _, c = load_fixture("relay")
        s = minisol.summarize(c)
        assert s["contract"] == "RelayPing"
        assert s["events"][0]["topic0"].startswith("0x")
        assert len(s["events"][0]["topic0"]) == 66
        record = next(f for f in s["functions"] if f["name"] == "record")
        assert record["visibility"] == "internal"
        assert record["emits"] == ["Pinged"]
        assert record["writes"] == ["hits"]

    def test_counts_calls_and_requires(self):
        _, c = load_fixture("counterfeit")
        s = minisol.summarize(c)
        dt = next(f for f in s["functions"] if f["name"] == "depositToken")
        assert dt["external_calls"] == 1
        assert dt["requires"] == 2
