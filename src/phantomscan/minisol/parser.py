"""Recursive-descent parser and name resolution.

`parse` builds the tree, `load` additionally resolves every identifier
against the contract's declarations and, as in Solidity, keeps bool and
non-bool values apart: conditions and the operands of `! && ||` are
bool, those of `+ - * < <= > >=` are not, and `==` and `!=` compare
like with like.  Multiplication is only accepted with a literal
operand.  So every number the engine builds is linear, and every
condition is a formula.  Nesting (blocks, parentheses, keys, `!`) and
expression trees are limited to `MAX_DEPTH` levels, so neither this
parser nor the recursive passes over its trees can exhaust the
interpreter stack.
"""

from __future__ import annotations

import sys

from . import ast
from .errors import ResolutionError, SyntaxError
from .lexer import Token, tokenize

_TYPE_KEYWORDS = set(ast.SCALAR_TYPES)

MAX_DEPTH = 64


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.i = 0
        self.depth = 0  # open blocks and nested expressions

    # ----------------------------------------------------------- primitives

    @property
    def tok(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        t = self.tok
        self.i += 1
        return t

    def at(self, text: str) -> bool:
        return self.tok.text == text and self.tok.kind in ("SYMBOL", "KEYWORD")

    def accept(self, text: str) -> Token | None:
        if self.at(text):
            return self.advance()
        return None

    def expect(self, text: str) -> Token:
        if self.at(text):
            return self.advance()
        t = self.tok
        raise SyntaxError(t.line, t.col, f"'{text}'", found=repr(t.text or "end of input"))

    def ident(self, what: str = "an identifier") -> Token:
        if self.tok.kind == "IDENT":
            return self.advance()
        t = self.tok
        raise SyntaxError(t.line, t.col, what, found=repr(t.text or "end of input"))

    def enter(self) -> None:
        """Open one level of nesting; `leave` closes it."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            t = self.tok
            raise SyntaxError(t.line, t.col, f"at most {MAX_DEPTH} levels of nesting",
                              found=repr(t.text or "end of input"))

    def leave(self) -> None:
        self.depth -= 1

    def type_name(self) -> Token:
        if self.tok.kind == "KEYWORD" and self.tok.text in _TYPE_KEYWORDS:
            return self.advance()
        t = self.tok
        raise SyntaxError(t.line, t.col, "a type name", found=repr(t.text or "end of input"))

    # ----------------------------------------------------------- declarations

    def contract(self) -> ast.Contract:
        start = self.expect("contract")
        name = self.ident("a contract name")
        self.expect("{")
        events: list[ast.EventDecl] = []
        state: list[ast.StateDecl] = []
        functions: list[ast.Function] = []
        while not self.at("}"):
            if self.at("event"):
                events.append(self.event_decl())
            elif self.at("function"):
                functions.append(self.function_decl())
            elif self.at("mapping") or (
                self.tok.kind == "KEYWORD" and self.tok.text in _TYPE_KEYWORDS
            ):
                state.append(self.state_decl())
            else:
                t = self.tok
                raise SyntaxError(t.line, t.col, "a declaration",
                                  found=repr(t.text or "end of input"))
        close = self.expect("}")
        if self.tok.kind != "EOF":
            t = self.tok
            raise SyntaxError(t.line, t.col, "end of input", found=repr(t.text))
        return ast.Contract(name=name.text, events=tuple(events),
                            state=tuple(state), functions=tuple(functions),
                            span=(start.pos, close.end))

    def event_decl(self) -> ast.EventDecl:
        start = self.expect("event")
        name = self.ident("an event name")
        self.expect("(")
        params: list[ast.EventParam] = []
        if not self.at(")"):
            while True:
                ty = self.type_name()
                indexed = self.accept("indexed") is not None
                pname = self.ident("a parameter name")
                params.append(ast.EventParam(type=ty.text, name=pname.text,
                                             indexed=indexed,
                                             span=(ty.pos, pname.end)))
                if not self.accept(","):
                    break
        self.expect(")")
        end = self.expect(";")
        return ast.EventDecl(name=name.text, params=tuple(params),
                             span=(start.pos, end.end))

    def state_decl(self) -> ast.StateDecl:
        if self.at("mapping"):
            start = self.advance()
            self.expect("(")
            key = self.type_name()
            self.expect("=>")
            val = self.type_name()
            self.expect(")")
            name = self.ident("a state variable name")
            end = self.expect(";")
            return ast.StateDecl(name=name.text, type=val.text,
                                 key_type=key.text, span=(start.pos, end.end))
        ty = self.type_name()
        name = self.ident("a state variable name")
        end = self.expect(";")
        return ast.StateDecl(name=name.text, type=ty.text,
                             span=(ty.pos, end.end))

    def function_decl(self) -> ast.Function:
        start = self.expect("function")
        name = self.ident("a function name")
        self.expect("(")
        params: list[ast.Param] = []
        if not self.at(")"):
            while True:
                ty = self.type_name()
                pname = self.ident("a parameter name")
                params.append(ast.Param(type=ty.text, name=pname.text,
                                        span=(ty.pos, pname.end)))
                if not self.accept(","):
                    break
        self.expect(")")
        vis = self.tok
        if vis.text not in ("external", "public", "internal"):
            raise SyntaxError(vis.line, vis.col, "a visibility",
                              found=repr(vis.text or "end of input"))
        self.advance()
        body, end = self.block()
        return ast.Function(name=name.text, params=tuple(params),
                            visibility=vis.text, body=body,
                            span=(start.pos, end))

    # ------------------------------------------------------------ statements

    def block(self) -> tuple[tuple[ast.Node, ...], int]:
        self.expect("{")
        self.enter()
        stmts: list[ast.Node] = []
        while not self.at("}"):
            stmts.append(self.statement())
        self.leave()
        close = self.expect("}")
        return tuple(stmts), close.end

    def statement(self) -> ast.Node:
        t = self.tok
        if self.at("require"):
            self.advance()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            end = self.expect(";")
            return ast.Require(cond=cond, span=(t.pos, end.end))
        if self.at("emit"):
            self.advance()
            name = self.ident("an event name")
            self.expect("(")
            args: list[ast.Node] = []
            if not self.at(")"):
                while True:
                    args.append(self.expr())
                    if not self.accept(","):
                        break
            self.expect(")")
            end = self.expect(";")
            return ast.Emit(event=name.text, args=tuple(args),
                            span=(t.pos, end.end))
        if self.at("if"):
            self.advance()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            then, end = self.block()
            orelse: tuple[ast.Node, ...] = ()
            if self.accept("else"):
                orelse, end = self.block()
            return ast.If(cond=cond, then=then, orelse=orelse,
                          span=(t.pos, end))
        if self.at("revert"):
            self.advance()
            self.expect("(")
            self.expect(")")
            end = self.expect(";")
            return ast.Revert(span=(t.pos, end.end))
        if self.at("return"):
            self.advance()
            value = None if self.at(";") else self.expr()
            end = self.expect(";")
            return ast.Return(value=value, span=(t.pos, end.end))
        if t.kind == "KEYWORD" and t.text in _TYPE_KEYWORDS:
            ty = self.advance()
            name = self.ident("a local name")
            self.expect("=")
            value = self.expr()
            end = self.expect(";")
            return ast.LocalDecl(type=ty.text, name=name.text, value=value,
                                 span=(t.pos, end.end))
        if t.kind == "IDENT":
            name = self.advance()
            if self.accept("["):
                key = self.expr()
                self.expect("]")
                self.expect("=")
                value = self.expr()
                end = self.expect(";")
                return ast.MapWrite(target=name.text, key=key, value=value,
                                    span=(t.pos, end.end))
            if self.accept("="):
                if self.at("call"):
                    self.advance()
                    self.expect("(")
                    target = self.expr()
                    self.expect(")")
                    end = self.expect(";")
                    return ast.CallStmt(result=name.text, target=target,
                                        span=(t.pos, end.end))
                value = self.expr()
                end = self.expect(";")
                return ast.Assign(target=name.text, value=value,
                                  span=(t.pos, end.end))
            if self.accept("("):
                args = []
                if not self.at(")"):
                    while True:
                        args.append(self.expr())
                        if not self.accept(","):
                            break
                self.expect(")")
                end = self.expect(";")
                return ast.InternalCall(name=name.text, args=tuple(args),
                                        span=(t.pos, end.end))
        raise SyntaxError(t.line, t.col, "a statement",
                          found=repr(t.text or "end of input"))

    # ----------------------------------------------------------- expressions

    def expr(self) -> ast.Node:
        """A whole expression; nested ones (parentheses, keys) re-enter here."""
        start = self.tok
        self.enter()
        e = self._or()
        self.leave()
        if _height(e) > MAX_DEPTH:
            raise SyntaxError(start.line, start.col,
                              f"an expression at most {MAX_DEPTH} levels deep")
        return e

    def _binary_chain(self, sub, ops) -> ast.Node:
        left = sub()
        while self.tok.text in ops and self.tok.kind == "SYMBOL":
            op = self.advance()
            right = sub()
            left = ast.Binary(op=op.text, left=left, right=right,
                              span=(left.span[0], right.span[1]))
        return left

    def _or(self) -> ast.Node:
        return self._binary_chain(self._and, ("||",))

    def _and(self) -> ast.Node:
        return self._binary_chain(self._cmp, ("&&",))

    def _cmp(self) -> ast.Node:
        left = self._sum()
        if self.tok.kind == "SYMBOL" and self.tok.text in ("==", "!=", "<", "<=", ">", ">="):
            op = self.advance()
            right = self._sum()
            return ast.Binary(op=op.text, left=left, right=right,
                              span=(left.span[0], right.span[1]))
        return left

    def _sum(self) -> ast.Node:
        return self._binary_chain(self._product, ("+", "-"))

    def _product(self) -> ast.Node:
        return self._binary_chain(self._unary, ("*",))

    def _unary(self) -> ast.Node:
        if self.at("!"):
            bang = self.advance()
            self.enter()
            operand = self._unary()
            self.leave()
            return ast.Unary(op="!", operand=operand,
                             span=(bang.pos, operand.span[1]))
        return self._primary()

    def _primary(self) -> ast.Node:
        t = self.tok
        if t.kind == "NUMBER":
            self.advance()
            return ast.Lit(value=_number(t), span=(t.pos, t.end))
        if self.at("true") or self.at("false"):
            self.advance()
            return ast.BoolLit(value=t.text == "true", span=(t.pos, t.end))
        if self.at("address"):
            self.advance()
            self.expect("(")
            num = self.tok
            if num.kind != "NUMBER":
                raise SyntaxError(num.line, num.col, "an address literal",
                                  found=repr(num.text))
            self.advance()
            close = self.expect(")")
            return ast.AddressLit(value=_number(num, ast.ADDRESS_MAX), span=(t.pos, close.end))
        if self.accept("("):
            inner = self.expr()
            close = self.expect(")")
            # widen the span to keep exact source slicing
            return _respan(inner, (t.pos, close.end))
        if t.kind == "IDENT":
            self.advance()
            if t.text == "msg" and self.at("."):
                self.advance()
                field = self.ident("'sender' or 'value'")
                if field.text == "sender":
                    return ast.MsgSender(span=(t.pos, field.end))
                if field.text == "value":
                    return ast.MsgValue(span=(t.pos, field.end))
                raise SyntaxError(field.line, field.col, "'sender' or 'value'",
                                  found=repr(field.text))
            if self.accept("["):
                key = self.expr()
                close = self.expect("]")
                return ast.Index(ident=t.text, key=key, span=(t.pos, close.end))
            return ast.Name(ident=t.text, span=(t.pos, t.end))
        raise SyntaxError(t.line, t.col, "an expression",
                          found=repr(t.text or "end of input"))


def _number(t: Token, most: int = ast.UINT_MAX) -> int:
    """The literal's value, at most `most`: the solver bounds each sort."""
    try:
        value = int(t.text, 0)
    except ValueError:  # more decimal digits than the interpreter converts
        raise SyntaxError(t.line, t.col,
                          f"a number of at most {sys.get_int_max_str_digits()} digits",
                          found=f"{len(t.text)} digits") from None
    if value > most:
        raise SyntaxError(t.line, t.col, f"a number below 2**{most.bit_length()}",
                          found=f"a {value.bit_length()}-bit number")
    return value


def _height(e: ast.Node) -> int:
    """Levels of an expression tree, counted without recursion."""
    height = 0
    stack = [(e, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        if isinstance(node, ast.Binary):
            stack += ((node.left, level + 1), (node.right, level + 1))
        elif isinstance(node, ast.Unary):
            stack.append((node.operand, level + 1))
        elif isinstance(node, ast.Index):
            stack.append((node.key, level + 1))
    return height


def _respan(node: ast.Node, span: tuple[int, int]) -> ast.Node:
    import dataclasses
    return dataclasses.replace(node, span=span)


def parse(source: str) -> ast.Contract:
    return _Parser(source).contract()


# ------------------------------------------------------------------ resolution

class _Resolver:
    def __init__(self, source: str, contract: ast.Contract):
        self.source = source
        self.contract = contract

    def where(self, node: ast.Node) -> tuple[int, int]:
        """Line and column of a node; only asked for an error, so the
        newlines are counted then, not for every contract loaded."""
        pos = node.span[0]
        line_start = self.source.rfind("\n", 0, pos) + 1
        return self.source.count("\n", 0, pos) + 1, pos - line_start + 1

    def fail(self, node: ast.Node, message: str):
        line, col = self.where(node)
        raise ResolutionError(line, col, message)

    def run(self) -> None:
        c = self.contract
        seen: set[str] = set()
        for group in (c.events, c.state, c.functions):
            for decl in group:
                if decl.name in seen:
                    self.fail(decl, f"duplicate declaration of '{decl.name}'")
                seen.add(decl.name)
        for fn in c.functions:
            self.function(fn)

    def function(self, fn: ast.Function) -> None:
        scope: dict[str, str] = {}
        for p in fn.params:
            if p.name in scope:
                self.fail(p, f"duplicate parameter '{p.name}'")
            scope[p.name] = p.type
        self.body(fn, fn.body, scope)

    def body(self, fn: ast.Function, stmts, scope: dict[str, str]) -> None:
        for s in stmts:
            self.stmt(fn, s, scope)

    def stmt(self, fn: ast.Function, s: ast.Node, scope: dict[str, str]) -> None:
        c = self.contract
        if isinstance(s, ast.Require):
            self.typed(s.cond, scope, "bool", "condition")
        elif isinstance(s, ast.Emit):
            ev = c.event(s.event)
            if ev is None:
                self.fail(s, f"unknown event '{s.event}'")
            if len(s.args) != len(ev.params):
                self.fail(s, f"event '{s.event}' takes {len(ev.params)} "
                             f"argument(s), got {len(s.args)}")
            for a, p in zip(s.args, ev.params):
                self.typed(a, scope, p.type, f"value for '{p.name}'")
        elif isinstance(s, ast.If):
            self.typed(s.cond, scope, "bool", "condition")
            # branch scopes fork: locals declared inside do not escape
            self.body(fn, s.then, dict(scope))
            self.body(fn, s.orelse, dict(scope))
        elif isinstance(s, ast.LocalDecl):
            self.typed(s.value, scope, s.type, f"value for '{s.name}'")
            if s.name in scope or c.state_var(s.name):
                self.fail(s, f"'{s.name}' is already declared")
            scope[s.name] = s.type
        elif isinstance(s, ast.Assign):
            value = self.expr(s.value, scope)
            if s.target in scope:
                self.check(s.value, value, scope[s.target], f"value for '{s.target}'")
                return
            sv = c.state_var(s.target)
            if sv is None:
                self.fail(s, f"unknown name '{s.target}'")
            if sv.is_mapping:
                self.fail(s, f"mapping '{s.target}' needs a key")
            self.check(s.value, value, sv.type, f"value for '{s.target}'")
        elif isinstance(s, ast.MapWrite):
            sv = c.state_var(s.target)
            if sv is None or not sv.is_mapping:
                self.fail(s, f"'{s.target}' is not a mapping")
            self.typed(s.key, scope, sv.key_type, f"key of '{s.target}'")
            self.typed(s.value, scope, sv.type, f"value for '{s.target}'")
        elif isinstance(s, ast.CallStmt):
            if scope.get(s.result) != "bool":
                self.fail(s, f"call result '{s.result}' must be a bool local")
            self.expr(s.target, scope)
        elif isinstance(s, ast.InternalCall):
            callee = c.function(s.name)
            if callee is None:
                self.fail(s, f"unknown function '{s.name}'")
            if callee.visibility != "internal":
                self.fail(s, f"'{s.name}' is not internal")
            if len(s.args) != len(callee.params):
                self.fail(s, f"'{s.name}' takes {len(callee.params)} "
                             f"argument(s), got {len(s.args)}")
            for a, p in zip(s.args, callee.params):
                self.typed(a, scope, p.type, f"value for '{p.name}'")
        elif isinstance(s, (ast.Revert, ast.Return)):
            if isinstance(s, ast.Return) and s.value is not None:
                self.expr(s.value, scope)
        else:
            raise TypeError(f"unexpected statement {type(s).__name__}")

    def check(self, e: ast.Node, got: str, want: str, what: str) -> None:
        """Bool and non-bool values do not mix, as in Solidity."""
        if (got == "bool") != (want == "bool"):
            line, col = self.where(e)
            raise SyntaxError(line, col, f"a {'' if want == 'bool' else 'non-'}bool {what}",
                              found=got)

    def typed(self, e: ast.Node, scope: dict[str, str], want: str, what: str) -> None:
        self.check(e, self.expr(e, scope), want, what)

    def expr(self, e: ast.Node, scope: dict[str, str]) -> str:
        """Resolve every name in `e` and return its type."""
        c = self.contract
        if isinstance(e, ast.BoolLit):
            return "bool"
        if isinstance(e, (ast.Lit, ast.MsgValue)):
            return "uint256"
        if isinstance(e, (ast.AddressLit, ast.MsgSender)):
            return "address"
        if isinstance(e, ast.Name):
            if e.ident in scope:
                return scope[e.ident]
            sv = c.state_var(e.ident)
            if sv is None:
                self.fail(e, f"unknown name '{e.ident}'")
            if sv.is_mapping:
                self.fail(e, f"mapping '{e.ident}' needs a key")
            return sv.type
        if isinstance(e, ast.Index):
            sv = c.state_var(e.ident)
            if sv is None or not sv.is_mapping:
                self.fail(e, f"'{e.ident}' is not a mapping")
            self.typed(e.key, scope, sv.key_type, f"key of '{e.ident}'")
            return sv.type
        if isinstance(e, ast.Unary):
            self.typed(e.operand, scope, "bool", "operand of '!'")
            return "bool"
        if isinstance(e, ast.Binary):
            if e.op == "*" and not (
                isinstance(e.left, ast.Lit) or isinstance(e.right, ast.Lit)
            ):
                self.fail(e, "multiplication requires a literal operand")
            left = self.expr(e.left, scope)
            # == and != compare like with like; + - * < <= > >= take numbers
            want = {"&&": "bool", "||": "bool", "==": left, "!=": left}.get(e.op, "uint256")
            self.check(e.left, left, want, f"operand of '{e.op}'")
            self.typed(e.right, scope, want, f"operand of '{e.op}'")
            return "uint256" if e.op in ("+", "-", "*") else "bool"
        raise TypeError(f"unexpected expression {type(e).__name__}")


def load(source: str) -> ast.Contract:
    """Parse and resolve; the result is safe to execute symbolically."""
    contract = parse(source)
    _Resolver(source, contract).run()
    return contract
