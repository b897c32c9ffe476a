"""Recursive-descent parser for field expressions.

Grammar (standard precedence, ^ right-associative above * / above + -,
unary minus supported):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := ('-' | '+') unary | power
    power   := atom ('^' unary)?
    atom    := NUMBER | 'pi' | 'x' | 'y' | 'z'
             | FUNC '(' expr (',' expr)* ')'
             | '(' expr ')'

Variables are the point coordinates; on a circle x is the angle in [0, 2pi).
Error messages carry the byte offset and the expected-token set. Nesting past
the recursion limit, in parsing or evaluation, is an ExprError too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VARIABLES = ("x", "y", "z")
FUNCTIONS = {
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "exp": (1, np.exp),
    "abs": (1, np.abs),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}

__all__ = ["FieldExpr", "ExprError", "parse_field_expr", "Num", "Var", "Neg", "BinOp", "Call"]


class ExprError(ValueError):
    """Syntax error or unknown identifier, with byte offset."""

    def __init__(self, offset: int, message: str) -> None:
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "FieldExpr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "FieldExpr"
    right: "FieldExpr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["FieldExpr", ...]


Node = Num | Var | Neg | BinOp | Call


SINGLE_CHAR_TOKENS = {**dict.fromkeys("+-*/^", "op"), "(": "lparen", ")": "rparen", ",": "comma"}


@dataclass(frozen=True)
class Token:
    kind: str  # num | name | op | lparen | rparen | comma | end
    text: str
    offset: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in SINGLE_CHAR_TOKENS:
            tokens.append(Token(SINGLE_CHAR_TOKENS[ch], ch, i))
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            try:
                float(lexeme)
            except ValueError:
                raise ExprError(i, f"malformed number {lexeme!r}") from None
            tokens.append(Token("num", lexeme, i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], i))
            i = j
        else:
            raise ExprError(i, f"unexpected character {ch!r}")
    tokens.append(Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, expected: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprError(tok.offset, f"expected {expected}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def parse(self) -> Node:
        try:
            node = self.expr()
        except RecursionError:
            raise ExprError(self.peek().offset, "expression is nested too deeply") from None
        tok = self.peek()
        if tok.kind != "end":
            raise ExprError(tok.offset, f"unexpected trailing input {tok.text!r}")
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            operand = self.unary()
            return operand if tok.text == "+" else Neg(operand)
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return BinOp("^", node, self.unary())
        return node

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "lparen":
            self.advance()
            node = self.expr()
            self.expect("rparen", "')'")
            return node
        if tok.kind == "name":
            self.advance()
            name = tok.text
            if name == "pi":
                return Num(math.pi)
            if name in FUNCTIONS:
                arity, _ = FUNCTIONS[name]
                self.expect("lparen", f"'(' after {name}")
                args = [self.expr()]
                while self.peek().kind == "comma":
                    self.advance()
                    args.append(self.expr())
                self.expect("rparen", "')'")
                if len(args) != arity:
                    raise ExprError(tok.offset, f"{name} takes {arity} argument(s), got {len(args)}")
                return Call(name, tuple(args))
            if name in VARIABLES:
                return Var(name)
            raise ExprError(tok.offset, f"unknown identifier {name!r}")
        raise ExprError(
            tok.offset,
            f"expected a number, name, or '(', found {tok.text or 'end of input'!r}",
        )


def _evaluate(node: Node, env: dict[str, np.ndarray | float]):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name not in env:
            raise ExprError(0, f"variable {node.name!r} is not available on this space")
        return env[node.name]
    if isinstance(node, Neg):
        return -_evaluate(node.operand, env)
    if isinstance(node, Call):
        _, fn = FUNCTIONS[node.func]
        return fn(*(_evaluate(a, env) for a in node.args))
    left = _evaluate(node.left, env)
    right = _evaluate(node.right, env)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return np.divide(left, right)
        return np.power(left, right)


class FieldExpr:
    """Parsed expression over point coordinates."""

    def __init__(self, root: Node) -> None:
        self.root = root

    def evaluate(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at an (n, dim) coordinate array."""
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        env = {name: coords[:, k] for k, name in enumerate(VARIABLES) if k < coords.shape[1]}
        try:
            result = _evaluate(self.root, env)
        except RecursionError:
            raise ExprError(0, "expression is nested too deeply to evaluate") from None
        return np.broadcast_to(np.asarray(result, dtype=float), (coords.shape[0],)).copy()


def parse_field_expr(text: str) -> FieldExpr:
    """Parse an expression; raises ExprError with a byte offset on failure."""
    if not text.strip():
        raise ExprError(0, "empty expression")
    return FieldExpr(_Parser(_tokenize(text)).parse())
