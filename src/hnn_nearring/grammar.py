"""Expression grammar and canonical rendering for tower elements.

    expr   := term (('+' | '-') term)*
    term   := INT | 'pi' '(' NAT ')' | 'om' '(' NAT ')'
            | 't' '[' expr ',' expr ']' | '-' term | INT '*' term | '(' expr ')'

``INT * term`` is the group scalar multiple (repeated addition), not the
nearring product.  Rendering is deterministic and canonical: parsing a
rendered element elaborates back to the identical canonical value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple, Union

from .word_core import (
    ZERO,
    Element,
    EngineError,
    IntChunk,
    Seq,
    Variant,
    WordChunk,
    WrongVariant,
    _basis_runs,
    add,
    make_int,
    make_omega,
    make_pi,
    make_stable,
    neg,
    scale,
)

__all__ = [
    "ExprSyntaxError",
    "LetterAtom",
    "Neg",
    "Num",
    "OmAtom",
    "PiAtom",
    "Scalar",
    "Sum",
    "elaborate",
    "parse_element",
    "parse_expr",
    "render",
]


class ExprSyntaxError(EngineError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class PiAtom:
    index: int


@dataclass(frozen=True)
class OmAtom:
    index: int


@dataclass(frozen=True)
class LetterAtom:
    alpha: "Node"
    beta: "Node"


@dataclass(frozen=True)
class Neg:
    term: "Node"


@dataclass(frozen=True)
class Scalar:
    factor: int
    term: "Node"


@dataclass(frozen=True)
class Sum:
    head: "Node"
    tail: Tuple[Tuple[str, "Node"], ...]  # ('+' | '-', term)


Node = Union[Num, PiAtom, OmAtom, LetterAtom, Neg, Scalar, Sum]


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([+\-*,()\[\]]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {text[at]!r}", at)
        if m.group(1) is not None:
            tokens.append(("NAT", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("NAME", m.group(2), m.start(2)))
        else:
            tokens.append((m.group(3), m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("END", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variant: Variant):
        self.text = text
        self.variant = variant
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind}, found {tok[0]}", tok[2])
        self.i += 1
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self) -> Node:
        head = self.term()
        tail = []
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            tail.append((op, self.term()))
        if not tail:
            return head
        return Sum(head, tuple(tail))

    def term(self) -> Node:
        kind, value, pos = self.peek()
        if kind == "-":
            self.take()
            if self.peek()[0] == "NAT":
                return self._number(-self.take()[1], pos)
            return Neg(self.term())
        if kind == "NAT":
            self.take()
            return self._number(value, pos)
        if kind == "NAME":
            self.take()
            if value == "pi":
                if self.variant is not Variant.B_FREE_BASE:
                    raise WrongVariant(
                        f"pi(...) is not available under variant {self.variant.value}")
                self.take("(")
                idx = self.take("NAT")[1]
                self.take(")")
                return PiAtom(idx)
            if value == "om":
                if self.variant is not Variant.C_INT_OMEGA_BASE:
                    raise WrongVariant(
                        f"om(...) is not available under variant {self.variant.value}")
                self.take("(")
                idx = self.take("NAT")[1]
                self.take(")")
                return OmAtom(idx)
            if value == "t":
                self.take("[")
                a = self.expr()
                self.take(",")
                b = self.expr()
                self.take("]")
                return LetterAtom(a, b)
            raise ExprSyntaxError(f"unknown name {value!r}", pos)
        if kind == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        raise ExprSyntaxError(f"expected a term, found {kind}", pos)

    def _number(self, n: int, pos: int) -> Node:
        if self.peek()[0] == "*":
            self.take()
            return Scalar(n, self.term())
        if self.variant is Variant.B_FREE_BASE and n != 0:
            raise WrongVariant("bare integers are not elements of the free-base tower")
        return Num(n)


def parse_expr(text: str, variant: Variant) -> Node:
    """Parse ``text`` under the grammar, validating variant-restricted
    atoms eagerly."""
    return _Parser(text, variant).parse()


def elaborate(node: Node, variant: Variant) -> Element:
    """Evaluate an AST into a canonical element."""
    if isinstance(node, Num):
        if node.value == 0:
            return ZERO
        return make_int(node.value, variant)
    if isinstance(node, PiAtom):
        return make_pi([node.index])
    if isinstance(node, OmAtom):
        return make_omega(node.index, 1)
    if isinstance(node, LetterAtom):
        return make_stable(elaborate(node.alpha, variant), elaborate(node.beta, variant), 1)
    if isinstance(node, Neg):
        return neg(elaborate(node.term, variant))
    if isinstance(node, Scalar):
        return scale(node.factor, elaborate(node.term, variant))
    if isinstance(node, Sum):
        out = elaborate(node.head, variant)
        for op, term in node.tail:
            piece = elaborate(term, variant)
            out = add(out, piece if op == "+" else neg(piece))
        return out
    raise EngineError(f"unknown AST node {node!r}")


def parse_element(text: str, variant: Variant) -> Element:
    return elaborate(parse_expr(text, variant), variant)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render(e: Element) -> str:
    """Deterministic canonical text in the grammar above; parsing it
    elaborates back to ``e``."""
    if e is ZERO:
        return "0"
    return " + ".join(_render_terms(e))


def _scalar_text(k: int, atom: str) -> str:
    if k == 1:
        return atom
    if k == -1:
        return "-" + atom
    return f"{k}*{atom}"


def _render_terms(e: Element) -> List[str]:
    if isinstance(e, IntChunk):
        return [str(e.n)]
    if isinstance(e, WordChunk):
        return [_scalar_text(k, f"pi({idx})") for idx, k in _basis_runs(e)]
    assert isinstance(e, Seq)
    parts: List[str] = []
    for it in e.items:
        if isinstance(it, Element):
            parts.extend(_render_terms(it))
        else:
            sign, lt = it
            body = f"t[{render(lt.alpha)},{render(lt.beta)}]"
            parts.append(body if sign > 0 else "-" + body)
    if e.omega:
        parts.append(_scalar_text(e.omega, f"om({e.level - 1})"))
    return parts
