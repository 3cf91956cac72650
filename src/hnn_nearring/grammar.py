"""Expression grammar and canonical rendering for tower elements.

    expr   := term (('+' | '-') term)*
    term   := INT | 'pi' '(' NAT ')' | 'om' '(' NAT ')'
            | 't' '[' expr ',' expr ']' | '-' term | INT '*' term | '(' expr ')'

``INT * term`` is the group scalar multiple (repeated addition), not the
nearring product.  The parser folds text straight into canonical
elements; no syntax tree is kept.  Rendering is deterministic and
canonical: parsing a rendered element gives back the identical value.
Both walk nested letters on explicit stacks, so nesting depth is not
bounded by Python's recursion limit, and rendering refuses text longer
than ``_RENDER_LIMIT``.  Integers longer than the interpreter's limit on
integer text (``sys.get_int_max_str_digits()``) are refused both ways:
a literal is a syntax error, a result an ``EngineError``.
"""

from __future__ import annotations

import re
import sys
from typing import List, Optional

from .word_core import (
    ZERO,
    Element,
    EngineError,
    IntChunk,
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

__all__ = ["ExprSyntaxError", "parse_element", "render"]


class ExprSyntaxError(EngineError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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
            try:
                value = int(m.group(1))
            except ValueError:  # longer than sys.get_int_max_str_digits()
                raise ExprSyntaxError(
                    f"integer literal longer than {sys.get_int_max_str_digits()} digits",
                    m.start(1)) from None
            tokens.append(("NAT", value, m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("NAME", m.group(2), m.start(2)))
        else:
            tokens.append((m.group(3), m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("END", None, len(text)))
    return tokens


def _expect(tok, kind: str):
    if tok[0] != kind:
        raise ExprSyntaxError(f"expected {kind}, found {tok[0]}", tok[2])
    return tok[1]


class _OpenSum:
    """A sum the parser is inside: the token that closes it, the terms
    folded so far, the sign of the next term, the prefixes read in front
    of that term (None for ``-``, the factor for ``INT *``) and, in the
    second subscript of ``t[a,b]``, the finished ``a``."""

    __slots__ = ("closer", "total", "sign", "prefixes", "alpha")

    def __init__(self, closer: str, alpha: Optional[Element] = None):
        self.closer = closer
        self.total = ZERO
        self.sign = 1
        self.prefixes: List[Optional[int]] = []
        self.alpha = alpha


def parse_element(text: str, variant: Variant) -> Element:
    """Parse ``text`` under the grammar above into its canonical element.

    One loop over the tokens with an explicit stack of open sums, so
    nesting costs no Python frames: ``(`` and ``t[`` open a sum, ``)``,
    ``,`` and ``]`` close one.  A finished term takes its prefixes,
    innermost first, and is folded into its sum left to right.
    Variant-restricted atoms are rejected as they are read."""
    tokens = _tokenize(text)
    i = 0
    top = _OpenSum("END")
    stack: List[_OpenSum] = []
    while True:
        kind, value, pos = tokens[i]
        i += 1
        if kind == "-":
            if tokens[i][0] != "NAT":
                top.prefixes.append(None)
                continue
            kind, value = "NAT", -tokens[i][1]
            i += 1
        if kind == "NAT":
            if tokens[i][0] == "*":
                i += 1
                top.prefixes.append(value)
                continue
            if variant is Variant.B_FREE_BASE and value != 0:
                raise WrongVariant("bare integers are not elements of the free-base tower")
            term = make_int(value, variant) if value else ZERO
        elif kind == "NAME" and value in ("pi", "om"):
            allowed = Variant.B_FREE_BASE if value == "pi" else Variant.C_INT_OMEGA_BASE
            if variant is not allowed:
                raise WrongVariant(
                    f"{value}(...) is not available under variant {variant.value}")
            _expect(tokens[i], "(")
            idx = _expect(tokens[i + 1], "NAT")
            _expect(tokens[i + 2], ")")
            i += 3
            term = make_pi([idx]) if value == "pi" else make_omega(idx, 1)
        elif kind == "NAME" and value == "t":
            _expect(tokens[i], "[")
            i += 1
            stack.append(top)
            top = _OpenSum(",")
            continue
        elif kind == "NAME":
            raise ExprSyntaxError(f"unknown name {value!r}", pos)
        elif kind == "(":
            stack.append(top)
            top = _OpenSum(")")
            continue
        else:
            raise ExprSyntaxError(f"expected a term, found {kind}", pos)
        # fold the finished term, then close every sum that ends after it
        while True:
            for factor in reversed(top.prefixes):
                term = neg(term) if factor is None else scale(factor, term)
            top.prefixes.clear()
            top.total = add(top.total, term if top.sign > 0 else neg(term))
            kind, value, pos = tokens[i]
            if kind in ("+", "-"):
                top.sign = 1 if kind == "+" else -1
                i += 1
                break
            if kind != top.closer:
                if top.closer == "END":
                    raise ExprSyntaxError(f"trailing input {value!r}", pos)
                raise ExprSyntaxError(f"expected {top.closer}, found {kind}", pos)
            if kind == "END":
                return top.total
            i += 1
            if kind == ",":
                top = _OpenSum("]", top.total)
                break
            term = top.total if kind == ")" else make_stable(top.alpha, top.total, 1)
            top = stack.pop()


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

#: longest text ``render`` emits; each letter level of a self-similar
#: tower doubles its text while the element stays a small shared DAG
_RENDER_LIMIT = 1_000_000


def render(e: Element) -> str:
    """Deterministic canonical text in the grammar above; parsing it
    gives back ``e``.

    An explicit stack stands in for recursion.  It holds literal text
    and the pieces still to expand: elements, whose terms join the
    current sum, and signed letters.  A sum's terms are separated by
    ``" + "`` at every level, so no piece needs to know its place."""
    if e is ZERO:
        return "0"
    out: List[str] = []
    length = 0
    todo: list = [e]
    while todo:
        x = todo.pop()
        if isinstance(x, str):
            text = x
        elif isinstance(x, tuple):  # a signed letter
            sign, lt = x
            todo += ("]", lt.beta, ",", lt.alpha)
            text = "t[" if sign > 0 else "-t["
        elif isinstance(x, IntChunk):
            text = _int_text(x.n)
        elif isinstance(x, WordChunk):
            text = " + ".join(_scalar_text(k, f"pi({_int_text(idx)})")
                              for idx, k in _basis_runs(x))
        else:  # a Seq
            parts = list(x.items)
            if x.omega:
                parts.append(_scalar_text(x.omega, f"om({_int_text(x.level - 1)})"))
            todo.append(parts.pop())
            while parts:
                todo += (" + ", parts.pop())
            continue
        out.append(text)
        length += len(text)
        if length > _RENDER_LIMIT:
            raise EngineError(f"refusing to render more than {_RENDER_LIMIT} characters")
    return "".join(out)


def _scalar_text(k: int, atom: str) -> str:
    if k == 1:
        return atom
    if k == -1:
        return "-" + atom
    return f"{_int_text(k)}*{atom}"


def _int_text(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # longer than sys.get_int_max_str_digits()
        raise EngineError(f"refusing to render an integer of more than "
                          f"{sys.get_int_max_str_digits()} digits") from None
