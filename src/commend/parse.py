"""Polynomial expression parser for the CLI grammar.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := rational | 'w' ('^' nat)? | var ('^' nat)?
    rational := int ('/' nat)?
    var ∈ {z1, z2, x, y, s, t, e1, e2}

Whitespace insensitive.  'w' is the primitive N-th root of unity of the
session; using it with N == 1 is an error.

One pass, no polynomial arithmetic: each term's coefficient and exponent
tuple (over ALLOWED_VARS) are read off its factors, like terms are added in
one dict, and `MPoly.make` canonicalises that dict once.  The text is
tokenized once.  A ParseError carries the offset of the token it names,
counted from the start of the expression (of the component, in a map
literal).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, RootOfUnityUndefined, UnknownVariable
from .field import Coefficient
from .mpoly import MPoly

ALLOWED_VARS = ("z1", "z2", "x", "y", "s", "t", "e1", "e2")


class _Tokenizer:
    """The tokens of `text`, scanned once into (token, offset) pairs that
    end with (None, len(text)).  A character outside the grammar ends the
    scan as ("bad", ch); `peek` and `take` raise on it, so the error comes
    only when the parser reaches it."""

    def __init__(self, text: str):
        toks, i, n = [], 0, len(text)
        while True:
            while i < n and text[i].isspace():
                i += 1
            if i == n:
                toks.append((None, n))
                break
            ch, j = text[i], i + 1
            if ch.isdigit():
                while j < n and text[j].isdigit():
                    j += 1
                tok = ("int", text[i:j])
            elif ch.isalpha():
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tok = ("name", text[i:j])
            elif ch in "+-*/^()":
                tok = ("op", ch)
            else:
                toks.append((("bad", ch), i))
                break
            toks.append((tok, i))
            i = j
        self.toks = toks
        self.at = 0

    def peek(self):
        tok, off = self.toks[self.at]
        if tok is not None and tok[0] == "bad":
            raise ParseError(f"unexpected character {tok[1]!r}", off)
        return tok, off

    def take(self):
        tok, off = self.peek()
        if tok is not None:
            self.at += 1
        return tok, off


def parse_poly(text: str, cyclotomic_order: int = 1) -> MPoly:
    tz = _Tokenizer(text)
    terms = {}

    def parse_nat() -> int:
        tok, off = tz.take()
        if tok is None or tok[0] != "int":
            raise ParseError("expected a number", off)
        return int(tok[1])

    def parse_factor(exps: list):
        """The factor's coefficient; a variable's power is added to exps."""
        tok, off = tz.take()
        if tok is None:
            raise ParseError("expected a factor", off)
        kind, val = tok
        if kind == "int":
            num = int(val)
            nxt, _ = tz.peek()
            if nxt == ("op", "/"):
                tz.take()
                den = parse_nat()
                if den == 0:
                    raise ParseError("zero denominator", off)
                return Fraction(num, den)
            return num
        if kind == "name":
            exp = 1
            nxt, _ = tz.peek()
            if nxt == ("op", "^"):
                tz.take()
                exp = parse_nat()
            if val == "w":
                if cyclotomic_order == 1:
                    raise RootOfUnityUndefined(
                        "'w' requires a session cyclotomic order > 1")
                return Coefficient.root_of_unity(cyclotomic_order, exp)
            if val not in ALLOWED_VARS:
                raise UnknownVariable(f"unknown variable {val!r}")
            exps[ALLOWED_VARS.index(val)] += exp
            return 1
        raise ParseError(f"unexpected token {val!r}", off)

    def parse_term(sign: int):
        """Add sign times the next product into `terms`."""
        exps = [0] * len(ALLOWED_VARS)
        coef = sign * parse_factor(exps)
        while True:
            nxt, _ = tz.peek()
            if nxt != ("op", "*"):
                break
            tz.take()
            coef = coef * parse_factor(exps)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coef

    nxt, _ = tz.peek()
    sign = 1
    if nxt == ("op", "-"):
        tz.take()
        sign = -1
    parse_term(sign)
    while True:
        nxt, off = tz.peek()
        if nxt is None:
            # ALLOWED_VARS is in MPoly's variable order, so the exponent
            # tuples need no reordering
            return MPoly.make(ALLOWED_VARS, terms)
        if nxt == ("op", "+"):
            tz.take()
            parse_term(1)
        elif nxt == ("op", "-"):
            tz.take()
            parse_term(-1)
        else:
            raise ParseError(f"unexpected token {nxt[1]!r}", off)


def parse_map_pair(text: str, cyclotomic_order: int = 1):
    """Parse a map literal "(p, q)" into a pair of polynomials."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError("map literal must look like (p, q)", 0)
    inner = text[1:-1]
    depth = 0
    split = None
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            split = i
            break
    if split is None:
        raise ParseError("map literal needs two comma-separated components", 0)
    return (parse_poly(inner[:split], cyclotomic_order),
            parse_poly(inner[split + 1:], cyclotomic_order))
