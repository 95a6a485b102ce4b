"""The expression parser: every error path pinned by message and offset, and
the one-pass parser checked against the parser that multiplied one
polynomial per factor, kept here as the oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commend.errors import ParseError, RootOfUnityUndefined, UnknownVariable
from commend.field import Coefficient
from commend.mpoly import MPoly
from commend.parse import ALLOWED_VARS, parse_map_pair, parse_poly

# (call, text, order, error class, message with offset, offset)
ERROR_PINS = [
    (parse_poly, "x + $y", 1, ParseError,
     "unexpected character '$' (at offset 4)", 4),
    (parse_poly, "x^", 1, ParseError, "expected a number (at offset 2)", 2),
    (parse_poly, "x^y", 1, ParseError, "expected a number (at offset 2)", 2),
    (parse_poly, "3/ ", 1, ParseError, "expected a number (at offset 3)", 3),
    (parse_poly, "x + ", 1, ParseError, "expected a factor (at offset 4)", 4),
    (parse_poly, "2*x *", 1, ParseError, "expected a factor (at offset 5)", 5),
    (parse_poly, "x + 3/0", 1, ParseError, "zero denominator (at offset 4)", 4),
    (parse_poly, "x +* y", 1, ParseError,
     "unexpected token '*' (at offset 3)", 3),
    (parse_poly, "(x)", 1, ParseError, "unexpected token '(' (at offset 0)", 0),
    (parse_poly, "x y", 1, ParseError, "unexpected token 'y' (at offset 2)", 2),
    (parse_poly, "x^2^3", 1, ParseError,
     "unexpected token '^' (at offset 3)", 3),
    (parse_poly, "1e1", 1, ParseError, "unexpected token 'e1' (at offset 1)", 1),
    (parse_poly, "1.5", 1, ParseError,
     "unexpected character '.' (at offset 1)", 1),
    (parse_map_pair, "x, y", 1, ParseError,
     "map literal must look like (p, q) (at offset 0)", 0),
    (parse_map_pair, "(x + y)", 1, ParseError,
     "map literal needs two comma-separated components (at offset 0)", 0),
    # offsets inside a map literal count from the start of the component
    (parse_map_pair, "(x, y $)", 1, ParseError,
     "unexpected character '$' (at offset 3)", 3),
    (parse_poly, "q^2", 1, UnknownVariable, "unknown variable 'q'", None),
    (parse_poly, "2*z3", 3, UnknownVariable, "unknown variable 'z3'", None),
    (parse_poly, "w*x", 1, RootOfUnityUndefined,
     "'w' requires a session cyclotomic order > 1", None),
]


@pytest.mark.parametrize("call, text, order, error, message, offset",
                         ERROR_PINS)
def test_error_message_and_offset(call, text, order, error, message, offset):
    with pytest.raises(error) as info:
        call(text, order)
    assert type(info.value) is error
    assert str(info.value) == message
    if offset is not None:
        assert info.value.offset == offset


class _LazyTokenizer:
    """The tokenizer that rescans from its position on every peek."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None, self.pos
        ch = self.text[self.pos]
        if ch.isdigit():
            j = self.pos
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            return ("int", self.text[self.pos:j]), self.pos
        if ch.isalpha():
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum()
                                          or self.text[j] == "_"):
                j += 1
            return ("name", self.text[self.pos:j]), self.pos
        if ch in "+-*/^()":
            return ("op", ch), self.pos
        raise ParseError(f"unexpected character {ch!r}", self.pos)

    def take(self):
        tok, off = self.peek()
        if tok is not None:
            self.pos = off + len(tok[1])
        return tok, off


def oracle_parse_poly(text: str, cyclotomic_order: int = 1) -> MPoly:
    """The parser that builds one MPoly per factor and multiplies them, on
    the tokenizer that rescans on every peek."""
    tz = _LazyTokenizer(text)

    def parse_nat() -> int:
        tok, off = tz.take()
        if tok is None or tok[0] != "int":
            raise ParseError("expected a number", off)
        return int(tok[1])

    def parse_factor() -> MPoly:
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
                return MPoly.constant(Fraction(num, den))
            return MPoly.constant(num)
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
                return MPoly.constant(
                    Coefficient.root_of_unity(cyclotomic_order, exp))
            if val not in ALLOWED_VARS:
                raise UnknownVariable(f"unknown variable {val!r}")
            return MPoly.var(val, exp)
        raise ParseError(f"unexpected token {val!r}", off)

    def parse_term() -> MPoly:
        p = parse_factor()
        while True:
            nxt, _ = tz.peek()
            if nxt == ("op", "*"):
                tz.take()
                p = p * parse_factor()
            else:
                return p

    nxt, _ = tz.peek()
    sign = 1
    if nxt == ("op", "-"):
        tz.take()
        sign = -1
    p = parse_term().scale(sign)
    while True:
        nxt, off = tz.peek()
        if nxt is None:
            return p
        if nxt == ("op", "+"):
            tz.take()
            p = p + parse_term()
        elif nxt == ("op", "-"):
            tz.take()
            p = p - parse_term()
        else:
            raise ParseError(f"unexpected token {nxt[1]!r}", off)


_space = st.sampled_from(["", "", " ", "  ", "\t"])
_power = st.one_of(st.just(""), st.integers(0, 7).map(lambda k: f"^{k}"))


@st.composite
def _factor(draw, order):
    kind = draw(st.sampled_from(["int", "frac", "var", "var", "w"]
                                if order > 1 else ["int", "frac", "var"]))
    if kind == "int":
        return str(draw(st.integers(0, 40)))
    if kind == "frac":
        return f"{draw(st.integers(0, 40))}/{draw(st.integers(1, 12))}"
    if kind == "w":
        return "w" + draw(_power)
    return draw(st.sampled_from(ALLOWED_VARS)) + draw(_power)


@st.composite
def _expression(draw, order):
    """Text of a random expression: terms of up to four factors, with
    repeated variables, zero factors and whitespace between tokens."""
    def sp(token):
        return draw(_space) + token + draw(_space)

    terms = []
    for _ in range(draw(st.integers(1, 5))):
        factors = draw(st.lists(_factor(order), min_size=1, max_size=4))
        terms.append(sp("*").join(factors))
    text = draw(st.sampled_from(["", "-"])) + draw(_space) + terms[0]
    for term in terms[1:]:
        text += sp(draw(st.sampled_from(["+", "-"]))) + term
    return draw(_space) + text + draw(_space)


class TestOnePassParser:
    @pytest.mark.parametrize("text, order", [
        ("x*x^2*3", 1), ("x - x", 1), ("0*y + x", 1), ("x - x + 0", 1),
        ("w^3*x + w^4 - w", 3), ("-w^7*z1*z1 + 2/4*w^2", 4), ("0", 1),
        ("x^0*y^0 + 1", 1), ("1/2*s*t - t*s*1/2", 1), (" - z2 *\tz1 ", 1)])
    def test_pinned_inputs_match_the_oracle(self, text, order):
        got, want = parse_poly(text, order), oracle_parse_poly(text, order)
        assert (got.vars, got.terms) == (want.vars, want.terms)

    @given(st.sampled_from([1, 3, 4]).flatmap(
        lambda n: st.tuples(st.just(n), _expression(n))))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_oracle(self, case):
        order, text = case
        got, want = parse_poly(text, order), oracle_parse_poly(text, order)
        assert (got.vars, got.terms) == (want.vars, want.terms)

    @given(st.sampled_from([1, 3]),
           st.text(alphabet="xz12w0/ ^*+-()$.\t", max_size=14))
    @settings(max_examples=300, deadline=None)
    def test_any_text_gives_the_oracle_result_or_error(self, order, text):
        def outcome(parse):
            try:
                p = parse(text, order)
            except (ParseError, UnknownVariable, RootOfUnityUndefined) as exc:
                return type(exc), str(exc), getattr(exc, "offset", None)
            return p.vars, p.terms

        assert outcome(parse_poly) == outcome(oracle_parse_poly)

    def test_map_pair_matches_the_oracle(self):
        text = "(w*z1^2 - 2*z2 + z2, z2^2 - w^4*z1)"
        p, q = parse_map_pair(text, 3)
        assert (p, q) == (oracle_parse_poly("w*z1^2 - 2*z2 + z2", 3),
                          oracle_parse_poly(" z2^2 - w^4*z1", 3))
