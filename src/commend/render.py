"""Canonical polynomial rendering.

The output conforms to the CLI expression grammar, so
parse_poly(render_poly(p, n), n) == p for p over Q(zeta_n).  Cyclotomic
coefficients are written in the power basis of the session's zeta_n and
distributed into separate w^k terms; monomials are emitted in descending
graded-lex order.
"""

from __future__ import annotations

from math import lcm


def _expanded_terms(p, order):
    """Yield (exps, w_power, rational) triples for every printed term."""
    from .mpoly import MPoly
    keyed = sorted(p.terms.items(), key=lambda kv: MPoly._grlex_key(kv[0]),
                   reverse=True)
    for exps, coef in keyed:
        for j, q in enumerate(coef.lift(order)[1]):
            if q != 0:
                yield exps, j, q


def render_poly(p, order: int = 1) -> str:
    """Render p; `w` is zeta_m, m = lcm(session order, p.field_order())."""
    if p.is_zero():
        return "0"
    pieces = []
    for exps, wpow, q in _expanded_terms(p, lcm(order, p.field_order())):
        factors = []
        if wpow:
            factors.append("w" if wpow == 1 else f"w^{wpow}")
        for name, e in zip(p.vars, exps):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        mag = abs(q)
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        pieces.append((q < 0, body))
    out = ("-" if pieces[0][0] else "") + pieces[0][1]
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out
