"""Command-line interface: exact polynomial I/O and structured JSON reports.

Exit codes: 0 affirmative/success, 1 negative verdict, 2 input error,
3 budget exceeded.  Reports carry every exact value as a canonical string;
wall time goes to stderr so report bytes stay reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from math import inf

from . import classify as _classify
from . import endo2, families, local, rat1
from .errors import (BudgetExceeded, CommendError, DegreeLimitExceeded,
                     ParseError)
from .field import Coefficient
from .mpoly import MPoly
from .parse import parse_map_pair, parse_poly
from .render import render_poly


class Session:
    def __init__(self, cyclotomic_order=1, degree_cap=endo2.DEFAULT_DEGREE_CAP):
        if cyclotomic_order < 1 or degree_cap < 1:
            raise ValueError("session parameters must be positive")
        self.cyclotomic_order = cyclotomic_order
        self.degree_cap = degree_cap


def _poly(session: Session, text: str) -> MPoly:
    return parse_poly(text, session.cyclotomic_order)


def _plane_map(session: Session, text: str) -> endo2.PlaneEndo:
    text = text.strip()
    if text.startswith("cheb:"):
        t = families.chebyshev(_integer(text[5:]), "monic")
        return endo2.PlaneEndo(t.rename({"x": "z1"}), t.rename({"x": "z2"}))
    if text.startswith("ex4:"):
        h = parse_poly(text[4:], session.cyclotomic_order)
        return families.ex4_descend(h)
    p, q = parse_map_pair(text, session.cyclotomic_order)
    return endo2.PlaneEndo(p, q)


def _line_map(session: Session, text: str) -> rat1.RatMap1:
    text = text.strip()
    if text.startswith("cheb:"):
        return rat1.RatMap1.from_polynomial(
            families.chebyshev(_integer(text[5:]), "monic"))
    if text.startswith("tcheb:"):
        return rat1.RatMap1.from_polynomial(
            families.chebyshev(_integer(text[6:]), "classical"))
    if text.startswith("lattes:"):
        values = text[7:].split(",")
        if len(values) != 3:
            raise ParseError("the lattes:a,b,n shorthand takes three "
                             f"comma-separated values, not {len(values)}", 0)
        a, b, n = values
        curve = families.EllipticCurveData(_constant(session, a),
                                           _constant(session, b))
        return families.elliptic_lattes(curve, _integer(n))
    if text.startswith("(") and text.endswith(")"):
        p, q = parse_map_pair(text, session.cyclotomic_order)
        return rat1.RatMap1(p, q)
    # a bare polynomial in one variable, of any name, denotes the polynomial
    # self-map
    p = parse_poly(text, session.cyclotomic_order)
    if len(p.vars) > 1:
        raise ParseError("a bare polynomial map takes one variable, not "
                         f"{', '.join(p.vars)}", 0)
    return rat1.RatMap1.from_polynomial(p.substitute(
        {v: MPoly.var("x") for v in p.vars}))


def _integer(text: str) -> int:
    """An integer written in a shorthand or list; ParseError otherwise."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, not {text.strip()!r}", 0)


def _constant(session: Session, text: str) -> Coefficient:
    p = parse_poly(text, session.cyclotomic_order)
    if not p.is_constant():
        raise ParseError("expected a constant expression", 0)
    return p.constant_value()


def _point1(session: Session, text: str):
    text = text.strip()
    if text == "inf":
        return rat1.POINT_INF
    return rat1.affine_point(_constant(session, text))


def _orbifold(session: Session, text: str) -> rat1.Orbifold1:
    marked = []
    for piece in text.split(","):
        where, _, weight = piece.rpartition(":")
        point = _point1(session, where)
        w = inf if weight.strip() == "inf" else _integer(weight)
        marked.append((point, w))
    return rat1.Orbifold1(tuple(marked))


def _fmt_poly(session: Session, p: MPoly) -> str:
    return render_poly(p, session.cyclotomic_order)


def _fmt_value(session: Session, v) -> str:
    """A coefficient or polynomial in the session's w; anything else by str."""
    if isinstance(v, Coefficient):
        v = MPoly.constant(v)
    return _fmt_poly(session, v) if isinstance(v, MPoly) else str(v)


def _fmt_map(session: Session, f: endo2.PlaneEndo) -> str:
    return f"({_fmt_poly(session, f.comp1)}, {_fmt_poly(session, f.comp2)})"


def _fmt_rat(session: Session, r: rat1.RatMap1) -> str:
    return f"[{_fmt_poly(session, r.formS)} : {_fmt_poly(session, r.formT)}]"


def _fmt_divisor(session: Session, div) -> list:
    return [{"factor": _fmt_poly(session, g), "multiplicity": m}
            for g, m in div.parts]


# ---------------------------------------------------------------------------
# Command handlers: each returns (exit_code, result_dict)
# ---------------------------------------------------------------------------


def _cmd_commute(session, args):
    f = _plane_map(session, args.f)
    g = _plane_map(session, args.g)
    ok = endo2.commutes(f, g)
    return (0 if ok else 1), {"commute": ok}


def _cmd_iterate(session, args):
    f = _plane_map(session, args.f)
    g = endo2.iterate(f, args.n, session.degree_cap)
    return 0, {"iterate": _fmt_map(session, g), "degree": g.degree}


def _cmd_extends(session, args):
    ok = endo2.extends_to_p2(_plane_map(session, args.f))
    return (0 if ok else 1), {"extends": ok}


def _cmd_infinity(session, args):
    r = endo2.restrict_infinity(_plane_map(session, args.f))
    tag = rat1.classify_infinity(r)
    return 0, {"restriction": _fmt_rat(session, r), "class": str(tag)}


def _cmd_critical(session, args):
    div = endo2.critical_divisor(_plane_map(session, args.f))
    return 0, {"factors": _fmt_divisor(session, div),
               "total_degree": div.total_degree()}


def _cmd_mult_on_curve(session, args):
    m = endo2.mult_on_curve(_plane_map(session, args.f),
                            _poly(session, args.curve))
    return 0, {"multiplicity": m}


def _cmd_chain_check(session, args):
    ok = endo2.check_critical_chain(_plane_map(session, args.f),
                                    _plane_map(session, args.g))
    return (0 if ok else 1), {"chain": ok}


def _cmd_invariant(session, args):
    ok = endo2.is_invariant_curve(_plane_map(session, args.f),
                                  _poly(session, args.curve))
    return (0 if ok else 1), {"invariant": ok}


def _cmd_total_invariant(session, args):
    ok = endo2.is_totally_invariant(_plane_map(session, args.f),
                                    _poly(session, args.curve))
    return (0 if ok else 1), {"totally_invariant": ok}


def _cmd_ramified_invariance(session, args):
    w = endo2.ramified_square_invariance(_plane_map(session, args.f),
                                         _poly(session, args.phi),
                                         session.cyclotomic_order)
    return 0, {"witness": _fmt_poly(session, w)}


def _cmd_image_curve(session, args):
    h = endo2.image_curve(_plane_map(session, args.f), _poly(session, args.curve))
    return 0, {"image": _fmt_poly(session, h)}


def _cmd_critical_orbit(session, args):
    report = endo2.critical_orbit_finite(_plane_map(session, args.f),
                                         _plane_map(session, args.g),
                                         bound=args.bound)
    components = []
    for comp, entry in report.per_component.items():
        components.append({
            "component": _fmt_poly(session, comp),
            "distinct_curves": entry["distinct_curves"],
            "witness": [list(k) for k in entry["witness"]]
            if entry["witness"] is not None else None,
        })
    return (0 if report.resolved else 1), {"resolved": report.resolved,
                                           "components": components}


def _cmd_invariant_lines(session, args):
    rep = endo2.invariant_lines(_plane_map(session, args.f))
    return 0, {
        "lines": [{"line": _fmt_poly(session, line), "totally_invariant": tot}
                  for line, tot in rep.affine_lines],
        "includes_infinity": rep.includes_infinity,
    }


def _cmd_intersection_mult(session, args):
    m = local.intersection_mult(_poly(session, args.g1), _poly(session, args.g2))
    return 0, {"multiplicity": m}


def _cmd_local_degree(session, args):
    f = _plane_map(session, args.f)
    pt = (0, 0)
    if args.point:
        a, b = args.point.split(",")
        pt = (_constant(session, a), _constant(session, b))
    frame = local.LocalFrame.at(f, pt)
    return 0, {"local_degree": local.local_degree(frame)}


def _cmd_lemma3(session, args):
    ok = local.verify_lemma3(_plane_map(session, args.f))
    return (0 if ok else 1), {"verified": ok}


def _cmd_lemma4(session, args):
    ok = local.verify_lemma4(_plane_map(session, args.f),
                             _poly(session, args.curve))
    return (0 if ok else 1), {"verified": ok}


def _cmd_newton_alpha(session, args):
    h = _poly(session, args.h)
    result = {"alpha": str(local.alpha_exponent(h))}
    if args.alpha is not None:
        a = Fraction(args.alpha)
        result["d_alpha"] = str(local.d_alpha(h, a))
        result["quasi_part"] = _fmt_poly(session, local.quasi_part(h, a))
    return 0, result


def _cmd_prop2_reduce(session, args):
    fr1 = local.LocalFrame.at(_plane_map(session, args.f), (0, 0))
    fr2 = local.LocalFrame.at(_plane_map(session, args.g), (0, 0))
    alpha, p1, p2, case = local.prop2_reduce(fr1, fr2)
    return 0, {"alpha": str(alpha), "P1": _fmt_poly(session, p1),
               "P2": _fmt_poly(session, p2), "case": case}


def _cmd_orbifold_cover(session, args):
    r = _line_map(session, args.map)
    o = _orbifold(session, args.orbifold)
    ok = rat1.is_orbifold_selfcover(r, o)
    return (0 if ok else 1), {"selfcover": ok}


def _cmd_parabolic(session, args):
    ok = rat1.parabolic_check(_orbifold(session, args.orbifold))
    return (0 if ok else 1), {"parabolic": ok}


def _cmd_portrait(session, args):
    r = _line_map(session, args.map)
    o = _orbifold(session, args.orbifold)
    pt = rat1.portrait(r, o)
    fibers = []
    for marked, unmarked in pt.fibers:
        fibers.append({"marked": [list(mm) for mm in marked],
                       "unmarked": [list(uu) for uu in unmarked]})
    return 0, {"case": pt.case, "images": list(pt.images), "fibers": fibers}


def _cmd_classify_p1(session, args):
    tag = rat1.classify_infinity(_line_map(session, args.map))
    return (0 if tag.tag != "Unknown" else 1), {"class": str(tag)}


def _cmd_construct(session, args):
    fam = args.family
    if fam == "ex1":
        f1, f2 = families.ex1(args.d1, args.d2, _constant(session, args.lam),
                              (args.sign1, args.sign2))
        return 0, {"f1": _fmt_map(session, f1), "f2": _fmt_map(session, f2)}
    if fam == "ex2":
        f = families.ex2(args.d1, args.variant, (args.sign1, args.sign2))
        return 0, {"map": _fmt_map(session, f)}
    if fam == "ex3":
        r1 = _line_map(session, args.f)
        r2 = _line_map(session, args.g)
        lam1 = _constant(session, args.lam) if args.lam else None
        f1, f2 = families.ex3_lift(r1, r2, lam1, None)
        return 0, {"f1": _fmt_map(session, f1), "f2": _fmt_map(session, f2)}
    if fam == "ex4":
        f = families.ex4_descend(_poly(session, args.h))
        return 0, {"map": _fmt_map(session, f)}
    raise ParseError(f"unknown family {fam!r}", 0)


def _cmd_sym_reduce(session, args):
    u = families.sym_reduce(_poly(session, args.poly))
    return 0, {"reduced": _fmt_poly(session, u)}


def _cmd_lattes(session, args):
    curve = families.EllipticCurveData(_constant(session, args.a),
                                       _constant(session, args.b))
    r = families.elliptic_lattes(curve, args.n)
    return 0, {"map": _fmt_rat(session, r), "degree": r.degree}


def _cmd_classify(session, args):
    f = _plane_map(session, args.f)
    g = _plane_map(session, args.g)
    verdict = _classify.recognize(f, g, session.degree_cap)
    fmt = functools.partial(_fmt_value, session)
    data = {"tag": verdict.tag,
            "params": verdict.params.render(fmt) if verdict.params else None,
            "degree_cap": verdict.degree_cap}
    if verdict.conjugation is not None:
        conj = verdict.conjugation
        data["conjugation"] = {
            "linear": [[fmt(c) for c in row] for row in conj.linear],
            "translation": [fmt(t) for t in conj.translation]}
    return (0 if verdict.tag != "Unknown" else 1), data


def _cmd_search(session, args):
    degrees = tuple(_integer(x) for x in args.degrees.split(","))
    text = args.coeffs.strip()
    if ".." in text:
        lo, hi = text.split("..")
        coeffs = range(_integer(lo), _integer(hi) + 1)
    else:
        coeffs = [_integer(x) for x in text.split(",")]
    summary = _classify.search(degrees, coeffs,
                               degree_cap=session.degree_cap,
                               pair_budget=args.pair_budget)
    return 0, summary.as_dict()


def _cmd_disjoint(session, args):
    ok = _classify.disjoint_iterates(_plane_map(session, args.f),
                                     _plane_map(session, args.g),
                                     session.degree_cap)
    return (0 if ok else 1), {"disjoint": ok, "degree_cap": session.degree_cap}


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by later calls."""
    # SUPPRESS keeps subparser defaults from clobbering flags given before
    # the subcommand; main() fills in the real defaults.
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    shared.add_argument("--cyclotomic", type=int, metavar="N",
                        help="session root-of-unity order for 'w'")
    shared.add_argument("--degree-cap", type=int,
                        metavar="K", help="iterate/certificate degree cap")
    shared.add_argument("--json", metavar="PATH",
                        help="also write the report to this file")
    top = argparse.ArgumentParser(
        prog="commend", parents=[shared],
        description="Exact arithmetic for commuting plane polynomial maps.")
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, handler, **arguments):
        p = sub.add_parser(name, parents=[shared])
        for arg, opts in arguments.items():
            p.add_argument("--" + arg.replace("_", "-"), **opts)
        p.set_defaults(handler=handler)
        return p

    MAP = {"required": True}
    POLY = {"required": True}
    cmd("commute", _cmd_commute, f=MAP, g=MAP)
    cmd("iterate", _cmd_iterate, f=MAP, n={"type": int, "required": True})
    cmd("extends", _cmd_extends, f=MAP)
    cmd("infinity", _cmd_infinity, f=MAP)
    cmd("critical", _cmd_critical, f=MAP)
    cmd("mult-on-curve", _cmd_mult_on_curve, f=MAP, curve=POLY)
    cmd("chain-check", _cmd_chain_check, f=MAP, g=MAP)
    cmd("invariant", _cmd_invariant, f=MAP, curve=POLY)
    cmd("total-invariant", _cmd_total_invariant, f=MAP, curve=POLY)
    cmd("ramified-invariance", _cmd_ramified_invariance, f=MAP, phi=POLY)
    cmd("image-curve", _cmd_image_curve, f=MAP, curve=POLY)
    cmd("critical-orbit", _cmd_critical_orbit, f=MAP, g=MAP,
        bound={"type": int, "default": 6})
    cmd("invariant-lines", _cmd_invariant_lines, f=MAP)
    cmd("intersection-mult", _cmd_intersection_mult, g1=POLY, g2=POLY)
    cmd("local-degree", _cmd_local_degree, f=MAP, point={"default": None})
    cmd("lemma3", _cmd_lemma3, f=MAP)
    cmd("lemma4", _cmd_lemma4, f=MAP, curve=POLY)
    cmd("newton-alpha", _cmd_newton_alpha, h=POLY, alpha={"default": None})
    cmd("prop2-reduce", _cmd_prop2_reduce, f=MAP, g=MAP)
    cmd("orbifold-cover", _cmd_orbifold_cover, map=MAP, orbifold=POLY)
    cmd("parabolic", _cmd_parabolic, orbifold=POLY)
    cmd("portrait", _cmd_portrait, map=MAP, orbifold=POLY)
    cmd("classify-p1", _cmd_classify_p1, map=MAP)
    cmd("construct", _cmd_construct,
        family={"required": True},
        d1={"type": int, "default": 2}, d2={"type": int, "default": 3},
        lam={"default": None}, variant={"default": "straight"},
        sign1={"type": int, "default": 1}, sign2={"type": int, "default": 1},
        f={"default": None}, g={"default": None}, h={"default": None})
    cmd("sym-reduce", _cmd_sym_reduce, poly=POLY)
    cmd("lattes", _cmd_lattes, a=POLY, b=POLY, n={"type": int, "required": True})
    cmd("classify", _cmd_classify, f=MAP, g=MAP)
    cmd("search", _cmd_search, degrees={"required": True},
        coeffs={"required": True},
        pair_budget={"type": int, "default": None})
    cmd("disjoint", _cmd_disjoint, f=MAP, g=MAP)
    return top


def _attach_values(argv) -> list:
    """argv (sys.argv[1:] for None) with each value that begins with '-'
    attached to its option as `--name=value`: argparse reads a separate one
    as an option.  Every `--name` option but `--help` takes one value."""
    out = []
    for item in sys.argv[1:] if argv is None else argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and out[-1] != "--help" and item.startswith("-")
                and not item.startswith("--") and item != "-h"):
            out[-1] += "=" + item
        else:
            out.append(item)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_values(argv))
    cyclotomic = getattr(args, "cyclotomic", 1)
    degree_cap = getattr(args, "degree_cap", endo2.DEFAULT_DEGREE_CAP)
    json_path = getattr(args, "json", None)
    try:
        session = Session(cyclotomic, degree_cap)
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stdout)
        return 2
    started = time.monotonic()
    try:
        code, result = args.handler(session, args)
        report = {"command": args.command, "result": result}
    except (BudgetExceeded, DegreeLimitExceeded) as exc:
        report = {"command": args.command, "error": str(exc)}
        if isinstance(exc, BudgetExceeded) and exc.partial is not None:
            report["partial"] = exc.partial.as_dict()
        code = 3
    except (CommendError, ValueError, ZeroDivisionError) as exc:
        report = {"command": args.command, "error": str(exc),
                  "kind": type(exc).__name__}
        code = 2
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(f"wall_time_s={time.monotonic() - started:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
