"""Golden stdout reports: the README commands, `classify` on the forty
criterion-10 pairs, the P^1 commands, the critical-curve commands, the
image curves of maps outside the families below, the portraits of Lattes
maps induced on quotients, a conjugated Ex3 pair with scalars other than 1,
larger search grids, the Lattes maps of the division-polynomial builder,
two non-square ramified invariances, a critical orbit whose critical part
splits into two lines, a Lattes self-cover whose marked points leave Q, a
ramified invariance over Q(i), option values that begin with '-' and an
iterate count far past the degree cap, run in-process through `cli.main`.

`tests/data/reports.txt` holds, for each command, a `$ commend ...` line and
the exact stdout bytes of the report.  Regenerate it (only when a report is
meant to change) with

    PYTHONPATH=src python3 tests/test_reports.py
"""

import contextlib
import io
import random
import shlex
from fractions import Fraction
from pathlib import Path

from commend.classify import AffineConj, affine_conjugate
from commend.cli import main
from commend.families import (EllipticCurveData, chebyshev, elliptic_lattes,
                               ex1, ex2, ex3_lift, ex4_descend)
from commend.mpoly import MPoly
from commend.parse import parse_poly
from commend.rat1 import RatMap1
from commend.render import render_poly

GOLDEN = Path(__file__).parent / "data" / "reports.txt"

README_COMMANDS = [
    ["commute", "--f", "(z1^2 - 2*z2, z2^2)", "--g", "(z1^3 - 3*z1*z2, z2^3)"],
    ["classify", "--f", "(z1^2 - 2*z2, z2^2)", "--g", "(z1^3 - 3*z1*z2, z2^3)"],
    ["orbifold-cover", "--map", "cheb:2", "--orbifold", "inf:inf,2:2,-2:2"],
    ["portrait", "--map", "lattes:-1,0,2", "--orbifold", "inf:2,0:2,1:2,-1:2"],
    ["search", "--degrees", "2,3", "--coeffs=-4..4"],
]

# the (2,3) grid over -10..10: 1 801 088 541 pairs, 343 solved partners;
# the (2,2) and (3,3) grids, whose solved partner is f itself; the (3,2)
# grid, 125 solved partners and 5 commuting pairs; a (2,3) grid without 0
SEARCH_COMMANDS = [
    ["search", "--degrees", "2,3", "--coeffs=-10..10"],
    ["search", "--degrees", "2,2", "--coeffs=-12..12"],
    ["search", "--degrees", "3,3", "--coeffs=-6..6"],
    ["search", "--degrees", "3,2", "--coeffs=-6..6"],
    ["search", "--degrees", "2,3", "--coeffs=1..6"],
]


# classify-p1, portrait and orbifold-cover: Lattes maps of degree 4 and 9 on
# y^2 = x^3 - x, (x + 3)(x - 1)(x - 2) and (x + 4)(x - 1)(x - 3), Chebyshev
# and power maps conjugated by Moebius maps, maps whose critical values
# leave the field (one has poles among its critical points), and maps over
# Q(zeta_3)
P1_COMMANDS = [
    ["classify-p1", "--map=lattes:-1,0,2"],
    ["classify-p1", "--map=lattes:-1,0,3"],
    ["classify-p1", "--map=lattes:-7,6,2"],
    ["classify-p1", "--map=lattes:-7,6,3"],
    ["classify-p1", "--map=lattes:-13,12,2"],
    ["portrait", "--map=lattes:-1,0,3", "--orbifold=inf:2,0:2,1:2,-1:2"],
    ["portrait", "--map=lattes:-7,6,2", "--orbifold=inf:2,-3:2,1:2,2:2"],
    ["portrait", "--map=lattes:-7,6,3", "--orbifold=inf:2,-3:2,1:2,2:2"],
    ["portrait", "--map=lattes:-13,12,2", "--orbifold=inf:2,-4:2,1:2,3:2"],
    ["orbifold-cover", "--map=lattes:-13,12,3",
     "--orbifold=inf:2,-4:2,1:2,3:2"],
    ["orbifold-cover", "--map=lattes:-7,6,2", "--orbifold=inf:2,-3:2,1:2"],
    ["classify-p1", "--map=(19*s^3 + 33*s^2*t + 18*s*t^2 + 3*t^3, "
     "-30*s^3 - 54*s^2*t - 30*s*t^2 - 5*t^3)"],
    ["classify-p1", "--map=(3*s^4 + 16*s^3*t + 28*s^2*t^2 + 16*s*t^3, "
     "-2*s^4 - 12*s^3*t - 22*s^2*t^2 - 12*s*t^3 + t^4)"],
    ["classify-p1", "--map=(s^3, 3*s^2*t + 3*s*t^2 + t^3)"],
    ["classify-p1", "--map=(15*s^4 + 28*s^3*t + 18*s^2*t^2 + 4*s*t^3, "
     "-14*s^4 - 24*s^3*t - 12*s^2*t^2 + t^4)"],
    ["orbifold-cover", "--map=(19*s^3 + 33*s^2*t + 18*s*t^2 + 3*t^3, "
     "-30*s^3 - 54*s^2*t - 30*s*t^2 - 5*t^3)",
     "--orbifold=-2:inf,-3:2,-5/3:2"],
    ["orbifold-cover", "--map=(s^4 - 12*s^2*t^2 - 24*s*t^3 - 14*t^4, "
     "4*s^3*t + 18*s^2*t^2 + 28*s*t^3 + 15*t^4)",
     "--orbifold=-1:inf,-1/2:inf"],
    ["classify-p1", "--map=tcheb:5"],
    ["classify-p1", "--map=x^3 - 2*x"],
    ["classify-p1", "--map=(t^2 + s^2, t^2 - 2*s*t)"],
    ["classify-p1", "--map=(t^4 - 4*s^2*t^2 + 4*s^4, s^3*t + s^4)"],
    ["--cyclotomic", "3", "classify-p1",
     "--map=x^3 + 3*w*x^2 + 3*w^2*x - 3*x - 4*w + 1"],
    ["--cyclotomic", "3", "classify-p1", "--map=w*x^3"],
    ["--cyclotomic", "3", "orbifold-cover", "--map=w*x^3",
     "--orbifold=inf:inf,0:inf"],
]


# the division-polynomial builder: lattes on y^2 = x^3 - x for n = 2..6, on a
# curve with non-integral a and b, and over Q(zeta_3); classify-p1 on the
# degree-25 map; a portrait on y^2 = (x - 1/2)(x - 1/3)(x + 5/6)
LATTES_COMMANDS = [
    *(["lattes", "--a", "-1", "--b", "0", "--n", str(k)] for k in range(2, 7)),
    ["lattes", "--a=1/2", "--b=-3/4", "--n", "3"],
    ["--cyclotomic", "3", "lattes", "--a", "w", "--b", "1", "--n", "3"],
    ["classify-p1", "--map=lattes:-1,0,5"],
    ["portrait", "--map=lattes:-19/36,5/36,2",
     "--orbifold=inf:2,1/2:2,1/3:2,-5/6:2"],
]


def lattes_on_power(a, b, n, k):
    """The map induced on u = x^k by multiplication by n on
    y^2 = x^3 + a*x + b, as a --map argument: the forms of x^k after the
    x-coordinate map, with every exponent divided by k."""
    r = elliptic_lattes(EllipticCurveData(a, b), n)
    forms = []
    for form in (r.formS, r.formT):
        terms = {}
        for e, c in (form**k).terms.items():
            exps = dict(zip(form.vars, e))
            i, j = exps.get("s", 0), exps.get("t", 0)
            if i % k or j % k:
                raise ValueError(f"[{n}] does not descend to x^{k}")
            terms[(i // k, j // k)] = c
        forms.append(render_poly(MPoly.make(("s", "t"), terms)))
    return f"({forms[0]}, {forms[1]})"


# The maps induced on u = y by [2], [-2] and [3] on y^2 = x^3 + 1 (their
# squares are x([n]P)^3 + 1 as functions of u^2 - 1)
Y_LATTES = {
    2: "(8*s*t^3, -27*s^4 + 18*s^2*t^2 + t^4)",
    -2: "(8*s*t^3, 27*s^4 - 18*s^2*t^2 - t^4)",
    3: "(-729*s^9 + 486*s^5*t^4 + 216*s^3*t^6 + 27*s*t^8, "
       "-2187*s^8*t + 3888*s^6*t^3 - 2430*s^4*t^5 + 216*s^2*t^7 + t^9)",
}

# Orbifolds of the quotients u = x^2 of y^2 = x^3 - x, u = x^3 and u = y of
# y^2 = x^3 + 1
ORB_244 = "inf:4,0:4,1:2"
ORB_236 = "inf:6,0:3,-1:2"
ORB_333 = "inf:3,1:3,-1:3"


def portrait_maps():
    """(map, orbifold, case) reaching ten of the eleven tabulated portraits
    and, on u = y, [2], which swaps the two finite marked points: no
    tabulated case."""
    return [
        ("lattes:-1,0,2", "inf:2,0:2,1:2,-1:2", "O4-even-all-to-one"),
        ("lattes:-1,0,3", "inf:2,0:2,1:2,-1:2", "O4-odd"),
        (lattes_on_power(-1, 0, 2, 2), ORB_244, "O3-all-to-one"),
        (lattes_on_power(-1, 0, 3, 2), ORB_244, "O3-fixed"),
        (lattes_on_power(0, 1, 2, 3), ORB_236, "O2-even-not-3"),
        (lattes_on_power(0, 1, 3, 3), ORB_236, "O2-div3-not-2"),
        (lattes_on_power(0, 1, 5, 3), ORB_236, "O2-fixed"),
        (lattes_on_power(0, 1, 6, 3), ORB_236, "O2-div6"),
        (Y_LATTES[-2], ORB_333, "O1-fixed"),
        (Y_LATTES[3], ORB_333, "O1-all-to-one"),
        (Y_LATTES[2], ORB_333, None),
    ]


def line_map(kind, d):
    """The power or the monic Chebyshev line map of degree d."""
    if kind == "power":
        return RatMap1(parse_poly(f"s^{d}"), parse_poly(f"t^{d}"))
    return RatMap1.from_polynomial(chebyshev(d, "monic"))


def ex3_scaled(kind, degrees, t):
    """The lift of the line maps of one kind and degrees (a, b) with the
    scalars t^(a-1) and t^(b-1)."""
    a, b = degrees
    return ex3_lift(line_map(kind, a), line_map(kind, b), t**(a - 1),
                    t**(b - 1))


def criterion_10_base():
    """The twenty (tag, f1, f2) base pairs of acceptance criterion 10."""
    x = MPoly.var("x")
    base = [("Ex1", *ex1(d1, d2, lam)) for d1, d2, lam in
            [(2, 3, 1), (3, 2, 1), (2, 5, 1), (4, 3, 1), (3, 5, -1),
             (5, 3, -1)]]
    base += [("Ex2", ex2(da, va), ex2(db, vb)) for (da, va), (db, vb) in
             [((2, "straight"), (3, "straight")),
              ((2, "straight"), (3, "swap")),
              ((3, "straight"), (5, "straight")),
              ((2, "swap"), (3, "swap"))]]
    base += [("Ex3", *ex3_lift(line_map("power", a), line_map("power", b)))
             for a, b in [(2, 3), (2, 5), (3, 4), (3, 5)]]
    base += [("Ex4", ex4_descend(h1), ex4_descend(h2)) for h1, h2 in
             [(x**2, x**3), (x**2, x**5), (x**3, x**4),
              (chebyshev(2, "monic"), chebyshev(3, "monic")),
              (chebyshev(2, "monic"), chebyshev(5, "monic")),
              (chebyshev(3, "monic"), chebyshev(4, "monic"))]]
    return base


def criterion_10_pairs():
    """The base pairs and their twenty (anti)diagonal conjugates, in the
    order and with the draws of criterion 10."""
    base = [(f1, f2) for _tag, f1, f2 in criterion_10_base()]
    rng = random.Random(7)
    conjs = [AffineConj.diagonal(1, -1), AffineConj.diagonal(-1, 1),
             AffineConj.diagonal(-1, -1), AffineConj.antidiagonal(1, 1),
             AffineConj.antidiagonal(-1, -1), AffineConj.identity()]
    pairs = list(base)
    for f1, f2 in base:
        s = rng.choice(conjs)
        pairs.append((affine_conjugate(f1, s), affine_conjugate(f2, s)))
    return pairs


def ex3_scaled_command():
    """classify on the scalar lift, with scalars 2 and 4, of the monic
    Chebyshev line maps of degrees 2 and 3, moved by a diagonal scale and a
    shift."""
    s = AffineConj.diagonal(2, -3, (1, Fraction(-1, 2)))
    f1, f2 = (affine_conjugate(f, s)
              for f in ex3_scaled("chebyshev", (2, 3), 2))
    return ["classify", "--f", f"({f1.comp1}, {f1.comp2})",
            "--g", f"({f2.comp1}, {f2.comp2})"]


def critical_layer_pairs():
    """One pair of each family, moved by an affine conjugation with a
    translation, for the critical-curve commands."""
    base = [ex1(2, 3, 1),
            (ex2(2, "straight"), ex2(3, "straight")),
            ex3_lift(line_map("power", 2), line_map("power", 3)),
            (ex4_descend(MPoly.var("x")**2), ex4_descend(MPoly.var("x")**3)),
            (ex4_descend(chebyshev(2, "monic")),
             ex4_descend(chebyshev(3, "monic")))]
    conjs = [AffineConj.diagonal(1, -1, (1, 0)),
             AffineConj.antidiagonal(2, 1, (0, -1)),
             AffineConj.diagonal(-1, 2, (1, 1)),
             AffineConj.antidiagonal(2, 1, (0, -1)),
             AffineConj.antidiagonal(2, 1, (0, -1))]
    return [(affine_conjugate(f1, s), affine_conjugate(f2, s))
            for (f1, f2), s in zip(base, conjs)]


def critical_layer_commands():
    """chain-check, critical-orbit, image-curve, invariant-lines and
    critical on each pair of `critical_layer_pairs`."""
    out = []
    for f1, f2 in critical_layer_pairs():
        f = f"({f1.comp1}, {f1.comp2})"
        g = f"({f2.comp1}, {f2.comp2})"
        out += [["chain-check", "--f", f, "--g", g],
                ["critical-orbit", "--f", f, "--g", g],
                ["image-curve", "--f", f, "--curve", "z1 + 2*z2 - 1"],
                ["image-curve", "--f", g, "--curve", "z1 - z2 + 1"],
                ["invariant-lines", "--f", f],
                ["critical", "--f", g]]
    return out


# image-curve on maps outside the families: two curves whose image has the
# degree d * deg C = 4 (the double elimination once returned degree 8), and
# the two lines (z2 - 1)(z1 + z2 - 2), where no shear made it regular
IMAGE_CURVE_COMMANDS = [
    ["image-curve", "--f", "(z1^2 + z1 - z2 - 2, -z1*z2 + z2^2 - z1 + 2*z2)",
     "--curve", "9*z1^2 + 3*z1*z2 + 3*z1 + z2"],
    ["image-curve", "--f", "(2*z1^2 - 3*z1*z2 - z2^2 + 2*z1 + 3, "
     "3*z1^2 + z1*z2 - 2*z1 + 2*z2 + 2)",
     "--curve", "z1^2 - z1*z2 + 2*z2^2 + z2 + 1"],
    ["image-curve", "--f", "(z1^2 + z1*z2 - 3*z2^2 + z1 - 3*z2 + 2, "
     "-z1^2 - 3*z1*z2 + 3*z2^2 - 2*z2 + 1)",
     "--curve", "z1*z2 + z2^2 - z1 - 3*z2 + 2"],
]


# ramified-invariance where phi o f / phi is not a square: its leading
# term is not one, then a later term leaves the monomials; critical-orbit
# on the power maps of degrees 2 and 3 conjugated by the involution
# (z1, z1 - z2), whose one critical part z1 (z1 - z2) splits into the line
# z1 = z2 first (the fibre over z1 = 0 vanishes, so the graph is lifted
# from the fibre over z1 = 1)
SQRT_AND_SPLIT_COMMANDS = [
    ["ramified-invariance", "--f", "(z1^2 - 2*z2, z2^2)", "--phi", "z2"],
    ["ramified-invariance", "--f", "(z1^3 + z1*z2^2, z2^3)", "--phi", "z1"],
    ["critical-orbit", "--f", "(z1^2, 2*z1*z2 - z2^2)",
     "--g", "(z1^3, 3*z1^2*z2 - 3*z1*z2^2 + z2^3)"],
]


# a Lattes self-cover over Q(zeta_3) whose marked points w, -1 and 1 - w
# lie in one unsplit cubic of the fibre over infinity; a ramified
# invariance whose witness needs the session's i; option values that begin
# with '-' given as their own argv item
SESSION_AND_ARGV_COMMANDS = [
    ["--cyclotomic", "3", "orbifold-cover", "--map=lattes:2*w,1+2*w,2",
     "--orbifold=inf:2,w:2,-1:2,1-w:2"],
    ["--cyclotomic", "3", "portrait", "--map=lattes:2*w,1+2*w,2",
     "--orbifold=inf:2,w:2,-1:2,1-w:2"],
    ["--cyclotomic", "4", "ramified-invariance", "--f", "(-z1^3, z2)",
     "--phi", "z1"],
    ["lattes", "--a", "1/2", "--b", "-3/4", "--n", "3"],
    ["invariant", "--f", "(z1^2, z2^2)", "--curve", "-z1"],
]


# an iterate count far past the degree cap, which ends at once with exit 3
ITERATE_COMMANDS = [["iterate", "--f", "(z1^3, z2^3)", "--n", "1000000000"]]


def golden_commands():
    classify = [["classify", "--f", f"({f1.comp1}, {f1.comp2})",
                 "--g", f"({f2.comp1}, {f2.comp2})"]
                for f1, f2 in criterion_10_pairs()]
    # the first two portraits are among the README and P^1 commands
    portraits = [["portrait", "--map", m, "--orbifold", o]
                 for m, o, _case in portrait_maps()[2:]]
    return (README_COMMANDS + classify + [ex3_scaled_command()] + P1_COMMANDS
            + critical_layer_commands() + IMAGE_CURVE_COMMANDS + portraits
            + SEARCH_COMMANDS + LATTES_COMMANDS + SQRT_AND_SPLIT_COMMANDS
            + SESSION_AND_ARGV_COMMANDS + ITERATE_COMMANDS)


def render_reports() -> str:
    chunks = []
    for argv in golden_commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            main(list(argv))
        chunks.append(f"$ commend {shlex.join(argv)}\n{out.getvalue()}")
    return "".join(chunks)


def _split(text):
    """{command line: report} from the golden text."""
    out, key = {}, None
    for line in text.splitlines(keepends=True):
        if line.startswith("$ commend "):
            key = line
            out[key] = ""
        else:
            out[key] += line
    return out


def test_reports_match_golden():
    want = GOLDEN.read_text(encoding="utf-8")
    got = render_reports()
    want_by, got_by = _split(want), _split(got)
    assert list(got_by) == list(want_by)
    for key in want_by:
        assert got_by[key] == want_by[key], key
    assert got == want


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render_reports(), encoding="utf-8")
