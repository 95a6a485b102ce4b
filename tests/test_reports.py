"""Golden stdout reports: the README commands, `classify` on the forty
criterion-10 pairs, the P^1 commands, the critical-curve commands and the
image curves of maps outside the families below, run in-process through
`cli.main`.

`tests/data/reports.txt` holds, for each command, a `$ commend ...` line and
the exact stdout bytes of the report.  Regenerate it (only when a report is
meant to change) with

    PYTHONPATH=src python3 tests/test_reports.py
"""

import contextlib
import io
import random
import shlex
from pathlib import Path

from commend.classify import AffineConj, affine_conjugate
from commend.cli import main
from commend.families import chebyshev, ex1, ex2, ex3_lift, ex4_descend
from commend.mpoly import MPoly
from commend.parse import parse_poly
from commend.rat1 import RatMap1

GOLDEN = Path(__file__).parent / "data" / "reports.txt"

README_COMMANDS = [
    ["commute", "--f", "(z1^2 - 2*z2, z2^2)", "--g", "(z1^3 - 3*z1*z2, z2^3)"],
    ["classify", "--f", "(z1^2 - 2*z2, z2^2)", "--g", "(z1^3 - 3*z1*z2, z2^3)"],
    ["orbifold-cover", "--map", "cheb:2", "--orbifold", "inf:inf,2:2,-2:2"],
    ["portrait", "--map", "lattes:-1,0,2", "--orbifold", "inf:2,0:2,1:2,-1:2"],
    ["search", "--degrees", "2,3", "--coeffs=-4..4"],
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


def _power_line_map(d):
    return RatMap1(parse_poly(f"s^{d}"), parse_poly(f"t^{d}"))


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
    base += [("Ex3", *ex3_lift(_power_line_map(a), _power_line_map(b)))
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


def critical_layer_pairs():
    """One pair of each family, moved by an affine conjugation with a
    translation, for the critical-curve commands."""
    base = [ex1(2, 3, 1),
            (ex2(2, "straight"), ex2(3, "straight")),
            ex3_lift(_power_line_map(2), _power_line_map(3)),
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


def golden_commands():
    classify = [["classify", "--f", f"({f1.comp1}, {f1.comp2})",
                 "--g", f"({f2.comp1}, {f2.comp2})"]
                for f1, f2 in criterion_10_pairs()]
    return (README_COMMANDS + classify + P1_COMMANDS
            + critical_layer_commands() + IMAGE_CURVE_COMMANDS)


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
