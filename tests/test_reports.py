"""Golden stdout reports: the README commands and `classify` on the forty
criterion-10 pairs, run in-process through `cli.main`.

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


def golden_commands():
    classify = [["classify", "--f", f"({f1.comp1}, {f1.comp2})",
                 "--g", f"({f2.comp1}, {f2.comp2})"]
                for f1, f2 in criterion_10_pairs()]
    return README_COMMANDS + classify


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
