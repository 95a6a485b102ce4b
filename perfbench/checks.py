"""Semantic answer checks, one per query kind.

A check reads the JSON report a query printed and returns a Verdict.  It
tests what the answer means, not its bytes, so a later change of report
formatting (say, how a search prints its maps) does not read as a failure.

`ok` is false when the query did not give the expected answer: a different
class or tag, an ``Unknown`` verdict, a negative verdict, an error, a
time-out.  `unknown` marks the one kind of miss that is not a failed
operation: a recognizer answered ``Unknown`` (it found no family) for an
input the benchmark built from a family.  `wrong` is true only when an exact
identity the benchmark recomputes itself from the report fails: the program
then claimed something false.
"""

from __future__ import annotations

from dataclasses import dataclass

from commend.endo2 import PlaneEndo, commutes
from commend.errors import CommendError
from commend.parse import parse_map_pair, parse_poly

SEARCH_TAGS = {"Ex1", "Ex2", "Ex3", "Ex4"}


@dataclass(frozen=True)
class Verdict:
    ok: bool
    wrong: bool = False
    cause: str = ""
    unknown: bool = False


OK = Verdict(True)


def _fail(cause: str) -> Verdict:
    return Verdict(False, False, cause)


def _wrong(cause: str) -> Verdict:
    return Verdict(False, True, cause)


def _unknown(cause: str) -> Verdict:
    return Verdict(False, False, cause, unknown=True)


def _order(argv) -> int:
    return int(argv[argv.index("--cyclotomic") + 1]) \
        if "--cyclotomic" in argv else 1


def _endo(text: str, order: int) -> PlaneEndo:
    text = text.strip()
    if text.startswith("PlaneEndo(") and text.endswith(")"):
        text = text[len("PlaneEndo("):-1]
    return PlaneEndo(*parse_map_pair(text, order))


def _pulled(poly, f: PlaneEndo):
    return poly.substitute({"z1": f.comp1, "z2": f.comp2})


def check(query, code: int, report: dict) -> Verdict:
    """Verdict on one query's exit code and parsed report."""
    if "error" in report:
        return _fail(f"exit {code}: {report.get('kind', 'budget')}: "
                     f"{report['error']}")
    result = report.get("result")
    if not isinstance(result, dict):
        return _fail("report has no result")
    try:
        return _CHECKS[query.argv[_command_index(query.argv)]](
            query, code, result)
    except (KeyError, TypeError, ValueError, CommendError) as exc:
        return _fail(f"unreadable report: {type(exc).__name__}: {exc}")


def _command_index(argv) -> int:
    i = 0
    while argv[i].startswith("--"):
        i += 2
    return i


def _expect_field(key):
    """Check that result[key] equals the expected value, exit code 0."""
    def run(query, code, result):
        want = query.expect[key]
        got = result[key]
        if got == "Unknown" and key in ("tag", "class"):
            return _unknown(f"{key} 'Unknown', expected {want!r}")
        if got != want:
            return _fail(f"{key} {got!r}, expected {want!r}")
        if code != 0:
            return _fail(f"exit {code}")
        return OK
    return run


def _check_search(query, code, result):
    if code != 0:
        return _fail(f"exit {code}")
    if result["total_pairs"] != query.expect["total_pairs"]:
        return _wrong(f"total_pairs {result['total_pairs']}, expected "
                      f"{query.expect['total_pairs']}")
    funnel = [result[k] for k in ("total_pairs", "probe_pass", "commuting",
                                  "extending", "disjoint")]
    if funnel != sorted(funnel, reverse=True):
        return _wrong(f"search funnel not monotone: {funnel}")
    pairs = result["pairs"]
    counted = sum(result["recognized"].values()) + len(result["unknown"])
    if not (counted == len(pairs) == result["disjoint"]):
        return _wrong("recognized + unknown, pairs and disjoint disagree")
    for rec in pairs:
        f1, f2 = _endo(rec["f1"], 1), _endo(rec["f2"], 1)
        if not commutes(f1, f2):
            return _wrong(f"reported pair does not commute: {rec['f1']}, "
                          f"{rec['f2']}")
        if rec["tag"] not in SEARCH_TAGS | {"Unknown"}:
            return _wrong(f"tag {rec['tag']!r} outside the families")
    if not set(result["recognized"]) <= SEARCH_TAGS:
        return _wrong(f"recognized tags {sorted(result['recognized'])}")
    if result["unknown"]:
        return _unknown(f"{len(result['unknown'])} unrecognized pairs")
    return OK


def _check_critical(query, code, result):
    order = _order(query.argv)
    f = _endo(query.expect["map"], order)
    if code != 0:
        return _fail(f"exit {code}")
    if result["total_degree"] != 2 * f.degree - 2:
        return _wrong(f"critical degree {result['total_degree']}, expected "
                      f"{2 * f.degree - 2}")
    product = parse_poly("1", order)
    for part in result["factors"]:
        product = product * parse_poly(part["factor"], order) \
            ** part["multiplicity"]
    det = f.jacobian_det()
    ratio = det.leading_coefficient() / product.leading_coefficient()
    if product.scale(ratio) != det:
        return _wrong("factors do not multiply to the Jacobian determinant")
    return OK


def _check_ramified(query, code, result):
    order = _order(query.argv)
    f = _endo(query.expect["map"], order)
    phi = parse_poly(query.expect["phi"], order)
    w = parse_poly(result["witness"], order)
    if _pulled(phi, f) != phi * w * w:
        return _wrong("phi o f != phi * w^2")
    return OK if code == 0 else _fail(f"exit {code}")


def _check_image(query, code, result):
    order = _order(query.argv)
    f = _endo(query.expect["map"], order)
    g = parse_poly(query.expect["curve"], order)
    h = parse_poly(result["image"], order)
    if h.is_constant() or not g.divides(_pulled(h, f)):
        return _wrong("curve does not divide image o f")
    return OK if code == 0 else _fail(f"exit {code}")


def _check_lines(query, code, result):
    order = _order(query.argv)
    f = _endo(query.expect["map"], order)
    for entry in result["lines"]:
        line = parse_poly(entry["line"], order)
        if line.total_degree() != 1 or not line.divides(_pulled(line, f)):
            return _wrong(f"line {entry['line']} is not invariant")
    return OK if code == 0 else _fail(f"exit {code}")


def _check_orbit(query, code, result):
    if not result["resolved"]:
        return _fail("critical orbit not resolved")
    if any(c["witness"] is None for c in result["components"]):
        return _wrong("resolved report with a component lacking a witness")
    return OK if code == 0 else _fail(f"exit {code}")


_CHECKS = {
    "search": _check_search,
    "classify": _expect_field("tag"),
    "classify-p1": _expect_field("class"),
    "portrait": _expect_field("case"),
    "orbifold-cover": _expect_field("selfcover"),
    "critical": _check_critical,
    "chain-check": _expect_field("chain"),
    "critical-orbit": _check_orbit,
    "ramified-invariance": _check_ramified,
    "image-curve": _check_image,
    "invariant-lines": _check_lines,
    "lemma3": _expect_field("verified"),
    "lemma4": _expect_field("verified"),
    "prop2-reduce": _expect_field("case"),
}
