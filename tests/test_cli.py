"""End-to-end command-line behavior: exit codes, JSON reports, determinism."""

import json
import time

import pytest

from commend.cli import Session, _line_map, main
from commend.parse import parse_poly

DESC_F = "(z1^2 - 2*z2, z2^2)"
DESC_G = "(z1^3 - 3*z1*z2, z2^3)"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestExitCodes:
    def test_affirmative(self, capsys):
        code, rep = run(capsys, "commute", "--f", DESC_F, "--g", DESC_G)
        assert code == 0
        assert rep["result"]["commute"] is True

    def test_negative_verdict(self, capsys):
        code, rep = run(capsys, "commute", "--f", DESC_F,
                        "--g", "(z1^3, z2^3)")
        assert code == 1
        assert rep["result"]["commute"] is False

    def test_input_error(self, capsys):
        code, rep = run(capsys, "commute", "--f", "(z1 +* 2, z2)",
                        "--g", DESC_G)
        assert code == 2
        assert "error" in rep

    def test_budget_exceeded(self, capsys):
        code, rep = run(capsys, "search", "--degrees", "2,2",
                        "--coeffs", "0,1", "--pair-budget", "10")
        assert code == 3
        assert rep["partial"]["total_pairs"] == 10

    def test_negative_iterate_count(self, capsys):
        # an input error (exit 2), also under python -O
        code, rep = run(capsys, "iterate", "--f", "(z1^2, z2^2)", "--n", "-1")
        assert code == 2
        assert rep["kind"] == "PreconditionViolated"

    def test_iterate_past_the_cap_exits_at_once(self, capsys):
        # n is compared with the cap's bit length before d^n is computed
        start = time.perf_counter()
        code, rep = run(capsys, "iterate", "--f", "(z1^3, z2^3)",
                        "--n", "1000000000")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert rep["error"] == "degree 3^1000000000 exceeds cap 512"

    def test_disjoint_rejects_two_degree_one_maps(self, capsys):
        # degree 1 never reaches the degree cap: an input error, at once
        start = time.perf_counter()
        code, rep = run(capsys, "disjoint", "--f", "(2*z1, z2)",
                        "--g", "(3*z1, z2)")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert rep["kind"] == "PreconditionViolated"

    def test_zero_line_map_is_an_input_error(self, capsys):
        code, rep = run(capsys, "classify-p1", "--map", "0")
        assert code == 2
        assert rep["kind"] == "ValueError"


class TestCommands:
    def test_classify_descent_pair(self, capsys):
        code, rep = run(capsys, "classify", "--f", DESC_F, "--g", DESC_G)
        assert code == 0
        assert rep["result"]["tag"] == "Ex4"

    def test_iterate(self, capsys):
        code, rep = run(capsys, "iterate", "--f", "(z1^2, z2^2)", "--n", "2")
        assert code == 0
        assert rep["result"]["iterate"] == "(z1^4, z2^4)"

    def test_infinity(self, capsys):
        code, rep = run(capsys, "infinity", "--f", DESC_F)
        assert code == 0
        assert rep["result"]["restriction"] == "[s^2 : t^2]"
        assert rep["result"]["class"] == "PowerLike"

    def test_orbifold_cover_chebyshev(self, capsys):
        code, rep = run(capsys, "orbifold-cover", "--map", "cheb:2",
                        "--orbifold", "inf:inf,2:2,-2:2")
        assert code == 0
        assert rep["result"]["selfcover"] is True

    def test_parabolic(self, capsys):
        code, rep = run(capsys, "parabolic", "--orbifold",
                        "inf:2,0:2,1:2,-1:2")
        assert code == 0 and rep["result"]["parabolic"] is True
        code, _rep = run(capsys, "parabolic", "--orbifold", "inf:2,0:3")
        assert code == 1

    def test_classify_p1(self, capsys):
        code, rep = run(capsys, "classify-p1", "--map", "x^2 - 2")
        assert code == 0 and rep["result"]["class"] == "ChebyshevLike"
        code, rep = run(capsys, "classify-p1", "--map", "x^2 + 1")
        assert code == 1 and rep["result"]["class"] == "Unknown"

    def test_lattes_shorthand(self, capsys):
        code, rep = run(capsys, "portrait", "--map", "lattes:-1,0,2",
                        "--orbifold", "inf:2,0:2,1:2,-1:2")
        assert code == 0
        assert rep["result"]["case"] == "O4-even-all-to-one"

    def test_construct_ex4(self, capsys):
        code, rep = run(capsys, "construct", "--family", "ex4",
                        "--h", "x^2")
        assert code == 0
        assert rep["result"]["map"] == "(z1^2 - 2*z2, z2^2)"

    def test_ramified_invariance(self, capsys):
        code, rep = run(capsys, "ramified-invariance", "--f", DESC_F,
                        "--phi", "z1^2 - 4*z2")
        assert code == 0 and rep["result"]["witness"] == "z1"

    def test_cyclotomic_session(self, capsys):
        code, rep = run(capsys, "--cyclotomic", "4", "commute",
                        "--f", "(w*z1^2, z2^2)", "--g", "(z1^3, z2^3)")
        assert code == 1  # w != w^3, so the scaled compositions differ
        code, rep = run(capsys, "commute",
                        "--f", "(w*z1, z2)", "--g", "(z1, z2)",
                        "--cyclotomic", "4")
        assert code == 0

    def test_cyclotomic_report_uses_session_root(self, capsys):
        # zeta_6 = 1 + zeta_3: printed in the basis of zeta_3 it would read
        # back as 1 + zeta_6
        code, rep = run(capsys, "--cyclotomic", "6", "iterate",
                        "--f=(w*z1^2, z2^2)", "--n", "1")
        assert code == 0 and rep["result"]["iterate"] == "(w*z1^2, z2^2)"

    def test_classify_params_use_session_root(self, capsys):
        # lambda_1 = zeta_6 reads w, lambda_2 = zeta_3 = zeta_6 - 1
        code, rep = run(capsys, "--cyclotomic", "6", "classify",
                        "--f=(w*z1^2, w*z2^2)",
                        "--g=(-z1^3 + w*z1^3, -z2^3 + w*z2^3)")
        assert code == 0 and rep["result"]["params"] == "Ex3(w, -1 + w)"

    def test_parser_keeps_no_flag_between_calls(self, capsys):
        code, _rep = run(capsys, "--cyclotomic", "3", "iterate",
                         "--f=(w*z1^2, z2^2)", "--n", "1")
        assert code == 0
        code, rep = run(capsys, "iterate", "--f=(w*z1^2, z2^2)", "--n", "1")
        assert code == 2 and rep["kind"] == "RootOfUnityUndefined"

    def test_local_degree(self, capsys):
        code, rep = run(capsys, "local-degree", "--f", DESC_F,
                        "--point", "0,0")
        assert code == 0 and rep["result"]["local_degree"] == 4


class TestReports:
    def test_json_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(["extends", "--f", DESC_F, "--json", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert path.read_text() == out

    def test_deterministic_bytes(self, capsys):
        outs = []
        for _ in range(2):
            main(["classify", "--f", DESC_F, "--g", DESC_G])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_search_report_fields(self, capsys):
        code, rep = run(capsys, "search", "--degrees", "2,2",
                        "--coeffs=-1,0,1")
        assert code == 0
        res = rep["result"]
        assert res["total_pairs"] == 3240
        assert res["unknown"] == []

    def test_search_prints_maps_as_pairs(self, capsys):
        code, rep = run(capsys, "search", "--degrees", "2,3", "--coeffs", "0")
        assert code == 0
        pair = rep["result"]["pairs"][0]
        assert (pair["f1"], pair["f2"]) == ("(z1^2, z2^2)", "(z1^3, z2^3)")


def _report(lines):
    return "\n".join(lines) + "\n"


class TestLattesShorthand:
    """`lattes:a,b,n` reads a and b with the expression grammar of the
    session, as `lattes --a --b` does; the expected bytes are written out."""

    @pytest.mark.parametrize("argv, code, stdout", [
        (["--cyclotomic", "3", "classify-p1", "--map=lattes:w,1,2"], 1,
         _report(['{', '  "command": "classify-p1",', '  "result": {',
                  '    "class": "Unknown"', '  }', '}'])),
        (["classify-p1", "--map=lattes:1,2"], 2,
         _report(['{', '  "command": "classify-p1",',
                  '  "error": "the lattes:a,b,n shorthand takes three '
                  'comma-separated values, not 2 (at offset 0)",',
                  '  "kind": "ParseError"', '}'])),
        (["classify-p1", "--map=lattes:-1,0,2,7"], 2,
         _report(['{', '  "command": "classify-p1",',
                  '  "error": "the lattes:a,b,n shorthand takes three '
                  'comma-separated values, not 4 (at offset 0)",',
                  '  "kind": "ParseError"', '}'])),
        (["classify-p1", "--map=lattes:1.5,0,2"], 2,
         _report(['{', '  "command": "classify-p1",',
                  '  "error": "unexpected character \'.\' (at offset 1)",',
                  '  "kind": "ParseError"', '}'])),
        (["classify-p1", "--map=lattes:1e1,0,2"], 2,
         _report(['{', '  "command": "classify-p1",',
                  '  "error": "unexpected token \'e1\' (at offset 1)",',
                  '  "kind": "ParseError"', '}'])),
    ])
    def test_report_bytes(self, capsys, argv, code, stdout):
        assert main(argv) == code
        assert capsys.readouterr().out == stdout

    def test_cyclotomic_map_is_the_lattes_command_map(self, capsys):
        code, rep = run(capsys, "--cyclotomic", "3", "lattes", "--a", "w",
                        "--b", "1", "--n", "2")
        assert code == 0
        form_s, form_t = rep["result"]["map"].strip("[]").split(" : ")
        r = _line_map(Session(3), "lattes:w,1,2")
        assert r.formS == parse_poly(form_s, 3)
        assert r.formT == parse_poly(form_t, 3)


def _integer_error(command, text):
    return _report(['{', f'  "command": "{command}",',
                    f'  "error": "expected an integer, not \'{text}\' '
                    '(at offset 0)",', '  "kind": "ParseError"', '}'])


class TestShorthandIntegers:
    """The degrees of `cheb:d`, `tcheb:d` and `lattes:a,b,n`, orbifold
    weights and the `search` lists are integers: other text is a
    ParseError, not Python's int() ValueError; the bytes are written out."""

    @pytest.mark.parametrize("argv, stdout", [
        (["classify-p1", "--map=lattes:1,0,x"],
         _integer_error("classify-p1", "x")),
        (["classify-p1", "--map=cheb:two"],
         _integer_error("classify-p1", "two")),
        (["classify-p1", "--map=tcheb:2.5"],
         _integer_error("classify-p1", "2.5")),
        (["commute", "--f=cheb:", "--g=cheb:2"],
         _integer_error("commute", "")),
        (["orbifold-cover", "--map=cheb:2", "--orbifold=inf:inf,2:two,-2:2"],
         _integer_error("orbifold-cover", "two")),
        (["search", "--degrees=2,3", "--coeffs=1..x"],
         _integer_error("search", "x")),
    ])
    def test_malformed_integers_are_parse_errors(self, capsys, argv, stdout):
        assert main(argv) == 2
        assert capsys.readouterr().out == stdout

    def test_valid_integers_keep_their_reports(self, capsys):
        # int() reads surrounding blanks and a sign, as before
        for spaced, plain in ((["classify-p1", "--map=cheb: 3"],
                               ["classify-p1", "--map=cheb:3"]),
                              (["classify-p1", "--map=lattes:-1,0,+2 "],
                               ["classify-p1", "--map=lattes:-1,0,2"])):
            main(spaced)
            got = capsys.readouterr().out
            main(plain)
            assert got == capsys.readouterr().out


class TestOptionValues:
    """An option value that begins with '-' may be its own argv item: it
    gives the bytes of `--name=value`, and -h and --help still print help."""

    @pytest.mark.parametrize("separate, attached", [
        (["lattes", "--a", "1/2", "--b", "-3/4", "--n", "3"],
         ["lattes", "--a", "1/2", "--b=-3/4", "--n", "3"]),
        (["invariant", "--f", "(z1^2, z2^2)", "--curve", "-z1"],
         ["invariant", "--f", "(z1^2, z2^2)", "--curve=-z1"]),
        (["intersection-mult", "--g1", "-z1 + z2^2", "--g2", "-z2"],
         ["intersection-mult", "--g1=-z1 + z2^2", "--g2=-z2"]),
        (["iterate", "--f", "(z1^2, z2^2)", "--n", "-1"],
         ["iterate", "--f", "(z1^2, z2^2)", "--n=-1"]),
        (["--cyclotomic", "3", "orbifold-cover", "--map", "-x^2",
          "--orbifold", "inf:inf,-1:2"],
         ["--cyclotomic", "3", "orbifold-cover", "--map=-x^2",
          "--orbifold", "inf:inf,-1:2"]),
    ])
    def test_separate_value_gives_the_attached_bytes(self, capsys, separate,
                                                     attached):
        code = main(attached)
        want = capsys.readouterr().out
        assert "command" in json.loads(want)
        assert main(separate) == code
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["lattes", "-h"], ["lattes", "--help"],
        ["lattes", "--a", "1", "-h"], ["lattes", "--a", "1", "--help"]])
    def test_help_still_prints_help(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: commend")
