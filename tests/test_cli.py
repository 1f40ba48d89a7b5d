"""End-to-end command-line tests driven through cli.main."""

import io
import json
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqca import (
    GeneratorWord,
    LaurentPoly,
    PhaseFunction,
    ScaMatrix,
    default_phase,
    identity,
    local_f,
    multiply_word,
    random_word,
    shear_g,
    shift,
)
from cqca.cli import PolyParseError, main, parse_poly


def write_matrix(tmp_path, s, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(s.to_json_dict()))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- polynomial surface syntax ---------------------------------------------------


def test_parse_poly_examples():
    assert parse_poly("1 + u + u^-1", 2).terms == {(0,): 1, (1,): 1, (-1,): 1}
    assert parse_poly("2u^3 + 3", 5).terms == {(3,): 2, (0,): 3}
    assert parse_poly("u + u", 2).is_zero()


def test_parse_poly_negative_coefficients_reduce():
    assert parse_poly("3 - u", 2) == parse_poly("1 + u", 2)
    assert parse_poly("-1", 5) == LaurentPoly.constant(5, 1, 4)


def test_parse_poly_two_variables():
    poly = parse_poly("1 + 2u1u2^-1", 3, d=2)
    assert poly.terms == {(0, 0): 1, (1, -1): 2}
    assert parse_poly("u2^2", 3, d=2).terms == {(0, 2): 1}


def test_parse_poly_rejects_bad_syntax():
    with pytest.raises(PolyParseError):
        parse_poly("", 2)
    with pytest.raises(PolyParseError):
        parse_poly("u ** 2", 2)
    with pytest.raises(PolyParseError):
        parse_poly("u2", 2)  # indexed variables need d >= 2
    with pytest.raises(PolyParseError):
        parse_poly("u3 + 1", 3, d=2)
    with pytest.raises(PolyParseError):
        parse_poly("u^9999999999", 2)
    err = None
    try:
        parse_poly("1 + @", 2)
    except PolyParseError as exc:
        err = exc
    assert err is not None and err.offset == 4
    # Coefficients, exponents and indices are ASCII digits only.
    with pytest.raises(PolyParseError, match="expected a term") as info:
        parse_poly("\u0661\u0662", 5)  # Arabic-Indic twelve
    assert info.value.offset == 0
    with pytest.raises(PolyParseError, match="expected an exponent") as info:
        parse_poly("u^\u00b2", 5)  # superscript two
    assert info.value.offset == 2
    # A missing exponent at the end of the text is reported at the end.
    for text, offset in (("u^", 2), ("u^ ", 3), ("2u^", 3), ("u^-", 3)):
        with pytest.raises(PolyParseError, match="expected an exponent") as info:
            parse_poly(text, 5)
        assert info.value.offset == offset, text
    with pytest.raises(PolyParseError, match="expected a term") as info:
        parse_poly("\u00b2", 5)
    assert info.value.offset == 0
    limit = sys.get_int_max_str_digits()
    if limit:
        with pytest.raises(PolyParseError, match="is too long") as info:
            parse_poly("1 + " + "7" * (limit + 1), 5)
        assert info.value.offset == 4
        # leading zeros do not count towards the limit
        assert parse_poly("0" * limit + "7", 5) == LaurentPoly.constant(5, 1, 2)


def test_render_parse_round_trip_fuzz():
    rng = random.Random(77)
    for _ in range(1000):
        p = rng.choice((2, 3, 5))
        d = rng.choice((1, 1, 2))
        terms = {}
        for _ in range(rng.randrange(6)):
            e = tuple(rng.randrange(-5, 6) for _ in range(d))
            terms[e] = rng.randrange(p)
        poly = LaurentPoly(p, d, terms)
        assert parse_poly(str(poly), p, d) == poly


# -- the regex parser against the character scanner it replaced -------------------


class _Scanner:
    """Character-by-character reader of the polynomial grammar (test reference)."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def read_digits(self) -> str:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        return self.text[start : self.pos]

    def read_int(self, what: str) -> int:
        start = self.pos
        sign = 1
        if self.peek() and self.peek() in "+-":
            sign = -1 if self.take() == "-" else 1
        digits = self.read_digits()
        if not digits:
            raise PolyParseError(f"expected {what}", self.pos)
        value = sign * int(digits)
        if not -(2**31) <= value <= 2**31:
            raise PolyParseError(f"exponent {value} is beyond +-2^31", start)
        return value


def scanner_parse_poly(text: str, p: int, d: int = 1) -> LaurentPoly:
    sc = _Scanner(text)
    terms = {}
    sign = 1
    sc.skip_ws()
    if sc.pos == len(text):
        raise PolyParseError("empty polynomial", sc.pos)
    if sc.peek() in "+-":
        sign = -1 if sc.take() == "-" else 1
    while True:
        coeff, exponent = _scanner_parse_term(sc, d)
        terms[exponent] = terms.get(exponent, 0) + sign * coeff
        sc.skip_ws()
        if sc.pos == len(text):
            break
        ch = sc.take()
        if ch == "+":
            sign = 1
        elif ch == "-":
            sign = -1
        else:
            raise PolyParseError(f"expected '+' or '-', found {ch!r}", sc.pos - 1)
        sc.skip_ws()
    return LaurentPoly(p, d, terms)


def _scanner_parse_term(sc: _Scanner, d: int):
    sc.skip_ws()
    coeff = None
    if sc.peek().isdigit():
        coeff = int(sc.read_digits())
    exponents = [0] * d
    saw_var = False
    while True:
        sc.skip_ws()
        if sc.peek() != "u":
            break
        sc.take()
        if d == 1:
            index = 0
            if sc.peek().isdigit():
                raise PolyParseError("one-variable polynomials use plain 'u' (no index)", sc.pos)
        else:
            digits = sc.read_digits()
            if not digits:
                raise PolyParseError(f"expected a variable index 1..{d}", sc.pos)
            index = int(digits) - 1
            if not 0 <= index < d:
                raise PolyParseError(
                    f"variable index {digits} out of range 1..{d}", sc.pos - len(digits)
                )
        sc.skip_ws()
        e = 1
        if sc.peek() == "^":
            sc.take()
            sc.skip_ws()
            e = sc.read_int("an exponent")
        exponents[index] += e
        if not -(2**31) <= exponents[index] <= 2**31:
            raise PolyParseError("accumulated exponent is beyond +-2^31", sc.pos)
        saw_var = True
    if coeff is None and not saw_var:
        raise PolyParseError("expected a term", sc.pos)
    if coeff is None:
        coeff = 1
    return coeff, tuple(exponents)


def parse_outcome(parse, text, p, d):
    """The parsed polynomial, or the message and offset of the syntax error."""
    try:
        return parse(text, p, d)
    except PolyParseError as exc:
        return str(exc), exc.offset


# Near-grammatical strings: terms with optional signs, coefficients, indexed or
# plain variables and exponents (at and past the +-2^31 limit), separated by
# whitespace that str.isspace accepts, with at most one junk character put in.
space = st.sampled_from(("", "", " ", "\t", "\n", "\x0b", "\x1c", "  "))
number = st.sampled_from(("", "0", "1", "2", "12", "007", "2147483647", "2147483648", "99999999999"))
variable = st.sampled_from(("u", "u", "u1", "u2", "u3", "u0", "u01"))
caret = st.sampled_from(("", "", "^", "^-", "^+"))
factor = st.tuples(space, variable, space, caret, space, number).map("".join)
term = st.tuples(
    space, st.sampled_from(("", "+", "-")), space, number, st.lists(factor, max_size=3).map("".join)
).map("".join)
junk = st.sampled_from(("", "", "@", "*", "x", "_", ".", "^", "u", "+"))
grammar_texts = st.tuples(st.lists(term, max_size=4).map("".join), junk, st.integers(0, 60)).map(
    lambda t: t[0][: t[2]] + t[1] + t[0][t[2] :]
)
poly_texts = st.one_of(st.text(alphabet="u^+-0123456789 \t\n@x*.", max_size=16), grammar_texts)


@settings(max_examples=1000)
@given(poly_texts, st.sampled_from((2, 3, 5)), st.sampled_from((1, 2, 3)))
def test_parse_poly_matches_the_scanner_reference(text, p, d):
    assert parse_outcome(parse_poly, text, p, d) == parse_outcome(scanner_parse_poly, text, p, d)


def test_parse_poly_matches_the_scanner_reference_on_edge_cases():
    cases = (
        "u^", "u^ ", "u^-", "u^+", "u^- 2", "u ^ -2", "2 u", "2 3", "2^3", "+-u", "1 - - u",
        "u2u", "u 1", "uu^2", "u^2147483648 u", "u^-2147483648u^-1", "- 2u", "  ", "",
        "u03", "u0", "u1u2u1^-3", "3u1 ^ 2 u2", "1 +", "+",
    )
    for text in cases:
        for d in (1, 2, 3):
            got = parse_outcome(parse_poly, text, 3, d)
            assert got == parse_outcome(scanner_parse_poly, text, 3, d), (text, d)


# -- verify / classify --------------------------------------------------------------


def test_verify_accepts_shear(tmp_path, capsys):
    path = write_matrix(tmp_path, shear_g(2, 1, 1))
    code, out, _ = run(capsys, ["verify", path])
    assert code == 0
    assert json.loads(out) == {"symplectic": True}


def test_verify_large_prime_modulus(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"p": 10**18 + 3, "d": 1, "entries": [["1", "0"], ["u + u^-1", "1"]]}))
    start = time.perf_counter()
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 0 and json.loads(out) == {"symplectic": True}
    assert time.perf_counter() - start < 1
    path.write_text(json.dumps({"p": 10**25 + 13, "d": 1, "entries": [["1", "0"], ["0", "1"]]}))
    code, _, err = run(capsys, ["verify", str(path)])
    assert code == 2 and "primality cap" in err


def test_verify_rejects_non_symplectic(tmp_path, capsys):
    s = identity(2, 1)
    bad = {"p": 2, "d": 1, "entries": [["1", "u"], ["0", "1"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 1
    report = json.loads(out)
    assert report["symplectic"] is False
    assert "reason" in report


def test_classify_reports_shift_and_core(tmp_path, capsys):
    s = shift(2, 1, 2) @ shear_g(2, 1, 1)
    path = write_matrix(tmp_path, s)
    code, out, _ = run(capsys, ["classify", path])
    assert code == 0
    report = json.loads(out)
    assert report["symplectic"] is True
    assert report["shift"] == [2]
    assert report["core"] == shear_g(2, 1, 1).to_json_dict()


def test_classify_identity(tmp_path, capsys):
    path = write_matrix(tmp_path, identity(3, 1))
    code, out, _ = run(capsys, ["classify", path])
    assert code == 0
    assert json.loads(out)["shift"] == [0]


def test_flag_cross_check(tmp_path, capsys):
    path = write_matrix(tmp_path, identity(2, 1))
    code, _, err = run(capsys, ["verify", "--p", "3", path])
    assert code == 2
    assert "disagrees" in err
    code, _, err = run(capsys, ["verify", "--d", "2", path])
    assert code == 2


def test_matrix_on_stdin(tmp_path, capsys, monkeypatch):
    payload = json.dumps(identity(2, 1).to_json_dict())
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = run(capsys, ["verify", "-"])
    assert code == 0
    assert json.loads(out)["symplectic"] is True


def test_malformed_inputs_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run(capsys, ["verify", missing])[0] == 2

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(capsys, ["verify", str(garbled)])[0] == 2

    short = tmp_path / "short.json"
    short.write_text(json.dumps({"p": 2, "entries": []}))
    assert run(capsys, ["verify", str(short)])[0] == 2

    bad_poly = tmp_path / "badpoly.json"
    bad_poly.write_text(json.dumps({"p": 2, "d": 1, "entries": [["1", "@"], ["0", "1"]]}))
    assert run(capsys, ["verify", str(bad_poly)])[0] == 2

    for entry, offset in (("\u0661", 0), ("u^\u00b2", 2), ("7" * 5000, 0)):
        bad_digits = tmp_path / "baddigits.json"
        bad_digits.write_text(json.dumps({"p": 2, "d": 1, "entries": [["1", entry], ["0", "1"]]}))
        code, _, err = run(capsys, ["verify", str(bad_digits)])
        assert code == 2 and f"syntax error at offset {offset}:" in err


# -- compose / invert / factor --------------------------------------------------------


def test_compose_multiplies(tmp_path, capsys):
    left = write_matrix(tmp_path, shear_g(3, 1, 1), "l.json")
    right = write_matrix(tmp_path, shear_g(3, 1, 1), "r.json")
    code, out, _ = run(capsys, ["compose", left, right])
    assert code == 0
    assert json.loads(out) == shear_g(3, 1, 2).to_json_dict()


def test_compose_rejects_mixed_rings(tmp_path, capsys):
    left = write_matrix(tmp_path, identity(2, 1), "l.json")
    right = write_matrix(tmp_path, identity(3, 1), "r.json")
    code, _, err = run(capsys, ["compose", left, right])
    assert code == 2
    assert "disagree" in err


def test_invert_then_compose_gives_identity(tmp_path, capsys):
    s = shift(3, 1, 1) @ shear_g(3, 2, 2) @ local_f(3, 2)
    path = write_matrix(tmp_path, s)
    code, out, _ = run(capsys, ["invert", path])
    assert code == 0
    inverse_path = tmp_path / "inv.json"
    inverse_path.write_text(out)
    code, out, _ = run(capsys, ["compose", path, str(inverse_path)])
    assert code == 0
    assert json.loads(out) == identity(3, 1).to_json_dict()


def test_factor_echoes_input_matrix(tmp_path, capsys):
    s = shift(2, 1, 1) @ shear_g(2, 2, 1) @ local_f(2, 1)
    path = write_matrix(tmp_path, s)
    code, out, _ = run(capsys, ["factor", path])
    assert code == 0
    report = json.loads(out)
    assert report["matrix"] == s.to_json_dict()
    assert report["word"][0] == {"shift": 1}
    for letter in report["word"][1:]:
        assert set(letter) <= {"g", "ug", "f"}


def test_factor_rejects_non_symplectic(tmp_path, capsys):
    bad = {"p": 2, "d": 1, "entries": [["1", "u"], ["0", "1"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, ["factor", str(path)])
    assert code == 1


def test_factor_checks_its_word(tmp_path, capsys, monkeypatch):
    """A word that does not multiply back to the input is an invariant violation."""
    from cqca import factor

    s = shift(3, 1, 1) @ shear_g(3, 2, 1) @ local_f(3, 2)
    path = write_matrix(tmp_path, s)
    factorize = factor.factorize
    monkeypatch.setattr(factor, "factorize", lambda m: GeneratorWord(m.p, factorize(m).letters[:-1]))
    code, out, err = run(capsys, ["factor", path])
    assert (code, out) == (1, "")
    assert err == "error: the factored word multiplies back to mm = 0, not the input's 2u^-1 + 2u^3\n"


# -- recipe ---------------------------------------------------------------------------


def test_recipe_default_factorization(capsys):
    code, out, _ = run(capsys, ["recipe", "--p", "2", "--f", "1 + u + u^-1", "--h", "1"])
    assert code == 0
    assert json.loads(out) == {
        "p": 2,
        "d": 1,
        "entries": [["u^-1 + 1 + u", "u^-1 + u"], ["1", "1"]],
    }


def test_recipe_rejects_non_palindrome(capsys):
    code, _, err = run(capsys, ["recipe", "--p", "2", "--f", "u", "--h", "1"])
    assert code == 1
    assert "palindrome" in err


def test_recipe_rejects_wrong_completion(capsys):
    code, _, err = run(
        capsys,
        ["recipe", "--p", "3", "--f", "1", "--h", "1", "--fp", "1", "--hp", "1"],
    )
    assert code == 1


# -- evolve ---------------------------------------------------------------------------


def test_evolve_shift_track(tmp_path, capsys):
    path = write_matrix(tmp_path, shift(2, 1, 1))
    code, out, _ = run(capsys, ["evolve", path, "--plus", "1", "--steps", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x,plus,minus"
    assert lines[1:] == ["0,0,1,0", "1,1,1,0", "2,2,1,0", "3,3,1,0"]


def test_repeated_main_calls_keep_no_flag_values(tmp_path, capsys):
    path = write_matrix(tmp_path, shift(2, 1, 1))
    code, out, _ = run(capsys, ["evolve", path, "--plus", "1", "--minus", "1", "--steps", "2"])
    assert code == 0 and len(out.strip().splitlines()) == 1 + 3
    code, out, _ = run(capsys, ["evolve", path, "--plus", "1"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    # the default --steps 10 gives time slices t = 0..10, and --minus is back to 0
    assert [row[0] for row in rows] == [str(t) for t in range(11)]
    assert {row[3] for row in rows} == {"0"}


def test_evolve_shear_one_step_rows(tmp_path, capsys):
    path = write_matrix(tmp_path, shear_g(2, 1, 1))
    code, out, _ = run(capsys, ["evolve", path, "--plus", "1", "--steps", "1"])
    assert code == 0
    rows = {tuple(line.split(",")) for line in out.strip().splitlines()[1:]}
    assert rows == {
        ("0", "0", "1", "0"),
        ("1", "-1", "0", "1"),
        ("1", "0", "1", "0"),
        ("1", "1", "0", "1"),
    }


def test_evolve_local_support_never_grows(tmp_path, capsys):
    path = write_matrix(tmp_path, local_f(3, 2))
    code, out, _ = run(
        capsys,
        ["evolve", path, "--plus", "1", "--minus", "u", "--steps", "6"],
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        _, x, _, _ = line.split(",")
        assert x in ("0", "1")


def test_evolve_ascii_render(tmp_path, capsys):
    path = write_matrix(tmp_path, shear_g(2, 1, 1))
    code, out, _ = run(
        capsys,
        ["evolve", path, "--plus", "1", "--steps", "2", "--format", "ascii"],
    )
    assert code == 0
    assert out.splitlines() == ["  +  ", " -+- ", "  +  "]


def test_evolve_ascii_cap_falls_back_to_csv(tmp_path, capsys):
    path = write_matrix(tmp_path, shift(2, 1, 1))
    code, out, err = run(
        capsys,
        ["evolve", path, "--plus", "1", "--steps", "110", "--format", "ascii"],
    )
    assert code == 0
    assert "falling back to csv" in err
    assert out.splitlines()[0] == "t,x,plus,minus"


def test_evolve_pgm_bytes(tmp_path, capsys):
    path = write_matrix(tmp_path, shear_g(2, 1, 1))
    out_path = tmp_path / "trace.pgm"
    code, _, _ = run(
        capsys,
        [
            "evolve",
            path,
            "--plus",
            "1",
            "--steps",
            "1",
            "--format",
            "pgm",
            "--out",
            str(out_path),
        ],
    )
    assert code == 0
    data = out_path.read_bytes()
    assert data == b"P5 3 2 255\n" + bytes([0, 96, 0, 160, 96, 160])


def test_evolve_pgm_cap_rejects_before_stepping(tmp_path, capsys):
    path = write_matrix(tmp_path, shear_g(2, 2**30))
    start = time.perf_counter()
    code, out, err = run(capsys, ["evolve", path, "--plus", "1", "--format", "pgm"])
    assert code == 2
    assert out == "" and "exceeds 16777216" in err
    assert time.perf_counter() - start < 5


def test_evolve_light_cone_violation_exits_1(tmp_path, capsys, monkeypatch):
    path = write_matrix(tmp_path, shear_g(2, 1, 1))
    monkeypatch.setattr(ScaMatrix, "radius", lambda self: 0)
    code, _, err = run(capsys, ["evolve", path, "--plus", "1", "--steps", "3"])
    assert code == 1
    assert "light cone broken at t = 1: cell -1" in err


def test_evolve_rejects_non_symplectic(tmp_path, capsys):
    bad = {"p": 2, "d": 1, "entries": [["1", "u"], ["0", "1"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, _ = run(capsys, ["evolve", str(path), "--plus", "1"])
    assert code == 1


def test_evolve_rejects_negative_steps(tmp_path, capsys):
    path = write_matrix(tmp_path, identity(2, 1))
    code, _, _ = run(capsys, ["evolve", path, "--plus", "1", "--steps", "-1"])
    assert code == 2


# -- phase / selftest -------------------------------------------------------------------


def test_phase_identity_zero_exponents(tmp_path, capsys):
    path = write_matrix(tmp_path, identity(2, 1))
    code, out, _ = run(capsys, ["phase", path])
    assert code == 0
    assert json.loads(out) == {"order": 4, "gen_plus": 0, "gen_minus": 0}


def test_phase_shear_validates(tmp_path, capsys):
    path = write_matrix(tmp_path, shear_g(2, 1, 1))
    code, out, _ = run(capsys, ["phase", path])
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 4
    assert report["gen_plus"] % 2 == 0 and report["gen_minus"] % 2 == 0


def test_phase_odd_characteristic(tmp_path, capsys):
    path = write_matrix(tmp_path, local_f(3, 1))
    code, out, _ = run(capsys, ["phase", path])
    assert code == 0
    assert json.loads(out)["order"] == 3


def test_phase_on_a_radius_19_word(tmp_path, capsys):
    # 41 cells and 10^4 sampled pairs: the batched cocycle check at scale
    s = multiply_word(random_word(3, 7, 3, seed=3010))
    assert s.radius() == 19
    code, out, err = run(capsys, ["phase", write_matrix(tmp_path, s)])
    assert (code, out, err) == (0, '{"order": 3, "gen_plus": 0, "gen_minus": 0}\n', "")


def test_phase_past_the_cell_budget_exits_2_before_any_draw(tmp_path, capsys, monkeypatch):
    from cqca import cocycle

    def no_draw(*args):
        raise AssertionError("no vector may be drawn past the budget")

    monkeypatch.setattr(cocycle, "random_coefficients", no_draw)
    n = 2**31 - 1
    code, out, err = run(capsys, ["phase", write_matrix(tmp_path, shear_g(3, n, 1))])
    cells = (24 + 2 * 10000) * (2 * (n + 1) + 1)
    assert (code, out) == (2, "")
    assert err == (
        f"error: cocycle validation would draw {cells} vector-cells,"
        f" over the budget of {cocycle.COCYCLE_CELL_BUDGET}\n"
    )


def test_phase_failure_names_the_witness(tmp_path, capsys, monkeypatch):
    from cqca import cli

    def corrupted(s):
        good = default_phase(s)
        return PhaseFunction(s, good.gen_plus + 1, good.gen_minus)

    monkeypatch.setattr(cli, "default_phase", corrupted)
    code, out, err = run(capsys, ["phase", write_matrix(tmp_path, shear_g(2, 1, 1))])
    assert (code, out) == (1, "")
    assert err == (
        "error: constructed phase failed cocycle validation: cocycle identity fails for"
        " xi = (u^-2, 0), eta = (u^-2, 0): phi(xi + eta) = 0,"
        " but phi(xi) + phi(eta) + 2 C(xi, eta) = 2 (mod 4)\n"
    )


def test_selftest_small_window(capsys):
    code, out, _ = run(capsys, ["selftest", "--p", "2", "--sites", "3"])
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["check"] for r in reports] == [
        "unitarity",
        "weyl_relation",
        "commutation",
        "order_condition",
        "clifford_action",
    ]
    assert all(r["pass"] for r in reports)


def test_selftest_narrow_window_exits_before_any_check(capsys, monkeypatch):
    from cqca import oracle

    def fail(*args, **kwargs):
        raise AssertionError("no check may run on a window that is too small")

    for name in ("_selftest_family", "_check_pairs", "_check_family"):
        monkeypatch.setattr(oracle, name, fail)
    # at p = 61 the family of a 2-site window would hold 13.8M vectors
    for p in ("3", "61"):
        code, out, err = run(capsys, ["selftest", "--p", p, "--sites", "2"])
        assert code == 2
        assert out == ""
        assert err.strip() == "error: window [0, 1] too small for radius 1"
