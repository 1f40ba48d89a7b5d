"""End-to-end command-line tests driven through cli.main."""

import io
import json
import random
import sys
import time

import numpy as np
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
from cqca import cli
from cqca.cli import PolyParseError, main, parse_poly
from cqca.laurent import coefficient_dtype


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
    want = parse_outcome(scanner_parse_poly, text, p, d)
    assert parse_outcome(parse_poly, text, p, d) == want
    if isinstance(want, LaurentPoly):  # the spelling cqca writes decodes in bulk
        assert cli._decode(str(want), d) is not None


def test_parse_poly_matches_the_scanner_reference_on_edge_cases():
    cases = (
        "u^", "u^ ", "u^-", "u^+", "u^- 2", "u ^ -2", "2 u", "2 3", "2^3", "+-u", "1 - - u",
        "u2u", "u 1", "uu^2", "u^2147483648 u", "u^-2147483648u^-1", "- 2u", "  ", "",
        "u03", "u0", "u1u2u1^-3", "3u1 ^ 2 u2", "1 +", "+",
        # Valid spellings the bulk decoder leaves to the term loop, and exponents past the limit.
        "007 + u^02", "1 + 2", "u + 2u", "u1 + u1^1", "u^2147483649", "u^-2147483649", "1\t+\x1cu",
        # Long runs before junk: the grammar match fails in time linear in the text.
        " " * 50000 + "@", "\t" * 50000 + "-" + " " * 50000 + "@", " " * 50000 + "u" + " " * 50000 + "@",
        "u^" + " " * 50000 + "-" + " " * 50000 + "1", "1" + " u" * 50000 + "@", "+u^1" * 50000 + "@",
    )
    for text in cases:
        for d in (1, 2, 3):
            got = parse_outcome(parse_poly, text, 3, d)
            assert got == parse_outcome(scanner_parse_poly, text, 3, d), (text[:40], d)


LONG_SPACES = ("", "", "", " ", " ", "\t", "\x0b", "\x1c", "\n", "  ")
FAR_EXPONENTS = (2**31, -(2**31), 2**31 + 1, -(2**31 + 1))


def long_poly_text(rng, p: int, d: int) -> str:
    """A polynomial of 50-300 terms as a user might write it: whitespace
    anywhere the grammar allows it, signs, coefficients of up to 40 digits,
    leading zeros, exponents at and past +-2^31, variables repeated within a
    term, and sometimes one junk character at a random offset."""
    far = rng.random() < 0.3

    def space():
        return rng.choice(LONG_SPACES)

    def factor():
        var = "u" if d == 1 else f"u{rng.choice((1, 2))}"
        if rng.random() < 0.2:
            return var + space()
        e = rng.choice(FAR_EXPONENTS) if far and rng.random() < 0.02 else rng.randint(-150, 150)
        digits = ("00" if rng.random() < 0.03 else "") + str(abs(e))
        sign = "-" if e < 0 else rng.choice(("", "", "", "+"))
        return var + space() + "^" + space() + sign + digits + space()

    terms = []
    for i in range(rng.randint(50, 300)):
        sign = rng.choice(("", "+", "-")) if i == 0 else rng.choice(("+", "+", "-"))
        coeff = rng.choice(("", "", str(rng.randrange(1, p)), str(rng.randrange(2**63, 10**40)), "007"))
        factors = "".join(factor() for _ in range(rng.choice((0, 1, 1, 1, 2) if d == 1 else (0, 1, 2, 2, 3))))
        terms.append(space() + sign + space() + (coeff or ("" if factors else "1")) + space() + factors)
    text = "".join(terms)
    if rng.random() < 0.3:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice("@*x_.^u+-0 ") + text[at:]
    return text


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**64), st.sampled_from((2, 5, 2**31 - 1)), st.sampled_from((1, 2)))
def test_parse_poly_matches_the_scanner_reference_on_long_texts(seed, p, d):
    """Entry-sized texts: the bulk decoder and the term loop give the scanner's
    polynomial or its error, and the spelling cqca writes of every polynomial
    the scanner accepts decodes in bulk."""
    text = long_poly_text(random.Random(seed), p, d)
    want = parse_outcome(scanner_parse_poly, text, p, d)
    assert parse_outcome(parse_poly, text, p, d) == want
    if isinstance(want, LaurentPoly):
        assert cli._decode(str(want), d) is not None


def golden_texts():
    """(text, p, d) of every polynomial in the golden corpus: the matrix entries
    and the polynomial flags of evolve and recipe, at the command's p and d."""
    from pathlib import Path

    texts = set()
    for path in (Path(__file__).parent / "golden").glob("*.json"):
        for command in json.loads(path.read_text(encoding="utf-8")):
            argv = command["argv"]
            p = int(argv[argv.index("--p") + 1]) if "--p" in argv else None
            d = int(argv[argv.index("--d") + 1]) if "--d" in argv else 1
            for obj in command.get("files", {}).values():
                if isinstance(obj, dict) and type(obj.get("d")) is int and obj["d"] >= 1:
                    p, d = obj["p"], obj["d"]
                    texts.update((entry, p, d) for row in obj["entries"] for entry in row)
            for flag in ("--plus", "--minus", "--f", "--h", "--fp", "--hp"):
                if flag in argv and p is not None:
                    texts.add((argv[argv.index(flag) + 1], p, d))
    return sorted(texts)


def test_canonical_golden_texts_never_reach_the_term_loop(monkeypatch):
    """Every polynomial of the golden corpus written as cqca renders it parses
    in bulk: the term loop reads only other spellings, and errors."""
    texts = golden_texts()
    parsed = {}
    for text, p, d in texts:
        try:
            parsed[text, p, d] = parse_poly(text, p, d)
        except ValueError:  # a syntax error, or a p that is not a prime
            pass
    canonical = {key: poly for key, poly in parsed.items() if str(poly) == key[0]}

    def refuse(text, d):
        raise AssertionError(f"canonical text reached the term loop: {text!r}")

    monkeypatch.setattr(cli, "_scan_terms", refuse)
    assert len(canonical) > 600 and len(parsed) < len(texts)
    for (text, p, d), poly in canonical.items():
        assert parse_poly(text, p, d) == poly


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


def test_non_string_entries_exit_two(tmp_path, capsys):
    """JSON numbers and literals are not polynomial text, even where str() of them would parse."""
    path = tmp_path / "m.json"
    for entries in ([[1, 0], [0, 1]], [[True, None], [0, 1.5]], [["1", "0"], [["0"], "1"]]):
        path.write_text(json.dumps({"p": 3, "d": 1, "entries": entries}))
        code, out, err = run(capsys, ["verify", str(path)])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "error: matrix JSON entries must be a 2x2 array of strings"


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


def test_evolve_zero_start_never_applies(tmp_path, capsys, monkeypatch):
    """A zero start stays zero: any number of steps prints the header and calls no apply()."""

    def refuse(self, xi):
        raise AssertionError("apply() called on a zero orbit")

    path = write_matrix(tmp_path, shear_g(3, 1, 1))
    monkeypatch.setattr(ScaMatrix, "apply", refuse)
    for steps in (10**6, 10**10):
        start = time.perf_counter()
        code, out, err = run(capsys, ["evolve", path, "--steps", str(steps)])
        assert (code, out, err) == (0, "t,x,plus,minus\n", "")
        assert time.perf_counter() - start < 1


def test_grid_rows_split_a_long_block():
    """A block of more slices than sca._BLOCK_STEPS is drawn in grids of at most that many rows."""
    t = np.array([3, 3, 200], dtype=np.int64)
    block = (0, 300, t, np.array([-1, 1, 0]), np.array([1, 0, 2]), np.array([0, 1, 1]))
    grids = list(cli._grid_rows([block], -1, 1, cli._ASCII_GLYPHS))
    assert [len(grid) for grid in grids] == [128, 128, 44]
    rows = [row.tobytes() for grid in grids for row in grid]
    assert (rows[3], rows[200]) == (b"+ -", b" * ")
    assert set(rows[:3] + rows[4:200] + rows[201:]) == {b"   "}


def test_evolve_zero_start_grids_span_every_slice(tmp_path):
    """A radius-0 automaton keeps a one-column window: a zero start of more
    slices than one orbit block renders every row, blank or black."""
    path = write_matrix(tmp_path, local_f(3, 2))
    out = tmp_path / "out"
    assert main(["evolve", path, "--steps", "300", "--format", "ascii", "--out", str(out)]) == 0
    assert out.read_bytes() == b" \n" * 301
    assert main(["evolve", path, "--steps", "300", "--format", "pgm", "--out", str(out)]) == 0
    assert out.read_bytes() == b"P5 1 301 255\n" + bytes(301)


def csv_reference(blocks, d):
    """The CSV of orbit blocks, one f-string per row: the reference of cli._emit_csv."""
    lines = ["t,x,plus,minus\n"]
    for _, _, t, cells, plus, minus in blocks:
        for i, cell in enumerate(cells.reshape(len(t), d).tolist()):
            lines.append(f"{t[i]},{':'.join(map(str, cell))},{plus[i]},{minus[i]}\n")
    return "".join(lines)


def synthetic_block(rng, d, p, values):
    """An orbit block with the given cell values (rows * d of them), sorted t and random coefficients."""
    rows = len(values) // d
    try:
        cells = np.array(values, dtype=np.int64)
    except OverflowError:
        cells = np.array(values, dtype=object)
    cells = cells.reshape(rows, d)
    t = np.sort(np.array([rng.randrange(40) for _ in range(rows)], dtype=np.int64))
    plus, minus = (np.array([rng.randrange(p) for _ in range(rows)], dtype=coefficient_dtype(p)) for _ in "+-")
    return 0, 40, t, cells[:, 0] if d == 1 else cells, plus, minus


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 7, 10**18 + 3, 4611686018427388039])
def test_emit_csv_matches_per_row_reference(d, p):
    """The byte-record renderer writes what one f-string per row writes.

    Blocks are empty, one row long or longer; cells are dense in a small
    range (the range table) or sparse over int64 and beyond it (np.unique),
    negative ones included; coefficients are int64 (p = 10^18 + 3) or
    Python ints (p = 4611686018427388039).
    """
    rng = random.Random(p * 10 + d)
    ranges = [(-9, 9), (-5000, 5000), (-(2**63), 2**63 - 1), (-(2**70), 2**66)]
    blocks = [synthetic_block(rng, d, p, [])]
    for lo, hi in ranges:
        for rows in (1, 2, 7, 300):
            mid = rng.randint(lo, hi - 8)
            dense = [rng.randint(mid, mid + 8) for _ in range(rows * d)]
            sparse = [rng.randint(lo, hi) for _ in range(rows * d)]
            blocks += [synthetic_block(rng, d, p, dense), synthetic_block(rng, d, p, sparse)]
    blocks.append(synthetic_block(rng, d, p, [-(2**63), -1, 0, 2**63 - 1, -10, 10] * d))
    out = io.BytesIO()
    cli._emit_csv(iter(blocks), d, out)
    assert out.getvalue() == csv_reference(blocks, d).encode("ascii")


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
