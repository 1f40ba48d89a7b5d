"""Command-line interface for the automaton toolkit.

Verbs: verify, classify, compose, invert, factor, recipe, evolve, phase,
selftest.  Matrices travel as JSON objects {"p", "d", "entries"} whose
entries are polynomial strings in the grammar

    expr  := term (('+' | '-') term)*
    term  := coeff? (var ('^' int)?)*
    var   := 'u'            (one variable)
           | 'u1' .. 'ud'   (d > 1)

Whitespace is insignificant, coefficients are unsigned ints (a leading
term sign is accepted and reduced mod p), exponents beyond +-2^31 are
rejected.  Coefficients, exponents and variable indices are ASCII digits
0-9.  Rendering is deterministic: terms in ascending exponent order,
coefficients reduced to [0, p).

Exit codes: 0 success, 1 domain rejection (non-symplectic input, failed
validation, a broken runtime invariant), 2 malformed input (syntax errors,
bad JSON, a p or d that is not a JSON integer, flag/JSON disagreement,
moduli beyond the primality cap, pgm images over _PGM_MAX_PIXELS, phase
checks over COCYCLE_CELL_BUDGET).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import operator
import re
import sys

import numpy as np

from . import factor as factor_mod
from . import sca
from .cocycle import cocycle_failure, default_phase
from .laurent import LaurentPoly, _check_ring
from .phasespace import PhaseVector

__all__ = ["PolyParseError", "parse_poly", "main"]

_EXP_LIMIT = 2**31


class PolyParseError(ValueError):
    """Syntax error in a polynomial string, with the character offset attached."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


# Text in the spelling cqca writes (str(LaurentPoly)) is decoded in bulk: one
# match of the whole text against the grammar (_grammar) validates it, string
# replacements turn it into a JSON array of one object per term, {"c":
# coefficient, "<k>": exponent of u_k, ...}, and the C JSON decoder reads that
# in one call (_decode).  The term loop (_scan_terms) reads what that leaves:
# leading zeros, zero-padded indices, a variable repeated within a term, a
# repeated exponent, most whitespace other than spaces, and every error, which
# it reports at its offset.
@functools.cache
def _grammar(d: int):
    """The whole-text grammar for d variables, the replacements that spell a
    term's factors as JSON members, and the member names of the d exponents."""
    names = ["u"] if d == 1 else [f"u{k}" for k in range(d, 0, -1)]
    var = "u" if d == 1 else "u(?:" + "|".join(name[1:] for name in names) + ")"
    # Every character has one place in a match: each whitespace run belongs to
    # one \s*, and each repetition starts with a character of its own (a digit,
    # 'u' or a sign).  So a failing match backtracks through each choice once,
    # in time linear in the text.
    factor = rf"{var}(?![0-9])\s*(?:\^\s*[+-]?[0-9]+\s*)?"
    term = rf"(?:[0-9]+\s*(?:{factor})*|(?:{factor})+)"
    grammar = re.compile(rf"\s*(?:[+-]\s*)?{term}(?:[+-]\s*{term})*")
    keys = [name[1:] or "1" for name in names]
    # Longer names first, so that u1 never rewrites the start of u12.
    replacements = []
    for name, key in zip(names, keys):
        replacements += [(name + "^", f',"{key}":'), (name, f',"{key}":1')]
    return grammar, replacements, keys[::-1]


def _decode(text: str, d: int):
    """The {exponent tuple: coefficient} terms of the text, or None for text
    outside the grammar or its JSON spelling, a repeated variable or exponent,
    or an exponent beyond +-2^31."""
    grammar, replacements, keys = _grammar(d)
    if not grammar.fullmatch(text):
        return None
    s = text.replace(" ", "")
    if s[0] not in "+-":
        s = "+" + s
    s = s.replace("+u", "+1u").replace("-u", "-1u")
    for old, new in replacements:
        s = s.replace(old, new)
    # Every sign now starts a term, but a sign right after a member name is
    # the exponent's own.
    s = s.replace("+", '},{"c":').replace("-", '},{"c":-').replace(':},{"c":', ":")
    try:
        parts = json.loads("[" + s[2:] + "}]")
    except ValueError:  # leading zeros, other whitespace, or an int past the digit limit
        return None
    n = len(parts)
    # A variable repeated within a term leaves fewer members than factors.
    if sum(map(len, parts)) != n + text.count("u"):
        return None
    columns = [
        list(map(dict.get, parts, itertools.repeat(key, n), itertools.repeat(0, n))) for key in keys
    ]
    if any(max(column) > _EXP_LIMIT or min(column) < -_EXP_LIMIT for column in columns):
        return None
    terms = dict(zip(zip(*columns), map(operator.itemgetter("c"), parts)))
    return terms if len(terms) == n else None  # a repeated exponent leaves fewer terms


# One term: its sign, coefficient and first variable factor with an optional
# exponent.  Every part may match empty, so a match at any offset succeeds;
# _scan_terms and _factor turn empty parts into errors at their offsets.
# Further factors of the same term match _FACTOR.
_TERM = re.compile(r"\s*([+-]?)\s*([0-9]*)\s*(?:u([0-9]*)\s*(?:\^\s*([+-]?)([0-9]*))?)?")
_FACTOR = re.compile(r"\s*u([0-9]*)\s*(?:\^\s*([+-]?)([0-9]*))?")


def parse_poly(text: str, p: int, d: int = 1) -> LaurentPoly:
    """Parse a polynomial string; raises PolyParseError with a character offset."""
    terms = _decode(text, d)
    if terms is None:
        terms = _scan_terms(text, d)
    _check_ring(p, d)
    return LaurentPoly._raw(p, d, {key: c % p for key, c in terms.items() if c % p})


def _scan_terms(text: str, d: int) -> dict:
    """The terms of the text read one at a time; raises PolyParseError at the first error."""
    terms = {}
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        sign, digits, index = m.group(1, 2, 3)
        if not sign:  # optional before the first term only
            at = m.start(1)
            if at == len(text):
                if pos == 0:
                    raise PolyParseError("empty polynomial", at)
                break
            if pos:
                raise PolyParseError(f"expected '+' or '-', found {text[at]!r}", at)
        if digits:
            value = digits.lstrip("0") or "0"
            try:
                coeff = int(value)
            except ValueError:  # longer than Python's int conversion limit
                raise PolyParseError(
                    f"coefficient of {len(value)} digits is too long", m.start(2)
                ) from None
        elif index is None:
            raise PolyParseError("expected a term", m.end())
        else:
            coeff = 1
        exponents = [0] * d
        pos = m.end()
        if index is not None:
            factor, group = m, 3
            while factor:
                i, e = _factor(factor, group, text, d)
                exponents[i] += e
                if not -_EXP_LIMIT <= exponents[i] <= _EXP_LIMIT:
                    raise PolyParseError("accumulated exponent is beyond +-2^31", factor.end())
                pos = factor.end()
                factor, group = _FACTOR.match(text, pos), 1
        key = tuple(exponents)
        terms[key] = terms.get(key, 0) + (-coeff if sign == "-" else coeff)
    return terms


def _factor(m, g, text: str, d: int):
    """(variable index, exponent) of the factor whose index digits are group g of m."""
    digits, sign, exponent = m.group(g, g + 1, g + 2)
    if d == 1:
        if digits:
            raise PolyParseError("one-variable polynomials use plain 'u' (no index)", m.start(g))
        index = 0
    elif not digits:
        raise PolyParseError(f"expected a variable index 1..{d}", m.start(g))
    else:
        value = digits.lstrip("0")
        index = int(value or "0") - 1 if len(value) <= len(str(d)) else d
        if not 0 <= index < d:
            raise PolyParseError(f"variable index {digits} out of range 1..{d}", m.start(g))
    if exponent is None:
        return index, 1
    if not exponent:
        raise PolyParseError("expected an exponent", m.start(g + 2))
    value = exponent.lstrip("0") or "0"
    e = int(value) if len(value) <= 10 else _EXP_LIMIT + 1
    if e > _EXP_LIMIT:
        minus = "-" if sign == "-" else ""
        raise PolyParseError(f"exponent {minus}{value} is beyond +-2^31", m.start(g + 1))
    return index, -e if sign == "-" else e


# -- matrix I/O -----------------------------------------------------------------


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def load_matrix(path: str, p_flag=None, d_flag=None) -> sca.ScaMatrix:
    try:
        obj = json.loads(_read_text(path))
    except RecursionError as exc:  # nesting deeper than the decoder's recursion limit
        raise ValueError(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        p, d, entries = obj["p"], obj["d"], obj["entries"]
    except KeyError as exc:
        raise ValueError(f"matrix JSON is missing key {exc}") from None
    for name, value in (("p", p), ("d", d)):
        if type(value) is not int:  # not a float, string or boolean
            raise ValueError(f"matrix JSON {name} must be an integer, got {json.dumps(value)}")
    if p_flag is not None and p_flag != p:
        raise ValueError(f"--p {p_flag} disagrees with matrix JSON p = {p}")
    if d_flag is not None and d_flag != d:
        raise ValueError(f"--d {d_flag} disagrees with matrix JSON d = {d}")
    if (
        not isinstance(entries, list)
        or len(entries) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in entries)
        or any(not isinstance(entry, str) for row in entries for entry in row)
    ):
        raise ValueError("matrix JSON entries must be a 2x2 array of strings")
    polys = [parse_poly(entries[i][j], p, d) for i in (0, 1) for j in (0, 1)]
    return sca.ScaMatrix(*polys)


def _print_json(obj) -> None:
    print(json.dumps(obj))


# -- verbs -----------------------------------------------------------------------


def cmd_verify(args) -> int:
    s = load_matrix(args.matrix, args.p, args.d)
    if s.is_symplectic():
        _print_json({"symplectic": True})
        return 0
    _print_json({"symplectic": False, "reason": "the commutation form is not preserved"})
    return 1


def cmd_classify(args) -> int:
    s = load_matrix(args.matrix, args.p, args.d)
    try:
        cert = sca.classify(s)
    except sca.NotSymplectic as exc:
        _print_json({"symplectic": False, "reason": str(exc)})
        return 1
    _print_json(
        {
            "symplectic": True,
            "shift": list(cert.shift),
            "core": cert.core.to_json_dict(),
        }
    )
    return 0


def cmd_compose(args) -> int:
    left = load_matrix(args.left, args.p, args.d)
    right = load_matrix(args.right, args.p, args.d)
    if left.p != right.p or left.d != right.d:
        raise ValueError(
            f"operand rings disagree: F_{left.p}, d={left.d} vs F_{right.p}, d={right.d}"
        )
    _print_json((left @ right).to_json_dict())
    return 0


def cmd_invert(args) -> int:
    s = load_matrix(args.matrix, args.p, args.d)
    _print_json(s.inverse().to_json_dict())
    return 0


def cmd_factor(args) -> int:
    s = load_matrix(args.matrix, args.p, args.d)
    word = factor_mod.factorize(s)
    remultiplied = factor_mod.multiply_word(word)
    for name in ("pp", "pm", "mp", "mm"):
        got, want = getattr(remultiplied, name), getattr(s, name)
        if got != want:
            raise sca.InvariantViolation(
                f"the factored word multiplies back to {name} = {got}, not the input's {want}"
            )
    _print_json(
        {
            "word": factor_mod.word_to_json_list(word),
            "matrix": remultiplied.to_json_dict(),
        }
    )
    return 0


def cmd_recipe(args) -> int:
    p, d = args.p, args.d
    if p is None:
        raise ValueError("recipe needs --p")
    f = parse_poly(args.f, p, d)
    h = parse_poly(args.h, p, d)
    f2 = parse_poly(args.fp, p, d) if args.fp is not None else None
    h2 = parse_poly(args.hp, p, d) if args.hp is not None else None
    for name, poly in (("f", f), ("h", h), ("f'", f2), ("h'", h2)):
        if poly is not None and not poly.is_palindrome():
            print(f"error: recipe input {name} = {poly} is not a palindrome", file=sys.stderr)
            return 1
    s = sca.from_recipe(f, h, f2, h2)
    _print_json(s.to_json_dict())
    return 0


def cmd_phase(args) -> int:
    s = load_matrix(args.matrix, args.p, args.d)
    phi = default_phase(s)
    radius = s.radius() + 1
    failure = cocycle_failure(phi, radius, seed=args.seed)
    if failure is not None:
        print(f"error: constructed phase failed cocycle validation: {failure}", file=sys.stderr)
        return 1
    _print_json(phi.to_json_dict())
    return 0


def cmd_selftest(args) -> int:
    from . import oracle

    p = args.p if args.p is not None else 2
    sites = args.sites if args.sites is not None else (4 if p == 2 else 3)
    reports = oracle.run_selftest(p, sites, seed=args.seed)
    for report in reports:
        _print_json(report)
    return 0 if all(r["pass"] for r in reports) else 1


# -- evolve ----------------------------------------------------------------------


def _emit_csv(blocks, d: int, out) -> None:
    """Write orbit blocks (see ScaMatrix.orbit_blocks) as CSV rows t,x,plus,minus to a binary sink.

    A block is written as one byte buffer.  Each column's fields are
    gathered from a fixed-width bytes table of its distinct values (see
    _fields), a record array lays each row's fields side by side, and one
    bytes.replace strips the NUL padding of the shorter fields: the digits,
    signs and separators hold no NUL, so what remains is the rows' text.
    """
    out.write(b"t,x,plus,minus\n")
    separators = [","] + [":"] * (d - 1) + [",", ",", "\n"]
    for _, _, t, cells, plus, minus in blocks:
        if not len(t):
            continue
        columns = [t, *cells.reshape(len(t), d).T, plus, minus]
        records = np.rec.fromarrays([_fields(column, sep) for column, sep in zip(columns, separators)])
        out.write(records.tobytes().replace(b"\0", b""))


def _fields(column, sep: str) -> np.ndarray:
    """The fields f"{value}{sep}" of a column as NUL-padded bytes, each distinct value formatted once."""
    lo, hi = int(column.min()), int(column.max())
    # Values denser than the rows index a table of their range, with no sort.
    if column.dtype != object and hi - lo < len(column):
        values, index = range(lo, hi + 1), column - lo
    else:
        values, index = np.unique(column, return_inverse=True)
        values = values.tolist()
    return np.array([f"{v}{sep}".encode("ascii") for v in values])[index]


def _ascii_window(s, xi0, steps):
    """Columns lo..hi of the ascii/pgm grid: the start support widened by the light cone."""
    radius = s.radius()
    sup0 = xi0.support()
    lo0, hi0 = (sup0[0], sup0[-1]) if sup0 else (0, 0)
    return lo0 - radius * steps, hi0 + radius * steps


def _grid_rows(blocks, lo: int, hi: int, levels):
    """Grids of a row per slice over columns lo..hi, of levels[plus + 2 * minus],
    at most sca._BLOCK_STEPS rows each (a zero orbit is one block of all slices)."""
    for start, stop, t, cells, plus, minus in blocks:
        for first in range(start, stop, sca._BLOCK_STEPS):
            rows = slice(*np.searchsorted(t, (first, first + sca._BLOCK_STEPS)))
            grid = np.zeros((min(stop - first, sca._BLOCK_STEPS), hi - lo + 1), dtype=np.uint8)
            grid[t[rows] - first, cells[rows] - lo] = (plus[rows] != 0) + 2 * (minus[rows] != 0)
            yield levels[grid]


_ASCII_GLYPHS = np.frombuffer(b" +-*", dtype=np.uint8)  # empty, plus, minus, both
_PGM_LEVELS = np.array([0, 96, 160, 255], dtype=np.uint8)
_PGM_MAX_PIXELS = 1 << 24


def _emit_ascii(blocks, lo: int, hi: int, out) -> None:
    for grid in _grid_rows(blocks, lo, hi, _ASCII_GLYPHS):
        out.write(b"".join(row.tobytes() + b"\n" for row in grid))


def _emit_pgm(blocks, lo: int, hi: int, steps: int, out) -> None:
    out.write(f"P5 {hi - lo + 1} {steps + 1} 255\n".encode("ascii"))
    for grid in _grid_rows(blocks, lo, hi, _PGM_LEVELS):
        out.write(grid.tobytes())


def cmd_evolve(args) -> int:
    s = load_matrix(args.matrix, args.p, args.d)
    sca.classify(s)  # raises NotSymplectic for non-automata
    p, d = s.p, s.d
    xi0 = PhaseVector(parse_poly(args.plus, p, d), parse_poly(args.minus, p, d))
    steps = args.steps
    if steps < 0:
        raise ValueError("--steps must be non-negative")
    fmt = args.format
    if fmt in ("ascii", "pgm") and d != 1:
        raise ValueError(f"format {fmt!r} is one-dimensional; use csv for d = {d}")
    if fmt != "csv":
        lo, hi = _ascii_window(s, xi0, steps)
        width = hi - lo + 1
    if fmt == "ascii" and width > 201:
        print(
            f"warning: ascii window of {width} columns exceeds 201;"
            " falling back to csv",
            file=sys.stderr,
        )
        fmt = "csv"
    if fmt == "pgm" and width * (steps + 1) > _PGM_MAX_PIXELS:
        raise ValueError(
            f"pgm image of {width} x {steps + 1} pixels exceeds {_PGM_MAX_PIXELS}"
        )
    sink = open(args.out, "wb") if args.out else contextlib.nullcontext(sys.stdout.buffer)
    with sink as out:
        blocks = s.orbit_blocks(xi0, steps)
        if fmt == "csv":
            _emit_csv(blocks, d, out)
        elif fmt == "ascii":
            _emit_ascii(blocks, lo, hi, out)
        else:
            _emit_pgm(blocks, lo, hi, steps, out)
    if not args.out:
        sys.stdout.buffer.flush()
    return 0


# -- argument plumbing -------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqca",
        description="Exact toolkit for Clifford cellular automata over prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(func=func)
        cmd.add_argument("--p", type=int, default=None, help="expected modulus (cross-checked)")
        cmd.add_argument("--d", type=int, default=None, help="expected variable count")
        cmd.add_argument("matrix", help="matrix JSON file, or - for stdin")
        return cmd

    add("verify", cmd_verify, "test whether a matrix preserves the commutation form")
    add("classify", cmd_classify, "recover the shift + palindrome-core certificate")

    compose = sub.add_parser("compose", help="multiply two matrices (left @ right)")
    compose.set_defaults(func=cmd_compose)
    compose.add_argument("--p", type=int, default=None)
    compose.add_argument("--d", type=int, default=None)
    compose.add_argument("left")
    compose.add_argument("right")

    add("invert", cmd_invert, "invert a symplectic matrix")
    add("factor", cmd_factor, "factor into shift/shear/local generator letters")

    recipe = sub.add_parser("recipe", help="build a matrix from palindromes f, h")
    recipe.set_defaults(func=cmd_recipe)
    recipe.add_argument("--p", type=int, required=True, help="prime modulus")
    recipe.add_argument("--d", type=int, default=1)
    recipe.add_argument("--f", required=True, help="palindrome f")
    recipe.add_argument("--h", required=True, help="palindrome h")
    recipe.add_argument("--fp", default=None, help="f' (default: 1 - f*h)")
    recipe.add_argument("--hp", default=None, help="h' (default: 1)")

    evolve = add("evolve", cmd_evolve, "trace an initial vector through repeated steps")
    evolve.add_argument("--plus", default="0", help="initial plus component")
    evolve.add_argument("--minus", default="0", help="initial minus component")
    evolve.add_argument("--steps", type=int, default=10)
    evolve.add_argument("--format", choices=("csv", "ascii", "pgm"), default="csv")
    evolve.add_argument("--out", default=None, help="output file (default: stdout)")

    phase = add("phase", cmd_phase, "construct and validate a default phase function")
    phase.add_argument("--seed", type=int, default=11)

    selftest = sub.add_parser("selftest", help="run the operator-oracle suite")
    selftest.set_defaults(func=cmd_selftest)
    selftest.add_argument("--p", type=int, default=None)
    selftest.add_argument("--sites", type=int, default=None, help="window size in cells")
    selftest.add_argument("--seed", type=int, default=7)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        sca.NotSymplectic,
        sca.FactorizationMismatch,
        sca.InvariantViolation,
        factor_mod.NotOneDimensional,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: bad JSON: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
