"""Generate the golden CLI corpus from the current tree.

    PYTHONPATH=src python tests/golden/make_corpus.py [verb ...]

Each verb has one corpus file, tests/golden/<verb>.json: a list of
commands, each run in-process through cqca.cli.main.  A command holds

    id           a unique name
    argv         the arguments; an argument "{name}" is replaced by the path
                 of the input file `name`, and "{out}" by the path of an
                 output file
    files        input files by name: a JSON object (a matrix) is written as
                 JSON, a string as it stands, and a list of [text, count]
                 pairs as each text repeated count times
    radius       optional: ScaMatrix.radius() returns this value while the
                 command runs, which makes the orbit light-cone check fire
    sha256       SHA-256 of the --out file when argv holds "{out}", of
                 stdout otherwise
    exit         the exit code
    stderr_last  the last line of stderr, or ""

tests/test_golden.py runs every command of every corpus file and compares
all three results.  Adding a verb means adding a builder to BUILDERS.
Nothing here needs the network.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

# Primes of the corpus: small, either side of int64 window sums, and past 2^62.
PRIMES = (2, 3, 5, 7, 1048573, 2**31 - 1, 10**18 + 3, 4611686018427388039)
# Step counts around orbit block lengths (64 and 128 steps) and past two blocks.
BLOCK_STEPS = (0, 1, 2, 3, 63, 64, 65, 127, 128, 129, 255, 256, 257)


def run_command(command: dict, workdir: str) -> dict:
    """Run one corpus command through cli.main; returns sha256, exit and stderr_last."""
    from cqca import cli, sca

    paths = {"out": os.path.join(workdir, "out")}
    for name, obj in command.get("files", {}).items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            if isinstance(obj, dict):
                json.dump(obj, fh)
            elif isinstance(obj, str):
                fh.write(obj)
            else:
                fh.write("".join(text * count for text, count in obj))
    if os.path.exists(paths["out"]):
        os.remove(paths["out"])
    argv = [paths[a[1:-1]] if a[:1] == "{" and a[-1:] == "}" else a for a in command["argv"]]
    stdout = io.BytesIO()
    text = io.TextIOWrapper(stdout, encoding="utf-8", write_through=True)
    stderr = io.StringIO()
    radius = sca.ScaMatrix.radius
    if command.get("radius") is not None:
        sca.ScaMatrix.radius = lambda self: command["radius"]
    try:
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejections
                code = exc.code
        text.flush()
    finally:
        sca.ScaMatrix.radius = radius
    if "{out}" in command["argv"]:
        with open(paths["out"], "rb") as fh:
            data = fh.read()
    else:
        data = stdout.getvalue()
    lines = stderr.getvalue().splitlines()
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "exit": code,
        "stderr_last": lines[-1] if lines else "",
    }


# -- evolve ----------------------------------------------------------------------


def evolve_commands() -> list:
    from cqca import LaurentPoly, from_recipe, local_f, multiply_word, random_word, shear_g, shift

    commands = []

    def add(name, matrix, *args, radius=None):
        argv = ["evolve", "{m}", *map(str, args)]
        commands.append(
            {"id": f"evolve-{name}", "argv": argv, "files": {"m": matrix.to_json_dict()}, "radius": radius}
        )

    def poly(p, d, terms):
        return LaurentPoly(p, d, terms)

    dense = {2: (9, 1, 101), 3: (6, 2, 102), 5: (5, 1, 103), 7: (4, 1, 104)}
    for p in PRIMES:
        glider = shift(p, 1, 1)
        add(f"shift-p{p}", glider, "--plus", "1 + 2u^3", "--minus", "u", "--steps", 7)
        add(f"shift-left-p{p}", shift(p, 1, -2), "--plus", "u^-1 + 1", "--steps", 9)
        add(f"local-p{p}", local_f(p, 2 % p or 1), "--plus", "1 + u^2", "--minus", "3u", "--steps", 8)
        add(f"shear-p{p}", shear_g(p, 1, p - 1), "--plus", "1 + u", "--minus", "u^-2", "--steps", 12)
        add(f"hollow-shear-p{p}", shear_g(p, 100, 2 % p or 1), "--plus", "1", "--steps", 5)
        add(f"zero-start-p{p}", shear_g(p, 1, 1), "--steps", 4)
        word = multiply_word(random_word(p, *dense.get(p, (4, 1, 105))))
        add(f"word-p{p}", word, "--plus", "1 + u", "--minus", "2 + u^-1", "--steps", 20)
    # Step counts at and around block boundaries, on supports that move,
    # stay put and grow.
    f = poly(2, 1, {(1,): 1, (0,): 1, (-1,): 1})
    grow2 = from_recipe(f, LaurentPoly.one(2, 1))
    grow3 = multiply_word(random_word(3, 3, 1, 7))
    for steps in BLOCK_STEPS:
        add(f"shift-p3-T{steps}", shift(3, 1, 1), "--plus", "1", "--steps", steps)
        add(f"local-p5-T{steps}", local_f(5, 2), "--plus", "1", "--minus", "u", "--steps", steps)
        add(f"grow-p2-T{steps}", grow2, "--plus", "1", "--steps", steps)
        add(f"grow-p3-T{steps}", grow3, "--plus", "1", "--minus", "u", "--steps", steps)
    add("grow-p3-T513", grow3, "--plus", "1", "--steps", 513)
    add("shift-p7-T1025", shift(7, 1, 3), "--minus", "1 + u", "--steps", 1025)
    # Automata that move far in one step.
    add("shift-far-p5", shift(5, 1, 2**31), "--plus", "1 + u", "--minus", "3", "--steps", 300)
    add("shift-far-d2-p3", shift(3, 2, (2**31, -(2**31))), "--plus", "1 + u2", "--steps", 70)
    add("word-far-p3", multiply_word(random_word(3, 4, 1, 5)).shifted(-7), "--plus", "1", "--steps", 90)
    # Two and three variables.
    for p in (2, 3, 5, 1048573, 2**31 - 1, 10**18 + 3):
        f2 = poly(p, 2, {(1, 0): 1, (-1, 0): 1, (0, 1): 2, (0, -1): 2})
        recipe2 = from_recipe(f2, LaurentPoly.constant(p, 2, 2))
        for steps in (0, 1, 2, 7, 16, 17):
            add(f"recipe-d2-p{p}-T{steps}", recipe2, "--plus", "1 + u1u2", "--minus", "u2^-1", "--d", 2, "--steps", steps)
        add(f"shift-d2-p{p}", shift(p, 2, (1, -1)), "--plus", "1 + u1", "--minus", "2u2", "--steps", 40)
    for p in (2, 3, 7):
        f3 = poly(p, 3, {(1, 0, 0): 1, (-1, 0, 0): 1})
        h3 = poly(p, 3, {(0, 1, 0): 1, (0, -1, 0): 1, (0, 0, 1): 1, (0, 0, -1): 1})
        recipe3 = from_recipe(f3, h3)
        for steps in (0, 1, 2, 5):
            add(f"recipe-d3-p{p}-T{steps}", recipe3, "--plus", "1", "--minus", "u1u3", "--steps", steps)
        add(f"shift-d3-p{p}", shift(p, 3, (0, 1, -1)), "--plus", "u1 + u2^2", "--steps", 30)
        add(f"zero-start-d3-p{p}", recipe3, "--steps", 3)
    # Output formats and their limits.
    add("ascii-shear", shear_g(2, 1, 1), "--plus", "1", "--steps", 20, "--format", "ascii")
    add("ascii-grow", grow2, "--plus", "1", "--steps", 60, "--format", "ascii")
    add("ascii-local", local_f(3, 2), "--plus", "1", "--minus", "u", "--steps", 9, "--format", "ascii")
    add("ascii-fallback", shift(2, 1, 1), "--plus", "1", "--steps", 110, "--format", "ascii")
    add("ascii-d2", recipe2, "--plus", "1", "--steps", 2, "--format", "ascii")
    add("pgm-grow", grow3, "--plus", "1", "--steps", 130, "--format", "pgm", "--out", "{out}")
    add("pgm-stdout", grow2, "--plus", "1 + u^5", "--steps", 40, "--format", "pgm")
    add("pgm-cap", shear_g(2, 2**30), "--plus", "1", "--format", "pgm")
    add("csv-out", grow3, "--plus", "1", "--steps", 100, "--out", "{out}")
    # ASCII and PGM on both orbit routes, at the window's edges and across blocks.
    apply_route = multiply_word(random_word(2**31 - 1, 4, 1, 105))  # a trace of three terms
    add("ascii-zero-start", grow3, "--steps", 6, "--format", "ascii")
    add("pgm-zero-start", grow3, "--steps", 6, "--format", "pgm")
    add("ascii-T0", grow3, "--plus", "1", "--minus", "u", "--steps", 0, "--format", "ascii")
    add("pgm-T0", grow2, "--plus", "1 + u^2", "--steps", 0, "--format", "pgm")
    add("ascii-apply-p2147483647", apply_route, "--plus", "1", "--minus", "u^-1", "--steps", 12, "--format", "ascii")
    add("pgm-apply-p2147483647", apply_route, "--plus", "1", "--steps", 30, "--format", "pgm")
    add("ascii-far-start", grow2, "--plus", "u^40 + u^43", "--minus", "u^41", "--steps", 30, "--format", "ascii")
    add("pgm-far-start", grow3, "--plus", "u^-1000", "--minus", "2u^-999", "--steps", 50, "--format", "pgm")
    add("ascii-moving", multiply_word(random_word(3, 4, 1, 5)).shifted(-7), "--plus", "1", "--steps", 10, "--format", "ascii")
    add("pgm-blocks", grow2, "--plus", "1", "--steps", 300, "--format", "pgm", "--out", "{out}")
    add("pgm-blocks-p3", grow3, "--plus", "1", "--minus", "u", "--steps", 400, "--format", "pgm")
    add("ascii-word-p7", multiply_word(random_word(7, 4, 1, 104)), "--plus", "1", "--minus", "3u", "--steps", 30, "--format", "ascii")
    add("ascii-local-p7", local_f(7, 3), "--plus", "1 + 2u", "--minus", "u^2", "--steps", 5, "--format", "ascii")
    add("ascii-light-cone", grow3, "--plus", "1", "--steps", 20, "--format", "ascii", radius=0)
    add("pgm-light-cone", grow2, "--plus", "1", "--steps", 20, "--format", "pgm", "--out", "{out}", radius=0)
    # Rejections.
    add("light-cone", shear_g(2, 1, 1), "--plus", "1", "--steps", 3, radius=0)
    add("light-cone-grow", grow3, "--plus", "1", "--steps", 200, radius=0)
    add("light-cone-d2", recipe2, "--plus", "1", "--d", 2, "--steps", 5, radius=0)
    bad = {"p": 3, "d": 1, "entries": [["1", "u"], ["0", "1"]]}
    commands.append({"id": "evolve-not-symplectic", "argv": ["evolve", "{m}", "--plus", "1"], "files": {"m": bad}})
    add("negative-steps", shift(3, 1, 1), "--plus", "1", "--steps", -1)
    add("wrong-d", shift(3, 1, 1), "--plus", "1", "--d", 2)
    add("wrong-p", shift(3, 1, 1), "--plus", "1", "--p", 5)
    add("bad-start", shift(3, 1, 1), "--plus", "1 + ", "--steps", 2)
    # Long CSV orbits whose trace has a term at every exponent: the windows
    # fill the light cone, blocks hold few steps, and many steps pass
    # between reductions mod p.
    for p, r, steps in DENSE_ORBITS:
        add(f"dense-p{p}-r{r}-T{steps}", _dense_recipe(p, r), "--plus", "1 + 2u", "--minus", "u^-1", "--steps", steps)
    add("dense-p3-r3-out", _dense_recipe(3, 3), "--plus", "u^-2 + 1 + u^2", "--minus", "2u", "--steps", 210, "--out", "{out}")
    f2 = poly(5, 2, {(1, 0): 1, (-1, 0): 1, (0, 1): 2, (0, -1): 2, (0, 0): 3})
    add("recipe-d2-p5-T40", from_recipe(f2, LaurentPoly.constant(5, 2, 4)), "--plus", "1 + u1u2", "--minus", "u2^-1 + 2u1", "--d", 2, "--steps", 40)
    # Start vectors in every spelling the parser accepts or rejects.
    for name, text, d in _texts():
        add(name, shift(3, d, 1 if d == 1 else (1,) * d), "--plus", text, "--minus", "1", "--steps", 2)
    return commands


# (p, radius, steps) of the dense CSV orbits.
DENSE_ORBITS = (
    (2, 4, 200),
    (2, 2, 300),
    (3, 2, 300),
    (3, 4, 200),
    (5, 3, 250),
    (7, 2, 240),
    (7, 4, 200),
    (1048573, 3, 200),
    (1048573, 2, 256),
)


def _dense_recipe(p: int, r: int):
    """The recipe ((f, 1 - f h), (-1, h)), h constant, whose trace f + h has all 2r + 1 terms."""
    from cqca import LaurentPoly, from_recipe

    rng = random.Random(10 * p + r)
    while True:
        terms = {(0,): rng.randrange(p)}
        for e in range(1, r + 1):
            terms[(e,)] = terms[(-e,)] = rng.randrange(1, p)
        h = rng.randrange(1, p)
        if (terms[(0,)] + h) % p:
            return from_recipe(LaurentPoly(p, 1, terms), LaurentPoly.constant(p, 1, h))


# -- word verbs --------------------------------------------------------------------

# Primes of the word-verb corpora: the evolve primes up to 10^18 + 3.
WORD_PRIMES = PRIMES[:-1]
# Word lengths; those of 4 and 16 letters also come with one hollow shear letter.
WORD_LENGTHS = (0, 1, 4, 16, 48, 128)
HOLLOW_WORD_LENGTHS = (4, 16)
# Far corners of the exponent range the parser accepts (+-2^31).
FAR = 2**31 - 1
NOT_SYMPLECTIC = {"p": 3, "d": 1, "entries": [["1", "u"], ["0", "1"]]}
ZERO = {"p": 3, "d": 1, "entries": [["0", "0"], ["0", "0"]]}


def _hollow_index(p: int) -> int:
    """Shear index of a hollow letter: the largest p^k up to 2^20, or 2^20 past it."""
    if p > 1 << 20:
        return 1 << 20
    n = p
    while n * p <= 1 << 20:
        n *= p
    return n


def _word_matrices():
    """(name, matrix) of random words at every corpus prime, hollow ones included."""
    from cqca import GeneratorWord, Shear, UpperShear, multiply_word, random_word

    out = []
    for i, p in enumerate(WORD_PRIMES):
        for length in WORD_LENGTHS:
            seed = 1000 * i + length
            out.append((f"p{p}-len{length}", multiply_word(random_word(p, length, 3, seed))))
            if length in HOLLOW_WORD_LENGTHS:
                letters = list(random_word(p, length, 3, seed + 1).letters)
                shears = [k for k, let in enumerate(letters) if isinstance(let, (Shear, UpperShear))]
                k = shears[len(shears) // 2]
                letters[k] = type(letters[k])(_hollow_index(p), letters[k].c)
                word = GeneratorWord(p, tuple(letters))
                out.append((f"p{p}-len{length}-hollow", multiply_word(word)))
    return out


def _edge_matrices():
    """(name, matrix) of the inputs that take the hollow paths at the parser's limit."""
    from cqca import LaurentPoly, from_recipe, shear_g, shift, upper_shear_g

    f2 = LaurentPoly(3, 2, {(1, 0): 1, (-1, 0): 1, (0, 1): 2, (0, -1): 2})
    return [
        ("shear-far-p3", shear_g(3, FAR, 2)),
        ("upper-shear-far-p3", upper_shear_g(3, FAR, 1)),
        ("shift-far-p3", shift(3, 1, FAR)),
        ("shift-far-left-p2", shift(2, 1, -FAR)),
        ("shear-far-big-p", shear_g(10**18 + 3, FAR, 10**18)),
        ("recipe-d2-p3", from_recipe(f2, LaurentPoly.constant(3, 2, 2))),
    ]


def _sample() -> dict:
    """The matrix of the flag and ring rejections: a 16-letter word at p = 3."""
    return dict(_word_matrices())["p3-len16"].to_json_dict()


def _unary_commands(verb: str) -> list:
    """Commands of a verb that reads one matrix: words, edges, rejections."""
    commands = []

    def add(name, obj, *args):
        commands.append({"id": f"{verb}-{name}", "argv": [verb, "{m}", *args], "files": {"m": obj}})

    for name, matrix in _word_matrices() + _edge_matrices():
        add(name, matrix.to_json_dict())
    sample = _sample()
    add("not-symplectic", NOT_SYMPLECTIC)
    add("zero", ZERO)
    add("wrong-p", sample, "--p", "5")
    add("wrong-d", sample, "--d", "2")
    add("flags-agree", sample, "--p", str(sample["p"]), "--d", "1")
    add("bad-poly", {"p": 3, "d": 1, "entries": [["1 +", "0"], ["0", "1"]]})
    return commands


# (name, file text) of matrix files whose p or d is not a JSON integer, whose
# entries are not strings, or whose nesting is deeper than the JSON decoder's
# recursion limit.
_ENTRIES = '"entries": [["1", "0"], ["u + u^-1", "1"]]'
ODD_FILES = (
    ("p-huge-float", '{"p": 1e400, "d": 1, ' + _ENTRIES + "}"),
    ("p-infinity", '{"p": Infinity, "d": 1, ' + _ENTRIES + "}"),
    ("p-d-floats", '{"p": 3.7, "d": 1.9, ' + _ENTRIES + "}"),
    ("p-integral-float", '{"p": 3.0, "d": 1, ' + _ENTRIES + "}"),
    ("p-true", '{"p": true, "d": 1, ' + _ENTRIES + "}"),
    ("d-true", '{"p": 3, "d": true, ' + _ENTRIES + "}"),
    ("d-false", '{"p": 3, "d": false, ' + _ENTRIES + "}"),
    ("p-string", '{"p": "3", "d": 1, ' + _ENTRIES + "}"),
    ("d-string", '{"p": 3, "d": "1", ' + _ENTRIES + "}"),
    ("p-null", '{"p": null, "d": 1, ' + _ENTRIES + "}"),
    ("d-list", '{"p": 3, "d": [1], ' + _ENTRIES + "}"),
    ("d-nan", '{"p": 3, "d": NaN, ' + _ENTRIES + "}"),
    ("d-zero", '{"p": 3, "d": 0, ' + _ENTRIES + "}"),
    ("p-negative", '{"p": -3, "d": 1, ' + _ENTRIES + "}"),
    ("p-big-int", '{"p": 1000000000000000003, "d": 1, ' + _ENTRIES + "}"),
    ("entries-numbers", '{"p": 3, "d": 1, "entries": [[1, 0], [0, 1]]}'),
    ("entries-literals", '{"p": 3, "d": 1, "entries": [[true, null], [0, 1.5]]}'),
    ("nested-500", [["[", 500], ["]", 500]]),
    ("too-deep", [["[", 200000], ["]", 200000]]),
    ("too-deep-entries", [['{"p": 3, "d": 1, "entries": ', 1], ["[", 100000], ["]", 100000], ["}", 1]]),
)


def verify_commands() -> list:
    commands = _unary_commands("verify")
    for name, text in ODD_FILES:
        commands.append({"id": f"verify-{name}", "argv": ["verify", "{m}"], "files": {"m": text}})
    for name, text, d in _texts():
        commands.append({"id": f"verify-{name}", "argv": ["verify", "{m}"], "files": {"m": _text_matrix(text, d)}})
    return commands


def classify_commands() -> list:
    commands = _unary_commands("classify")
    for name, text in ODD_FILES:
        if name in ("p-huge-float", "p-d-floats", "p-true", "too-deep"):
            commands.append({"id": f"classify-{name}", "argv": ["classify", "{m}"], "files": {"m": text}})
    return commands


def invert_commands() -> list:
    return _unary_commands("invert")


def factor_commands() -> list:
    return _unary_commands("factor")


def compose_commands() -> list:
    from cqca import multiply_word, random_word

    commands = []

    def add(name, left, right, *args):
        argv = ["compose", "{l}", "{r}", *args]
        commands.append({"id": f"compose-{name}", "argv": argv, "files": {"l": left, "r": right}})

    words = _word_matrices()
    for k, (name, matrix) in enumerate(words):
        p = matrix.p
        right = multiply_word(random_word(p, 6, 3, 500 + k))
        add(name, matrix.to_json_dict(), right.to_json_dict())
    for name, matrix in _edge_matrices():
        add(name, matrix.to_json_dict(), matrix.inverse().to_json_dict())
    sample = _sample()
    add("not-symplectic", NOT_SYMPLECTIC, NOT_SYMPLECTIC)
    add("zero", ZERO, sample)
    add("mixed-rings", sample, dict(words)["p5-len16"].to_json_dict())
    add("wrong-p", sample, sample, "--p", "5")
    add("wrong-d", sample, sample, "--d", "2")
    # The parser's texts as the left factor of a product with the identity,
    # so the output shows what each valid text parsed to.
    for name, text, d in _texts():
        add(name, _text_matrix(text, d), {"p": 3, "d": d, "entries": [["1", "0"], ["0", "1"]]})
    return commands


# -- phase, selftest and recipe ------------------------------------------------------

# Primes of the phase corpus: the exhaustive p = 2 branch, odd primes, and the
# largest prime whose phase sums run on int64 (each product reduced).
PHASE_PRIMES = (2, 3, 5, 7, 2**31 - 1)


def _small_words(p: int):
    """(name, matrix) of automata of radius 0, 1 and 2 at p: a shear, then one word per radius."""
    from cqca import multiply_word, random_word, shear_g

    out = [("shear", shear_g(p, 1, p - 1))]
    radii = set()
    for seed in range(100):
        matrix = multiply_word(random_word(p, 3, 1, seed))
        if matrix.radius() <= 2 and matrix.radius() not in radii:
            radii.add(matrix.radius())
            out.append((f"word-r{matrix.radius()}-s{seed}", matrix))
    return out


def phase_commands() -> list:
    from cqca import LaurentPoly, from_recipe, shear_g, shift, upper_shear_g

    commands = []

    def add(name, obj, *args):
        commands.append({"id": f"phase-{name}", "argv": ["phase", "{m}", *args], "files": {"m": obj}})

    for p in PHASE_PRIMES:
        for name, matrix in _small_words(p):
            if p == 2**31 - 1 and "r1" not in name and name != "shear":
                continue  # the slowest prime: a shear and the radius-1 word only
            add(f"{name}-p{p}", matrix.to_json_dict())
    add("shift-p2", shift(2, 1, 1).to_json_dict())
    add("upper-shear-r2-p5", upper_shear_g(5, 2, 3).to_json_dict())
    f2 = LaurentPoly(3, 2, {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1})
    add("recipe-d2-p3", from_recipe(f2, LaurentPoly.one(3, 2)).to_json_dict())
    shear = shear_g(3, 1, 2).to_json_dict()
    for seed in (0, 12345, -5):
        add(f"seed{seed}-p3", shear, "--seed", str(seed))
    add("not-symplectic", NOT_SYMPLECTIC)
    add("zero", ZERO)
    add("over-budget", shear_g(3, 60, 1).to_json_dict())
    add("over-budget-hollow", shear_g(2**31 - 1, 2**31 - 1, 1).to_json_dict())
    add("wrong-p", shear, "--p", "5")
    add("wrong-d", shear, "--d", "2")
    add("bad-seed", shear, "--seed", "x")
    add("bad-poly", {"p": 3, "d": 1, "entries": [["1 +", "0"], ["0", "1"]]})
    return commands


def selftest_commands() -> list:
    commands = []
    for p in (2, 3):
        for seed in ("7", "3"):
            commands.append({"id": f"selftest-p{p}-seed{seed}", "argv": ["selftest", "--p", str(p), "--seed", seed]})
        commands.append({"id": f"selftest-p{p}-narrow", "argv": ["selftest", "--p", str(p), "--sites", "2"]})
    commands.append({"id": "selftest-not-prime", "argv": ["selftest", "--p", "4"]})
    return commands


def recipe_commands() -> list:
    commands = []

    def add(name, p, f, h, *args, d=None):
        argv = ["recipe", "--p", str(p), "--f", f, "--h", h, *args]
        if d is not None:
            argv += ["--d", str(d)]
        commands.append({"id": f"recipe-{name}", "argv": argv})

    for p in PRIMES:
        add(f"default-p{p}", p, "1 + u + u^-1", "1")
        add(f"zero-h-p{p}", p, "1 + 2u^2 + 2u^-2", "0")
        add(f"both-p{p}", p, "u + u^-1", "3 + u^3 + u^-3")
        add(f"completed-p{p}", p, "0", "1", "--fp", "1", "--hp", "1")
    add("d2-p3", 3, "u1 + u1^-1 + u2 + u2^-1", "1", d=2)
    add("d2-far-p5", 5, "u1^2u2 + u1^-2u2^-1", "2", d=2)
    add("d3-p2", 2, "u1u2u3 + u1^-1u2^-1u3^-1", "1 + u3 + u3^-1", d=3)
    # Palindrome rejections, each of the four inputs in turn.
    add("f-not-palindrome", 2, "u", "1")
    add("h-not-palindrome", 3, "1", "u + 2u^-1")
    add("fp-not-palindrome", 3, "1", "1", "--fp", "u^2", "--hp", "1")
    add("hp-not-palindrome", 5, "1", "1", "--fp", "1", "--hp", "1 + u")
    add("d2-not-palindrome", 3, "u1 + u2^-1", "1", d=2)
    # Completions that are palindromes but break symplecticity.
    add("wrong-completion", 3, "1", "1", "--fp", "1", "--hp", "1")
    add("fp-only", 5, "1 + u + u^-1", "2", "--fp", "3")
    add("hp-only", 5, "1 + u + u^-1", "2", "--hp", "4")
    # Malformed input.
    add("bad-f", 3, "1 +", "1")
    add("bad-exponent", 3, "u^99999999999", "1")
    add("not-prime", 4, "1", "1")
    add("p-one", 1, "1", "1")
    commands.append({"id": "recipe-missing-p", "argv": ["recipe", "--f", "1", "--h", "1"]})
    commands.append({"id": "recipe-missing-h", "argv": ["recipe", "--p", "3", "--f", "1"]})
    for name, text, d in _texts():
        add(name, 3, text, "1", d=d)
    return commands


# -- polynomial texts ----------------------------------------------------------------

# (name, text, d): every PolyParseError message at least once, at the start,
# middle and end of the text, and valid texts in unusual spellings.
BAD_TEXTS = (
    ("empty", "", 1),
    ("blank", " \t\n", 1),
    ("no-sign", "2 3", 1),
    ("no-sign-after-factor", "u^2 u 1", 1),
    ("junk", "1 + u @", 1),
    ("junk-first", "@", 1),
    ("superscript", "u^²", 1),
    ("term-missing", "1 + ", 1),
    ("sign-sign", "+-u", 1),
    ("one-variable-index", "1 + u2", 1),
    ("index-out-of-range", "u1 + u3", 2),
    ("index-zero", "u0^2", 2),
    ("index-long", "u1 + u00000000000000000002u12", 2),
    ("index-missing", "1 + u^2", 2),
    ("exponent-missing-end", "u^", 1),
    ("exponent-missing-space-end", "2u^ ", 1),
    ("exponent-missing", "u^ + 1", 1),
    ("exponent-sign-only", "u^-", 1),
    ("exponent-space-after-sign", "u^- 2", 1),
    ("exponent-beyond", "u^2147483649", 1),
    ("exponent-beyond-negative", "1 + u^-99999999999", 1),
    ("exponent-beyond-d2", "u2^-2147483649u1", 2),
    ("exponent-accumulated", "u^2147483648 u", 1),
    ("exponent-accumulated-d2", "u1 u2^-2147483648 u2^-1", 2),
    ("coefficient-too-long", "1 + " + "7" * (sys.get_int_max_str_digits() + 1), 1),
)
GOOD_TEXTS = (
    ("whitespace", "\t1 +\x0bu^-1\x1c+ u", 1),
    ("whitespace-inside", "2 u ^ -3 - u ^+2", 1),
    ("leading-sign", "- u + 2", 1),
    ("leading-plus", "+ 3u^-2 + u", 1),
    ("plus-exponent", "u^+4 + u^-4", 1),
    ("cancelling", "u + 2u^3 + 2u - u^3 + u^3", 1),
    ("leading-zeros", "007u + 0002 + u^-003", 1),
    ("negative-zero-exponent", "u^-0 + 1", 1),
    ("far-exponents", "u^2147483648 + u^-2147483648", 1),
    ("long-coefficient", "1" * 40 + "u + " + "0" * 5000 + "2", 1),
    ("repeated-factor", "u u^2 + u^-1u", 1),
    ("d2-spaces", "u1 u2^-1 + 2 u2", 2),
    ("d2-unordered", "u2u1 + 3u1^2u1^-1", 2),
    ("d2-leading-zero-index", "u01 + u2", 2),
)


def _texts():
    return [(f"parse-{name}", text, d) for name, text, d in BAD_TEXTS + GOOD_TEXTS]


def _text_matrix(text: str, d: int) -> dict:
    """A matrix at p = 3 whose first entry is the text."""
    return {"p": 3, "d": d, "entries": [[text, "0"], ["0", "1"]]}


BUILDERS = {
    "evolve": evolve_commands,
    "verify": verify_commands,
    "classify": classify_commands,
    "invert": invert_commands,
    "factor": factor_commands,
    "compose": compose_commands,
    "phase": phase_commands,
    "selftest": selftest_commands,
    "recipe": recipe_commands,
}


def main(verbs) -> None:
    for verb in verbs or sorted(BUILDERS):
        commands = BUILDERS[verb]()
        if len({c["id"] for c in commands}) != len(commands):
            raise SystemExit(f"duplicate command ids in the {verb} corpus")
        with tempfile.TemporaryDirectory() as workdir:
            for command in commands:
                if command.get("radius") is None:
                    command.pop("radius", None)
                command.update(run_command(command, workdir))
        path = os.path.join(HERE, f"{verb}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(commands, fh, indent=1)
            fh.write("\n")
        print(f"{path}: {len(commands)} commands")


if __name__ == "__main__":
    main(sys.argv[1:])
