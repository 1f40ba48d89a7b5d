"""Generate the golden CLI corpus from the current tree.

    PYTHONPATH=src python tests/golden/make_corpus.py [verb ...]

Each verb has one corpus file, tests/golden/<verb>.json: a list of
commands, each run in-process through cqca.cli.main.  A command holds

    id           a unique name
    argv         the arguments; an argument "{name}" is replaced by the path
                 of the input file `name`, and "{out}" by the path of an
                 output file
    files        input files by name, as JSON objects (matrices)
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
            json.dump(obj, fh)
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
    return commands


BUILDERS = {"evolve": evolve_commands}


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
