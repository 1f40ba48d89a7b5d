"""The three workloads: inputs made from the seed, the timed op, its check.

Each workload hands out rounds.  A round is a fixed mix of ops whose
structure (primes, radii, lengths, verbs, window sizes) is the same for
every seed; the seed only draws the coefficients and letters.  The runner
times whole rounds, so the mix of a run does not depend on where the clock
ran out.

An op's ``run`` is the timed user-level call.  Its ``check`` compares the
result with an answer known by construction and runs outside the timed
region; it returns False or raises on a wrong answer.  ``tamper`` turns a
right result into a wrong one, for the benchmark's self-check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

import numpy as np

import reference as ref


class Op:
    __slots__ = ("kind", "run", "check", "tamper")

    def __init__(self, kind, run, check, tamper):
        self.kind = kind
        self.run = run
        self.check = check
        self.tamper = tamper


def cli_call(cli, argv):
    """Run one cqca verb in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _tamper_stdout(result):
    code, text = result
    return code, text.replace("1", "2", 1) if "1" in text else text + "x"


def _tamper_exit(result):
    code, text = result
    return 1 - code, text


def _random_palindrome(rng, p, deg, d=1):
    """Palindrome of exact degree deg (d = 1) or with every variable at degree 1 (d = 2)."""
    zero = (0,) * d
    out = {}
    c0 = rng.randrange(p)
    if c0:
        out[zero] = c0
    if d == 1:
        for e in range(1, deg + 1):
            c = rng.randrange(1, p) if e == deg else rng.randrange(p)
            if c:
                out[(e,)] = out[(-e,)] = c
    else:
        for i in range(d):
            c = rng.randrange(1, p)
            unit = tuple(1 if j == i else 0 for j in range(d))
            out[unit] = c
            out[tuple(-v for v in unit)] = c
    return out


def _recipe(rng, p, deg, d=1, swap=True):
    """((f, 1 - f h), (-1, h)) with h (or, swapped, f) a nonzero constant.

    Its determinant is f h + (1 - f h) = 1 and every entry is a palindrome,
    so it is an automaton by construction.
    """
    f = _random_palindrome(rng, p, deg, d)
    h = {(0,) * d: rng.randrange(1, p)}
    if swap and rng.random() < 0.5:
        f, h = h, f
    one = {(0,) * d: 1}
    return (f, ref.sub(one, ref.mul(f, h, p), p), {(0,) * d: p - 1}, h)


def _dense_automaton(rng, p, radius, d=1):
    """Product of two recipes whose f's have degrees summing to the radius.

    Drawn until all four entries have several terms, so an orbit multiplies
    long polynomials by long polynomials, and the trace has full degree, so
    the orbit fills its light cone.  Where no product of this family has
    four long entries (p = 2, radius 1), one with a full-degree trace is
    used, and failing that a single recipe.
    """
    fallback = None
    for _ in range(32):
        inner_deg = rng.randint(1, radius) if d == 1 else radius
        outer = _recipe(rng, p, radius - inner_deg, 1, swap=False)
        if d > 1:
            outer = tuple({(0,) * d: c for (_,), c in e.items()} for e in outer)
        m = ref.matmul(outer, _recipe(rng, p, inner_deg, d, swap=False), p)
        if ref.radius((ref.add(m[0], m[3], p),)) != radius:
            continue
        if min(len(e) for e in m) > 1:
            return m
        fallback = fallback or m
    return fallback or _recipe(rng, p, radius, d)


def _adjugate(m, p):
    a, b, c, d = m
    return (d, ref.neg(b, p), ref.neg(c, p), a)


def _matrix_json(m, p, d):
    return {
        "p": p,
        "d": d,
        "entries": [[ref.render(m[0], d), ref.render(m[1], d)], [ref.render(m[2], d), ref.render(m[3], d)]],
    }


def _parse_matrix(obj, p, d):
    if obj.get("p") != p or obj.get("d") != d:
        raise ValueError("matrix JSON ring differs")
    (a, b), (c, e) = obj["entries"]
    return tuple(ref.parse(x, p, d) for x in (a, b, c, e))


def _random_vector(rng, p, d, width):
    """A nonzero phase-space vector supported on the box [-width, width]^d."""
    cells = [()]
    for _ in range(d):
        cells = [c + (x,) for c in cells for x in range(-width, width + 1)]
    while True:
        plus = {c: v for c in cells if (v := rng.randrange(p))}
        minus = {c: v for c in cells if (v := rng.randrange(p))}
        if plus or minus:
            return plus, minus


class Workload:
    name = ""
    entry = "cqca"

    def __init__(self, seed, cqca, workdir):
        self.seed = seed
        self.cqca = cqca
        self.workdir = workdir

    def rng(self, j):
        return random.Random(f"{self.name}:{self.seed}:{j}")

    def prologue(self):
        """Ops run once at the start of every measurement."""
        return []

    def build_round(self, j):
        raise NotImplementedError

    def deferred_failures(self):
        """Checks run after the timed loop; returns how many failed."""
        return 0


# -- orbit -----------------------------------------------------------------------

# Steps by radius and prime.  An orbit of T steps at radius r costs about
# r*T^2, so the ladder keeps the ops within 20x of each other.  At each
# radius the primes cost about the same, so the 50th and 90th percentiles
# fall inside one class of ops instead of between two.  Radius 1 leaves out
# p = 2: its few radius-1 automata differ in cost by more than the bounds.
ORBIT_STEPS = {
    1: {3: 256, 5: 224},
    2: {2: 112, 3: 96, 5: 96},
    3: {2: 48, 3: 48, 5: 48},
    4: {2: 24, 3: 24, 5: 24},
}
ORBIT_D2 = (3, 1, 16)  # (p, radius, steps) of the two-dimensional pair
SYMPY_CHECKS_PER_RUN = 6


def _read_orbit_csv(path, d):
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != "t,x,plus,minus":
            raise ValueError("bad CSV header")
        text = fh.read()
    if d > 1:
        text = text.replace(":", ",")
    return np.loadtxt(io.StringIO(text), delimiter=",", dtype=np.int64, ndmin=2)


def _slice(rows, t, d):
    sel = rows[rows[:, 0] == t]
    plus, minus = {}, {}
    for row in sel.tolist():
        x = tuple(row[1 : 1 + d])
        if row[1 + d]:
            plus[x] = row[1 + d]
        if row[2 + d]:
            minus[x] = row[2 + d]
    return plus, minus


class Orbit(Workload):
    """``cqca evolve`` to a CSV file, in pairs that share automaton and steps."""

    name = "orbit"
    entry = "cqca.cli"

    def __init__(self, seed, cqca, workdir):
        super().__init__(seed, cqca, workdir)
        self.csv = os.path.join(workdir, "orbit.csv")
        self.deferred = []
        self.last = {}

    def build_round(self, j):
        rng = self.rng(j)
        specs = [
            (p, r, steps, 1)
            for r, by_prime in ORBIT_STEPS.items()
            for p, steps in by_prime.items()
        ]
        specs.append(ORBIT_D2 + (2,))
        sympy_pick = rng.randrange(len(specs) - 1)
        ops = []
        for k, (p, r, steps, d) in enumerate(specs):
            m = _dense_automaton(rng, p, r, d)
            path = os.path.join(self.workdir, f"orbit-{j}-{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_matrix_json(m, p, d), fh)
            width = 2 if d == 1 else 1
            xi = _random_vector(rng, p, d, width)
            eta = _random_vector(rng, p, d, width)
            sigma0 = ref.sigma_form(xi, eta, p)
            pair = (j, k)
            for which, vec in enumerate((xi, eta)):
                ops.append(
                    self._op(
                        m, p, d, r, steps, path, vec, pair, which, sigma0,
                        sympy=(which == 0 and k == sympy_pick),
                    )
                )
        return ops

    def _op(self, m, p, d, r, steps, path, vec, pair, which, sigma0, sympy):
        cli = self.cqca.cli
        argv = [
            "evolve", path,
            "--plus", ref.render(vec[0], d),
            "--minus", ref.render(vec[1], d),
            "--steps", str(steps),
            "--out", self.csv,
        ]

        def run():
            code, _ = cli_call(cli, argv)
            return code, self.csv

        def check(result):
            code, csv = result
            if code != 0:
                return False
            rows = _read_orbit_csv(csv, d)
            t = rows[:, 0]
            if t[0] != 0 or t[-1] != steps or np.any(np.diff(t) < 0):
                return False
            if np.unique(t).size != steps + 1:
                return False
            coeffs = rows[:, 1 + d :]
            if np.any(coeffs < 0) or np.any(coeffs >= p) or np.any(coeffs.sum(axis=1) == 0):
                return False
            # Light cone: cell x at time t lies within t*r of the start support.
            start = list(vec[0]) + list(vec[1])
            for i in range(d):
                lo = min(e[i] for e in start)
                hi = max(e[i] for e in start)
                x = rows[:, 1 + i]
                if np.any(x < lo - t * r) or np.any(x > hi + t * r):
                    return False
            if _slice(rows, 0, d) != vec:
                return False
            final = _slice(rows, steps, d)
            if sympy:
                self.deferred.append((m, vec, steps, p, final))
            if which == 0:
                self.last[pair] = final
                return True
            # Sigma between the two orbits of the pair is what it was at t = 0.
            other = self.last.pop(pair, None)
            return other is not None and ref.sigma_form(other, final, p) == sigma0

        def tamper(result):
            code, csv = result
            with open(csv, "a", encoding="utf-8") as fh:
                fh.write(f"{steps},{':'.join(['0'] * d)},{p},0\n")
            return code, csv

        return Op(f"evolve-p{p}-d{d}-r{r}-T{steps}", run, check, tamper)

    def deferred_failures(self):
        failures = 0
        for m, vec, steps, p, final in self.deferred[:SYMPY_CHECKS_PER_RUN]:
            if ref.orbit_slice_sympy(m, vec, steps, p) != final:
                failures += 1
        self.deferred.clear()
        return failures


# -- words -----------------------------------------------------------------------

WORD_PRIMES = (2, 3, 5)
WORD_LENGTHS = (0, 8, 16, 32, 128)
WORD_MAX_N = 3
# One letter of the 8- to 32-letter words gets shear index p^k: its entries
# are hollow (two terms far apart), the traffic of the sparse product path.
# The 16-letter words sit in the middle of the cost ladder, so the median
# op falls inside one class of ops.
HOLLOW_INDEX = {2: 2**6, 3: 3**4, 5: 5**3}
HOLLOW_LENGTHS = (8, 16, 32)
COMPOSE_RIGHT_LENGTH = 6
CORRUPT_LENGTH = 32
WORD_D2_PRIMES = (2, 3, 5)
WORD_ROUND_POOL = 6  # distinct rounds; the run cycles through them


class Words(Workload):
    """verify/classify/compose/invert/factor on matrices built from random words."""

    name = "words"
    entry = "cqca.cli"

    def __init__(self, seed, cqca, workdir):
        super().__init__(seed, cqca, workdir)
        self.pool = {}
        # Verdicts of outputs already checked, by (input path, verb, output
        # digest): the program is deterministic, so a repeated output needs
        # no second check.
        self.verdicts = {}

    def build_round(self, j):
        j %= WORD_ROUND_POOL
        if j not in self.pool:
            self.pool[j] = self._build(j)
        return self.pool[j]

    def _word(self, rng, p, length, hollow):
        factor = self.cqca.factor
        word = factor.random_word(p, length, WORD_MAX_N, rng.randrange(2**31))
        if hollow:
            letters = list(word.letters)
            shears = [i for i, let in enumerate(letters) if isinstance(let, (factor.Shear, factor.UpperShear))]
            if shears:
                i = rng.choice(shears)
                letters[i] = type(letters[i])(HOLLOW_INDEX[p], letters[i].c)
                word = factor.GeneratorWord(p, tuple(letters))
        return word

    def _write(self, obj, name):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def _build(self, j):
        cqca = self.cqca
        factor = cqca.factor
        rng = self.rng(j)
        ops = []
        for p in WORD_PRIMES:
            for length in WORD_LENGTHS:
                word = self._word(rng, p, length, length in HOLLOW_LENGTHS)
                obj = factor.multiply_word(word).to_json_dict()
                m = _parse_matrix(obj, p, 1)
                path = self._write(obj, f"word-{j}-{p}-{length}.json")
                shift = [word.letters[0].a] if word.letters and isinstance(word.letters[0], factor.Shift) else [0]
                right_word = self._word(rng, p, COMPOSE_RIGHT_LENGTH, False)
                right_word = factor.GeneratorWord(
                    p, tuple(let for let in right_word.letters if not isinstance(let, factor.Shift))
                )
                right = self._write(factor.multiply_word(right_word).to_json_dict(), f"word-{j}-{p}-{length}-r.json")
                product = factor.multiply_word(factor.GeneratorWord(p, word.letters + right_word.letters))
                expected = _parse_matrix(product.to_json_dict(), p, 1)
                ops += [
                    self._verify(path, p, 1, True),
                    self._classify(path, m, p, 1, shift),
                    self._invert(path, m, p, 1),
                    self._factor(path, m, p),
                    self._compose(path, right, expected, p, 1),
                ]
                if length == CORRUPT_LENGTH:
                    bad = self._corrupt(rng, m, p)
                    bad_path = self._write(_matrix_json(bad, p, 1), f"word-{j}-{p}-bad.json")
                    ops += [self._verify(bad_path, p, 1, False), self._classify(bad_path, bad, p, 1, None)]
        p = WORD_D2_PRIMES[j % len(WORD_D2_PRIMES)]
        m = _recipe(rng, p, 1, 2)
        path = self._write(_matrix_json(m, p, 2), f"recipe2-{j}.json")
        adj = self._write(_matrix_json(_adjugate(m, p), p, 2), f"recipe2-{j}-adj.json")
        ops += [
            self._verify(path, p, 2, True),
            self._classify(path, m, p, 2, [0, 0]),
            self._invert(path, m, p, 2),
            self._compose(path, adj, ref.identity(2), p, 2),
        ]
        return ops

    def _corrupt(self, rng, m, p):
        """Change one coefficient of one entry so the matrix is not symplectic."""
        while True:
            k = rng.randrange(4)
            entry = dict(m[k])
            span = [e[0] for e in entry] or [0]
            e = (rng.randint(min(span) - 1, max(span) + 1),)
            entry[e] = (entry.get(e, 0) + rng.randrange(1, p)) % p
            entry = {x: c for x, c in entry.items() if c}
            bad = m[:k] + (entry,) + m[k + 1 :]
            if not ref.is_symplectic(bad, p, 1):
                return bad

    def _op(self, kind, argv, verdict, tag, tamper=_tamper_stdout):
        cli = self.cqca.cli

        def run():
            return cli_call(cli, argv)

        def check(result):
            key = (tag, hashlib.sha1(repr(result).encode()).hexdigest())
            if key not in self.verdicts:
                self.verdicts[key] = bool(verdict(*result))
            return self.verdicts[key]

        return Op(kind, run, check, tamper)

    def _verify(self, path, p, d, expect):
        def verdict(code, text):
            return code == (0 if expect else 1) and json.loads(text)["symplectic"] is expect

        kind = f"verify-d{d}" + ("" if expect else "-bad")
        tamper = _tamper_stdout if expect else _tamper_exit
        return self._op(kind, ["verify", path], verdict, (path, "verify"), tamper)

    def _classify(self, path, m, p, d, shift):
        def verdict(code, text):
            if shift is None:
                return code == 1 and json.loads(text)["symplectic"] is False
            out = json.loads(text)
            if code != 0 or out["symplectic"] is not True or out["shift"] != shift:
                return False
            back = tuple(-a for a in shift)
            return _parse_matrix(out["core"], p, d) == tuple(ref.shift(e, back) for e in m)

        kind = f"classify-d{d}" + ("-bad" if shift is None else "")
        tamper = _tamper_exit if shift is None else _tamper_stdout
        return self._op(kind, ["classify", path], verdict, (path, "classify"), tamper)

    def _invert(self, path, m, p, d):
        def verdict(code, text):
            if code != 0:
                return False
            inv = _parse_matrix(json.loads(text), p, d)
            return ref.matmul(inv, m, p) == ref.identity(d)

        return self._op(f"invert-d{d}", ["invert", path], verdict, (path, "invert"))

    def _factor(self, path, m, p):
        factor = self.cqca.factor

        def verdict(code, text):
            if code != 0:
                return False
            out = json.loads(text)
            word = factor.word_from_json_list(p, out["word"])
            again = _parse_matrix(factor.multiply_word(word).to_json_dict(), p, 1)
            return again == m and _parse_matrix(out["matrix"], p, 1) == m

        return self._op("factor", ["factor", path], verdict, (path, "factor"))

    def _compose(self, left, right, expected, p, d):
        def verdict(code, text):
            return code == 0 and _parse_matrix(json.loads(text), p, d) == expected

        return self._op(f"compose-d{d}", ["compose", left, right], verdict, (left, "compose"))


# -- referee -----------------------------------------------------------------------

SELFTEST = (2, 4)  # oracle.run_selftest(p, sites), once per measurement
# (p, radius) of the automata whose default phase is validated, and the
# number of sampled pairs validate_cocycle checks.
COCYCLE_CASES = ((2, 2), (3, 1), (3, 2), (5, 1), (5, 2))
COCYCLE_SAMPLES = 12
# (p, sites, samples) of the windows check_clifford_action runs on, for
# radius-1 automata: dimensions 16 to 512.  Samples 0 keeps the default; on
# those windows the pair count is small and the check is exhaustive.
CLIFFORD_WINDOWS = ((2, 4, 0), (2, 6, 8), (2, 7, 6), (2, 8, 4), (2, 9, 2), (3, 3, 0), (3, 4, 8), (3, 5, 4))


class Referee(Workload):
    """Phase construction and cocycle validation, and the dense oracle."""

    name = "referee"
    entry = "cqca.oracle"

    def _automaton(self, rng, p, r):
        cqca = self.cqca
        m = _recipe(rng, p, r)
        polys = [cqca.cli.parse_poly(ref.render(e, 1), p, 1) for e in m]
        return cqca.ScaMatrix(*polys)

    def prologue(self):
        oracle = self.cqca.oracle

        def run():
            return [bool(r["pass"]) for r in oracle.run_selftest(*SELFTEST)]

        def check(result):
            return len(result) > 0 and all(result)

        return [Op("selftest", run, check, lambda result: result + [False])]

    def build_round(self, j):
        rng = self.rng(j)
        ops = [self._cocycle(self._automaton(rng, p, r), rng.randrange(2**31)) for p, r in COCYCLE_CASES]
        for p, sites, samples in CLIFFORD_WINDOWS:
            ops.append(self._clifford(self._automaton(rng, p, 1), p, sites, samples, rng.randrange(2**31)))
        return ops

    def _sigma_check(self, s):
        """The automaton keeps sigma(e_plus, e_minus) = 1 (an int mod p)."""
        cqca = self.cqca
        # The cell is passed explicitly: e_plus(p, 2) with the default
        # x = 0 raises ValueError (0 is not a 2-tuple).
        origin = (0,) * s.d
        xi = s.apply(cqca.PhaseVector.e_plus(s.p, s.d, origin))
        eta = s.apply(cqca.PhaseVector.e_minus(s.p, s.d, origin))
        return int(cqca.sigma(xi, eta)) % s.p == 1

    def _cocycle(self, s, seed):
        cqca = self.cqca

        def run():
            phi = cqca.default_phase(s)
            return bool(cqca.validate_cocycle(phi, s.radius() + 1, samples=COCYCLE_SAMPLES, seed=seed))

        def check(result):
            return result is True and self._sigma_check(s)

        return Op(f"cocycle-p{s.p}-r{s.radius()}", run, check, lambda result: not result)

    def _clifford(self, s, p, sites, samples, seed):
        cqca = self.cqca
        oracle = cqca.oracle
        window = oracle.Window(p, 0, sites - 1)

        def run():
            phi = cqca.default_phase(s)
            kwargs = {"samples": samples} if samples else {}
            return bool(oracle.check_clifford_action(s, phi, window, seed=seed, **kwargs))

        def check(result):
            return result is True and self._sigma_check(s)

        return Op(f"clifford-dim{p ** sites}", run, check, lambda result: not result)


WORKLOADS = {cls.name: cls for cls in (Orbit, Words, Referee)}
