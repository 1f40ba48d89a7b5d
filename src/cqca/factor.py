"""Factorization of one-dimensional automata into generator words.

Every symplectic matrix over the one-variable ring is a product of a lattice
shift, shears g_n, transposed shears, and local transformations f_c.  The
algorithm is Euclidean: after splitting off the shift, left-multiply by
generator inverses to shrink the lower-left entry with palindrome division,
swapping rows through a Local letter whenever the division would stall.
Each division strictly decreases the degree sum of the first column, which
bounds the iteration count by 2 * (max entry degree) + 2.  The residual
triangular matrix ((c, b), (0, c^-1)) is finished as Local(c) * Local(-1)
followed by the symmetric-basis expansion of b/c in upper-shear letters.

Words multiply back exactly: multiply_word(factorize(s)) == s.

Both directions run on coefficient windows (see laurent): the Euclidean
loop keeps the four core entries as centred windows, divides them with
laurent's window division and multiplies with one np.convolve, and
multiply_word applies each letter as slice updates of four windows.  The
loops over LaurentPoly terms remain for hollow supports (laurent._is_hollow),
whose windows would cost cells rather than terms: shear_g(3, 2^31 - 1)
would need a window of 2^32 cells.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import sca
from .ffield import check_prime, inv_mod
from .laurent import (
    LaurentPoly,
    _centred_hollow,
    _centred_poly,
    _centred_sub,
    _centred_window,
    _convolve_mod,
    _divmod_windows,
    _is_hollow,
    _window_poly,
    coefficient_dtype,
    palindrome_coeffs,
    palindrome_divmod,
)

__all__ = [
    "NotOneDimensional",
    "Shift",
    "Shear",
    "UpperShear",
    "Local",
    "GeneratorWord",
    "letter_matrix",
    "multiply_word",
    "factorize",
    "random_word",
    "word_to_json_list",
    "word_from_json_list",
]


class NotOneDimensional(ValueError):
    """Raised when a d > 1 automaton reaches the one-dimensional factorizer."""


@dataclass(frozen=True)
class Shift:
    a: int


@dataclass(frozen=True)
class Shear:
    n: int
    c: int


@dataclass(frozen=True)
class UpperShear:
    n: int
    c: int


@dataclass(frozen=True)
class Local:
    c: int


@dataclass(frozen=True)
class GeneratorWord:
    """Ordered product of generator letters over F_p (leftmost letter first)."""

    p: int
    letters: tuple

    def __post_init__(self):
        check_prime(self.p)
        shifts = [i for i, let in enumerate(self.letters) if isinstance(let, Shift)]
        if shifts and (len(shifts) > 1 or shifts[0] != 0):
            raise ValueError("at most one shift letter is allowed, and it comes first")
        if shifts and self.letters[0].a == 0 and len(self.letters) > 1:
            raise ValueError("a zero shift may only spell the identity word")
        for let in self.letters:
            if isinstance(let, (Shear, UpperShear)):
                if let.n < 0:
                    raise ValueError(f"negative shear index in {let}")
                if let.c % self.p == 0:
                    raise ValueError(f"zero-coefficient shear letter {let}")
            elif isinstance(let, Local):
                if let.c % self.p == 0:
                    raise ValueError(f"non-invertible local letter {let}")
            elif not isinstance(let, Shift):
                raise TypeError(f"unknown letter {let!r}")

    def __len__(self):
        return len(self.letters)


def letter_matrix(letter, p) -> sca.ScaMatrix:
    if isinstance(letter, Shift):
        return sca.shift(p, 1, letter.a)
    if isinstance(letter, Shear):
        return sca.shear_g(p, letter.n, letter.c)
    if isinstance(letter, UpperShear):
        return sca.upper_shear_g(p, letter.n, letter.c)
    if isinstance(letter, Local):
        return sca.local_f(p, letter.c)
    raise TypeError(f"unknown letter {letter!r}")


def multiply_word(word: GeneratorWord) -> sca.ScaMatrix:
    """Product of the letter matrices, leftmost first; empty word gives identity.

    The running product ((a, b), (c, d)) takes the letters one by one as the
    column operations their matrices define: a Shear g adds g * col_minus to
    col_plus, an UpperShear g adds g * col_plus to col_minus, Local(k) maps
    (a, b, c, d) to (-k^-1 b, k a, -k^-1 d, k c), and a Shift moves all four
    entries.  The entries stay within exponents +-(sum of the shear indices)
    of the shift, and that box, with one term per letter, decides between
    windows and the term loop (_is_hollow).
    """
    reach = sum(let.n for let in word.letters if isinstance(let, (Shear, UpperShear)))
    if _is_hollow([2 * reach], len(word.letters)):
        return _multiply_word_terms(word)
    return _multiply_word_windows(word, reach)


def _multiply_word_windows(word: GeneratorWord, reach: int) -> sca.ScaMatrix:
    """multiply_word on windows of exponents -reach .. reach around the shift."""
    p = word.p
    dtype = coefficient_dtype(p, 1)  # a cell takes one product before each reduction
    # Rows (a, c) of column plus and (b, d) of column minus; cell reach is u^0.
    plus = np.zeros((2, 2 * reach + 1), dtype)
    minus = np.zeros_like(plus)
    plus[0, reach] = minus[1, reach] = 1
    shift = r = 0  # the entries are u^shift times exponents -r .. r
    for letter in word.letters:
        if isinstance(letter, Shift):
            shift += letter.a
        elif isinstance(letter, Local):
            k = letter.c % p
            plus, minus = minus * (-inv_mod(k, p) % p) % p, plus * k % p
        else:
            n = letter.n
            src, dst = (minus, plus) if isinstance(letter, Shear) else (plus, minus)
            g = src[:, reach - r : reach + r + 1] * (letter.c % p) % p
            dst[:, reach - r + n : reach + r + n + 1] += g
            if n:
                dst[:, reach - r - n : reach + r - n + 1] += g
            r += n
            dst[:, reach - r : reach + r + 1] %= p
    live = slice(reach - r, reach + r + 1)
    (a, c), (b, d) = ([_window_poly(w, p, shift - r) for w in col[:, live]] for col in (plus, minus))
    return sca.ScaMatrix(a, b, c, d)


def _multiply_word_terms(word: GeneratorWord) -> sca.ScaMatrix:
    """multiply_word on LaurentPoly entries, g, k and -k^-1 read off letter_matrix."""
    p = word.p
    one, zero = LaurentPoly.one(p, 1), LaurentPoly.zero(p, 1)
    a, b, c, d = one, zero, zero, one
    for letter in word.letters:
        m = letter_matrix(letter, p)
        if isinstance(letter, Shear):
            a, c = a + m.mp * b, c + m.mp * d
        elif isinstance(letter, UpperShear):
            b, d = b + m.pm * a, d + m.pm * c
        elif isinstance(letter, Local):
            k, minus_k_inv = m.pm.constant_coeff(), m.mp.constant_coeff()
            a, b, c, d = b * minus_k_inv, a * k, d * minus_k_inv, c * k
        else:
            a, b, c, d = a * m.pp, b * m.pp, c * m.pp, d * m.pp
    return sca.ScaMatrix(a, b, c, d)


def _emit_shears(q: LaurentPoly, letters: list, cls) -> None:
    """Append one letter per symmetric-basis term of q, largest n first."""
    for n, c in sorted(palindrome_coeffs(q).items(), reverse=True):
        letters.append(cls(n=n, c=c))


def factorize(s: sca.ScaMatrix, step_hook=None) -> GeneratorWord:
    """Factor a symplectic matrix into a generator word (d == 1 only).

    step_hook, if given, is called once per Euclidean division with the
    degrees (deg upper-left, deg lower-left) right before the division; the
    degree sum strictly decreases between calls.
    """
    if s.d != 1:
        raise NotOneDimensional(f"factorization handles d = 1, got d = {s.d}")
    cert = sca.classify(s)
    p = s.p
    letters: list = []
    a = cert.shift[0]
    if a:
        letters.append(Shift(a))
    core = cert.core
    entries = (core.pp, core.pm, core.mp, core.mm)
    euclid = _euclid_terms if any(map(_centred_hollow, entries)) else _euclid_windows
    upper_l, upper_r = euclid(entries, letters, step_hook)
    # Triangular tail ((c, b), (0, c^-1)); the unit c must be a constant.
    if not upper_l.is_constant() or upper_l.is_zero():
        raise sca.InvariantViolation(f"Euclidean tail left a non-constant unit {upper_l}")
    c = upper_l.constant_coeff()
    if c != 1:
        letters.append(Local(c))
        letters.append(Local(p - 1))
    b_over_c = upper_r * inv_mod(c, p)
    _emit_shears(b_over_c, letters, UpperShear)
    return GeneratorWord(p, tuple(letters))


def _euclid_windows(entries, letters: list, step_hook):
    """The Euclidean loop of factorize on centred windows; returns the top row.

    Appends the Local(1) and Shear letters to letters and returns the final
    upper-left and upper-right entries as polynomials.
    """
    p = entries[0].p
    dtype = coefficient_dtype(p, 1)
    upper_l, upper_r, lower_l, lower_r = (_centred_window(e, dtype) for e in entries)
    while len(lower_l):
        if not len(upper_l) or len(lower_l) < len(upper_l):
            # Row swap through a Local letter: f_1^-1 * rows = ((-C, -D), (A, B)).
            letters.append(Local(1))
            upper_l, upper_r, lower_l, lower_r = -lower_l % p, -lower_r % p, upper_l, upper_r
            if not len(lower_l):
                break
        if step_hook is not None:
            step_hook(len(upper_l) // 2, len(lower_l) // 2)
        q, lower_l = _divmod_windows(lower_l, upper_l, p)
        # The quotient's symmetric-basis coefficients, largest n first.
        mid = len(q) // 2
        letters += [Shear(n, int(q[mid + n])) for n in q[mid:].nonzero()[0][::-1].tolist()]
        lower_r = _centred_sub(lower_r, _convolve_mod(q, upper_r, p), p)
    return _centred_poly(upper_l, p), _centred_poly(upper_r, p)


def _euclid_terms(entries, letters: list, step_hook):
    """_euclid_windows on LaurentPoly entries: the path of hollow supports."""
    upper_l, upper_r, lower_l, lower_r = entries
    while not lower_l.is_zero():
        if upper_l.is_zero() or lower_l.degree() < upper_l.degree():
            letters.append(Local(1))
            upper_l, upper_r, lower_l, lower_r = -lower_l, -lower_r, upper_l, upper_r
            if lower_l.is_zero():
                break
        if step_hook is not None:
            step_hook(upper_l.degree(), lower_l.degree())
        q, r = palindrome_divmod(lower_l, upper_l)
        _emit_shears(q, letters, Shear)
        lower_l = r
        lower_r = lower_r - q * upper_r
    return upper_l, upper_r


def random_word(p, length, max_n, seed) -> GeneratorWord:
    """Deterministic pseudo-random word: optional shift, then mixed letters."""
    check_prime(p)
    if length == 0:
        return GeneratorWord(p, ())
    rng = random.Random(seed)
    letters = []
    a = rng.randint(-2, 2)
    if a:
        letters.append(Shift(a))
    for _ in range(length):
        kind = rng.randrange(3)
        if kind == 0:
            letters.append(Shear(rng.randint(0, max_n), rng.randint(1, p - 1)))
        elif kind == 1:
            letters.append(UpperShear(rng.randint(0, max_n), rng.randint(1, p - 1)))
        else:
            letters.append(Local(rng.randint(1, p - 1)))
    return GeneratorWord(p, tuple(letters))


def word_to_json_list(word: GeneratorWord) -> list:
    out = []
    for let in word.letters:
        if isinstance(let, Shift):
            out.append({"shift": let.a})
        elif isinstance(let, Shear):
            out.append({"g": {"n": let.n, "c": let.c}})
        elif isinstance(let, UpperShear):
            out.append({"ug": {"n": let.n, "c": let.c}})
        else:
            out.append({"f": {"c": let.c}})
    return out


def word_from_json_list(p, data) -> GeneratorWord:
    letters = []
    for i, obj in enumerate(data):
        if not isinstance(obj, dict) or len(obj) != 1:
            raise ValueError(f"letter {i}: expected a single-key object, got {obj!r}")
        ((key, val),) = obj.items()
        if key == "shift":
            letters.append(Shift(int(val)))
        elif key == "g":
            letters.append(Shear(int(val["n"]), int(val["c"])))
        elif key == "ug":
            letters.append(UpperShear(int(val["n"]), int(val["c"])))
        elif key == "f":
            letters.append(Local(int(val["c"])))
        else:
            raise ValueError(f"letter {i}: unknown kind {key!r}")
    return GeneratorWord(p, tuple(letters))
