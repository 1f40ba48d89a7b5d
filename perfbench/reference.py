"""Independent polynomial arithmetic used to check the program's answers.

Nothing here imports cqca.  A Laurent polynomial over F_p is a dict from
exponent tuples to coefficients in [1, p); a 2x2 matrix is a tuple of four
such dicts (pp, pm, mp, mm); a phase-space vector is a pair (plus, minus).
The string forms follow the wire grammar of the matrix JSON: terms joined
by " + " in ascending exponent order, 'u' for one variable, 'u1'..'ud' for
more.
"""

from __future__ import annotations

import re

import numpy as np

_TERM = re.compile(r"^(\d*)((?:u\d*(?:\^-?\d+)?)*)$")
_VAR = re.compile(r"u(\d*)(?:\^(-?\d+))?")


class ParseError(ValueError):
    """The program printed a polynomial that is not in canonical form."""


def parse(text: str, p: int, d: int) -> dict:
    """Parse a canonical polynomial string as printed by the program."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in text.split(" + "):
        m = _TERM.match(term)
        if not m or not term:
            raise ParseError(f"not a canonical term: {term!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        exps = [0] * d
        for var in _VAR.finditer(m.group(2)):
            index = int(var.group(1)) - 1 if var.group(1) else 0
            if not 0 <= index < d or (d > 1) != bool(var.group(1)):
                raise ParseError(f"bad variable in {term!r}")
            exps[index] += int(var.group(2)) if var.group(2) else 1
        e = tuple(exps)
        if e in out or not 0 < coeff < p:
            raise ParseError(f"repeated exponent or unreduced coefficient in {text!r}")
        out[e] = coeff
    return out


def render(poly: dict, d: int) -> str:
    """Canonical string of a polynomial dict (accepted by the program's parser)."""
    if not poly:
        return "0"
    parts = []
    for e, c in sorted(poly.items()):
        if d == 1:
            var = "" if e[0] == 0 else ("u" if e[0] == 1 else f"u^{e[0]}")
        else:
            var = "".join(
                f"u{i + 1}" + ("" if v == 1 else f"^{v}") for i, v in enumerate(e) if v
            )
        parts.append(str(c) if not var else (var if c == 1 else f"{c}{var}"))
    return " + ".join(parts)


def add(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for e, c in b.items():
        v = (out.get(e, 0) + c) % p
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def neg(a: dict, p: int) -> dict:
    return {e: (-c) % p for e, c in a.items()}


def sub(a: dict, b: dict, p: int) -> dict:
    return add(a, neg(b, p), p)


def shift(a: dict, x: tuple) -> dict:
    return {tuple(u + v for u, v in zip(e, x)): c for e, c in a.items()}


def reflect(a: dict) -> dict:
    return {tuple(-v for v in e): c for e, c in a.items()}


def mul(a: dict, b: dict, p: int) -> dict:
    """Exact product of two polynomials.

    Long operands in one or two variables are packed into one-variable
    coefficient arrays (Kronecker substitution) and convolved with numpy;
    short ones are multiplied term by term.
    """
    if not a or not b:
        return {}
    if min(len(a), len(b)) <= 8:
        acc = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                k = tuple(x + y for x, y in zip(e1, e2))
                acc[k] = acc.get(k, 0) + c1 * c2
        return {e: c % p for e, c in acc.items() if c % p}
    d = len(next(iter(a)))
    lo = [min(e[i] for e in a) + min(e[i] for e in b) for i in range(d)]
    span = [
        max(e[i] for e in a) + max(e[i] for e in b) - lo[i] + 1 for i in range(d)
    ]
    # Row-major strides over the product's bounding box; operands are laid
    # out on the same strides so one 1-D convolution gives the product.
    strides = [1] * d
    for i in range(d - 2, -1, -1):
        strides[i] = strides[i + 1] * span[i + 1]

    def pack(poly, origin):
        keys = {e: sum((v - o) * s for v, o, s in zip(e, origin, strides)) for e in poly}
        vec = np.zeros(max(keys.values()) + 1, dtype=np.int64)
        for e, c in poly.items():
            vec[keys[e]] = c
        return vec

    lo_a = [min(e[i] for e in a) for i in range(d)]
    lo_b = [min(e[i] for e in b) for i in range(d)]
    conv = np.convolve(pack(a, lo_a), pack(b, lo_b)) % p
    out = {}
    for k in np.nonzero(conv)[0].tolist():
        e = []
        rest = k
        for s, base in zip(strides, lo):
            q, rest = divmod(rest, s)
            e.append(base + q)
        out[tuple(e)] = int(conv[k])
    return out


def matmul(m: tuple, n: tuple, p: int) -> tuple:
    """Product of two 2x2 matrices given as (pp, pm, mp, mm)."""
    a, b, c, d = m
    e, f, g, h = n
    return (
        add(mul(a, e, p), mul(b, g, p), p),
        add(mul(a, f, p), mul(b, h, p), p),
        add(mul(c, e, p), mul(d, g, p), p),
        add(mul(c, f, p), mul(d, h, p), p),
    )


def identity(d: int) -> tuple:
    one = {(0,) * d: 1}
    return (one, {}, {}, one)


def sigma_form(xi: tuple, eta: tuple, p: int) -> dict:
    """reflect(xi_plus) eta_minus - reflect(xi_minus) eta_plus."""
    return sub(mul(reflect(xi[0]), eta[1], p), mul(reflect(xi[1]), eta[0], p), p)


def is_symplectic(m: tuple, p: int, d: int) -> bool:
    """The three column identities of the commutation form."""
    c1 = (m[0], m[2])
    c2 = (m[1], m[3])
    return (
        not sigma_form(c1, c1, p)
        and not sigma_form(c2, c2, p)
        and sigma_form(c1, c2, p) == {(0,) * d: 1}
    )


def radius(m: tuple) -> int:
    return max((abs(v) for entry in m for e in entry for v in e), default=0)


def orbit_slice_sympy(m: tuple, xi: tuple, steps: int, p: int) -> tuple:
    """Final slice of a one-variable orbit, recomputed with sympy over GF(p).

    Entries are shifted by u^r and the start vector by u^k so that every
    exponent is non-negative; the shifts are undone at the end.  The steps
    run over ZZ with a reduction mod p after each one, which is the same
    arithmetic as GF(p) and much faster in sympy; the final slice is read
    through Poly(..., modulus=p).
    """
    from sympy import Poly, symbols

    u = symbols("u")
    r = radius(m)
    k = -min((e[0] for part in xi for e in part), default=0)

    def to_poly(a: dict, offset: int):
        return Poly.from_dict({(e[0] + offset,): c for e, c in a.items()} or {(0,): 0}, u, domain="ZZ")

    a, b, c, d = (to_poly(entry, r) for entry in m)
    plus, minus = to_poly(xi[0], k), to_poly(xi[1], k)
    for _ in range(steps):
        plus, minus = (a * plus + b * minus).trunc(p), (c * plus + d * minus).trunc(p)
    base = k + r * steps

    def back(poly) -> dict:
        poly = poly.set_modulus(p)
        return {(e - base,): int(c) % p for (e,), c in poly.terms() if int(c) % p}

    return back(plus), back(minus)
