"""Laurent polynomials over F_p in d variables, with the palindrome subring.

A polynomial is stored sparsely as a map from exponent vectors (tuples of
ints, negative exponents welcome) to nonzero coefficients in [0, p).  The
representation is canonical: no zero coefficients are ever stored, so two
equal polynomials always compare equal structurally.

The reflection involution sends u_i -> u_i^{-1} (exponent negation).  Its
fixed points are the palindromes; they form the subring in which the
symplectic normal form of a cellular automaton lives.  Division with
remainder inside that subring works against the symmetric basis
b_0 = 1, b_n = u^n + u^-n and is the engine of the Euclidean factorization.

Products dispatch between a monomial shift, a dense coefficient-window
convolution and a sparse dict walk; all give identical canonical results.
The dense path is one np.convolve for every d (Kronecker substitution) and
is just faster for the contiguous supports that dominate here, at every p.
Every layer lays windows out with _coeff_window, in coefficient_dtype.

Palindrome division runs on centred windows (exponents -deg .. deg, see
_centred_window): each round is two shifted slice updates of the divisor
and one reduction, and a palindrome check compares a window with its
reverse.  The Euclidean factorization keeps its matrix entries in the same
layout.  Hollow supports (_is_hollow) stay on the dict loop: a window costs
cells, not terms, and u^(2^31 - 1) + u^-(2^31 - 1) would need 2^32 cells.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import add, neg

import numpy as np

from .ffield import check_prime, inv_mod

__all__ = [
    "LaurentPoly",
    "coefficient_dtype",
    "palindromize",
    "basis_element",
    "palindrome_coeffs",
    "palindrome_divmod",
]

# Degree of the zero polynomial: a real minus infinity, ordered below every int.
NEG_INF = float("-inf")

# Dense-path guard: the exponent cap keeps every product exponent inside
# int64.  Hollow supports (see _is_hollow) take the sparse walk.
_DENSE_MAX_EXP = 1 << 62


def coefficient_dtype(p: int, products: int = 0):
    """np.int64 while the sums over a window fit it, object (Python ints) otherwise.

    The sums are those of two residues mod p, and sums of up to `products`
    products of two numbers below p; both must stay below 2^63.
    """
    return np.int64 if 2 * p + products * p * p < 1 << 63 else object


def _is_hollow(spans, n_terms) -> bool:
    """Whether a support fills too little of its bounding box for a dense window.

    spans holds the exponent range (max - min) per variable; the box is
    hollow when it has more than 16 cells per term, plus slack.
    """
    return math.prod(s + 1 for s in spans) > 16 * n_terms + 64


def _strides(shape):
    """Row-major strides, in cells, of a window of the given shape."""
    strides = [1] * len(shape)
    for i in range(len(shape) - 1, 0, -1):
        strides[i - 1] = strides[i] * shape[i]
    return strides


def _centred_hollow(poly) -> bool:
    """_is_hollow for the centred window of a one-variable polynomial; never for zero."""
    return bool(poly.terms) and _is_hollow([2 * poly.degree()], len(poly.terms))


def _coeff_window(poly, lo, strides, length, dtype=np.int64):
    """The coefficients of poly on a flat window, exponent e at offset (e - lo) @ strides."""
    window = np.zeros(length, dtype=dtype)
    n, d = len(poly.terms), poly.d
    exps = np.fromiter(chain.from_iterable(poly.terms), np.int64, n * d)
    offsets = exps - lo[0] if d == 1 else (exps.reshape(n, d) - lo) @ strides
    window[offsets] = np.fromiter(poly.terms.values(), dtype, n)
    return window


def _centred_window(poly, dtype):
    """A one-variable polynomial on exponents -deg .. deg; empty for zero."""
    if not poly.terms:
        return np.zeros(0, dtype)
    r = poly.degree()
    return _coeff_window(poly, [-r], None, 2 * r + 1, dtype)


def _window_poly(window, p, lo) -> LaurentPoly:
    """The one-variable polynomial with coefficient window[i] at exponent lo + i."""
    nz = window.nonzero()[0]
    exps = [(i + lo,) for i in nz.tolist()]  # Python ints: lo may lie past int64
    return LaurentPoly._raw(p, 1, dict(zip(exps, window[nz].tolist())))


def _centred_poly(window, p) -> LaurentPoly:
    """The one-variable polynomial of a centred window."""
    return _window_poly(window, p, -(len(window) // 2))


def _trim(window):
    """A centred window cut to the degree of its polynomial; empty for zero."""
    nz = window.nonzero()[0]
    if not len(nz):
        return window[:0]
    k = min(nz[0], len(window) - 1 - nz[-1])
    return window[k : len(window) - k]


def _centred_sub(a, b, p):
    """a - b on centred windows."""
    out = np.zeros(max(len(a), len(b)), a.dtype)
    i, j = (len(out) - len(a)) // 2, (len(out) - len(b)) // 2
    out[i : i + len(a)] = a
    out[j : j + len(b)] -= b
    out %= p
    return _trim(out)


def _convolve_mod(a, b, p):
    """a * b on coefficient windows, summed in coefficient_dtype and kept in a's dtype."""
    if not len(a) or not len(b):
        return a[:0]
    dtype = coefficient_dtype(p, min(len(a), len(b)))
    out = np.convolve(a.astype(dtype, copy=False), b.astype(dtype, copy=False))
    out %= p
    return out.astype(a.dtype, copy=False)


def _check_ring(p, d):
    """Raise ValueError unless p is a prime modulus and d a positive variable count."""
    check_prime(p)
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"number of variables must be a positive int, got {d!r}")


def _as_exponent(x, d):
    if isinstance(x, int) and not isinstance(x, bool):
        if d == 1:
            return (x,)
        raise ValueError(f"exponent {x!r} needs {d} components")
    t = tuple(x)
    if len(t) != d:
        raise ValueError(f"exponent {x!r} needs {d} components")
    for v in t:
        if not isinstance(v, int) or isinstance(v, bool):
            raise TypeError(f"exponent components must be ints, got {v!r}")
    return t


class LaurentPoly:
    """Sparse Laurent polynomial over F_p in d variables."""

    __slots__ = ("p", "d", "terms", "_hash")

    def __init__(self, p, d, terms=None):
        _check_ring(p, d)
        acc = {}
        if terms:
            for e, c in terms.items():
                e = _as_exponent(e, d)
                acc[e] = (acc.get(e, 0) + c) % p
        self.p = p
        self.d = d
        self.terms = {e: c for e, c in acc.items() if c}
        self._hash = None

    @classmethod
    def _raw(cls, p, d, terms):
        """Trusted constructor: terms must already be canonical."""
        self = object.__new__(cls)
        self.p = p
        self.d = d
        self.terms = terms
        self._hash = None
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p, d=1):
        check_prime(p)
        return cls._raw(p, d, {})

    @classmethod
    def one(cls, p, d=1):
        return cls.constant(p, d, 1)

    @classmethod
    def constant(cls, p, d, c):
        check_prime(p)
        c = int(c) % p
        return cls._raw(p, d, {(0,) * d: c} if c else {})

    @classmethod
    def monomial(cls, p, d, exponent, c=1):
        check_prime(p)
        e = _as_exponent(exponent, d)
        c = int(c) % p
        return cls._raw(p, d, {e: c} if c else {})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0,) * self.d in self.terms)

    def is_unit(self) -> bool:
        """Unit of the full Laurent ring: a single monomial with nonzero coefficient."""
        return len(self.terms) == 1

    def coeff(self, exponent) -> int:
        return self.terms.get(_as_exponent(exponent, self.d), 0)

    def constant_coeff(self) -> int:
        return self.terms.get((0,) * self.d, 0)

    def support(self):
        """Sorted exponents carrying nonzero coefficients (ints when d == 1)."""
        if self.d == 1:
            return sorted(e for (e,) in self.terms)
        return sorted(self.terms)

    def degree(self):
        """Max absolute exponent (d == 1 only); NEG_INF for the zero polynomial."""
        if self.d != 1:
            raise ValueError("degree is defined for one-variable polynomials")
        if not self.terms:
            return NEG_INF
        return max(abs(e) for (e,) in self.terms)

    # -- ring operations ----------------------------------------------------

    def _require_same_ring(self, other):
        if self.p != other.p or self.d != other.d:
            raise ValueError(
                f"ring mismatch: F_{self.p} in {self.d} vars"
                f" vs F_{other.p} in {other.d} vars"
            )

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._require_same_ring(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        p = self.p
        for e, c in b.items():
            v = (out.get(e, 0) + c) % p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return LaurentPoly._raw(p, self.d, out)

    def __neg__(self):
        p = self.p
        return LaurentPoly._raw(p, self.d, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def _scaled(self, k: int):
        k %= self.p
        if k == 0:
            return LaurentPoly._raw(self.p, self.d, {})
        if k == 1:
            return self
        p = self.p
        return LaurentPoly._raw(p, self.d, {e: (c * k) % p for e, c in self.terms.items()})

    def _mul_monomial(self, exponent, coefficient):
        p = self.p
        if coefficient == 0:
            return LaurentPoly._raw(p, self.d, {})
        out = {}
        for e, c in self.terms.items():
            out[tuple(map(add, e, exponent))] = (c * coefficient) % p
        return LaurentPoly._raw(p, self.d, out)

    def shifted(self, x):
        """Multiply by the monomial u^x (translation of the support)."""
        return self._mul_monomial(_as_exponent(x, self.d), 1)

    def _mul_sparse(self, other):
        acc = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                k = tuple(map(add, e1, e2))
                acc[k] = acc.get(k, 0) + c1 * c2
        p = self.p
        out = {}
        for e, c in acc.items():
            c %= p
            if c:
                out[e] = c
        return LaurentPoly._raw(p, self.d, out)

    def _mul_dense(self, other):
        """Product by Kronecker substitution, or None when the windows do not suit it.

        Both coefficient windows are laid out with the row strides of the
        product window, whose rows are wide enough that no sum of two offsets
        carries into the next row.  One 1-D convolution then yields the
        product window for any number of variables.
        """
        d = self.d
        cols_a = tuple(zip(*self.terms))
        cols_b = tuple(zip(*other.terms))
        lo_a = [min(c) for c in cols_a]
        lo_b = [min(c) for c in cols_b]
        span_a = [max(c) - lo for c, lo in zip(cols_a, lo_a)]
        span_b = [max(c) - lo for c, lo in zip(cols_b, lo_b)]
        if max(map(abs, lo_a + lo_b)) + max(span_a + span_b) >= _DENSE_MAX_EXP:
            return None
        shape = [x + y + 1 for x, y in zip(span_a, span_b)]
        strides = _strides(shape)
        len_a = sum(x * s for x, s in zip(span_a, strides)) + 1
        len_b = sum(x * s for x, s in zip(span_b, strides)) + 1
        if _is_hollow(span_a, len(self.terms)) or _is_hollow(span_b, len(other.terms)):
            return None
        dtype = coefficient_dtype(self.p)  # residues; _convolve_mod widens the sums
        conv = _convolve_mod(
            _coeff_window(self, lo_a, strides, len_a, dtype),
            _coeff_window(other, lo_b, strides, len_b, dtype),
            self.p,
        )
        nz = conv.nonzero()[0]
        base = [x + y for x, y in zip(lo_a, lo_b)]
        if d == 1:
            keys = zip((nz + base[0]).tolist())  # zip over one list yields 1-tuples
        else:
            keys = zip(*(np.array(np.unravel_index(nz, shape)) + np.array(base)[:, None]).tolist())
        return LaurentPoly._raw(self.p, d, dict(zip(keys, conv[nz].tolist())))

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return self._scaled(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._require_same_ring(other)
        if not self.terms or not other.terms:
            return LaurentPoly._raw(self.p, self.d, {})
        if len(other.terms) == 1:
            ((e, c),) = other.terms.items()
            return self._mul_monomial(e, c)
        if len(self.terms) == 1:
            ((e, c),) = self.terms.items()
            return other._mul_monomial(e, c)
        product = self._mul_dense(other)
        if product is not None:
            return product
        return self._mul_sparse(other)

    def __rmul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = LaurentPoly.one(self.p, self.d)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- reflection and palindromes -----------------------------------------

    def reflect(self):
        """The involution u -> u^{-1}: negate every exponent."""
        return LaurentPoly._raw(
            self.p, self.d, {tuple(map(neg, e)): c for e, c in self.terms.items()}
        )

    def is_palindrome(self) -> bool:
        terms = self.terms
        for e, c in terms.items():
            if terms.get(tuple(map(neg, e))) != c:
                return False
        return True

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        if self.d == 1:
            for (e,), c in sorted(self.terms.items()):
                if e == 0:
                    parts.append(str(c))
                else:
                    var = "u" if e == 1 else f"u^{e}"
                    parts.append(var if c == 1 else f"{c}{var}")
        else:
            for e, c in sorted(self.terms.items()):
                var = "".join(
                    f"u{i + 1}" + ("" if v == 1 else f"^{v}")
                    for i, v in enumerate(e)
                    if v != 0
                )
                if not var:
                    parts.append(str(c))
                else:
                    parts.append(var if c == 1 else f"{c}{var}")
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentPoly(p={self.p}, d={self.d}, {self})"

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.p == other.p and self.d == other.d and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.p, self.d, frozenset(self.terms.items())))
        return self._hash


def palindromize(g: LaurentPoly) -> LaurentPoly:
    """g + reflect(g): always a palindrome (and how palindromes are sampled)."""
    return g + g.reflect()


def basis_element(p: int, n: int, d: int = 1) -> LaurentPoly:
    """Symmetric basis polynomial b_n = u^n + u^-n, with b_0 = 1 (d == 1)."""
    if d != 1:
        raise ValueError("the symmetric basis is one-dimensional")
    if n < 0:
        raise ValueError("basis index must be non-negative")
    if n == 0:
        return LaurentPoly.one(p, 1)
    return LaurentPoly._raw(p, 1, {(n,): 1, (-n,): 1})


def palindrome_coeffs(f: LaurentPoly) -> dict:
    """Coefficients of a palindrome in the symmetric basis: {n: c_n}, n >= 0."""
    if f.d != 1:
        raise ValueError("the symmetric basis is one-dimensional")
    if not f.is_palindrome():
        raise ValueError(f"not a palindrome: {f}")
    return {e: c for (e,), c in f.terms.items() if e >= 0}


def palindrome_divmod(f: LaurentPoly, h: LaurentPoly):
    """Divide palindrome f by palindrome h: f = q*h + r with degree(r) < degree(h).

    Works in the symmetric basis: each round subtracts
    (lead(f)/lead(h)) * b_{deg f - deg h} * h, which kills the top (and, by
    symmetry, the bottom) coefficient, so the degree strictly decreases.
    Quotient and remainder are palindromes again.  Hollow operands take the
    dict loop, all others centred windows.
    """
    f._require_same_ring(h)
    if f.d != 1:
        raise ValueError("palindrome division is one-dimensional")
    if h.is_zero():
        raise ZeroDivisionError("palindrome division by zero")
    if _centred_hollow(f) or _centred_hollow(h):
        return _palindrome_divmod_terms(f, h)
    p = f.p
    dtype = coefficient_dtype(p, 1)
    q, r = _divmod_windows(_centred_window(f, dtype), _centred_window(h, dtype), p)
    return _centred_poly(q, p), _centred_poly(r, p)


def _divmod_windows(f, h, p):
    """palindrome_divmod on centred windows (h nonzero): the windows of q and r.

    The windows hold residues in coefficient_dtype(p, 1): each update adds
    one product c * h, reduced, to a residue.
    """
    if not (f == f[::-1]).all():
        raise ValueError(f"dividend is not a palindrome: {_centred_poly(f, p)}")
    if not (h == h[::-1]).all():
        raise ValueError(f"divisor is not a palindrome: {_centred_poly(h, p)}")
    df, dh = len(f) // 2, len(h) // 2
    if len(f) < len(h):
        return f[:0], f
    lead_inv = inv_mod(int(h[-1]), p)
    q = np.zeros(2 * (df - dh) + 1, f.dtype)
    r = f.copy()
    dr = df  # -1 once r is zero, which ends the loop
    while dr >= dh:
        k = dr - dh
        c = int(r[df + dr]) * lead_inv % p
        ch = h * c % p
        # c * b_k * h: h moved up by k, and down by k when k > 0.
        r[df + k - dh : df + dr + 1] -= ch
        q[df - dh + k] = c
        if k:
            r[df - dr : df - k + dh + 1] -= ch
            q[df - dh - k] = c
        r[df - dr : df + dr + 1] %= p
        top = r[df : df + dr].nonzero()[0]
        dr = int(top[-1]) if len(top) else -1
    return q, _trim(r)


def _palindrome_divmod_terms(f: LaurentPoly, h: LaurentPoly):
    """palindrome_divmod on the term dicts: the path of hollow operands."""
    if not f.is_palindrome():
        raise ValueError(f"dividend is not a palindrome: {f}")
    if not h.is_palindrome():
        raise ValueError(f"divisor is not a palindrome: {h}")
    p = f.p
    dh = h.degree()
    lead_inv = inv_mod(h.coeff(dh), p)
    q = LaurentPoly.zero(p, 1)
    r = f
    dr = r.degree()  # NEG_INF once r is zero, which ends the loop
    while dr >= dh:
        c = (r.terms[(dr,)] * lead_inv) % p
        t = basis_element(p, dr - dh) * c
        q = q + t
        r = r - t * h
        dr = r.degree()
    return q, r
