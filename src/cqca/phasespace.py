"""Phase-space vectors and the bilinear forms that define the symplectic structure.

A phase-space vector is a pair of Laurent polynomials (plus, minus): the
plus part records the diagonal (Z-type) content per cell, the minus part the
shift (X-type) content.  Three forms live here:

  beta(xi, eta)       scalar sum of xi_plus(x) * eta_minus(x) over all cells
  sigma(xi, eta)      beta(xi, eta) - beta(eta, xi), the commutation form
  form_sigma_poly     reflect(xi_plus)*eta_minus - reflect(xi_minus)*eta_plus,
                      a polynomial whose coefficient at x is sigma against the
                      translate of eta by -x (the reflection in the first slot
                      reverses the offset sign)

Cellular automata preserve sigma translation-covariantly iff they preserve
form_sigma_poly, which is why symplecticity checks reduce to three
polynomial identities on the matrix columns.

Batched code holds a family of vectors as one coefficient array of shape
(vectors,) + box + (2,): box is the shape of a box of cells (one axis per
variable, cells in lexicographic order), and the last axis holds the plus
coefficient before the minus one.  The array is int64, or object (Python
ints) where coefficient_dtype (from laurent) says int64 sums could overflow.
random_coefficients draws such a family in the order PhaseVector.random
draws one vector, and beta_batch is beta on the members of two families,
pair by pair, without leaving the arrays.
"""

from __future__ import annotations

from itertools import product
from math import prod

import numpy as np

from .laurent import LaurentPoly, coefficient_dtype

__all__ = [
    "PhaseVector",
    "beta",
    "sigma",
    "form_sigma_poly",
    "random_coefficients",
    "beta_batch",
]


# Fewest missing values that random_coefficients draws in bulk.
_BULK_DRAWS = 128


def random_coefficients(rng, p: int, count: int, sites: int) -> np.ndarray:
    """count uniform vectors on `sites` cells as a (count, sites, 2) coefficient array.

    The draws are rng.randrange(p) vector by vector, cell by cell, the plus
    coefficient before the minus one: the draws of count successive
    PhaseVector.random calls on those cells.

    Below 2^32, randrange(p) is the top p.bit_length() bits of one 32-bit
    Mersenne Twister word, drawn again while it is p or more, and
    getrandbits(32 * m) is m such words, the first in the lowest bits.  The
    words are drawn that way, as many at a time as values are missing, so
    the values and the generator state after them are those of the loop.
    Bulk draws pay off on long runs only, so the last values, fewer than
    _BULK_DRAWS, are drawn one by one.
    """
    dtype = coefficient_dtype(p)
    parts, missing = [], count * sites * 2
    shift = 32 - p.bit_length()
    while p < 1 << 32 and missing >= _BULK_DRAWS:
        words = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
        values = np.frombuffer(words, dtype="<u4") >> shift
        parts.append(values[values < p])
        missing -= len(parts[-1])
    parts.append(np.array([rng.randrange(p) for _ in range(missing)], dtype=dtype))
    return np.concatenate(parts).reshape(count, sites, 2)


def beta_batch(xi, eta, p: int) -> np.ndarray:
    """beta(xi[k], eta[k]) for each k of two families of one shape, as ints in [0, p).

    The families are coefficient arrays (vectors,) + box + (2,) with entries
    in [0, p); coefficient_dtype picks the dtype of the sums.
    """
    xi, eta = np.asarray(xi), np.asarray(eta)
    if xi.shape != eta.shape:
        raise ValueError(f"families of different shapes: {xi.shape} vs {eta.shape}")
    plus = xi[..., 0].astype(coefficient_dtype(p, prod(xi.shape[1:-1])), copy=False)
    return (plus * eta[..., 1]).sum(axis=tuple(range(1, xi.ndim - 1))) % p


class PhaseVector:
    """Pair (plus, minus) of Laurent polynomials over the same ring."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus: LaurentPoly, minus: LaurentPoly):
        if not isinstance(plus, LaurentPoly) or not isinstance(minus, LaurentPoly):
            raise TypeError("phase vector components must be Laurent polynomials")
        plus._require_same_ring(minus)
        self.plus = plus
        self.minus = minus

    @property
    def p(self):
        return self.plus.p

    @property
    def d(self):
        return self.plus.d

    @classmethod
    def zero(cls, p, d=1):
        z = LaurentPoly.zero(p, d)
        return cls(z, z)

    @classmethod
    def e_plus(cls, p, d=1, x=None):
        """Unit vector with a single plus (Z-type) excitation at cell x (default: origin)."""
        x = (0,) * d if x is None else x
        return cls(LaurentPoly.monomial(p, d, x), LaurentPoly.zero(p, d))

    @classmethod
    def e_minus(cls, p, d=1, x=None):
        """Unit vector with a single minus (X-type) excitation at cell x (default: origin)."""
        x = (0,) * d if x is None else x
        return cls(LaurentPoly.zero(p, d), LaurentPoly.monomial(p, d, x))

    @classmethod
    def random(cls, rng, p, cells, d=1):
        """Uniform vector on the given cells: per cell, the plus draw, then the minus one."""
        cells = list(cells)
        return cls._from_pairs(p, d, cells, random_coefficients(rng, p, 1, len(cells))[0].tolist())

    @classmethod
    def from_coefficients(cls, p, coeffs, lo):
        """The vector with the coefficient box coeffs, of shape box + (2,), from cell lo on.

        lo is the first cell of the box: an int for one variable, a tuple otherwise.
        """
        coeffs = np.asarray(coeffs)
        box = coeffs.shape[:-1]
        if len(box) == 1:
            cells = range(lo, lo + box[0])
        else:
            cells = product(*(range(first, first + n) for first, n in zip(lo, box)))
        return cls._from_pairs(p, len(box), cells, coeffs.reshape(-1, 2).tolist())

    @classmethod
    def _from_pairs(cls, p, d, cells, pairs):
        """The vector with the coefficient pair (plus, minus) of each cell."""
        plus = {}
        minus = {}
        for x, (a, b) in zip(cells, pairs):
            if a:
                plus[x] = a
            if b:
                minus[x] = b
        return cls(LaurentPoly(p, d, plus), LaurentPoly(p, d, minus))

    def is_zero(self) -> bool:
        return self.plus.is_zero() and self.minus.is_zero()

    def support(self):
        """Sorted union of the component supports."""
        cells = set(self.plus.terms) | set(self.minus.terms)
        if self.d == 1:
            return sorted(e for (e,) in cells)
        return sorted(cells)

    def translate(self, x) -> "PhaseVector":
        """Shift the whole vector by the lattice vector x (multiply by u^x)."""
        return PhaseVector(self.plus.shifted(x), self.minus.shifted(x))

    def __add__(self, other):
        if not isinstance(other, PhaseVector):
            return NotImplemented
        return PhaseVector(self.plus + other.plus, self.minus + other.minus)

    def __sub__(self, other):
        if not isinstance(other, PhaseVector):
            return NotImplemented
        return PhaseVector(self.plus - other.plus, self.minus - other.minus)

    def __neg__(self):
        return PhaseVector(-self.plus, -self.minus)

    def __rmul__(self, f):
        """Module action: a Laurent polynomial (or scalar) acts on both components."""
        if isinstance(f, (LaurentPoly, int)) and not isinstance(f, bool):
            return PhaseVector(f * self.plus, f * self.minus)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, PhaseVector):
            return NotImplemented
        return self.plus == other.plus and self.minus == other.minus

    def __hash__(self):
        return hash((self.plus, self.minus))

    def __repr__(self):
        return f"PhaseVector({self.plus}, {self.minus})"


def _require_compatible(xi: PhaseVector, eta: PhaseVector):
    xi.plus._require_same_ring(eta.plus)


def beta(xi: PhaseVector, eta: PhaseVector) -> int:
    """Sum over cells of xi_plus(x) * eta_minus(x), as an int in [0, p).

    Only the support intersection is walked; nothing is densified.
    """
    _require_compatible(xi, eta)
    a = xi.plus.terms
    b = eta.minus.terms
    if len(b) < len(a):
        total = sum(c * a[e] for e, c in b.items() if e in a)
    else:
        total = sum(c * b[e] for e, c in a.items() if e in b)
    return total % xi.p


def sigma(xi: PhaseVector, eta: PhaseVector) -> int:
    """The commutation form beta(xi, eta) - beta(eta, xi), as an int in [0, p)."""
    return (beta(xi, eta) - beta(eta, xi)) % xi.p


def form_sigma_poly(xi: PhaseVector, eta: PhaseVector) -> LaurentPoly:
    """Polynomial-valued sesquilinear form.

    Its coefficient at x equals sigma(xi, translate(eta, -x)); it vanishes
    identically iff xi commutes with every translate of eta.
    """
    _require_compatible(xi, eta)
    return xi.plus.reflect() * eta.minus - xi.minus.reflect() * eta.plus
