"""Phase functions that lift a symplectic matrix to an algebra automorphism.

The automaton s fixes the image of each Weyl operator w(xi) only up to a
scalar phi(xi).  Consistency of the lifted map with operator products pins
phi down to a cocycle:

    phi(xi + eta) = eps_p^{C(xi, eta)} * phi(xi) * phi(eta),
    C(xi, eta) = beta(xi, eta) - beta(s xi, s eta).

Phases live in the cyclic group of order p (odd p) or 4 (p = 2; squares of
single-cell operators force fourth roots of unity), and eps_p is its
element of exponent step = order / p.  They are plain int exponents in
[0, order), never floats; the operator oracle adds them to the phase
exponents of its monomial matrices.

Since s preserves the commutation form, C is a symmetric bilinear form, and
it is translation invariant.  A solution is therefore fixed by its values
gen_plus, gen_minus on the two single-cell generators and by the order in
which the components of xi are added up: cells ascending, the plus
generator before the minus one.  Writing xi = sum_k c_k e_k in that order,

    phi(xi) = sum_k c_k gen_k
              + step * (sum_k C(e_k, e_k) c_k (c_k - 1) / 2
                        + sum_{j<k} c_j c_k C(e_j, e_k))   (mod order).

C between two generators depends only on their kinds and their offset, and
vanishes beyond twice the automaton radius, so PhaseFunction tabulates it
once and evaluate() is this integer quadratic form, for every p and d.

phi(e)^p must match the order of w(e), which constrains each generator
exponent:

    p * gen == -step * kappa * C(e, e)   (mod order),   kappa = p(p-1)/2.

For odd p the constraint is vacuous (kappa = 0 mod p); at p = 2 it reads
gen == C(e, e) (mod 2).  default_phase takes the least solutions.
"""

from __future__ import annotations

import random
from itertools import product
from operator import sub

import numpy as np

from . import sca
from .ffield import check_prime
from .laurent import LaurentPoly
from .phasespace import PhaseVector, beta

__all__ = [
    "phase_group_order",
    "PhaseFunction",
    "default_phase",
    "validate_cocycle",
]

_PLUS, _MINUS = 0, 1


def phase_group_order(p: int) -> int:
    """Order of the phase group: 2p for p = 2 (fourth roots), p otherwise."""
    check_prime(p)
    return 2 * p if p == 2 else p


class PhaseFunction:
    """Cocycle solution determined by the automaton and two generator exponents."""

    __slots__ = ("automaton", "order", "gen_plus", "gen_minus", "_table")

    def __init__(self, automaton: sca.ScaMatrix, gen_plus: int, gen_minus: int):
        if not automaton.is_symplectic():
            raise sca.NotSymplectic("phase functions need a symplectic automaton")
        for gen in (gen_plus, gen_minus):
            if not isinstance(gen, int) or isinstance(gen, bool):
                raise TypeError(f"generator exponents must be ints, got {gen!r}")
        self.automaton = automaton
        self.order = phase_group_order(automaton.p)
        self.gen_plus = gen_plus % self.order
        self.gen_minus = gen_minus % self.order
        # _table[t, u, x] = C(e_t, u^x e_u) as an int mod p.  The second beta
        # term of C, beta(s e_t, u^x s e_u), is the coefficient at x of
        # (s e_t)_plus * reflect((s e_u)_minus); the first is 1 exactly at
        # (plus, minus, 0).
        p = automaton.p
        columns = (automaton.column_plus(), automaton.column_minus())
        self._table = {
            (t, u, x): -c % p
            for t, image_t in enumerate(columns)
            for u, image_u in enumerate(columns)
            for x, c in (image_t.plus * image_u.minus.reflect()).terms.items()
        }
        key = (_PLUS, _MINUS, (0,) * automaton.d)
        self._table[key] = (self._table.get(key, 0) + 1) % p

    def generator_diagonals(self):
        """The two diagonal corrections C(e, e) (plus, minus), as ints mod p."""
        origin = (0,) * self.automaton.d
        return tuple(self._table.get((t, t, origin), 0) for t in (_PLUS, _MINUS))

    def evaluate(self, xi: PhaseVector) -> int:
        """phi(xi) as an exponent in [0, order): the quadratic form of the module docstring."""
        s = self.automaton
        if xi.p != s.p or xi.d != s.d:
            raise ValueError("phase vector lives in a different ring")
        components = sorted(
            [(x, _PLUS, c) for x, c in xi.plus.terms.items()]
            + [(x, _MINUS, c) for x, c in xi.minus.terms.items()]
        )
        gens = (self.gen_plus, self.gen_minus)
        diagonals = self.generator_diagonals()
        table = self._table
        linear = quadratic = 0
        for k, (y, u, c) in enumerate(components):
            linear += c * gens[u]
            quadratic += diagonals[u] * (c * (c - 1) // 2)
            for x, t, c_j in components[:k]:
                quadratic += c_j * c * table.get((t, u, tuple(map(sub, y, x))), 0)
        return (linear + self.order // s.p * quadratic) % self.order

    def correction(self, xi: PhaseVector, eta: PhaseVector) -> int:
        """C(xi, eta) = beta(xi, eta) - beta(s xi, s eta), as an int mod p."""
        s = self.automaton
        return (beta(xi, eta) - beta(s.apply(xi), s.apply(eta))) % s.p

    def to_json_dict(self) -> dict:
        return {"order": self.order, "gen_plus": self.gen_plus, "gen_minus": self.gen_minus}


def default_phase(s: sca.ScaMatrix) -> PhaseFunction:
    """The least generator exponents that satisfy the power constraint.

    They are 0 for odd p and C(e, e) = -beta(s e, s e) mod 2 at p = 2.
    """
    sca.classify(s)  # certification; raises NotSymplectic otherwise
    if s.p == 2:
        return PhaseFunction(s, *(-beta(c, c) % 2 for c in (s.column_plus(), s.column_minus())))
    return PhaseFunction(s, 0, 0)


def _validate_exhaustive_p2(phi: PhaseFunction, radius: int) -> bool:
    """All pairs supported in [-radius, radius], vectorized over bitmasks (p = 2)."""
    s = phi.automaton
    order = phi.order
    step = order // 2
    width = 2 * radius + 1
    nbits = 2 * width
    count = 1 << nbits

    def mask_vector(mask: int) -> PhaseVector:
        plus = {}
        minus = {}
        for i in range(width):
            if mask >> i & 1:
                plus[i - radius] = 1
            if mask >> (width + i) & 1:
                minus[i - radius] = 1
        return PhaseVector(LaurentPoly(2, 1, plus), LaurentPoly(2, 1, minus))

    basis = [mask_vector(1 << i) for i in range(nbits)]
    corr = np.array(
        [[phi.correction(bi, bj) for bj in basis] for bi in basis], dtype=np.int64
    )
    bits = np.array(
        [[(m >> i) & 1 for i in range(nbits)] for m in range(count)], dtype=np.int64
    )
    pair_corr = (bits @ corr @ bits.T) % 2
    values = np.array(
        [phi.evaluate(mask_vector(m)) for m in range(count)], dtype=np.int64
    )
    idx = np.arange(count)
    sum_idx = idx[:, None] ^ idx[None, :]
    lhs = values[sum_idx]
    rhs = (values[:, None] + values[None, :] + step * pair_corr) % order
    return bool(np.array_equal(lhs, rhs))


def validate_cocycle(phi: PhaseFunction, radius: int, samples: int = 10000, seed: int = 11) -> bool:
    """Check the cocycle identity on vectors supported within the given radius.

    Exhaustive for p = 2, d = 1, radius <= 2 (the group is small enough);
    otherwise a seeded sample of >= `samples` pairs.  Translation invariance
    of evaluate() is checked alongside either way.
    """
    s = phi.automaton
    p = s.p
    order = phi.order
    step = order // p
    rng = random.Random(seed)
    cells = list(product(range(-radius, radius + 1), repeat=s.d))
    # Translation invariance on a handful of sampled vectors.
    for _ in range(24):
        xi = PhaseVector.random(rng, p, cells, s.d)
        x = tuple(rng.randint(-3, 3) for _ in range(s.d))
        if phi.evaluate(xi.translate(x if s.d > 1 else x[0])) != phi.evaluate(xi):
            return False
    if p == 2 and s.d == 1 and radius <= 2:
        return _validate_exhaustive_p2(phi, radius)
    for _ in range(samples):
        xi = PhaseVector.random(rng, p, cells, s.d)
        eta = PhaseVector.random(rng, p, cells, s.d)
        expected = (phi.evaluate(xi) + phi.evaluate(eta) + step * phi.correction(xi, eta)) % order
        if phi.evaluate(xi + eta) != expected:
            return False
    return True
