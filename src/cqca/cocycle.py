"""Phase functions that lift a symplectic matrix to an algebra automorphism.

The automaton s only fixes the image of each Weyl operator up to a scalar
phi(xi).  Consistency of the lifted map with operator products pins phi down
to a cocycle: phi(xi + eta) = eps_p^{beta(xi,eta) - beta(s xi, s eta)}
* phi(xi) * phi(eta).  Since s preserves the commutation form, the exponent
is a symmetric bilinear form, so a solution is determined by its values on
the two single-cell generators and the fixed folding order used here:
cells in ascending order, the plus generator before the minus one.

Phases live in the cyclic group of order p (odd p) or 4 (p = 2; squares of
single-cell operators force fourth roots of unity).  They are represented
exactly as exponents, never as floats; the operator oracle adds them to
the phase exponents of its monomial matrices.  Raising the generator value
of a valid assignment by the power constraint below keeps phi(xi)^p
consistent with the order of w(xi):

    p * gen == kappa * (diag correction) in the exponent group,
    kappa = p(p-1)/2.

For odd p the constraint is vacuous (kappa = 0 mod p); for p = 2 it fixes
each generator exponent mod 2.  default_phase searches exponents ascending
from zero and returns the first admissible assignment.
"""

from __future__ import annotations

import random
from itertools import product

import numpy as np

from . import sca
from .ffield import check_prime
from .laurent import LaurentPoly
from .phasespace import PhaseVector, beta

__all__ = [
    "NoValidPhase",
    "phase_group_order",
    "PhaseExponent",
    "PhaseFunction",
    "default_phase",
    "validate_cocycle",
]


class NoValidPhase(RuntimeError):
    """No generator assignment satisfies the power constraint (not expected)."""


def phase_group_order(p: int) -> int:
    """Order of the phase group: 2p for p = 2 (fourth roots), p otherwise."""
    check_prime(p)
    return 2 * p if p == 2 else p


class PhaseExponent:
    """Element of the cyclic phase group, stored as an exponent mod order."""

    __slots__ = ("numerator", "order")

    def __init__(self, numerator: int, order: int):
        if not isinstance(order, int) or order < 1:
            raise ValueError(f"order must be a positive int, got {order!r}")
        self.numerator = numerator % order
        self.order = order

    def _check(self, other):
        if not isinstance(other, PhaseExponent):
            raise TypeError("phase arithmetic needs another PhaseExponent")
        if other.order != self.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __mul__(self, other):
        self._check(other)
        return PhaseExponent(self.numerator + other.numerator, self.order)

    def __pow__(self, k: int):
        return PhaseExponent(self.numerator * k, self.order)

    def inverse(self):
        return PhaseExponent(-self.numerator, self.order)

    def __eq__(self, other):
        if not isinstance(other, PhaseExponent):
            return NotImplemented
        return self.order == other.order and self.numerator == other.numerator

    def __hash__(self):
        return hash((self.numerator, self.order))

    def __repr__(self):
        return f"PhaseExponent({self.numerator}, order={self.order})"


class PhaseFunction:
    """Cocycle solution determined by the automaton and two generator values."""

    __slots__ = ("automaton", "gen_plus", "gen_minus", "_diag_plus", "_diag_minus")

    def __init__(self, automaton: sca.ScaMatrix, gen_plus: PhaseExponent, gen_minus: PhaseExponent):
        if not automaton.is_symplectic():
            raise sca.NotSymplectic("phase functions need a symplectic automaton")
        order = phase_group_order(automaton.p)
        for gen in (gen_plus, gen_minus):
            if not isinstance(gen, PhaseExponent) or gen.order != order:
                raise ValueError(f"generator values must have order {order}")
        self.automaton = automaton
        self.gen_plus = gen_plus
        self.gen_minus = gen_minus
        p = automaton.p
        c1 = automaton.column_plus()
        c2 = automaton.column_minus()
        # Diagonal corrections C(e, e) = beta(e, e) - beta(se, se) = -beta(se, se).
        self._diag_plus = -beta(c1, c1) % p
        self._diag_minus = -beta(c2, c2) % p

    @property
    def order(self) -> int:
        return self.gen_plus.order

    def generator_diagonals(self):
        """The two diagonal corrections (plus, minus), as ints mod p."""
        return self._diag_plus, self._diag_minus

    def evaluate(self, xi: PhaseVector) -> PhaseExponent:
        """Fold the cocycle over the single-cell components of xi.

        Components are visited in ascending cell order, plus before minus;
        scalar multiples of a generator are resolved with the closed form
        phi(c*e) = eps^{C(e,e) * c(c-1)/2} * phi(e)^c.
        """
        s = self.automaton
        p = s.p
        if xi.p != p or xi.d != s.d:
            raise ValueError("phase vector lives in a different ring")
        order = self.order
        step = order // p
        c1 = s.column_plus()
        c2 = s.column_minus()
        total = 0
        partial = PhaseVector.zero(p, s.d)
        image = PhaseVector.zero(p, s.d)
        for x in sorted(set(xi.plus.terms) | set(xi.minus.terms)):
            for comp_plus in (True, False):
                c = xi.plus.terms.get(x, 0) if comp_plus else xi.minus.terms.get(x, 0)
                if c == 0:
                    continue
                mono = LaurentPoly.monomial(p, s.d, x, c)
                if comp_plus:
                    v = PhaseVector(mono, LaurentPoly.zero(p, s.d))
                    v_img = PhaseVector(mono * c1.plus, mono * c1.minus)
                    diag, gen = self._diag_plus, self.gen_plus.numerator
                else:
                    v = PhaseVector(LaurentPoly.zero(p, s.d), mono)
                    v_img = PhaseVector(mono * c2.plus, mono * c2.minus)
                    diag, gen = self._diag_minus, self.gen_minus.numerator
                # phi of the scalar multiple c * e.
                val = (step * ((diag * (c * (c - 1) // 2)) % p) + c * gen) % order
                # Cocycle correction C(partial, v).
                corr = (beta(partial, v) - beta(image, v_img)) % p
                total = (total + val + step * corr) % order
                partial = partial + v
                image = image + v_img
        return PhaseExponent(total, order)

    def correction(self, xi: PhaseVector, eta: PhaseVector) -> int:
        """C(xi, eta) = beta(xi, eta) - beta(s xi, s eta), as an int mod p."""
        s = self.automaton
        return (beta(xi, eta) - beta(s.apply(xi), s.apply(eta))) % s.p

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "gen_plus": self.gen_plus.numerator,
            "gen_minus": self.gen_minus.numerator,
        }


def _power_constraint_ok(p: int, order: int, gen: int, diag: int) -> bool:
    """phi(e)^p must equal eps_p^{-kappa * C(e,e)}, kappa = p(p-1)/2."""
    step = order // p
    kappa = (p * (p - 1) // 2) % p
    return (p * gen - step * ((-kappa * diag) % p)) % order == 0


def default_phase(s: sca.ScaMatrix) -> PhaseFunction:
    """First admissible generator assignment, searching exponents from zero up."""
    sca.classify(s)  # certification; raises NotSymplectic otherwise
    p = s.p
    order = phase_group_order(p)
    probe = PhaseFunction(s, PhaseExponent(0, order), PhaseExponent(0, order))
    diag_plus, diag_minus = probe.generator_diagonals()
    gp = next(
        (g for g in range(order) if _power_constraint_ok(p, order, g, diag_plus)), None
    )
    gm = next(
        (g for g in range(order) if _power_constraint_ok(p, order, g, diag_minus)), None
    )
    if gp is None or gm is None:
        raise NoValidPhase(f"no generator exponent satisfies the power constraint for {s!r}")
    return PhaseFunction(s, PhaseExponent(gp, order), PhaseExponent(gm, order))


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
        [phi.evaluate(mask_vector(m)).numerator for m in range(count)], dtype=np.int64
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
        expected = (
            phi.evaluate(xi).numerator
            + phi.evaluate(eta).numerator
            + step * phi.correction(xi, eta)
        ) % order
        if phi.evaluate(xi + eta).numerator != expected:
            return False
    return True
