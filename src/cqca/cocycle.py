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
once and phi is this integer quadratic form, for every p and d.  The
automaton is certified once too, by sca.classify (shift times palindrome
core).

PhaseFunction.evaluate_batch computes it for a whole family of vectors held
as one coefficient array (see phasespace): the linear and diagonal terms
are sums over the cells, and each table entry at a forward offset x adds one
product of two slices of the box, the cells y and y + x that both lie in it,
so the cost is O(vectors * cells * radius) for every d.  The sums run on
int64 below p = 2^31, where they would leave it with each product reduced
before it is summed, and on Python ints beyond.  evaluate() on one
PhaseVector is the one-vector case.

cocycle_failure checks the identity against the route that does not use
the table: C computed with beta_batch on images from ScaMatrix.apply_window.  It
evaluates seeded families (or, for p = 2 on one-variable windows of at
most five cells, every vector of the window) in a few batch calls, and
names the first pair that fails.  On sampled pairs, xi and eta go through
one apply_window call, and xi, eta and xi + eta through one evaluate_batch
call.

phi(e)^p must match the order of w(e), which constrains each generator
exponent:

    p * gen == -step * kappa * C(e, e)   (mod order),   kappa = p(p-1)/2.

For odd p the constraint is vacuous (kappa = 0 mod p); at p = 2 it reads
gen == C(e, e) (mod 2).  default_phase takes the least solutions.
"""

from __future__ import annotations

import random
from math import prod

import numpy as np

from . import sca
from .ffield import check_prime
from .laurent import coefficient_dtype
from .phasespace import PhaseVector, beta, beta_batch, random_coefficients

__all__ = [
    "COCYCLE_CELL_BUDGET",
    "phase_group_order",
    "PhaseFunction",
    "default_phase",
    "cocycle_failure",
    "validate_cocycle",
]

_PLUS, _MINUS = 0, 1

# cocycle_failure draws (24 + 2 * samples) * (2 * radius + 1)^d vector-cells;
# this many take a few seconds and a few hundred MB.
COCYCLE_CELL_BUDGET = 2**21


def phase_group_order(p: int) -> int:
    """Order of the phase group: 2p for p = 2 (fourth roots), p otherwise."""
    check_prime(p)
    return 2 * p if p == 2 else p


class PhaseFunction:
    """Cocycle solution determined by the automaton and two generator exponents.

    The automaton is certified once, by sca.classify, which raises
    NotSymplectic with its reason.
    """

    __slots__ = ("automaton", "order", "gen_plus", "gen_minus", "_diagonals", "_cross", "_reach")

    def __init__(self, automaton: sca.ScaMatrix, gen_plus: int, gen_minus: int):
        sca.classify(automaton)
        for gen in (gen_plus, gen_minus):
            if not isinstance(gen, int) or isinstance(gen, bool):
                raise TypeError(f"generator exponents must be ints, got {gen!r}")
        self.automaton = automaton
        self.order = phase_group_order(automaton.p)
        self.gen_plus = gen_plus % self.order
        self.gen_minus = gen_minus % self.order
        # table[t, u, x] = C(e_t, u^x e_u) as an int mod p.  The second beta
        # term of C, beta(s e_t, u^x s e_u), is the coefficient at x of
        # (s e_t)_plus * reflect((s e_u)_minus); the first is 1 exactly at
        # (plus, minus, 0).
        p = automaton.p
        columns = (automaton.column_plus(), automaton.column_minus())
        table = {
            (t, u, x): -c % p
            for t, image_t in enumerate(columns)
            for u, image_u in enumerate(columns)
            for x, c in (image_t.plus * image_u.minus.reflect()).terms.items()
        }
        origin = (0,) * automaton.d
        key = (_PLUS, _MINUS, origin)
        table[key] = (table.get(key, 0) + 1) % p
        self._diagonals = tuple(table.get((t, t, origin), 0) for t in (_PLUS, _MINUS))
        # The cross terms of the quadratic form pair a component with a later
        # one x cells on: the entries at offsets x > 0 (lexicographic order),
        # and at x = 0 the plus component of a cell with its minus one.
        self._cross = tuple(
            (x, t, u, c)
            for (t, u, x), c in table.items()
            if c and (x > origin or x == origin and t < u)
        )
        self._reach = tuple(max(abs(x[a]) for _, _, x in table) for a in range(automaton.d))

    def generator_diagonals(self):
        """The two diagonal corrections C(e, e) (plus, minus), as ints mod p."""
        return self._diagonals

    def evaluate_batch(self, coeffs) -> np.ndarray:
        """phi of every vector of a family, as an array of exponents in [0, order).

        coeffs has shape (vectors,) + box + (2,), one box axis per variable,
        with coefficients in [0, p) (see phasespace).  Where the box lies
        does not matter, since C is translation invariant.
        """
        s = self.automaton
        p = s.p
        coeffs = np.asarray(coeffs)
        box = coeffs.shape[1:-1]
        if len(box) != s.d or coeffs.shape[-1] != 2:
            raise ValueError(f"expected a (vectors, box of {s.d} axes, 2) coefficient array")
        # int64 bound: each sum below adds at most 2 * cells products of two
        # numbers below p (coefficients, table values, partial sums reduced
        # mod p) or below 2p (generator exponents), so it stays below
        # 4 * cells * p^2.  Where only that leaves int64, every product is
        # reduced before it is summed (each; never at p = 2): then a sum adds
        # cells residues, or at most two products of two residues.
        dtype = coefficient_dtype(p, 4 * prod(box))
        each = dtype is object and coefficient_dtype(p, 2) is np.int64
        if each:
            dtype = np.int64
        planes = np.moveaxis(coeffs, -1, 0).astype(dtype, order="C")
        box_axes = tuple(range(-s.d, 0))
        gens = (self.gen_plus, self.gen_minus)
        linear = sum(gen * (plane.sum(axis=box_axes) % self.order) for gen, plane in zip(gens, planes))
        halves = (planes * (planes - 1) // 2 % p).sum(axis=box_axes) % p
        quadratic = sum(diag * half for diag, half in zip(self._diagonals, halves)) % p
        axes = list(range(s.d + 1))  # einsum subscripts: the vector axis, then the box
        for x, t, u, value in self._cross:
            if all(abs(e) < n for e, n in zip(x, box)):
                # component t at cell y against component u at cell y + x
                here = [slice(max(0, -e), n - max(0, e)) for e, n in zip(x, box)]
                there = [slice(max(0, e), n - max(0, -e)) for e, n in zip(x, box)]
                left, right = planes[(t, slice(None), *here)], planes[(u, slice(None), *there)]
                if each:
                    pairs = (left * right % p).sum(axis=box_axes)
                else:
                    pairs = np.einsum(left, axes, right, axes, [0])
                quadratic = (quadratic + value * (pairs % p)) % p
        return (linear + self.order // p * quadratic) % self.order

    def evaluate(self, xi: PhaseVector) -> int:
        """phi(xi) as an exponent in [0, order): evaluate_batch on the box of xi.

        Along each axis, gaps between the support cells that are wider than
        the reach of the table shrink to one cell more than the reach first.
        Cells that far apart share no cross term either way, so a sparse xi
        costs a box of its support times the reach, not its span.
        """
        s = self.automaton
        if xi.p != s.p or xi.d != s.d:
            raise ValueError("phase vector lives in a different ring")
        terms = [
            (x, k, c) for k, poly in enumerate((xi.plus, xi.minus)) for x, c in poly.terms.items()
        ]
        if not terms:
            return 0
        places = []
        for a, reach in enumerate(self._reach):
            values = sorted({x[a] for x, _, _ in terms})
            place = {values[0]: 0}
            for left, right in zip(values, values[1:]):
                place[right] = place[left] + min(right - left, reach + 1)
            places.append(place)
        box = tuple(place[max(place)] + 1 for place in places)
        coeffs = np.zeros((1,) + box + (2,), dtype=coefficient_dtype(s.p))
        for x, k, c in terms:
            coeffs[(0,) + tuple(place[e] for place, e in zip(places, x)) + (k,)] = c
        return int(self.evaluate_batch(coeffs)[0])

    def correction(self, xi: PhaseVector, eta: PhaseVector) -> int:
        """C(xi, eta) = beta(xi, eta) - beta(s xi, s eta), as an int mod p."""
        s = self.automaton
        return (beta(xi, eta) - beta(s.apply(xi), s.apply(eta))) % s.p

    def to_json_dict(self) -> dict:
        return {"order": self.order, "gen_plus": self.gen_plus, "gen_minus": self.gen_minus}


def default_phase(s: sca.ScaMatrix) -> PhaseFunction:
    """The least generator exponents that satisfy the power constraint.

    They are 0 for odd p and C(e, e) = -beta(s e, s e) mod 2 at p = 2.
    PhaseFunction certifies s, so a matrix that is not an automaton raises
    classify's NotSymplectic.
    """
    if s.p == 2:
        return PhaseFunction(s, *(-beta(c, c) % 2 for c in (s.column_plus(), s.column_minus())))
    return PhaseFunction(s, 0, 0)


def cocycle_failure(phi: PhaseFunction, radius: int, samples: int = 10000, seed: int = 11):
    """The first failure of the cocycle identity within the radius, as a message, or None.

    The vectors live on the cells [-radius, radius]^d.  First, 24 seeded
    vectors must keep their phase when shifted by up to 3 cells per axis.
    Then every pair of vectors is checked for p = 2, d = 1, radius <= 2 (the
    group is small enough), and a seeded sample of `samples` pairs
    otherwise, drawn as PhaseVector.random would draw them.  C is computed
    with beta_batch on the images of apply_window, independently of the table
    behind evaluate_batch; the sampled pairs take one call of each.  A
    message names the failing vectors as (plus, minus) polynomials.
    ValueError past COCYCLE_CELL_BUDGET drawn vector-cells.
    """
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    s = phi.automaton
    p, d = s.p, s.d
    order = phi.order
    step = order // p
    width = 2 * radius + 1
    box = (width,) * d
    cells = (24 + 2 * samples) * width**d
    if cells > COCYCLE_CELL_BUDGET:
        raise ValueError(
            f"cocycle validation would draw {cells} vector-cells, over the budget of {COCYCLE_CELL_BUDGET}"
        )

    def render(coeffs):
        xi = PhaseVector.from_coefficients(p, coeffs, -radius if d == 1 else (-radius,) * d)
        return f"({xi.plus}, {xi.minus})"

    def failure(xi, eta, got, expected):
        return (
            f"cocycle identity fails for xi = {render(xi)}, eta = {render(eta)}:"
            f" phi(xi + eta) = {got}, but phi(xi) + phi(eta) + {step} C(xi, eta) = {expected}"
            f" (mod {order})"
        )

    # Translation invariance: each vector is evaluated in place and at its
    # drawn shift inside a box 3 cells wider on every side.
    rng = random.Random(seed)
    vectors = []
    shifts = []
    for _ in range(24):
        vectors.append(random_coefficients(rng, p, 1, width**d).reshape(box + (2,)))
        shifts.append(tuple(rng.randint(-3, 3) for _ in range(d)))
    vectors = np.stack(vectors)
    moved = np.zeros((len(vectors),) + tuple(n + 6 for n in box) + (2,), dtype=vectors.dtype)
    for k, x in enumerate(shifts):
        moved[(k,) + tuple(slice(3 + e, 3 + e + width) for e in x)] = vectors[k]
    still = phi.evaluate_batch(vectors)
    shifted = phi.evaluate_batch(moved)
    for k in np.flatnonzero(still != shifted)[:1]:
        x = shifts[k] if d > 1 else shifts[k][0]
        return (
            f"phi is not translation invariant: phi(xi) = {still[k]}"
            f" but phi(u^{x} xi) = {shifted[k]} for xi = {render(vectors[k])}"
        )

    if p == 2 and d == 1 and radius <= 2:
        # Every vector of the window.  The bits of an index are its
        # coefficients, so the sum of two members is the member at the XOR
        # of their indices.
        count = 4**width
        index = np.arange(count)
        family = (index[:, None] >> np.arange(2 * width) & 1).reshape(count, width, 2)
        images = s.apply_window(family)
        corrections = family[..., 0] @ family[..., 1].T - images[..., 0] @ images[..., 1].T
        values = phi.evaluate_batch(family)
        got = values[index[:, None] ^ index]
        expected = (values[:, None] + values + step * (corrections % p)) % order
        for i, j in np.argwhere(got != expected)[:1]:
            return failure(family[i], family[j], got[i, j], expected[i, j])
        return None
    draws = random_coefficients(rng, p, 2 * samples, width**d).reshape((2 * samples,) + box + (2,))
    xi, eta = draws[0::2], draws[1::2]
    images = s.apply_window(draws)
    corrections = beta_batch(xi, eta, p) - beta_batch(images[0::2], images[1::2], p)
    # one family: the draws (xi and eta interleaved), then the sums
    values = phi.evaluate_batch(np.concatenate([draws, (xi + eta) % p]))
    got = values[2 * samples :]
    expected = (values[0 : 2 * samples : 2] + values[1 : 2 * samples : 2] + step * (corrections % p)) % order
    for k in np.flatnonzero(got != expected)[:1]:
        return failure(xi[k], eta[k], got[k], expected[k])
    return None


def validate_cocycle(phi: PhaseFunction, radius: int, samples: int = 10000, seed: int = 11) -> bool:
    """Whether cocycle_failure finds no failure."""
    return cocycle_failure(phi, radius, samples, seed) is None
