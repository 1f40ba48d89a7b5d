"""Exact operator oracle: finite-window Weyl operators as monomial matrices.

Everything upstream is exact symbolic algebra; this module is the
independent referee.  On a finite window of cells it builds the actual
unitaries w(xi) as tensor products of single-cell operators acting on
C^p per cell:

    w(a, b) |q> = eps_p^{a q} |q - b>,   eps_p = exp(2 pi i / p)

so that w(xi + eta) = eps_p^{beta(xi, eta)} w(xi) w(eta) holds with the
symbolic form beta, and the commutation phase is eps_p^{sigma(xi, eta)}.
For p = 2 the single-cell operators are the Paulis: w(1,0) = Z,
w(0,1) = X, and w(1,1) = X Z = -i Y.

Each w(xi), and every product of them times a root of unity, is a monomial
matrix: column q holds one entry omega^phase[q] in row row[q], with omega a
root of unity of the phase group's order (4 for p = 2, p otherwise).  The
oracle stores exactly those two integer arrays, so products, powers and
comparisons are exact integer operations; complex numbers appear only in
WeylOperator.dense(), which tests use to pin the tensor ordering.

The suite works on whole vector families.  A family is one int64 array of
coefficients, shape (vectors, cells, 2) with the plus coefficient before
the minus one, and one digit rule (_weyl_batch, which weyl_matrix calls
with a single vector) builds the operators of all its members as row and
phase arrays of shape (vectors, dim).  Pairs are composed in blocks of
bounded size.  The batched checks never leave the arrays: beta comes from
phasespace.beta_batch on the pairs of a block, sigma is
beta_batch(xi, eta) - beta_batch(eta, xi), and check_clifford_action takes
the images and phases of its distinct vectors from ScaMatrix.apply_window
and PhaseFunction.evaluate_batch.  It finds those vectors among xi, eta and
xi + eta by one integer code per vector (_distinct_vectors), and builds the
operators of all three for a block of pairs in one _weyl_batch call.
check_unitary, check_weyl_relation, commutation_exponent, check_commutation
and check_order_condition stay as the per-pair reference, with beta and
sigma on PhaseVectors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import sca
from .cocycle import PhaseFunction, default_phase, phase_group_order
from .laurent import LaurentPoly, _coeff_window
from .phasespace import PhaseVector, beta, beta_batch, random_coefficients, sigma

__all__ = [
    "MAX_WINDOW_DIM",
    "SELFTEST_PAIR_BUDGET",
    "CLIFFORD_EXHAUSTIVE_PAIRS",
    "Window",
    "WeylOperator",
    "weyl_matrix",
    "check_unitary",
    "check_weyl_relation",
    "check_commutation",
    "commutation_exponent",
    "check_order_condition",
    "check_clifford_action",
    "run_selftest",
]

MAX_WINDOW_DIM = 4096

# run_selftest checks every ordered pair of its vector family while there are
# at most this many, and a seeded sample of this many pairs beyond that.
SELFTEST_PAIR_BUDGET = 2**16

# check_clifford_action checks all pairs of inner-window vectors up to this many.
CLIFFORD_EXHAUSTIVE_PAIRS = 4096

# The batched checks take operators in blocks of at most this many int64
# elements per (vectors, dim) array.  A block keeps about a dozen such arrays
# alive, so the oracle's memory stays near 2 MB on every window.
_BLOCK_ELEMENTS = 2**14


@dataclass(frozen=True)
class Window:
    """Contiguous run of cells [lo, hi] on the one-dimensional lattice."""

    p: int
    lo: int
    hi: int

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError(f"empty window [{self.lo}, {self.hi}]")
        # With p >= 2 a window of at least the cap's bit length in sites is
        # over the cap; deciding that first keeps p ** sites small.
        if (
            self.p >= 2 and self.sites >= MAX_WINDOW_DIM.bit_length()
        ) or self.p ** self.sites > MAX_WINDOW_DIM:
            raise ValueError(
                f"window dimension {self.p}^{self.sites} exceeds {MAX_WINDOW_DIM}"
            )

    @property
    def sites(self) -> int:
        return self.hi - self.lo + 1

    @property
    def dim(self) -> int:
        return self.p ** self.sites

    def cells(self):
        return range(self.lo, self.hi + 1)


@dataclass(frozen=True, eq=False)
class WeylOperator:
    """Monomial matrix: column q holds omega^phase[..., q] in row row[..., q].

    omega = exp(2 pi i / order); row and phase are int64 arrays whose last
    axis is the window dimension, phase reduced to [0, order).  Leading axes
    stack a batch of operators; products and scalings act on each member,
    and two batches are equal when every member is.
    """

    row: np.ndarray
    phase: np.ndarray
    order: int

    def __matmul__(self, other: WeylOperator) -> WeylOperator:
        if self.order != other.order or self.row.shape[-1] != other.row.shape[-1]:
            raise ValueError("operators act on different windows")
        return WeylOperator(
            np.take_along_axis(self.row, other.row, -1),
            (other.phase + np.take_along_axis(self.phase, other.row, -1)) % self.order,
            self.order,
        )

    def __getitem__(self, index) -> WeylOperator:
        """Members of a batch, selected like rows of an array."""
        return WeylOperator(self.row[index], self.phase[index], self.order)

    def scaled(self, k) -> WeylOperator:
        """This operator times omega^k; an array k scales each member of a batch."""
        return WeylOperator(self.row, (self.phase + np.asarray(k)[..., None]) % self.order, self.order)

    def __eq__(self, other):
        if not isinstance(other, WeylOperator):
            return NotImplemented
        return (
            self.order == other.order
            and np.array_equal(self.row, other.row)
            and np.array_equal(self.phase, other.phase)
        )

    def dense(self) -> np.ndarray:
        """The complex matrix, for tests that compare it with explicit Kronecker products."""
        n = len(self.row)
        m = np.zeros((n, n), dtype=np.complex128)
        m[self.row, np.arange(n)] = np.exp(2j * np.pi * self.phase / self.order)
        return m


def _places(p: int, width: int) -> np.ndarray:
    """Place values of width base-p digits, most significant first."""
    return p ** np.arange(width - 1, -1, -1, dtype=np.int64)


def _digits(index, p: int, width: int) -> np.ndarray:
    """Base-p digits of each index, most significant first: shape index.shape + (width,)."""
    return np.asarray(index, dtype=np.int64)[..., None] // _places(p, width) % p


def _weyl_batch(coeffs: np.ndarray, p: int) -> WeylOperator:
    """Operators w(xi) of a family given as (vectors, sites, 2) coefficients.

    The first cell is the most significant digit of the basis index (the
    Kronecker-product order).  Returns a batch with (vectors, p**sites) arrays.
    """
    sites = coeffs.shape[1]
    order = phase_group_order(p)
    digits = _digits(np.arange(p**sites), p, sites)
    row = np.zeros((len(coeffs), len(digits)), dtype=np.int64)
    for k in range(sites):
        # the row digit of cell k, computed once per minus coefficient present there
        values, which = np.unique(coeffs[:, k, 1], return_inverse=True)
        row *= p
        row += ((digits[:, k] - values[:, None]) % p)[which]
    phase = (order // p) * (coeffs[:, :, 0] @ digits.T) % order
    return WeylOperator(row, phase, order)


def _blocks(count: int, dim: int):
    """Slices of range(count) whose (slice, dim) arrays hold at most _BLOCK_ELEMENTS."""
    size = max(1, _BLOCK_ELEMENTS // dim)
    return (slice(lo, lo + size) for lo in range(0, count, size))


def weyl_matrix(xi: PhaseVector, window: Window) -> WeylOperator:
    """Tensor product of single-cell Weyl operators over the window cells.

    The one-vector case of _weyl_batch: the first window cell is the most
    significant digit of the basis index (the Kronecker-product order).
    """
    if xi.d != 1:
        raise ValueError("the operator oracle is one-dimensional")
    if xi.p != window.p:
        raise ValueError(f"modulus mismatch: {xi.p} vs {window.p}")
    cells = xi.support()
    if cells and (cells[0] < window.lo or cells[-1] > window.hi):
        raise ValueError(f"support {cells} sticks out of window [{window.lo}, {window.hi}]")
    coeffs = [_coeff_window(poly, (window.lo,), (1,), window.sites) for poly in (xi.plus, xi.minus)]
    return _weyl_batch(np.stack(coeffs, axis=1)[None], window.p)[0]


def check_unitary(w: WeylOperator) -> bool:
    """A monomial matrix of roots of unity is unitary iff its rows form a permutation."""
    return bool(np.all(np.sort(w.row) == np.arange(w.row.shape[-1])))


def check_weyl_relation(xi: PhaseVector, eta: PhaseVector, window: Window) -> bool:
    """w(xi + eta) == eps_p^{beta(xi, eta)} w(xi) w(eta) on the window."""
    w_prod = weyl_matrix(xi, window) @ weyl_matrix(eta, window)
    step = w_prod.order // window.p
    return weyl_matrix(xi + eta, window) == w_prod.scaled(step * beta(xi, eta))


def commutation_exponent(xi: PhaseVector, eta: PhaseVector, window: Window):
    """Extract k with w(eta) w(xi) = eps_p^k w(xi) w(eta), or None if there is none."""
    w_xi = weyl_matrix(xi, window)
    w_eta = weyl_matrix(eta, window)
    lhs = w_eta @ w_xi
    rhs = w_xi @ w_eta
    if not np.array_equal(lhs.row, rhs.row):
        return None
    diff = (lhs.phase - rhs.phase) % lhs.order
    k, rest = divmod(int(diff[0]), lhs.order // window.p)
    if rest or np.any(diff != diff[0]):
        return None
    return k


def check_commutation(xi: PhaseVector, eta: PhaseVector, window: Window) -> bool:
    """w(eta) w(xi) == eps_p^{sigma(xi, eta)} w(xi) w(eta) on the window."""
    return commutation_exponent(xi, eta, window) == sigma(xi, eta)


def check_order_condition(xi: PhaseVector, window: Window) -> bool:
    """w(xi)^p == eps_p^{-kappa beta(xi, xi)} * identity, kappa = p(p-1)/2."""
    p = window.p
    w = weyl_matrix(xi, window)
    power = w
    for _ in range(p - 1):
        power = power @ w
    kappa = p * (p - 1) // 2
    step = w.order // p
    identity = weyl_matrix(PhaseVector.zero(p), window)
    return power == identity.scaled(-step * kappa * beta(xi, xi))


def _vectors_on_cells(p: int, sites: int) -> np.ndarray:
    """All (p*p)**sites coefficient arrays on that many cells, the zero vector first.

    The order is itertools.product over the cells, first cell slowest, with
    the value a*p + b of plus coefficient a and minus coefficient b per cell.
    """
    return _digits(np.arange((p * p) ** sites), p, 2 * sites).reshape(-1, sites, 2)


def _distinct_vectors(family: np.ndarray, p: int):
    """np.unique(family, axis=0, return_inverse=True) for a (vectors, sites, 2) family.

    Each vector is coded by its coefficients read as base-p digits, most
    significant first, so the codes sort like the rows; one 1-D np.unique
    on the codes finds the distinct vectors, and _digits decodes them.  On
    an oracle window a code is below p^(2 sites) <= MAX_WINDOW_DIM^2 = 2^24.
    """
    width = family.shape[1] * 2
    codes = family.reshape(len(family), width) @ _places(p, width)
    values, inverse = np.unique(codes, return_inverse=True)
    return _digits(values, p, width).reshape(-1, width // 2, 2), inverse


def _commutation_exponents(w_xi: WeylOperator, w_eta: WeylOperator, p: int) -> np.ndarray:
    """Per pair, k with w(eta) w(xi) = eps_p^k w(xi) w(eta), or -1 if there is none."""
    lhs = w_eta @ w_xi
    rhs = w_xi @ w_eta
    diff = (lhs.phase - rhs.phase) % lhs.order
    k, rest = np.divmod(diff[:, 0], lhs.order // p)
    exact = (lhs.row == rhs.row).all(axis=1) & (rest == 0) & (diff == diff[:, :1]).all(axis=1)
    return np.where(exact, k, -1)


def check_clifford_action(
    s: sca.ScaMatrix,
    phi: PhaseFunction,
    window: Window,
    samples: int = 512,
    seed: int = 7,
) -> bool:
    """Verify that w(xi) -> phi(xi) w(s xi) is multiplicative on the window.

    Pairs are drawn from the inner sub-window (shrunk by the automaton
    radius) so every image stays inside the window: exhaustively up to
    CLIFFORD_EXHAUSTIVE_PAIRS pairs, else by seeded sampling in the draw
    order of PhaseVector.random.  The images and phases of the distinct
    vectors among xi, eta and xi + eta come from s.apply_window and
    phi.evaluate_batch, and the beta of each pair from beta_batch.  Each
    block of pairs builds the operators of its three images in one
    _weyl_batch call; each of the three (pairs, dim) sets holds at most
    _BLOCK_ELEMENTS elements.  ValueError if s, phi and the window do not
    share one prime.
    """
    if not s.p == phi.automaton.p == window.p:
        raise ValueError(f"modulus mismatch: automaton {s.p}, phase {phi.automaton.p}, window {window.p}")
    if s.d != 1:
        raise ValueError("the operator oracle is one-dimensional")
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    radius = s.radius()
    inner_lo = window.lo + radius
    inner_hi = window.hi - radius
    if inner_hi < inner_lo:
        raise ValueError(
            f"window [{window.lo}, {window.hi}] too small for radius {radius}"
        )
    p = window.p
    n_inner = inner_hi - inner_lo + 1
    n_vectors = (p * p) ** n_inner
    if n_vectors * n_vectors <= CLIFFORD_EXHAUSTIVE_PAIRS:
        vectors = _vectors_on_cells(p, n_inner)
        first, second = np.divmod(np.arange(n_vectors * n_vectors), n_vectors)
        xi, eta = vectors[first], vectors[second]
    else:
        draws = random_coefficients(random.Random(seed), p, 2 * samples, n_inner)
        xi, eta = draws.reshape(samples, 2, n_inner, 2).swapaxes(0, 1)
    distinct, inverse = _distinct_vectors(np.concatenate([xi, eta, (xi + eta) % p]), p)
    trios = inverse.reshape(3, -1)
    first, second, total = trios
    # The inner window widened by the radius on both sides is the window.
    images = s.apply_window(distinct)
    phases = phi.evaluate_batch(distinct)
    # phi(xi) phi(eta) w(s xi) w(s eta) must equal eps_p^{beta(xi, eta)} phi(xi + eta) w(s(xi + eta)).
    shift = phases[total] - phases[first] - phases[second] - phi.order // p * beta_batch(xi, eta, p)
    for block in _blocks(len(first), window.dim):
        # one build for the images of xi, eta and xi + eta of the block's pairs
        w = _weyl_batch(images[trios[:, block].ravel()], p)
        k = len(w.row) // 3
        if w[:k] @ w[k : 2 * k] != w[2 * k :].scaled(shift[block]):
            return False
    return True


def _selftest_family(p: int, sites: int) -> np.ndarray:
    """All nonzero vectors supported on one or two of the cells, as (vectors, sites, 2) coefficients.

    Single cells come first, then cell pairs in combinations order; on each
    support the vectors keep the order of _vectors_on_cells.
    """
    one = _vectors_on_cells(p, 1)[1:]
    two = _vectors_on_cells(p, 2)
    two = two[two.any(axis=2).all(axis=1)]
    supports = [(one, [x]) for x in range(sites)]
    supports += [(two, list(pair)) for pair in combinations(range(sites), 2)]
    family = []
    for values, cells in supports:
        block = np.zeros((len(values), sites, 2), dtype=np.int64)
        block[:, cells] = values
        family.append(block)
    return np.concatenate(family)


def _check_family(family: np.ndarray, p: int):
    """(unitarity, order_condition) verdicts over every member of the family."""
    step = phase_group_order(p) // p
    kappa = p * (p - 1) // 2
    unitary = order_ok = True
    for block in _blocks(len(family), p ** family.shape[1]):
        w = _weyl_batch(family[block], p)
        unitary = unitary and check_unitary(w)
        power = w
        for _ in range(p - 1):
            power = power @ w
        identity = _weyl_batch(np.zeros_like(family[block]), p)
        expected = -step * kappa * beta_batch(family[block], family[block], p)
        order_ok = order_ok and power == identity.scaled(expected)
    return unitary, order_ok


def _check_pairs(family: np.ndarray, first: np.ndarray, second: np.ndarray, p: int):
    """(weyl_relation, commutation) verdicts on the pairs (family[first[k]], family[second[k]])."""
    step = phase_group_order(p) // p
    # each family member of the block is built once
    members, local = np.unique(np.concatenate([first, second]), return_inverse=True)
    w = _weyl_batch(family[members], p)
    w_xi, w_eta = w[local[: len(first)]], w[local[len(first) :]]
    xi, eta = family[first], family[second]
    forward, backward = beta_batch(xi, eta, p), beta_batch(eta, xi, p)
    relation = _weyl_batch((xi + eta) % p, p) == (w_xi @ w_eta).scaled(step * forward)
    # sigma(xi, eta) = beta(xi, eta) - beta(eta, xi)
    commutation = np.array_equal(_commutation_exponents(w_xi, w_eta, p), (forward - backward) % p)
    return relation, commutation


def run_selftest(p: int, sites: int, seed: int = 7) -> list:
    """Full oracle suite; returns one report record per check class."""
    window = Window(p, 0, sites - 1)
    one = LaurentPoly.one(p, 1)
    b1 = LaurentPoly(p, 1, {1: 1, -1: 1})
    automata = [sca.identity(p, 1), sca.shift(p, 1, 1)]
    automata.extend(sca.local_f(p, c) for c in range(1, p))
    automata.append(sca.shear_g(p, 1, 1))
    recipes = ((one + b1, LaurentPoly.zero(p, 1)), (one + b1, one), (one, b1))
    automata.extend(sca.from_recipe(f, h) for f, h in recipes)
    radius = max(s.radius() for s in automata)
    if sites < 2 * radius + 1:
        raise ValueError(f"window [{window.lo}, {window.hi}] too small for radius {radius}")
    family = _selftest_family(p, sites)
    n = len(family)
    if n * n <= SELFTEST_PAIR_BUDGET:
        first, second = np.divmod(np.arange(n * n), n)
    else:
        # the draws rng.choice(family) makes, xi then eta per pair
        rng = random.Random(seed)
        members = range(n)
        draws = [rng.choice(members) for _ in range(2 * SELFTEST_PAIR_BUDGET)]
        first, second = np.array(draws, dtype=np.int64).reshape(-1, 2).T
    relation = commutation = True
    for block in _blocks(len(first), window.dim):
        block_relation, block_commutation = _check_pairs(family, first[block], second[block], p)
        relation &= block_relation
        commutation &= block_commutation
    unitary, order_ok = _check_family(family, p)
    clifford = all(check_clifford_action(s, default_phase(s), window, seed=seed) for s in automata)
    verdicts = (
        ("unitarity", unitary, n),
        ("weyl_relation", relation, len(first)),
        ("commutation", commutation, len(first)),
        ("order_condition", order_ok, n),
        ("clifford_action", clifford, len(automata)),
    )
    return [{"check": name, "pass": bool(ok), "cases": cases} for name, ok, cases in verdicts]
