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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import sca
from .cocycle import PhaseFunction, default_phase, phase_group_order
from .laurent import LaurentPoly
from .phasespace import PhaseVector, beta, sigma

__all__ = [
    "MAX_WINDOW_DIM",
    "SELFTEST_PAIR_BUDGET",
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
    """Monomial matrix: column q holds omega^phase[q] in row row[q].

    omega = exp(2 pi i / order); row and phase are int64 arrays of the
    window dimension, phase reduced to [0, order).
    """

    row: np.ndarray
    phase: np.ndarray
    order: int

    def __matmul__(self, other: WeylOperator) -> WeylOperator:
        if self.order != other.order or len(self.row) != len(other.row):
            raise ValueError("operators act on different windows")
        return WeylOperator(
            self.row[other.row], (other.phase + self.phase[other.row]) % self.order, self.order
        )

    def scaled(self, k: int) -> WeylOperator:
        """This operator times omega^k."""
        return WeylOperator(self.row, (self.phase + k) % self.order, self.order)

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


def weyl_matrix(xi: PhaseVector, window: Window) -> WeylOperator:
    """Tensor product of single-cell Weyl operators over the window cells.

    The first window cell is the most significant digit of the basis index
    (the Kronecker-product order).
    """
    if xi.d != 1:
        raise ValueError("the operator oracle is one-dimensional")
    if xi.p != window.p:
        raise ValueError(f"modulus mismatch: {xi.p} vs {window.p}")
    cells = xi.support()
    if cells and (cells[0] < window.lo or cells[-1] > window.hi):
        raise ValueError(f"support {cells} sticks out of window [{window.lo}, {window.hi}]")
    p = window.p
    order = phase_group_order(p)
    a = np.array([xi.plus.coeff(x) for x in window.cells()], dtype=np.int64)
    b = np.array([xi.minus.coeff(x) for x in window.cells()], dtype=np.int64)
    place = p ** np.arange(window.sites - 1, -1, -1, dtype=np.int64)
    digits = np.arange(window.dim, dtype=np.int64)[:, None] // place % p
    row = (digits - b) % p @ place
    phase = (order // p) * (digits @ a) % order
    return WeylOperator(row, phase, order)


def check_unitary(w: WeylOperator) -> bool:
    """A monomial matrix of roots of unity is unitary iff its rows form a permutation."""
    return bool(np.array_equal(np.sort(w.row), np.arange(len(w.row))))


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


def _vectors_on_cells(p: int, cells) -> list:
    """All phase vectors supported on the given cells (the zero vector included)."""
    out = []
    cells = list(cells)
    for assignment in product(range(p * p), repeat=len(cells)):
        plus = {}
        minus = {}
        for x, ab in zip(cells, assignment):
            a, b = divmod(ab, p)
            if a:
                plus[x] = a
            if b:
                minus[x] = b
        out.append(PhaseVector(LaurentPoly(p, 1, plus), LaurentPoly(p, 1, minus)))
    return out


def check_clifford_action(
    s: sca.ScaMatrix,
    phi: PhaseFunction,
    window: Window,
    max_exhaustive: int = 4096,
    samples: int = 512,
    seed: int = 7,
) -> bool:
    """Verify that w(xi) -> phi(xi) w(s xi) is multiplicative on the window.

    Pairs are drawn from the inner sub-window (shrunk by the automaton
    radius) so every image stays inside the window: exhaustively when the
    pair count is small, by seeded sampling otherwise.
    """
    if s.d != 1:
        raise ValueError("the operator oracle is one-dimensional")
    radius = s.radius()
    inner_lo = window.lo + radius
    inner_hi = window.hi - radius
    if inner_hi < inner_lo:
        raise ValueError(
            f"window [{window.lo}, {window.hi}] too small for radius {radius}"
        )
    p = window.p
    step = phi.order // p
    inner_cells = range(inner_lo, inner_hi + 1)
    n_inner = inner_hi - inner_lo + 1
    n_vectors = (p * p) ** n_inner

    def pair_ok(xi: PhaseVector, eta: PhaseVector) -> bool:
        lhs = weyl_matrix(s.apply(xi), window) @ weyl_matrix(s.apply(eta), window)
        rhs = weyl_matrix(s.apply(xi + eta), window)
        lhs_phase = phi.evaluate(xi) + phi.evaluate(eta)
        rhs_phase = phi.evaluate(xi + eta) - step * beta(xi, eta)
        return lhs.scaled(lhs_phase - rhs_phase) == rhs

    if n_vectors * n_vectors <= max_exhaustive:
        vectors = _vectors_on_cells(p, inner_cells)
        return all(pair_ok(xi, eta) for xi in vectors for eta in vectors)
    rng = random.Random(seed)
    return all(
        pair_ok(PhaseVector.random(rng, p, inner_cells), PhaseVector.random(rng, p, inner_cells))
        for _ in range(samples)
    )


def _selftest_family(p: int, window: Window) -> list:
    """All nonzero vectors supported on one or two window cells."""
    cells = list(window.cells())
    family = []
    for x in cells:
        family.extend(v for v in _vectors_on_cells(p, [x]) if not v.is_zero())
    for i, x in enumerate(cells):
        for y in cells[i + 1 :]:
            family.extend(
                v
                for v in _vectors_on_cells(p, [x, y])
                if x in v.support() and y in v.support()
            )
    return family


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
    family = _selftest_family(p, window)
    if len(family) ** 2 <= SELFTEST_PAIR_BUDGET:
        pairs = [(xi, eta) for xi in family for eta in family]
    else:
        rng = random.Random(seed)
        pairs = [(rng.choice(family), rng.choice(family)) for _ in range(SELFTEST_PAIR_BUDGET)]
    checks = [
        ("unitarity", family, lambda v: check_unitary(weyl_matrix(v, window))),
        ("weyl_relation", pairs, lambda pair: check_weyl_relation(*pair, window)),
        ("commutation", pairs, lambda pair: check_commutation(*pair, window)),
        ("order_condition", family, lambda v: check_order_condition(v, window)),
        (
            "clifford_action",
            automata,
            lambda s: check_clifford_action(s, default_phase(s), window, seed=seed),
        ),
    ]
    return [
        {"check": name, "pass": all(map(ok, cases)), "cases": len(cases)}
        for name, cases, ok in checks
    ]
