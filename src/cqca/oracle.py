"""Dense complex oracle: finite-window Weyl matrices checked numerically.

Everything upstream is exact symbolic algebra; this module is the
independent referee.  On a finite window of cells it builds the actual
unitaries w(xi) as tensor products of single-cell matrices acting on
C^p per cell:

    w(a, b) |q> = eps_p^{a q} |q - b>,   eps_p = exp(2 pi i / p)

so that w(xi + eta) = eps_p^{beta(xi, eta)} w(xi) w(eta) holds with the
symbolic form beta, and the commutation phase is eps_p^{sigma(xi, eta)}.
For p = 2 the single-cell operators are the Paulis: w(1,0) = Z,
w(0,1) = X, and w(1,1) = X Z = -i Y.

All comparisons use the max norm with a 1e-10 tolerance; entries are exact
roots of unity, so any disagreement is structural, not roundoff.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import sca
from .cocycle import PhaseFunction, default_phase
from .laurent import LaurentPoly
from .phasespace import PhaseVector, beta, sigma

__all__ = [
    "TOLERANCE",
    "MAX_WINDOW_DIM",
    "Window",
    "weyl_matrix",
    "check_unitary",
    "check_weyl_relation",
    "check_commutation",
    "commutation_exponent",
    "check_order_condition",
    "check_clifford_action",
    "run_selftest",
]

TOLERANCE = 1e-10
MAX_WINDOW_DIM = 4096


@dataclass(frozen=True)
class Window:
    """Contiguous run of cells [lo, hi] on the one-dimensional lattice."""

    p: int
    lo: int
    hi: int

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError(f"empty window [{self.lo}, {self.hi}]")
        if self.p ** self.sites > MAX_WINDOW_DIM:
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


def _max_diff(m1, m2) -> float:
    return float(np.max(np.abs(m1 - m2)))


def _weyl_cell(p: int, a: int, b: int) -> np.ndarray:
    """Single-cell operator |q> -> eps^{a q} |q - b> as a p x p matrix."""
    eps_powers = np.exp(2j * np.pi * (np.arange(p) % p) / p)
    m = np.zeros((p, p), dtype=np.complex128)
    cols = np.arange(p)
    rows = (cols - b) % p
    m[rows, cols] = eps_powers[(a * cols) % p]
    return m


def weyl_matrix(xi: PhaseVector, window: Window) -> np.ndarray:
    """Tensor product of single-cell Weyl operators over the window cells."""
    if xi.d != 1:
        raise ValueError("the dense oracle is one-dimensional")
    if xi.p != window.p:
        raise ValueError(f"modulus mismatch: {xi.p} vs {window.p}")
    cells = xi.support()
    if cells and (cells[0] < window.lo or cells[-1] > window.hi):
        raise ValueError(f"support {cells} sticks out of window [{window.lo}, {window.hi}]")
    p = window.p
    out = np.ones((1, 1), dtype=np.complex128)
    for x in window.cells():
        a = xi.plus.coeff(x)
        b = xi.minus.coeff(x)
        out = np.kron(out, _weyl_cell(p, a, b))
    return out


def check_unitary(m: np.ndarray, tol: float = TOLERANCE) -> bool:
    n = m.shape[0]
    return _max_diff(m.conj().T @ m, np.eye(n)) < tol


def _phase(p: int, exponent: int) -> complex:
    return complex(np.exp(2j * np.pi * (exponent % p) / p))


def check_weyl_relation(xi: PhaseVector, eta: PhaseVector, window: Window, tol: float = TOLERANCE) -> bool:
    """w(xi + eta) == eps_p^{beta(xi, eta)} w(xi) w(eta) on the window."""
    w_sum = weyl_matrix(xi + eta, window)
    w_prod = weyl_matrix(xi, window) @ weyl_matrix(eta, window)
    return _max_diff(w_sum, _phase(window.p, beta(xi, eta)) * w_prod) < tol


def check_commutation(xi: PhaseVector, eta: PhaseVector, window: Window, tol: float = TOLERANCE) -> bool:
    """w(eta) w(xi) == eps_p^{sigma(xi, eta)} w(xi) w(eta) on the window."""
    w_xi = weyl_matrix(xi, window)
    w_eta = weyl_matrix(eta, window)
    lhs = w_eta @ w_xi
    rhs = _phase(window.p, sigma(xi, eta)) * (w_xi @ w_eta)
    return _max_diff(lhs, rhs) < tol


def commutation_exponent(xi: PhaseVector, eta: PhaseVector, window: Window, tol: float = TOLERANCE):
    """Extract k with w(eta) w(xi) = eps^k w(xi) w(eta), or None if not scalar."""
    w_xi = weyl_matrix(xi, window)
    w_eta = weyl_matrix(eta, window)
    lhs = w_eta @ w_xi
    rhs = w_xi @ w_eta
    flat = np.argmax(np.abs(rhs))
    pivot = rhs.flat[flat]
    if abs(pivot) < tol:
        return 0
    ratio = lhs.flat[flat] / pivot
    p = window.p
    k = int(round(np.angle(ratio) * p / (2 * np.pi))) % p
    if _max_diff(lhs, _phase(p, k) * rhs) < tol:
        return k
    return None


def check_order_condition(xi: PhaseVector, window: Window, tol: float = TOLERANCE) -> bool:
    """w(xi)^p == eps_p^{-kappa beta(xi, xi)} * identity, kappa = p(p-1)/2."""
    p = window.p
    w = weyl_matrix(xi, window)
    power = np.linalg.matrix_power(w, p)
    kappa = p * (p - 1) // 2
    expected = _phase(p, -kappa * beta(xi, xi)) * np.eye(window.dim)
    return _max_diff(power, expected) < tol


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
    tol: float = TOLERANCE,
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
        raise ValueError("the dense oracle is one-dimensional")
    radius = s.radius()
    inner_lo = window.lo + radius
    inner_hi = window.hi - radius
    if inner_hi < inner_lo:
        raise ValueError(
            f"window [{window.lo}, {window.hi}] too small for radius {radius}"
        )
    p = window.p
    inner_cells = range(inner_lo, inner_hi + 1)
    n_inner = inner_hi - inner_lo + 1
    n_vectors = (p * p) ** n_inner

    cache = {}

    def w_of(vec: PhaseVector) -> np.ndarray:
        key = (
            frozenset(vec.plus.terms.items()),
            frozenset(vec.minus.terms.items()),
        )
        if key not in cache:
            cache[key] = weyl_matrix(vec, window)
        return cache[key]

    def pair_ok(xi: PhaseVector, eta: PhaseVector) -> bool:
        lhs = (
            phi.evaluate(xi).to_complex()
            * phi.evaluate(eta).to_complex()
            * (w_of(s.apply(xi)) @ w_of(s.apply(eta)))
        )
        rhs = (
            _phase(p, -beta(xi, eta))
            * phi.evaluate(xi + eta).to_complex()
            * w_of(s.apply(xi + eta))
        )
        return _max_diff(lhs, rhs) < tol

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
    family = _selftest_family(p, window)
    reports = []

    cache = {}

    def w_of(vec):
        key = (frozenset(vec.plus.terms.items()), frozenset(vec.minus.terms.items()))
        if key not in cache:
            cache[key] = weyl_matrix(vec, window)
        return cache[key]

    ok = all(check_unitary(w_of(v)) for v in family)
    reports.append({"check": "unitarity", "pass": ok, "cases": len(family)})

    cases = 0
    ok = True
    for xi in family:
        for eta in family:
            w_sum = weyl_matrix(xi + eta, window)
            good = (
                _max_diff(
                    w_sum, _phase(p, beta(xi, eta)) * (w_of(xi) @ w_of(eta))
                )
                < TOLERANCE
            )
            ok = ok and good
            cases += 1
    reports.append({"check": "weyl_relation", "pass": ok, "cases": cases})

    cases = 0
    ok = True
    for xi in family:
        for eta in family:
            k = commutation_exponent(xi, eta, window)
            ok = ok and k is not None and k == sigma(xi, eta)
            cases += 1
    reports.append({"check": "commutation", "pass": ok, "cases": cases})

    ok = all(check_order_condition(v, window) for v in family)
    reports.append({"check": "order_condition", "pass": ok, "cases": len(family)})

    automata = [("identity", sca.identity(p, 1)), ("shift", sca.shift(p, 1, 1))]
    automata.extend((f"local_f({c})", sca.local_f(p, c)) for c in range(1, p))
    automata.append(("shear_g(1)", sca.shear_g(p, 1, 1)))
    one = LaurentPoly.one(p, 1)
    zero = LaurentPoly.zero(p, 1)
    b1 = LaurentPoly(p, 1, {1: 1, -1: 1})
    recipes = [
        ("recipe(1+b1, 0)", sca.from_recipe(one + b1, zero)),
        ("recipe(1+b1, 1)", sca.from_recipe(one + b1, one)),
        ("recipe(1, b1)", sca.from_recipe(one, b1)),
    ]
    automata.extend(recipes)
    cases = 0
    ok = True
    for _, automaton in automata:
        phi = default_phase(automaton)
        good = check_clifford_action(automaton, phi, window, seed=seed)
        ok = ok and good
        cases += 1
    reports.append({"check": "clifford_action", "pass": ok, "cases": cases})
    return reports
