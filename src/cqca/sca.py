"""Symplectic cellular automata as 2x2 Laurent-polynomial matrices.

A reversible Clifford automaton acts on phase-space vectors by an invertible
2x2 matrix s over the Laurent ring that preserves the commutation form.  Up
to an overall lattice shift u^a, such a matrix has palindrome entries and
determinant 1; classify() recovers exactly that certificate (shift vector
plus palindrome core), and is_symplectic() independently tests the three
form identities on the matrix columns.  The two routes are kept separate on
purpose so the test suite can cross-check them against each other.

Named constructors cover the generating zoo: lattice shifts, the local
cell transformations f_c, and the shear automata g_n that propagate
plus-excitations to cells -n and n.

ScaMatrix.orbit() yields the space-time trace of a vector, one time slice
of arrays at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .ffield import check_prime, inv_mod
from .laurent import _DENSE_MAX_EXP, LaurentPoly, _coeff_window, _is_hollow, coefficient_dtype
from .phasespace import PhaseVector, form_sigma_poly

__all__ = [
    "NotSymplectic",
    "FactorizationMismatch",
    "InvariantViolation",
    "ScaMatrix",
    "SymplecticCertificate",
    "identity",
    "shift",
    "shear_g",
    "upper_shear_g",
    "local_f",
    "from_recipe",
    "classify",
]


class NotSymplectic(ValueError):
    """Raised when a matrix fails symplectic classification."""


class FactorizationMismatch(ValueError):
    """Raised when recipe inputs do not satisfy f2 * h2 = 1 - f * h."""


class InvariantViolation(RuntimeError):
    """Raised when a computed result breaks an identity the theory guarantees."""


class ScaMatrix:
    """2x2 matrix ((pp, pm), (mp, mm)) of Laurent polynomials over one ring."""

    __slots__ = ("pp", "pm", "mp", "mm")

    def __init__(self, pp, pm, mp, mm):
        for entry in (pp, pm, mp, mm):
            if not isinstance(entry, LaurentPoly):
                raise TypeError("matrix entries must be Laurent polynomials")
        pp._require_same_ring(pm)
        pp._require_same_ring(mp)
        pp._require_same_ring(mm)
        self.pp = pp
        self.pm = pm
        self.mp = mp
        self.mm = mm

    @property
    def p(self):
        return self.pp.p

    @property
    def d(self):
        return self.pp.d

    def entries(self):
        return ((self.pp, self.pm), (self.mp, self.mm))

    def column_plus(self) -> PhaseVector:
        """Image of e_plus(0): the first matrix column."""
        return PhaseVector(self.pp, self.mp)

    def column_minus(self) -> PhaseVector:
        """Image of e_minus(0): the second matrix column."""
        return PhaseVector(self.pm, self.mm)

    # -- group operations ----------------------------------------------------

    def apply(self, xi: PhaseVector) -> PhaseVector:
        if not isinstance(xi, PhaseVector):
            raise TypeError("apply expects a phase vector")
        self.pp._require_same_ring(xi.plus)
        return PhaseVector(
            self.pp * xi.plus + self.pm * xi.minus,
            self.mp * xi.plus + self.mm * xi.minus,
        )

    def apply_window(self, coeffs) -> np.ndarray:
        """apply() on a family of vectors given as a coefficient array.

        coeffs has shape (vectors,) + box + (2,), with one box axis per
        variable (see phasespace).  The images come back on the box widened
        by radius() cells at both ends of every axis, so their first cell is
        the first input cell minus radius() on each axis.  Every entry term
        is one shifted multiply-add of a whole component slice.
        """
        coeffs = np.asarray(coeffs)
        box = coeffs.shape[1:-1]
        if len(box) != self.d or coeffs.shape[-1] != 2:
            raise ValueError(f"expected a (vectors, box of {self.d} axes, 2) coefficient array")
        p, r = self.p, self.radius()
        entries = ((0, 0, self.pp), (0, 1, self.pm), (1, 0, self.mp), (1, 1, self.mm))
        # int64 bound: an image coefficient sums at most one product of two
        # residues per entry term, so the sums stay below terms * p^2.
        terms = sum(len(entry.terms) for _, _, entry in entries)
        dtype = coefficient_dtype(p, terms)
        source = coeffs.astype(dtype, copy=False)
        out = np.zeros((len(coeffs),) + tuple(n + 2 * r for n in box) + (2,), dtype=dtype)
        for row, col, entry in entries:
            part = source[..., col]
            for x, c in entry.terms.items():
                target = tuple(slice(r + e, r + e + n) for e, n in zip(x, box))
                out[(slice(None),) + target + (row,)] += c * part
        out %= p
        return out

    def orbit(self, xi: PhaseVector, steps: int):
        """Iterator over the time slices of xi, s xi, ..., s^steps xi.

        A slice is (cells, plus, minus): arrays sorted by cell that hold the
        support and its coefficients, in coefficient_dtype(p) (object from
        p = 2^62 on); cells are int64, or object when an exponent leaves
        int64.  cells has shape (n,) for d == 1 and (n, d) otherwise.
        One-variable orbits step on coefficient windows when _orbit_windows
        allows it, every other orbit steps with apply().  A slice with a cell
        more than t * radius outside the start support raises
        InvariantViolation before it is yielded.
        """
        if not isinstance(xi, PhaseVector):
            raise TypeError("orbit expects a phase vector")
        self.pp._require_same_ring(xi.plus)
        if steps < 0:
            raise ValueError("steps must be non-negative")
        windows = self._orbit_windows(xi, steps)
        if windows is None:
            slices = self._apply_orbit(xi, steps)
        else:
            slices = _window_orbit(xi, steps, *windows)
        return _light_cone_checked(slices, xi.support(), self.radius())

    def _orbit_windows(self, xi: PhaseVector, steps: int):
        """(lowest exponent, entry windows) for window stepping, or None for apply().

        The window path needs d == 1, a nonzero start, no hollow entry or
        start, and int64 sums.  The start is judged on the support of both
        components together, which is the window _window_orbit lays out.
        The four entries become int64 coefficient windows over their common
        exponent range.
        """
        if self.d != 1 or xi.is_zero():
            return None
        start = xi.support()
        if _is_hollow((start[-1] - start[0],), len(start)):
            return None
        entries = (self.pp, self.pm, self.mp, self.mm)
        supports = [[e for (e,) in poly.terms] for poly in entries]
        if any(es and _is_hollow((max(es) - min(es),), len(es)) for es in supports):
            return None
        exps = [e for es in supports for e in es]
        if not exps:
            return None
        lo, hi = min(exps), max(exps)
        length = hi - lo + 1
        # One step adds two convolutions, and each of their cells sums at
        # most `length` products of coefficients below p.
        if coefficient_dtype(self.p, 2 * length) is not np.int64:
            return None
        reach = max(-start[0], start[-1])
        if reach + steps * max(-lo, hi) >= _DENSE_MAX_EXP:
            return None
        return lo, tuple(_coeff_window(e, (lo,), (1,), length) for e in entries)

    def _apply_orbit(self, xi: PhaseVector, steps: int):
        """Slices of an orbit stepped with apply() on the sparse dicts."""
        d = self.d
        dtype = coefficient_dtype(self.p)
        for t in range(steps + 1):
            plus, minus = xi.plus.terms, xi.minus.terms
            keys = sorted(plus.keys() | minus.keys())
            try:
                cells = np.array(keys, dtype=np.int64)
            except OverflowError:
                cells = np.array(keys, dtype=object)
            cells = cells.reshape(len(keys), d)
            yield (
                cells[:, 0] if d == 1 else cells,
                np.array([plus.get(k, 0) for k in keys], dtype=dtype),
                np.array([minus.get(k, 0) for k in keys], dtype=dtype),
            )
            if t < steps:
                xi = self.apply(xi)

    def compose(self, other: "ScaMatrix") -> "ScaMatrix":
        """Matrix product self @ other: apply other first, then self."""
        if not isinstance(other, ScaMatrix):
            raise TypeError("compose expects another matrix")
        self.pp._require_same_ring(other.pp)
        return ScaMatrix(
            self.pp * other.pp + self.pm * other.mp,
            self.pp * other.pm + self.pm * other.mm,
            self.mp * other.pp + self.mm * other.mp,
            self.mp * other.pm + self.mm * other.mm,
        )

    __matmul__ = compose

    def det(self) -> LaurentPoly:
        return self.pp * self.mm - self.pm * self.mp

    def scaled(self, f) -> "ScaMatrix":
        return ScaMatrix(f * self.pp, f * self.pm, f * self.mp, f * self.mm)

    def shifted(self, x) -> "ScaMatrix":
        """Multiply every entry by the monomial u^x."""
        return ScaMatrix(
            self.pp.shifted(x), self.pm.shifted(x), self.mp.shifted(x), self.mm.shifted(x)
        )

    # -- symplecticity -------------------------------------------------------

    def is_symplectic(self) -> bool:
        """Test the three form identities on the columns.

        This is deliberately independent of classify(): no determinant, no
        palindrome inspection, only the sesquilinear form.
        """
        c1 = self.column_plus()
        c2 = self.column_minus()
        if not form_sigma_poly(c1, c1).is_zero():
            return False
        if not form_sigma_poly(c2, c2).is_zero():
            return False
        return form_sigma_poly(c1, c2) == LaurentPoly.one(self.p, self.d)

    def classify(self) -> "SymplecticCertificate":
        return classify(self)

    def inverse(self) -> "ScaMatrix":
        """Group inverse via the certificate: u^-a times the adjugate of the core."""
        cert = classify(self)
        m = cert.core
        adj = ScaMatrix(m.mm, -m.pm, -m.mp, m.pp)
        return adj.shifted(tuple(-v for v in cert.shift))

    def neighborhood(self):
        """Sorted union of the entry supports (ints when d == 1)."""
        cells = set()
        for entry in (self.pp, self.pm, self.mp, self.mm):
            cells |= set(entry.terms)
        if self.d == 1:
            return sorted(e for (e,) in cells)
        return sorted(cells)

    def radius(self) -> int:
        """Maximum absolute neighborhood coordinate (sup norm)."""
        cells = self.neighborhood()
        if not cells:
            return 0
        if self.d == 1:
            return max(abs(x) for x in cells)
        return max(max(abs(v) for v in x) for x in cells)

    def __eq__(self, other):
        if not isinstance(other, ScaMatrix):
            return NotImplemented
        return (
            self.pp == other.pp
            and self.pm == other.pm
            and self.mp == other.mp
            and self.mm == other.mm
        )

    def __hash__(self):
        return hash((self.pp, self.pm, self.mp, self.mm))

    def __repr__(self):
        return f"ScaMatrix(({self.pp}, {self.pm}), ({self.mp}, {self.mm}))"

    # -- wire format -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "d": self.d,
            "entries": [
                [str(self.pp), str(self.pm)],
                [str(self.mp), str(self.mm)],
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


# -- orbits --------------------------------------------------------------------


def _window_orbit(xi: PhaseVector, steps: int, lo: int, entries):
    """Slices of a one-variable orbit stepped on int64 coefficient windows.

    The state is (offset, plus window, minus window), trimmed each step so
    that a nonzero coefficient sits at both ends.  A step convolves the
    windows with the entry windows, whose first cell is the exponent lo.
    """
    pp, pm, mp, mm = entries
    p = xi.p
    support = xi.support()
    offset = support[0]
    length = support[-1] - offset + 1
    plus = _coeff_window(xi.plus, (offset,), (1,), length)
    minus = _coeff_window(xi.minus, (offset,), (1,), length)
    for t in range(steps + 1):
        nz = np.flatnonzero(plus | minus)
        if nz.size:
            first = int(nz[0])
            plus = plus[first : nz[-1] + 1]
            minus = minus[first : nz[-1] + 1]
            offset += first
            nz -= first
        yield nz + offset, plus[nz], minus[nz]
        if t < steps and nz.size:
            new_plus = np.convolve(plus, pp)
            new_plus += np.convolve(minus, pm)
            new_plus %= p
            new_minus = np.convolve(plus, mp)
            new_minus += np.convolve(minus, mm)
            new_minus %= p
            plus, minus = new_plus, new_minus
            offset += lo


def _light_cone_checked(slices, start, radius: int):
    """Pass slices through, checking that slice t lies within t * radius of start."""
    if not start:
        yield from slices
        return
    # The bounds stay Python ints, so exponents beyond int64 compare exactly.
    cols = [start] if isinstance(start[0], int) else list(zip(*start))
    lo, hi = [min(c) for c in cols], [max(c) for c in cols]
    for t, sl in enumerate(slices):
        cells = sl[0]
        if not len(cells):
            yield sl
            continue
        # Sorted one-variable cells can only leave the cone at either end.
        box = (cells[[0, -1]] if cells.ndim == 1 else cells).reshape(-1, len(lo))
        r = t * radius
        low, high = box.min(axis=0).tolist(), box.max(axis=0).tolist()
        if any(x < a - r for x, a in zip(low, lo)) or any(x > b + r for x, b in zip(high, hi)):
            row = next(
                c for c in box.tolist() if any(x < a - r or x > b + r for x, a, b in zip(c, lo, hi))
            )
            cell = row[0] if cells.ndim == 1 else row
            raise InvariantViolation(
                f"light cone broken at t = {t}: cell {cell} lies more than"
                f" {t * radius} cells outside the start support"
            )
        yield sl


@dataclass(frozen=True)
class SymplecticCertificate:
    """Witness of symplecticity: s = u^shift * core, core in SL(2, palindromes)."""

    shift: tuple
    core: ScaMatrix


def classify(s: ScaMatrix) -> SymplecticCertificate:
    """Recover the shift-plus-palindrome-core normal form, or raise NotSymplectic.

    The route is independent of is_symplectic(): the determinant must be a
    coefficient-1 monomial with all exponents even, and after removing the
    shift all four entries must be palindromes with determinant one.
    """
    dt = s.det()
    if len(dt.terms) != 1:
        raise NotSymplectic(f"determinant {dt} is not a monomial")
    ((exps, coeff),) = dt.terms.items()
    if coeff != 1:
        raise NotSymplectic(f"determinant {dt} has coefficient {coeff}, not 1")
    if any(e % 2 for e in exps):
        raise NotSymplectic(f"determinant {dt} is not an even monomial u^2a")
    a = tuple(e // 2 for e in exps)
    core = s.shifted(tuple(-v for v in a))
    for name, entry in zip(("pp", "pm", "mp", "mm"), (core.pp, core.pm, core.mp, core.mm)):
        if not entry.is_palindrome():
            raise NotSymplectic(f"core entry {name} = {entry} is not a palindrome")
    if core.det() != LaurentPoly.one(s.p, s.d):
        raise NotSymplectic("core determinant is not 1")
    return SymplecticCertificate(shift=a, core=core)


# -- named constructors ---------------------------------------------------------


def identity(p, d=1) -> ScaMatrix:
    one = LaurentPoly.one(p, d)
    zero = LaurentPoly.zero(p, d)
    return ScaMatrix(one, zero, zero, one)


def shift(p, d, a) -> ScaMatrix:
    """The lattice shift automaton: u^a times the identity."""
    return identity(p, d).shifted(a)


def shear_g(p, n, c=1) -> ScaMatrix:
    """Shear automaton ((1, 0), (c*(u^n + u^-n), 1)); n = 0 gives ((1,0),(c,1)).

    The n = 0 case is the constant shear completing the generator family:
    without it the Euclidean factorization could not express constant
    quotients.
    """
    if n < 0:
        raise ValueError("shear index must be non-negative")
    check_prime(p)
    c = int(c) % p
    one = LaurentPoly.one(p, 1)
    zero = LaurentPoly.zero(p, 1)
    if n == 0:
        lower = LaurentPoly.constant(p, 1, c)
    else:
        lower = LaurentPoly(p, 1, {n: c, -n: c})
    return ScaMatrix(one, zero, lower, one)


def upper_shear_g(p, n, c=1) -> ScaMatrix:
    """Transposed shear ((1, c*(u^n + u^-n)), (0, 1)); n = 0 gives ((1,c),(0,1))."""
    g = shear_g(p, n, c)
    return ScaMatrix(g.pp, g.mp, g.pm, g.mm)


def local_f(p, c) -> ScaMatrix:
    """Single-cell automaton ((0, c), (-c^-1, 0)); requires c != 0."""
    check_prime(p)
    c = int(c) % p
    if c == 0:
        raise ValueError("local automaton needs an invertible coefficient")
    zero = LaurentPoly.zero(p, 1)
    return ScaMatrix(
        zero,
        LaurentPoly.constant(p, 1, c),
        LaurentPoly.constant(p, 1, -inv_mod(c, p)),
        zero,
    )


def from_recipe(f: LaurentPoly, h: LaurentPoly, f2=None, h2=None) -> ScaMatrix:
    """Build a symplectic matrix from palindromes f, h and a factorization of 1 - f*h.

    The defaults take the trivial factorization h2 = 1, f2 = 1 - f*h.  The
    result is ((f, f2), (-h2, h)), whose determinant f*h + f2*h2 equals 1
    exactly when f2 * h2 = 1 - f*h; FactorizationMismatch otherwise.
    """
    f._require_same_ring(h)
    p, d = f.p, f.d
    one = LaurentPoly.one(p, d)
    if h2 is None:
        h2 = one
    if f2 is None:
        f2 = one - f * h
    for name, poly in (("f", f), ("h", h), ("f2", f2), ("h2", h2)):
        if not poly.is_palindrome():
            raise ValueError(f"recipe input {name} = {poly} is not a palindrome")
    if f2 * h2 != one - f * h:
        raise FactorizationMismatch(
            f"f2*h2 = {f2 * h2} differs from 1 - f*h = {one - f * h}"
        )
    return ScaMatrix(f, f2, -h2, h)
