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

ScaMatrix.orbit_blocks() yields the space-time trace of a vector in blocks
of consecutive time slices, one row per support cell: t, the cells (int64,
or object past int64; shape (n,) for d = 1 and (n, d) otherwise) and the
plus and minus coefficients.  By Cayley-Hamilton, s^2 = tr(s) s - det(s) I,
and det(s) = u^2a for an automaton; in characteristic p the Frobenius
identity extends that to x_{t+2q} = tr(s)(u^q) x_{t+q} - u^2qa x_t for every
q = p^j, j >= 0, which gives q slices at once by one shifted multiply-add
per trace term.  Orbits step that way on coefficient windows, a block at a
time, and with apply() where the windows would not suit them (see
ScaMatrix._orbit_recurrence).  The rows of each such multiply-add are
reduced mod p as soon as they are computed, so every step reads reduced
rows and sums to at most (S + p - c)(p - 1), with S the sum of the trace
coefficients; the windows hold those sums in the narrowest of int16, int32
and int64 that holds them, and an orbit that not even int64 holds steps
with apply() (see _window_dtype, _block_orbit and _orbit_plan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ffield import check_prime, inv_mod
from .laurent import (
    _DENSE_MAX_EXP,
    LaurentPoly,
    _coeff_window,
    _is_hollow,
    _strides,
    coefficient_dtype,
)
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
        is one shifted multiply-add of a whole component slice, and the sums
        are reduced once at the end, or after every term where only that
        keeps them in int64.
        """
        coeffs = np.asarray(coeffs)
        box = coeffs.shape[1:-1]
        if len(box) != self.d or coeffs.shape[-1] != 2:
            raise ValueError(f"expected a (vectors, box of {self.d} axes, 2) coefficient array")
        p, r = self.p, self.radius()
        entries = ((0, 0, self.pp), (0, 1, self.pm), (1, 0, self.mp), (1, 1, self.mm))
        # int64 bound: an image coefficient sums at most one product of two
        # residues per entry term, so the sums stay below terms * p^2; with a
        # reduction after every term they stay below p + p^2.
        terms = sum(len(entry.terms) for _, _, entry in entries)
        dtype = coefficient_dtype(p, terms)
        each = dtype is object and coefficient_dtype(p, 1) is np.int64
        if each:
            dtype = np.int64
        source = coeffs.astype(dtype, copy=False)
        out = np.zeros((len(coeffs),) + tuple(n + 2 * r for n in box) + (2,), dtype=dtype)
        for row, col, entry in entries:
            part = source[..., col]
            for x, c in entry.terms.items():
                target = out[(slice(None),) + tuple(slice(r + e, r + e + n) for e, n in zip(x, box)) + (row,)]
                target += c * part
                if each:
                    target %= p
        if not each:
            out %= p
        return out

    def orbit_blocks(self, xi: PhaseVector, steps: int):
        """Iterator over the slices of xi, s xi, ..., s^steps xi, in blocks.

        A block is (start, stop, t, cells, plus, minus): slices start to
        stop - 1 as one row per support cell, sorted by t and then by cell.
        t is int64; plus and minus hold the coefficients in
        coefficient_dtype(p) (object from p = 2^62 on); cells are int64, or
        object when an exponent leaves int64, of shape (n,) for d == 1 and
        (n, d) otherwise.  A slice with no support has no rows.

        Orbits step in blocks on coefficient windows (see _block_orbit) when
        _orbit_recurrence allows it, and with apply() one slice per block
        otherwise; a zero start calls no apply() and yields one empty block
        of all steps + 1 slices.  Every block is checked against the light
        cone of radius(): a block whose slice t has a cell more than
        t * radius outside the start support is cut before t, and
        InvariantViolation is raised after the cut block is yielded.
        """
        if not isinstance(xi, PhaseVector):
            raise TypeError("orbit expects a phase vector")
        self.pp._require_same_ring(xi.plus)
        if steps < 0:
            raise ValueError("steps must be non-negative")
        recurrence = self._orbit_recurrence(xi, steps)
        if recurrence is None:
            blocks = self._apply_orbit(xi, steps)
        else:
            blocks = _block_orbit(self, xi, steps, *recurrence)
        return _light_cone_checked(blocks, xi.support(), self.radius())

    def _orbit_recurrence(self, xi: PhaseVector, steps: int):
        """(trace, det exponent, p - det coefficient, lo, hi, dtype) for _block_orbit, or None.

        None sends the orbit to _apply_orbit: a zero start, a hollow start (both
        components together: the first window) or hollow entries (all four
        together: the growth per step), a determinant that is not a
        monomial, a step whose sums no window dtype holds (_window_dtype), or
        exponents near 2^62.  lo and hi are the lowest and highest entry
        exponents per axis, and dtype is the windows' integer type.
        """
        if xi.is_zero():
            return None
        start = xi.plus.terms.keys() | xi.minus.terms.keys()
        if _is_hollow(_spans(start), len(start)):
            return None
        entries = (self.pp, self.pm, self.mp, self.mm)
        cells = [x for e in entries for x in e.terms]
        if not cells or _is_hollow(_spans(cells), len(cells)):
            return None
        det = self.det()
        if len(det.terms) != 1:
            return None
        ((e, c),) = det.terms.items()
        neg_c = self.p - int(c)
        trace = self.pp + self.mm
        dtype = _window_dtype(self.p, sum(map(int, trace.terms.values())), neg_c)
        if dtype is None:
            return None
        cols = list(zip(*cells))
        lo, hi = [min(c) for c in cols], [max(c) for c in cols]
        reach = max(abs(v) for x in start for v in x)
        if reach + (steps + 1) * max(map(abs, lo + hi)) >= _DENSE_MAX_EXP:
            return None
        return trace, e, neg_c, lo, hi, dtype

    def _apply_orbit(self, xi: PhaseVector, steps: int):
        """Blocks of one slice each, of an orbit stepped with apply() on the sparse dicts.

        A zero start stays zero without stepping: one empty block holds every slice.
        """
        d = self.d
        dtype = coefficient_dtype(self.p)
        if xi.is_zero():
            empty = np.zeros(0, dtype=np.int64)
            cells, coeffs = empty.reshape((0,) if d == 1 else (0, d)), empty.astype(dtype)
            yield 0, steps + 1, empty, cells, coeffs, coeffs
            return
        for t in range(steps + 1):
            plus, minus = xi.plus.terms, xi.minus.terms
            keys = sorted(plus.keys() | minus.keys())
            try:
                cells = np.array(keys, dtype=np.int64)
            except OverflowError:
                cells = np.array(keys, dtype=object)
            cells = cells.reshape(len(keys), d)
            yield (
                t,
                t + 1,
                np.full(len(keys), t, dtype=np.int64),
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


# -- orbits --------------------------------------------------------------------


# Orbit blocks: a block steps at most _BLOCK_STEPS times, and its steps times
# the cells of its window stay within _BLOCK_CELLS where the support allows.
# Both bound a block's memory; cli draws grids of at most _BLOCK_STEPS rows.
_BLOCK_STEPS = 128
_BLOCK_CELLS = 1 << 16


def _spans(cells):
    """Exponent range (max - min) per axis of a nonempty collection of exponent tuples."""
    return [max(c) - min(c) for c in zip(*cells)]


def _block_steps(width, growth) -> int:
    """Steps of a block whose window is width cells per axis plus growth per step."""
    b = _BLOCK_STEPS
    while b > 1 and b * math.prod(w + b * g for w, g in zip(width, growth)) > _BLOCK_CELLS:
        b //= 2
    return b


def _window_dtype(p: int, total: int, neg_c: int):
    """The narrowest of int16, int32 and int64 that holds one step from reduced rows, or None.

    A step from rows reduced mod p sums to at most (total + neg_c)(p - 1);
    None when that passes the largest int64.
    """
    need = (total + neg_c) * (p - 1)
    return next((t for t in (np.int16, np.int32, np.int64) if np.iinfo(t).max >= need), None)


def _orbit_plan(rows: int, p: int):
    """The steps of a block of `rows` states, as (k, q, m) in order.

    Each entry computes states k to k + m - 1 from states k - q ... and
    k - 2q ... (see _block_orbit): at row k, q is the largest power p^j
    (j >= 0) with 2q <= k, and m = min(q, rows - k), so q = 1 is a single
    step.
    """
    plan = []
    q, k = 1, 2
    while k < rows:
        while 2 * q * p <= k:
            q *= p
        m = min(q, rows - k)
        plan.append((k, q, m))
        k += m
    return plan


def _block_orbit(s, xi: PhaseVector, steps: int, trace, e, neg_c, lo, hi, dtype):
    """Blocks of an orbit stepped by x_{t+2q} = tr(s)(u^q) x_{t+q} - c u^(qe) x_t.

    Cayley-Hamilton gives s^2 = tr(s) s - det(s) I for any 2x2 matrix, and
    det(s) = c u^e here.  s^q obeys it too, so x_{t+2q} = tr(s^q) x_{t+q} -
    det(s)^q x_t, and for q = p^j the Frobenius map of characteristic p gives
    tr(s^q) = tr(s)(u^q): with eigenvalues l and m of s, tr(s^q) = l^q + m^q
    = (l + m)^q = tr(s)^q, and the q-th power of a polynomial over F_p is
    the polynomial in u^q.  Likewise det(s)^q = c^q u^(qe) = c u^(qe).
    q = p^0 = 1 is the plain Cayley-Hamilton step.

    One apply() step gives x_1.  The windows move with the orbit: x_t is
    laid out as u^(-t lo) x_t, where a step multiplies by u^-lo tr(s) and
    subtracts c u^(e - 2 lo) x_t, both free of negative exponents, so each
    state reaches at most hi - lo cells further up each axis.  A block lays
    two consecutive states out on the box of their support, widened by
    b (hi - lo), with both components on one flat Kronecker layout (as in
    laurent._mul_dense).  Each trace term is a tap at a flat offset f, and
    x_t moves by the determinant's offset; in the layout of x_{t+2q} both
    move by q times that.  So m <= q consecutive states are one 2-D slice
    multiply-add per trace term over the rows q back, plus one of
    neg_c = p - c times the rows 2q back for the determinant term
    (_orbit_plan picks q and m for each row).  The
    taps stay inside the window: a row k >= 2q has a box at least
    (2q - 1)(hi - lo) + 1 cells wide on each axis, so q f is a cell of the
    box and the determinant's q-fold offset, at most 2q (hi - lo) per axis,
    stays below 2n; each term is one slice of the rows.  Where a term moves
    cells past the edge of an axis, they wrap into other cells of the flat
    layout and cancel there mod p with those of the other terms: the layout
    is linear in the exponents, and the state the terms sum to lies in the
    box.

    The rows of each plan entry are reduced mod p right after their
    multiply-adds, so every row a step reads is reduced (the first pair
    comes from polynomials, and each next block starts from reduced rows).
    Every term is nonnegative (residues, trace coefficients and p - c), so
    with S the sum of the trace coefficients a step sums to at most
    (S + p - c)(p - 1), and every partial sum stays below that.  The
    windows are of dtype, the narrowest whose largest value M holds that
    (_window_dtype, which _orbit_recurrence asked).  The scalars p, p - c
    and the trace coefficients are Python ints, which numpy applies in the
    window's dtype; each is at most M, as p - 1 <= M and no dtype's M + 1
    is an odd prime.  The first b states of a block are read out through
    one mask of their support, plus and minus cast to coefficient_dtype(p)
    after the gather; the next block starts from the two after them.
    """
    p, d = s.p, s.d
    growth = [z - a for a, z in zip(lo, hi)]
    tr_exps = np.array(list(trace.terms), dtype=np.int64).reshape(len(trace.terms), d) - lo
    tr_coeffs = [int(a) for a in trace.terms.values()]
    det_exp = [x - 2 * a for x, a in zip(e, lo)]
    coeffs = coefficient_dtype(p)
    # The first pair of states, on the bounding box of their support.
    x1 = s.apply(xi)
    back = tuple(-a for a in lo)
    pair = [xi.plus, xi.minus, x1.plus.shifted(back), x1.minus.shifted(back)]
    cols = list(zip(*(x for poly in pair for x in poly.terms)))
    origin = [min(col) for col in cols]
    width = [max(col) - o + 1 for col, o in zip(cols, origin)]
    strides = _strides(width)
    n = math.prod(width)
    pair = np.stack([_coeff_window(poly, origin, strides, n, dtype) for poly in pair])
    pair = pair.reshape((2, 2) + tuple(width))
    t0 = 0
    while t0 <= steps:
        b = min(_block_steps(width, growth), steps + 1 - t0)
        rows = b + 2 if t0 + b <= steps else max(b, 2)
        shape = [w + (rows - 2) * g for w, g in zip(width, growth)]
        strides = _strides(shape)
        n = math.prod(shape)
        states = np.zeros((rows, 2) + tuple(shape), dtype=dtype)
        states[(slice(0, 2), slice(None)) + tuple(slice(0, w) for w in width)] = pair
        states = states.reshape(rows, 2 * n)
        taps = list(zip((tr_exps @ strides).tolist(), tr_coeffs))
        shift = sum(x * y for x, y in zip(det_exp, strides))  # below n: x_t is never zero
        size = 2 * n
        for k, q, m in _orbit_plan(rows, p):
            out = states[k : k + m]
            for f, a in taps:
                x = states[k - q : k - q + m, : size - q * f]
                out[:, q * f :] += x if a == 1 else a * x
            out[:, q * shift :] += neg_c * states[k - 2 * q : k - 2 * q + m, : size - q * shift]
            out -= out // p * p  # as out %= p; numpy floor-divides by a scalar faster
        comps = states.reshape(rows, 2, n)
        plus, minus = comps[:b, 0], comps[:b, 1]
        support = (plus | minus) != 0
        found = np.flatnonzero(support)
        ti = found // n
        fi = found - ti * n
        t = ti + t0
        if d == 1:
            cells = fi + (origin[0] + t * lo[0])
        else:
            cells = np.stack(np.unravel_index(fi, shape), axis=1) + origin + np.outer(t, lo)
        yield t0, t0 + b, t, cells, plus[support].astype(coeffs), minus[support].astype(coeffs)
        t0 += b
        if t0 > steps:
            return
        # s is invertible (det(s) is a unit), so the pair is never zero.
        pair = states[b : b + 2].reshape((4,) + tuple(shape))
        support = np.nonzero(pair.any(axis=0))
        low = [int(a.min()) for a in support]
        high = [int(a.max()) for a in support]
        pair = pair[(slice(None),) + tuple(slice(a, z + 1) for a, z in zip(low, high))]
        width = [z - a + 1 for a, z in zip(low, high)]
        pair = pair.reshape((2, 2) + tuple(width))
        origin = [o + a for o, a in zip(origin, low)]


def _light_cone_checked(blocks, start, radius: int):
    """Pass blocks through, checking that slice t lies within t * radius of start."""
    if not start:
        yield from blocks
        return
    # The bounds are Python ints in object arrays, so the comparisons stay
    # exact for exponents and reaches beyond int64.
    cols = [start] if isinstance(start[0], int) else list(zip(*start))
    lo = np.array([min(c) for c in cols], dtype=object)
    hi = np.array([max(c) for c in cols], dtype=object)
    for block in blocks:
        begin, stop, t, cells, plus, minus = block
        if not len(t):
            yield block
            continue
        box = cells.reshape(len(t), len(lo))
        firsts = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
        reach = (t[firsts].astype(object) * radius)[:, None]
        low = np.minimum.reduceat(box, firsts) < lo - reach
        high = np.maximum.reduceat(box, firsts) > hi + reach
        broken = np.flatnonzero((low | high).any(axis=1))
        if not broken.size:
            yield block
            continue
        g = int(broken[0])
        i, at = int(firsts[g]), int(t[firsts[g]])
        j = int(firsts[g + 1]) if g + 1 < len(firsts) else len(t)
        yield begin, at, t[:i], cells[:i], plus[:i], minus[:i]
        # Sorted one-variable cells can only leave the cone at either end.
        suspects = (cells[[i, j - 1]] if cells.ndim == 1 else cells[i:j]).reshape(-1, len(lo))
        r = at * radius
        row = next(
            x for x in suspects.tolist() if any(v < a - r or v > z + r for v, a, z in zip(x, lo, hi))
        )
        cell = row[0] if cells.ndim == 1 else row
        raise InvariantViolation(
            f"light cone broken at t = {at}: cell {cell} lies more than"
            f" {r} cells outside the start support"
        )


@dataclass(frozen=True)
class SymplecticCertificate:
    """Witness of symplecticity: s = u^shift * core, core in SL(2, palindromes)."""

    shift: tuple
    core: ScaMatrix


def classify(s: ScaMatrix) -> SymplecticCertificate:
    """Recover the shift-plus-palindrome-core normal form, or raise NotSymplectic.

    The route is independent of is_symplectic(): the determinant must be a
    coefficient-1 monomial u^2a, and after removing the shift all four
    entries must be palindromes; the core then has determinant one.
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
    core = s.shifted(tuple(-v for v in a))  # det(core) = u^-2a det(s) = 1
    for name, entry in zip(("pp", "pm", "mp", "mm"), (core.pp, core.pm, core.mp, core.mm)):
        if not entry.is_palindrome():
            raise NotSymplectic(f"core entry {name} = {entry} is not a palindrome")
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
