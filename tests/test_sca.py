"""Tests for symplectic matrices: forms, classification, generators, recipe."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqca import (
    FactorizationMismatch,
    InvariantViolation,
    LaurentPoly,
    NotSymplectic,
    PhaseVector,
    ScaMatrix,
    classify,
    form_sigma_poly,
    from_recipe,
    identity,
    local_f,
    palindromize,
    shear_g,
    shift,
    sigma,
    upper_shear_g,
)
from cqca import sca
from cqca.factor import multiply_word, random_word
from cqca.laurent import coefficient_dtype


def poly(p, terms, d=1):
    return LaurentPoly(p, d, terms)


def rand_poly(rng, p, d=1, max_terms=3, span=2):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(-span, span) for _ in range(d))
        terms[e] = rng.randint(0, p - 1)
    return LaurentPoly(p, d, terms)


def rand_vector(rng, p, d=1):
    return PhaseVector(rand_poly(rng, p, d), rand_poly(rng, p, d))


def rand_matrix(rng, p):
    return ScaMatrix(
        rand_poly(rng, p), rand_poly(rng, p), rand_poly(rng, p), rand_poly(rng, p)
    )


# -- apply -----------------------------------------------------------------------


def test_apply_identity_fixes_everything():
    rng = random.Random(41)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        xi = rand_vector(rng, p)
        assert identity(p).apply(xi) == xi


def test_apply_shear_spreads_plus_excitation():
    for p in (2, 3, 5):
        for n in (1, 2, 5):
            out = shear_g(p, n).apply(PhaseVector.e_plus(p))
            assert out.plus == LaurentPoly.one(p)
            assert out.minus == poly(p, {n: 1, -n: 1})
            assert out.support() == [-n, 0, n]


def test_apply_local_rotates_components():
    rng = random.Random(42)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        c = rng.randint(1, p - 1)
        xi = rand_vector(rng, p)
        out = local_f(p, c).apply(xi)
        assert out.plus == c * xi.minus
        assert out.minus == -(pow(c, -1, p) * xi.plus)
    out = local_f(2, 1).apply(PhaseVector.e_plus(2))
    assert out.plus.is_zero() and out.minus == LaurentPoly.one(2)


def test_orbit_matches_apply_stepping():
    """Every orbit slice equals the matching apply() iterate, on both stepping paths.

    The last item of each case says whether the orbit steps in blocks by the
    trace recurrence (True) or with apply() (False).
    """
    rng = random.Random(88)
    cases = []  # (matrix, start, steps, steps on windows)
    for p in (2, 3, 5):
        for _ in range(4):
            s = multiply_word(random_word(p, rng.randint(1, 10), 3, seed=rng.random()))
            xi = PhaseVector.random(rng, p, range(-3, 4))
            cases.append((s, xi if not xi.is_zero() else PhaseVector.e_minus(p), 12, True))
    # Coefficients p - 1, at primes either side of 2^20.  The matrix of four
    # equal entries has determinant 0, not a monomial, so it steps with apply().
    for q in (1048573, 1048583):
        full = poly(q, {e: q - 1 for e in range(-3, 4)})
        recipe = from_recipe(full, LaurentPoly.constant(q, 1, q - 1))
        cases.append((recipe, PhaseVector(full, full), 6, True))
        cases.append((ScaMatrix(full, full, full, full), PhaseVector(full, full), 6, False))
    # Traces with every coefficient nonzero, in one block of every step: p = 2,
    # radius 4 (S = 9, p - c = 1) and p = 3, radius 1 (S = 6, p - c = 2) on
    # int16 windows, and p = 1048573 on int64 windows.
    ones = poly(2, {e: 1 for e in range(-4, 5) if e})
    cases.append((from_recipe(ones, LaurentPoly.one(2, 1)), PhaseVector(poly(2, {0: 1, 1: 1}), poly(2, {-1: 1})), 60, True))
    twos = poly(3, {-1: 2, 0: 1, 1: 2})
    cases.append((from_recipe(twos, LaurentPoly.constant(3, 1, 1)), PhaseVector(poly(3, {0: 2}), poly(3, {1: 1})), 100, True))
    q = 1048573
    wide = poly(q, {e: q - 1 - abs(e) for e in range(-3, 4)})
    cases.append((from_recipe(wide, LaurentPoly.constant(q, 1, 5)), PhaseVector(wide, poly(q, {2: 7})), 40, True))
    cases.append((shear_g(3, 2, 1), PhaseVector.e_plus(3), 0, True))
    # The windows move with a shift, however far it goes in one step.
    cases.append((shift(3, 1, 2**31), PhaseVector(poly(3, {0: 1, 1: 2}), poly(3, {5: 1})), 3, True))
    # At p = 2^31 - 1 a step sums to at most (S + p - c)(p - 1): inside int64
    # for the traces 2 and 15u^-2 + 32 + 15u^2 (c = 1), and past it for
    # (p - 1)(u + u^-1), although S (p - 1) alone would fit.
    big = 2147483647
    start = PhaseVector(poly(big, {-5: 1, 7: 1}), poly(big, {0: 1}))
    cases.append((shear_g(big, 1, 5), start, 8, True))
    cases.append((shear_g(big, 1, 5) @ upper_shear_g(big, 1, 3), start, 8, True))
    edge = from_recipe(poly(big, {1: big - 1, -1: big - 1}), LaurentPoly.zero(big, 1))
    assert 2 * (big - 1) ** 2 < 2**63 <= 3 * (big - 1) ** 2
    cases.append((edge, start, 8, False))
    # Dict path: hollow entries, hollow start, zero start.
    cases.append((shear_g(5, 5**3, 2), PhaseVector(poly(5, {-5: 1, 7: 1}), poly(5, {0: 3})), 5, False))
    one2 = LaurentPoly.one(2, 1)
    unit = ScaMatrix(poly(2, {big: 1, 0: 1}), LaurentPoly.zero(2, 1), LaurentPoly.zero(2, 1), one2)
    cases.append((unit, PhaseVector(one2, one2), 4, False))
    cases.append((shear_g(3, 1, 1), PhaseVector(poly(3, {-500: 1, 700: 2}), poly(3, {})), 5, False))
    # Each component is a single term, but together they span 2^31 cells.
    cases.append((shear_g(3, 1, 1), PhaseVector(poly(3, {0: 1}), poly(3, {2**31 - 1: 1})), 3, False))
    # Exponents that leave int64 travel as Python ints.
    cases.append((shift(3, 1, 2**62), PhaseVector(poly(3, {0: 1}), poly(3, {1: 2})), 4, False))
    cases.append((shear_g(3, 1, 1), PhaseVector.zero(3), 5, False))
    f = poly(3, {(1, 0): 1, (-1, 0): 1, (0, 1): 2, (0, -1): 2}, d=2)
    s2 = from_recipe(f, LaurentPoly.constant(3, 2, 2))
    box = [(x, y) for x in range(-1, 2) for y in range(-1, 2)]
    cases.append((s2, PhaseVector.random(rng, 3, box, d=2), 5, True))
    cases.append((s2, PhaseVector.zero(3, 2), 2, False))
    # Coefficients whose sums can leave int64 (p >= 2^62) travel as Python ints.
    for huge in (4611686018427388039, 18446744073709551629):
        cases.append((shear_g(huge, 1, huge - 1), PhaseVector(poly(huge, {0: huge - 2}), poly(huge, {})), 4, False))
    # Trace 0 and p - c = 1: a step sums to at most p - 1, which int64 windows
    # hold even past 2^62, where the coefficients come out as Python ints.
    huge = 4611686018427388039
    zero = LaurentPoly.zero(huge, 1)
    swap = ScaMatrix(zero, poly(huge, {1: 1}), LaurentPoly.one(huge, 1), zero)
    cases.append((swap, PhaseVector(poly(huge, {0: huge - 2, 3: 5}), poly(huge, {1: huge - 1})), 20, True))

    for s, xi, steps, windowed in cases:
        assert (s._orbit_recurrence(xi, steps) is not None) == windowed
        assert_orbit_is_apply(s, xi, steps, s.radius())


def recorded(name, keep=list.append):
    """(results, patch): the patch makes sca.<name> keep what it returns in results."""
    results = []
    real = getattr(sca, name)

    def record(*args):
        out = real(*args)
        keep(results, out)
        return out

    return results, mock.patch.object(sca, name, record)


def unit_trace(p, d=1, shift_by=None):
    """The recipe ((f, 1 - f h), (-1, h)) with h = 1 - f: trace 1, one tap, radius 2."""
    f = LaurentPoly.one(p, d)
    for axis in range(d):
        x = tuple(int(i == axis) for i in range(d))
        f = f + LaurentPoly(p, d, {x: 1, tuple(-v for v in x): 1})
    s = from_recipe(f, LaurentPoly.one(p, d) - f)
    return s if shift_by is None else s.shifted(shift_by)


def diagonal_glider(p, d=1):
    """diag(2 u_1, -1) for odd p: the plus component glides and the minus one stays,
    so an orbit keeps its size; trace 2 u_1 - 1, determinant -2 u_1 (e != 0)."""
    x = tuple(int(i == 0) for i in range(d))
    zero = LaurentPoly.zero(p, d)
    return ScaMatrix(LaurentPoly(p, d, {x: 2}), zero, zero, LaurentPoly.constant(p, d, -1))


def test_orbit_groups_match_apply_iterates():
    """Groups of q = p^j slices (sca._orbit_plan) give the apply() iterates: q = p,
    p^2 and p^3 at p = 2, 3, 5, 7, d = 2, shifted automata, fuller traces,
    and partial and full groups."""
    rng = random.Random(18)
    cases = []  # (matrix, start, steps, block steps, block cells, group sizes that must run)
    for p, steps in ((2, 20), (3, 24), (5, 56), (7, 104)):
        xi = PhaseVector(poly(p, {0: 1, 1: p - 1}), poly(p, {-1: 1}))
        cases.append((unit_trace(p, shift_by=(1,)), xi, steps, 128, 1 << 18, {p, p * p} | ({8} if p == 2 else set())))
    # p^3 at p = 3, 5, 7 on one block of gliders, whose apply() iterates stay small.
    for p, steps in ((3, 60), (5, 256), (7, 700)):
        xi = PhaseVector(poly(p, {0: 1, 2: 1}), poly(p, {-1: 2, 1: 1}))
        cases.append((diagonal_glider(p), xi, steps, 1024, 1 << 21, {p, p**2, p**3}))
    # Traces of three and five terms, as in the orbit benchmark's radius-1 and 2 automata.
    for p, r, steps in ((3, 1, 40), (5, 1, 30), (3, 2, 40)):
        c = [rng.randint(1, p - 1) for _ in range(r + 1)]
        f = LaurentPoly(p, 1, {e: c[abs(e)] for e in range(-r, r + 1)})
        s = from_recipe(f, LaurentPoly.constant(p, 1, c[0]))  # trace f + c[0], of 2r + 1 terms
        cases.append((s, PhaseVector.random(rng, p, range(-2, 3)), steps, 128, 1 << 16, {9 if p == 3 else 5}))
    # Two variables: a moving window in a box of two axes.
    start2 = PhaseVector(LaurentPoly(2, 2, {(0, 0): 1, (1, -1): 1}), LaurentPoly(2, 2, {(0, 1): 1}))
    cases.append((unit_trace(2, 2), start2, 18, 128, 1 << 20, {2, 4, 8}))
    start3 = PhaseVector(LaurentPoly(3, 2, {(0, 0): 1, (2, 1): 2}), LaurentPoly(3, 2, {(1, 1): 1}))
    cases.append((diagonal_glider(3, 2), start3, 24, 128, 1 << 16, {3, 9}))
    cases.append((unit_trace(3, 2, shift_by=(1, -1)), PhaseVector(LaurentPoly.one(3, 2), LaurentPoly.zero(3, 2)), 8, 128, 1 << 16, {3}))

    seen = set()
    for s, xi, steps, block_steps, block_cells, want in cases:
        entries, patch = recorded("_orbit_plan", list.extend)
        with patch, mock.patch.object(sca, "_BLOCK_STEPS", block_steps), mock.patch.object(sca, "_BLOCK_CELLS", block_cells):
            assert_orbit_is_apply(s, xi, steps, s.radius())
        groups = [(q, m) for _, q, m in entries if q > 1]
        assert want <= {q for q, _ in groups}, (s, want)
        seen |= {"partial" if m < q else "full" for q, m in groups}
    assert seen == {"partial", "full"}


def test_orbit_window_dtype_at_each_boundary():
    """Each orbit steps its windows in the narrowest of int16, int32 and int64
    whose max is at least (S + p - c)(p - 1), and gives the apply() iterates on
    either side of the int16 and int32 maxima; past the int64 maximum there
    is no window dtype.

    diag(a u, b) has trace a u + b (S = a + b) and determinant ab u.  The
    maxima are odd and p - 1 is even for odd p, so no odd p lands exactly on
    one; the cases below a maximum are the closest such a matrix reaches.
    Blocks of 1024 steps let the p = 257 and 421 orbits run groups of p
    slices.
    """
    cases = [  # (p, a, b, steps, (S + p - c)(p - 1), dtype that must run)
        (421, 9, 44, 900, 32760, np.int16),
        (257, 3, 66, 600, 2**15, np.int32),
        (65539, 5, 24579, 40, 2**31 - 2, np.int32),
        (65537, 3, 16386, 40, 2**31, np.int64),
    ]
    rng = random.Random(20)
    for p, a, b, steps, need, want in cases:
        s = ScaMatrix(poly(p, {1: a}), poly(p, {}), poly(p, {}), poly(p, {0: b}))
        assert (a + b + p - a * b % p) * (p - 1) == need
        xi = PhaseVector(poly(p, {x: rng.randint(1, p - 1) for x in range(4)}), poly(p, {x: rng.randint(1, p - 1) for x in range(-2, 3)}))
        dtypes, dtype_patch = recorded("_window_dtype")
        entries, plan_patch = recorded("_orbit_plan", list.extend)
        with (
            dtype_patch,
            plan_patch,
            mock.patch.object(sca, "_BLOCK_STEPS", 1024),
            mock.patch.object(sca, "_BLOCK_CELLS", 1 << 21),
        ):
            assert_orbit_is_apply(s, xi, steps, s.radius())
        assert dtypes == [want], (p, need)
        if steps >= 2 * p:
            assert any(q == p for _, q, _ in entries), p
    # Past int16 by a factor of two: every row is p - 1 = 256, so a step from
    # reduced rows sums to 66048 and an int16 window would wrap.
    full = poly(257, {x: 256 for x in range(6)})
    assert_orbit_is_apply(ScaMatrix(poly(257, {1: 1}), poly(257, {}), poly(257, {}), poly(257, {0: 1})), PhaseVector(full, full), 30, 1)
    assert sca._window_dtype(2, 2**63 - 2, 1) is np.int64
    assert sca._window_dtype(2, 2**63 - 1, 1) is None


def test_orbit_plan_covers_every_row():
    """Each plan covers its rows in order and takes at row k the largest power
    q = p^j (j >= 0) with 2q <= k and min(q, rows - k) rows."""
    for p in (2, 3, 5, 7, 1048573):
        for rows in (2, 3, 5, 17, 50, 130, 702):
            k = 2
            for at, q, m in sca._orbit_plan(rows, p):
                high = 1
                while 2 * high * p <= k:
                    high *= p
                assert (at, q, m) == (k, high, min(high, rows - k))
                k += m
            assert k == max(rows, 2)


def test_frobenius_identity_by_definition():
    """tr(s^q) = tr(s)(u^q) and det(s^q) = c u^(qe) for q = p, p^2, with s^q built by compose."""
    for p in (2, 3, 5):
        for seed in range(3):
            s = multiply_word(random_word(p, 6, 2, seed=seed))
            trace, det = s.pp + s.mm, s.det()
            ((e, c),) = det.terms.items()
            power, n = s, 1
            for q in (p, p * p):
                while n < q:
                    power, n = power @ s, n + 1
                stretched = LaurentPoly(p, 1, {(q * x,): a for (x,), a in trace.terms.items()})
                assert power.pp + power.mm == stretched, (p, seed, q)
                assert power.det() == LaurentPoly.monomial(p, 1, (q * e[0],), c)


def cone_violation(support, start, t, radius, d):
    """The light-cone message for slice t, or None: the reference of the orbit check.

    One-variable slices report their lowest cell if it is outside the cone
    and their highest one otherwise; others report their first cell outside.
    """
    if not start:
        return None
    rows = [(x,) for x in support] if d == 1 else support
    cols = list(zip(*([(x,) for x in start] if d == 1 else start)))
    lo, hi = [min(c) for c in cols], [max(c) for c in cols]
    r = t * radius
    outside = [x for x in rows if any(v < a - r or v > b + r for v, a, b in zip(x, lo, hi))]
    if not outside:
        return None
    cell = (rows[0] if outside[0] == rows[0] else rows[-1])[0] if d == 1 else list(outside[0])
    return f"light cone broken at t = {t}: cell {cell} lies more than {r} cells outside the start support"


def orbit_slices(s, xi, steps):
    """The slices (cells, plus, minus) of orbit_blocks(), one per t."""
    for start, stop, t, cells, plus, minus in s.orbit_blocks(xi, steps):
        bounds = np.searchsorted(t, np.arange(start, stop + 1)).tolist()
        for i, j in zip(bounds, bounds[1:]):
            yield cells[i:j], plus[i:j], minus[i:j]


def assert_orbit_is_apply(s, xi, steps, radius):
    """orbit_blocks() yields the apply() iterates, and stops where the cone of `radius` breaks."""
    slices = orbit_slices(s, xi, steps)
    start, eta = xi.support(), xi
    for t in range(steps + 1):
        support = eta.support()
        message = cone_violation(support, start, t, radius, s.d)
        if message is not None:
            with pytest.raises(InvariantViolation) as exc:
                next(slices)
            assert str(exc.value) == message
            return
        cells, plus, minus = next(slices)
        n = len(plus)
        assert cells.shape == ((n,) if s.d == 1 else (n, s.d))
        flat = support if s.d == 1 else [v for c in support for v in c]
        assert cells.dtype == (np.int64 if all(-(2**63) <= v < 2**63 for v in flat) else object)
        assert plus.dtype == minus.dtype == coefficient_dtype(s.p)
        got = cells.tolist() if s.d == 1 else [tuple(c) for c in cells.tolist()]
        assert got == support, (s, xi, t)
        assert plus.tolist() == [eta.plus.coeff(x) for x in support]
        assert minus.tolist() == [eta.minus.coeff(x) for x in support]
        eta = s.apply(eta)
    assert next(slices, None) is None


ORBIT_PRIMES = (2, 3, 5, 1048573, 2**31 - 1)


@st.composite
def orbit_cases(draw):
    """(automaton, start, steps, block steps, block cells, radius the cone check uses)."""
    d = draw(st.sampled_from((1, 2, 3)))
    p = draw(st.sampled_from(ORBIT_PRIMES))
    coeff = st.integers(1, p - 1)
    kinds = ("word", "shift", "local", "shrink", "recipe") if d == 1 else ("shift", "recipe")
    kind = draw(st.sampled_from(kinds))
    unit = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    if kind == "word":
        s = multiply_word(random_word(p, draw(st.integers(1, 6)), 2, seed=draw(st.integers(0, 99))))
    elif kind == "shift":
        a = tuple(draw(st.sampled_from((-3, -1, 0, 2, 1 << 20))) for _ in range(d))
        s = shift(p, d, a[0] if d == 1 else a)
    elif kind == "local":
        s = local_f(p, draw(coeff))
    elif kind == "shrink":
        n, c = draw(st.integers(1, 3)), draw(coeff)
        s = shear_g(p, n, c)
        # s maps (1, -c(u^n + u^-n)) to (1, 0): the support shrinks, then grows back.
        xi = PhaseVector(LaurentPoly.one(p, 1), LaurentPoly(p, 1, {n: -c, -n: -c}))
    else:
        axes = draw(st.lists(st.sampled_from(unit), min_size=1, max_size=d))
        c = draw(coeff)
        f = LaurentPoly(p, d, {e: c for x in axes for e in (x, tuple(-v for v in x))})
        s = from_recipe(f, LaurentPoly.constant(p, d, draw(coeff)))
        if draw(st.booleans()):
            s = s.shifted(tuple(draw(st.integers(-2, 2)) for _ in range(d)))
    if kind != "shrink":
        # A start on a small box, far from the origin or near it.
        offset = draw(st.sampled_from((0, 5, -1000, 10**6)))
        width = draw(st.integers(1, 3 if d == 1 else 2))
        cells = st.tuples(*[st.integers(offset, offset + width - 1)] * d)
        plus = draw(st.dictionaries(cells, coeff, min_size=1, max_size=4))
        minus = draw(st.dictionaries(cells, st.integers(0, p - 1), max_size=4))
        xi = PhaseVector(LaurentPoly(p, d, plus), LaurentPoly(p, d, minus))
    steps = draw(st.integers(0, (33, 9, 4)[d - 1]))
    block_steps = draw(st.sampled_from((1, 2, 3, 4, 128)))
    block_cells = draw(st.sampled_from((8, 64, 1 << 16)))
    radius = s.radius() - draw(st.sampled_from((0, 0, 1, s.radius())))
    return s, xi, steps, block_steps, block_cells, radius


@settings(max_examples=120)
@given(orbit_cases())
def test_orbit_blocks_match_apply_iterates(case):
    """Blocks of every length and window budget give the apply() iterates, and
    a cone too narrow for the orbit stops it where the reference check does."""
    s, xi, steps, block_steps, block_cells, radius = case
    with (
        mock.patch.object(sca, "_BLOCK_STEPS", block_steps),
        mock.patch.object(sca, "_BLOCK_CELLS", block_cells),
        mock.patch.object(ScaMatrix, "radius", lambda self: radius),
    ):
        assert_orbit_is_apply(s, xi, steps, radius)


def test_light_cone_catches_a_wrong_radius_on_the_block_path():
    # s x0 stays on the start cell and s^2 x0 does not: with radius 0 the
    # cone breaks at t = 2, which only a window sized from the entries shows.
    s = multiply_word(random_word(3, 3, 1, 7))
    xi = PhaseVector.e_plus(3)
    assert s._orbit_recurrence(xi, 200) is not None
    assert s.apply(xi).support() == [0] and s.apply(s.apply(xi)).support() != [0]
    with mock.patch.object(ScaMatrix, "radius", lambda self: 0):
        assert_orbit_is_apply(s, xi, 200, 0)
        with pytest.raises(InvariantViolation, match="at t = 2: cell -1 "):
            list(s.orbit_blocks(xi, 200))


def test_orbit_blocks_cover_the_slices_in_order():
    s = multiply_word(random_word(3, 5, 2, seed=4))
    xi = PhaseVector(poly(3, {0: 1, 1: 2}), poly(3, {-1: 1}))
    with mock.patch.object(sca, "_BLOCK_STEPS", 4):
        blocks = list(s.orbit_blocks(xi, 9))
    assert [(start, stop) for start, stop, *_ in blocks] == [(0, 4), (4, 8), (8, 10)]
    for start, stop, t, cells, plus, minus in blocks:
        assert t.dtype == np.int64 and len(t) == len(cells) == len(plus) == len(minus)
        assert start <= t.min() and t.max() < stop
        assert all(np.diff(t) >= 0)
        assert all((plus != 0) | (minus != 0))


def test_zero_orbit_is_one_empty_block():
    """A zero start calls no apply(): one block of no rows spans every slice."""
    for s, p, d in ((shear_g(3, 1, 1), 3, 1), (shift(5, 2, (1, -1)), 5, 2)):
        zero = LaurentPoly(p, d, {})
        ((start, stop, t, cells, plus, minus),) = s.orbit_blocks(PhaseVector(zero, zero), 10**12)
        assert (start, stop) == (0, 10**12 + 1)
        assert len(t) == len(cells) == len(plus) == len(minus) == 0
        assert cells.shape == ((0,) if d == 1 else (0, d))


def test_cayley_hamilton_identity():
    """s @ s == tr(s) s - det(s) I: the recurrence block stepping relies on."""
    rng = random.Random(5)
    cases = [multiply_word(random_word(p, rng.randint(0, 12), 3, seed=rng.random())) for p in (2, 3, 5, 7, 1048573)]
    cases += [rand_matrix(rng, p) for p in (2, 3, 5) for _ in range(3)]
    for p in (2, 3, 5):
        for _ in range(3):
            f = rand_poly(rng, p, d=2)
            f = palindromize(f) if not f.is_zero() else LaurentPoly.one(p, 2)
            cases.append(from_recipe(f, palindromize(rand_poly(rng, p, d=2))).shifted((1, -2)))
    for s in cases:
        tr, det = s.pp + s.mm, s.det()
        assert s @ s == ScaMatrix(tr * s.pp - det, tr * s.pm, tr * s.mp, tr * s.mm - det)


# -- compose / det / inverse -------------------------------------------------------


def test_compose_identity_and_shifts():
    rng = random.Random(43)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        s = rand_matrix(rng, p)
        assert s.compose(identity(p)) == s
        assert identity(p).compose(s) == s
    assert shift(3, 1, 2) @ shift(3, 1, -5) == shift(3, 1, -3)


def test_compose_f1_squared():
    assert local_f(2, 1) @ local_f(2, 1) == identity(2)
    for p in (3, 5):
        minus_id = identity(p).scaled(LaurentPoly.constant(p, 1, -1))
        assert local_f(p, 1) @ local_f(p, 1) == minus_id


def test_compose_matches_sequential_apply():
    rng = random.Random(44)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        s = rand_matrix(rng, p)
        t = rand_matrix(rng, p)
        xi = rand_vector(rng, p)
        assert (s @ t).apply(xi) == s.apply(t.apply(xi))


def test_compose_associative_spot_check():
    rng = random.Random(45)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        a, b, c = (rand_matrix(rng, p) for _ in range(3))
        assert (a @ b) @ c == a @ (b @ c)


def test_det_examples():
    assert identity(5).det() == LaurentPoly.one(5)
    for p in (2, 3, 5):
        for c in range(1, p):
            assert local_f(p, c).det() == LaurentPoly.one(p)
    assert shift(3, 1, 2).det() == LaurentPoly.monomial(3, 1, 4)
    assert shift(3, 1, -1).det() == LaurentPoly.monomial(3, 1, -2)


def test_inverse_examples():
    assert identity(3).inverse() == identity(3)
    n = 4
    inv = shear_g(5, n).inverse()
    assert inv == ScaMatrix(
        LaurentPoly.one(5),
        LaurentPoly.zero(5),
        poly(5, {n: -1, -n: -1}),
        LaurentPoly.one(5),
    )
    assert shift(3, 1, 7).inverse() == shift(3, 1, -7)


def test_inverse_is_group_inverse():
    rng = random.Random(46)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        s = multiply_word(random_word(p, rng.randint(0, 6), 3, seed=rng.random()))
        assert s @ s.inverse() == identity(p)
        assert s.inverse() @ s == identity(p)
    with pytest.raises(NotSymplectic):
        ScaMatrix(
            LaurentPoly.one(3),
            LaurentPoly.one(3),
            LaurentPoly.zero(3),
            LaurentPoly.zero(3),
        ).inverse()


# -- symplecticity tests -------------------------------------------------------------


def test_is_symplectic_examples():
    for p in (2, 3, 5):
        for n in range(7):
            assert shear_g(p, n).is_symplectic()
            assert upper_shear_g(p, n).is_symplectic()
        for c in range(1, p):
            assert local_f(p, c).is_symplectic()

    one, zero = LaurentPoly.one(2), LaurentPoly.zero(2)
    assert ScaMatrix(one, one, zero, one).is_symplectic()

    u = LaurentPoly.monomial(2, 1, 1)
    assert not ScaMatrix(one, u, zero, one).is_symplectic()


def test_classify_examples():
    g1 = shear_g(3, 1)
    cert = classify(shift(3, 1, 2) @ g1)
    assert cert.shift == (2,)
    assert cert.core == g1

    cert = classify(local_f(5, 3))
    assert cert.shift == (0,)
    assert cert.core == local_f(5, 3)

    u = LaurentPoly.monomial(3, 1, 1)
    uinv = LaurentPoly.monomial(3, 1, -1)
    zero = LaurentPoly.zero(3)
    with pytest.raises(NotSymplectic):
        classify(ScaMatrix(u, zero, zero, uinv))


def test_classify_rejection_reasons():
    one, zero = LaurentPoly.one(3), LaurentPoly.zero(3)
    u = LaurentPoly.monomial(3, 1, 1)
    # determinant not a monomial
    with pytest.raises(NotSymplectic):
        classify(ScaMatrix(one + u, zero, zero, one))
    # determinant monomial with coefficient != 1
    with pytest.raises(NotSymplectic):
        classify(ScaMatrix(2 * one, zero, zero, one))
    # determinant an odd monomial: no lattice shift can absorb u
    with pytest.raises(NotSymplectic):
        classify(ScaMatrix(u, zero, zero, one))


@settings(max_examples=60)
@given(
    p=st.sampled_from((2, 3, 5, 7, 2**31 - 1)),
    length=st.integers(0, 24),
    seed=st.integers(0, 10**6),
    offset=st.integers(-5, 5),
)
def test_classified_core_has_unit_determinant_on_words(p, length, seed, offset):
    """classify takes no core determinant: the shift check alone makes it 1."""
    s = multiply_word(random_word(p, length, 3, seed)).shifted(offset)
    cert = classify(s)
    assert cert.core.det() == LaurentPoly.one(p, 1)
    assert cert.core.shifted(cert.shift) == s


@settings(max_examples=60)
@given(
    p=st.sampled_from((2, 3, 5)),
    f=st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(0, 4), max_size=4),
    h=st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(0, 4), max_size=4),
    offset=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
)
def test_classified_core_has_unit_determinant_on_recipes(p, f, h, offset):
    f, h = (palindromize(LaurentPoly(p, 2, terms)) for terms in (f, h))
    s = from_recipe(f, h).shifted(offset)
    cert = classify(s)
    assert cert.shift == offset
    assert cert.core.det() == LaurentPoly.one(p, 2)


def test_equivalence_of_criteria_randomized():
    rng = random.Random(47)
    for _ in range(400):
        p = rng.choice([2, 3, 5])
        if rng.random() < 0.5:
            s = multiply_word(random_word(p, rng.randint(0, 6), 3, seed=rng.random()))
        else:
            s = rand_matrix(rng, p)
        symplectic = s.is_symplectic()
        try:
            cert = classify(s)
            classified = True
        except NotSymplectic:
            classified = False
        assert symplectic == classified
        if classified:
            assert cert.core.shifted(cert.shift) == s


def test_forms_preserved_by_certified_matrices():
    rng = random.Random(48)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        s = multiply_word(random_word(p, rng.randint(1, 6), 3, seed=rng.random()))
        xi = rand_vector(rng, p)
        eta = rand_vector(rng, p)
        assert sigma(s.apply(xi), s.apply(eta)) == sigma(xi, eta)
        assert form_sigma_poly(s.apply(xi), s.apply(eta)) == form_sigma_poly(xi, eta)


def test_translation_covariance():
    rng = random.Random(49)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        s = rand_matrix(rng, p)
        xi = rand_vector(rng, p)
        x = rng.randint(-5, 5)
        assert s.apply(xi.translate(x)) == s.apply(xi).translate(x)


# -- generators and recipe -------------------------------------------------------------


def test_shear_constructor_shapes():
    assert shear_g(3, 1).entries()[1][0] == poly(3, {1: 1, -1: 1})
    assert shear_g(3, 5, 0) == identity(3)
    assert shear_g(3, 0, 1).entries()[1][0] == LaurentPoly.one(3)
    assert upper_shear_g(3, 2, 2).entries()[0][1] == poly(3, {2: 2, -2: 2})
    with pytest.raises(ValueError):
        shear_g(3, -1)


def test_local_constructor_shapes():
    m = local_f(2, 1)
    assert m.entries() == (
        (LaurentPoly.zero(2), LaurentPoly.one(2)),
        (LaurentPoly.one(2), LaurentPoly.zero(2)),
    )
    with pytest.raises(ValueError):
        local_f(5, 0)
    with pytest.raises(ValueError):
        local_f(5, 10)


def test_local_pair_gives_diagonal():
    for p in (3, 5):
        for c in range(1, p):
            m = local_f(p, c) @ local_f(p, -1)
            cinv = pow(c, -1, p)
            assert m == ScaMatrix(
                LaurentPoly.constant(p, 1, c),
                LaurentPoly.zero(p),
                LaurentPoly.zero(p),
                LaurentPoly.constant(p, 1, cinv),
            )


def test_neighborhood_examples():
    assert shear_g(5, 3).neighborhood() == [-3, 0, 3]
    assert local_f(5, 2).neighborhood() == [0]
    assert shift(5, 1, 4).neighborhood() == [4]
    assert shear_g(5, 3).radius() == 3
    assert identity(5).radius() == 0


def test_from_recipe_trivial_solution():
    zero = LaurentPoly.zero(3)
    m = from_recipe(zero, zero)
    assert m == ScaMatrix(
        zero, LaurentPoly.one(3), -LaurentPoly.one(3), zero
    )
    assert m.is_symplectic()


def test_from_recipe_char2_example():
    f = poly(2, {0: 1, 1: 1, -1: 1})
    h = LaurentPoly.one(2)
    m = from_recipe(f, h, f2=poly(2, {1: 1, -1: 1}), h2=h)
    assert m.det() == LaurentPoly.one(2)
    assert m.is_symplectic()
    assert classify(m).shift == (0,)


def test_from_recipe_default_factorization():
    rng = random.Random(50)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        f = palindromize(rand_poly(rng, p)) + LaurentPoly.constant(
            p, 1, rng.randrange(p)
        )
        h = palindromize(rand_poly(rng, p)) + LaurentPoly.constant(
            p, 1, rng.randrange(p)
        )
        m = from_recipe(f, h)
        assert m.is_symplectic()
        assert m.entries()[0][0] == f and m.entries()[1][1] == h


def test_from_recipe_rejects_bad_input():
    one = LaurentPoly.one(5)
    u = LaurentPoly.monomial(5, 1, 1)
    with pytest.raises(ValueError):
        from_recipe(u, one)
    with pytest.raises(FactorizationMismatch):
        from_recipe(one, one, f2=one, h2=one)


def test_json_dict_round_trips_through_cli_grammar():
    from cqca.cli import parse_poly

    rng = random.Random(51)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        s = multiply_word(random_word(p, rng.randint(0, 5), 3, seed=rng.random()))
        blob = s.to_json_dict()
        assert blob["p"] == p and blob["d"] == 1
        rebuilt = ScaMatrix(
            parse_poly(blob["entries"][0][0], p),
            parse_poly(blob["entries"][0][1], p),
            parse_poly(blob["entries"][1][0], p),
            parse_poly(blob["entries"][1][1], p),
        )
        assert rebuilt == s
