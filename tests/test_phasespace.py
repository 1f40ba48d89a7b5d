"""Tests for phase-space vectors and the forms beta, sigma, Sigma."""

import random
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqca import LaurentPoly, PhaseVector, beta, form_sigma_poly, sigma
from cqca.laurent import coefficient_dtype
from cqca.phasespace import beta_batch, random_coefficients


def rand_poly(rng, p, d=1, max_terms=4, span=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(-span, span) for _ in range(d))
        terms[e] = rng.randint(0, p - 1)
    return LaurentPoly(p, d, terms)


def rand_vector(rng, p, d=1, max_terms=3, span=3):
    return PhaseVector(
        rand_poly(rng, p, d, max_terms, span), rand_poly(rng, p, d, max_terms, span)
    )


def single_cell_operator(p, a, b):
    """Dense p x p matrix sending |q> to exp(2 pi i a q / p) |q - b>."""
    eps = np.exp(2j * np.pi / p)
    m = np.zeros((p, p), dtype=complex)
    for q in range(p):
        m[(q - b) % p, q] = eps ** (a * q)
    return m


# -- constructors and vector algebra ------------------------------------------


def test_unit_vectors():
    xi = PhaseVector.e_plus(3, x=2)
    assert xi.plus == LaurentPoly.monomial(3, 1, 2)
    assert xi.minus.is_zero()
    eta = PhaseVector.e_minus(3)
    assert eta.plus.is_zero()
    assert eta.minus == LaurentPoly.one(3)
    assert PhaseVector.zero(3).is_zero()
    origin = PhaseVector.e_plus(3, d=2)
    assert origin.plus == LaurentPoly.one(3, 2)
    assert origin.minus.is_zero()
    shifted = PhaseVector.e_minus(3, 2, (1, -2))
    assert shifted.plus.is_zero()
    assert shifted.minus == LaurentPoly.monomial(3, 2, (1, -2))
    assert PhaseVector.e_minus(5, 2) == PhaseVector.e_minus(5, 2, (0, 0))


def test_component_rings_must_agree():
    with pytest.raises(ValueError):
        PhaseVector(LaurentPoly.one(2), LaurentPoly.one(3))
    with pytest.raises(TypeError):
        PhaseVector(LaurentPoly.one(2), 1)


def test_vector_space_operations():
    rng = random.Random(31)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        xi = rand_vector(rng, p)
        eta = rand_vector(rng, p)
        assert xi + eta == eta + xi
        assert xi - xi == PhaseVector.zero(p)
        assert -(-xi) == xi
        f = rand_poly(rng, p)
        assert (f * xi).plus == f * xi.plus
        assert (f * xi).minus == f * xi.minus
        assert 1 * xi == xi


def test_support_merges_components():
    xi = PhaseVector(
        LaurentPoly(3, 1, {2: 1}), LaurentPoly(3, 1, {-1: 2, 2: 1})
    )
    assert xi.support() == [-1, 2]
    eta = PhaseVector.e_plus(3, d=2, x=(1, -1))
    assert eta.support() == [(1, -1)]


# -- translation ---------------------------------------------------------------


def test_translate_examples():
    xi = PhaseVector.e_plus(5)
    assert xi.translate(3) == PhaseVector.e_plus(5, x=3)
    assert xi.translate(0) == xi
    rng = random.Random(32)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        v = rand_vector(rng, p)
        a = rng.randint(-5, 5)
        assert v.translate(a).translate(-a) == v


def test_translate_multidimensional():
    v = PhaseVector.e_minus(3, d=2, x=(0, 0))
    assert v.translate((2, -1)) == PhaseVector.e_minus(3, d=2, x=(2, -1))


# -- beta ------------------------------------------------------------------------


def test_beta_examples():
    xi = PhaseVector(LaurentPoly.one(3), LaurentPoly.one(3))
    assert beta(xi, xi) == 1

    a = PhaseVector(LaurentPoly.monomial(5, 1, 1), LaurentPoly.zero(5))
    b = PhaseVector(LaurentPoly.zero(5), LaurentPoly.monomial(5, 1, 2))
    assert beta(a, b) == 0

    c = PhaseVector(LaurentPoly.zero(5), LaurentPoly(5, 1, {0: 3, 1: 2}))
    assert beta(c, b) == 0


def test_beta_matches_definition():
    rng = random.Random(33)
    for _ in range(500):
        p = rng.choice([2, 3, 5])
        d = rng.choice([1, 2])
        xi = rand_vector(rng, p, d)
        eta = rand_vector(rng, p, d)
        total = 0
        for e, c in xi.plus.terms.items():
            total += c * eta.minus.terms.get(e, 0)
        assert beta(xi, eta) == total % p


# -- sigma ------------------------------------------------------------------------


def test_sigma_z_x_anticommute():
    # single-site Z against single-site X: commutation exponent 1
    for p in (2, 3, 5):
        z = PhaseVector.e_plus(p)
        x = PhaseVector.e_minus(p)
        assert sigma(z, x) == 1
        # cross-check against the dense single-cell operators
        zm = single_cell_operator(p, 1, 0)
        xm = single_cell_operator(p, 0, 1)
        eps = np.exp(2j * np.pi / p)
        assert np.allclose(xm @ zm, eps * zm @ xm)


def test_sigma_antisymmetry_and_disjoint_supports():
    rng = random.Random(34)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        xi = rand_vector(rng, p)
        eta = rand_vector(rng, p)
        assert sigma(xi, xi) == 0
        assert (sigma(xi, eta) + sigma(eta, xi)) % p == 0
    left = PhaseVector(
        LaurentPoly(3, 1, {-4: 1}), LaurentPoly(3, 1, {-5: 2})
    )
    right = PhaseVector(LaurentPoly(3, 1, {4: 1}), LaurentPoly(3, 1, {5: 2}))
    assert sigma(left, right) == 0


def test_sigma_translation_invariant():
    rng = random.Random(35)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        d = rng.choice([1, 2])
        xi = rand_vector(rng, p, d)
        eta = rand_vector(rng, p, d)
        x = tuple(rng.randint(-4, 4) for _ in range(d))
        if d == 1:
            x = x[0]
        assert sigma(xi.translate(x), eta.translate(x)) == sigma(xi, eta)


# -- the polynomial form ----------------------------------------------------------


def test_form_sigma_poly_examples():
    e1 = PhaseVector.e_plus(3)
    e2 = PhaseVector.e_minus(3)
    assert form_sigma_poly(e1, e2) == LaurentPoly.one(3)

    u = LaurentPoly.monomial(3, 1, 1)
    xi = PhaseVector(u, u)
    assert form_sigma_poly(xi, xi).is_zero()

    a = PhaseVector(u, LaurentPoly.zero(3))
    b = PhaseVector(LaurentPoly.zero(3), LaurentPoly.one(3))
    assert form_sigma_poly(a, b) == LaurentPoly.monomial(3, 1, -1)


def test_form_sigma_poly_collects_sigma_of_translates():
    """Coefficient at x equals sigma against the translate by -x.

    The reflection applied to the first argument reverses the sign of the
    relative offset; the asymmetric pair below pins the convention.
    """
    xi = PhaseVector.e_plus(3)
    eta = PhaseVector.e_minus(3, x=1)
    s = form_sigma_poly(xi, eta)
    assert s == LaurentPoly.monomial(3, 1, 1)
    assert sigma(xi, eta.translate(-1)) == 1
    assert sigma(xi, eta.translate(1)) == 0

    rng = random.Random(36)
    for _ in range(400):
        p = rng.choice([2, 3, 5])
        d = rng.choice([1, 2])
        a = rand_vector(rng, p, d)
        b = rand_vector(rng, p, d)
        s = form_sigma_poly(a, b)
        probes = set(s.terms) | {(0,) * d}
        for e in probes:
            x = e[0] if d == 1 else e
            neg = -e[0] if d == 1 else tuple(-v for v in e)
            assert sigma(a, b.translate(neg)) == s.coeff(x)


def test_form_sigma_poly_sesquilinear():
    rng = random.Random(37)
    for _ in range(400):
        p = rng.choice([2, 3, 5])
        d = rng.choice([1, 2])
        xi = rand_vector(rng, p, d)
        eta = rand_vector(rng, p, d)
        f = rand_poly(rng, p, d)
        assert form_sigma_poly(xi, f * eta) == form_sigma_poly(xi, eta) * f
        assert form_sigma_poly(f * xi, eta) == f.reflect() * form_sigma_poly(xi, eta)


def test_form_sigma_poly_antisymmetry_law():
    rng = random.Random(38)
    for _ in range(400):
        p = rng.choice([2, 3, 5])
        d = rng.choice([1, 2])
        xi = rand_vector(rng, p, d)
        eta = rand_vector(rng, p, d)
        assert form_sigma_poly(xi, eta) == -form_sigma_poly(eta, xi).reflect()


def test_forms_reject_mismatched_rings():
    with pytest.raises(ValueError):
        beta(PhaseVector.zero(2), PhaseVector.zero(3))
    with pytest.raises(ValueError):
        form_sigma_poly(PhaseVector.zero(2, 1), PhaseVector.zero(2, 2))


# -- coefficient families ------------------------------------------------------


def test_random_coefficients_draw_like_phasevector_random():
    # 2^64 - 59 is prime and past int64, so its family holds Python ints
    for p in (2, 3, 5, 1048573, 10**18 + 3, 2**64 - 59):
        for d, cells in ((1, range(-2, 3)), (2, [(x, y) for x in range(2) for y in range(-1, 2)])):
            family = random_coefficients(random.Random(p), p, 4, len(cells))
            assert family.shape == (4, len(cells), 2)
            assert family.dtype == (np.int64 if p < 2**62 else object)
            rng = random.Random(p)
            expected = [PhaseVector.random(rng, p, cells, d) for _ in range(4)]
            lo = cells[0]
            box = (len(cells),) if d == 1 else (2, 3)
            boxes = family.reshape((4,) + box + (2,))
            assert [PhaseVector.from_coefficients(p, c, lo) for c in boxes] == expected
            # the draws are rng.randrange(p), plus before minus, cell by cell
            rng = random.Random(p)
            assert family.ravel().tolist() == [rng.randrange(p) for _ in range(family.size)]


def test_random_coefficients_bulk_draws_match_the_loop():
    # Below 2^32 the words come in bulk; values and generator state must be
    # those of one randrange(p) per coefficient.  4294967291 is the largest
    # prime below 2^32; 2 and 2^31 - 1 reject close to half of their words.
    for p in (2, 3, 5, 7, 2**31 - 1, 4294967291):
        for seed, count, sites in ((0, 0, 3), (1, 1, 1), (2, 3, 5), (3, 40, 17)):
            bulk, loop = random.Random(seed), random.Random(seed)
            family = random_coefficients(bulk, p, count, sites)
            assert family.dtype == np.int64 and family.shape == (count, sites, 2)
            assert family.ravel().tolist() == [loop.randrange(p) for _ in range(family.size)]
            assert bulk.getstate() == loop.getstate()


def test_from_coefficients_places_the_box():
    coeffs = np.array([[[1, 0], [0, 2]], [[0, 0], [3, 4]]])
    xi = PhaseVector.from_coefficients(5, coeffs, (1, -1))
    assert xi.plus == LaurentPoly(5, 2, {(1, -1): 1, (2, 0): 3})
    assert xi.minus == LaurentPoly(5, 2, {(1, 0): 2, (2, 0): 4})
    line = PhaseVector.from_coefficients(5, coeffs[1], -3)
    assert line == PhaseVector(LaurentPoly(5, 1, {-2: 3}), LaurentPoly(5, 1, {-2: 4}))


PRIMES = (2, 3, 5, 1048573, 10**18 + 3)


@st.composite
def family_pairs(draw):
    """Two families of one shape, the first cell of their box, and zero padding.

    The padding is (before, after) per axis: how many zero cells a wider
    box has on either side of the families' box.
    """
    p = draw(st.sampled_from(PRIMES))
    d = draw(st.sampled_from((1, 2)))
    box = tuple(draw(st.integers(1, 5 if d == 1 else 3)) for _ in range(d))
    shape = (draw(st.integers(0, 4)),) + box + (2,)
    coeff = st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))
    values = st.lists(coeff, min_size=prod(shape), max_size=prod(shape))
    families = [np.array(draw(values), dtype=coefficient_dtype(p)).reshape(shape) for _ in range(2)]
    first = st.integers(-3, 3)
    lo = draw(first) if d == 1 else draw(st.tuples(first, first))
    padding = [draw(st.tuples(st.integers(0, 3), st.integers(0, 3))) for _ in range(d)]
    return p, families, lo, padding


@settings(max_examples=200)
@given(family_pairs())
def test_beta_batch_matches_beta(case):
    p, (xi, eta), lo, padding = case
    pairs = zip(*([PhaseVector.from_coefficients(p, c, lo) for c in f] for f in (xi, eta)))
    expected = [beta(a, b) for a, b in pairs]
    got = beta_batch(xi, eta, p)
    assert got.shape == (len(xi),)
    assert got.dtype == coefficient_dtype(p, prod(xi.shape[1:-1]))
    assert got.tolist() == expected
    # zero cells around the box change no beta
    wide = [(0, 0), *padding, (0, 0)]
    assert beta_batch(np.pad(xi, wide), np.pad(eta, wide), p).tolist() == expected


def test_beta_batch_rejects_families_of_different_shapes():
    with pytest.raises(ValueError, match="different shapes"):
        beta_batch(np.zeros((2, 3, 2), dtype=np.int64), np.zeros((2, 4, 2), dtype=np.int64), 3)
