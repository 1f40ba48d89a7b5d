"""Tests for symplectic matrices: forms, classification, generators, recipe."""

import random

import numpy as np
import pytest

from cqca import (
    FactorizationMismatch,
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
    """Every orbit slice equals the matching apply() iterate, on both stepping paths."""
    rng = random.Random(88)
    cases = []  # (matrix, start, steps, steps on windows)
    for p in (2, 3, 5):
        for _ in range(4):
            s = multiply_word(random_word(p, rng.randint(1, 10), 3, seed=rng.random()))
            xi = PhaseVector.random(rng, p, range(-3, 4))
            cases.append((s, xi if not xi.is_zero() else PhaseVector.e_minus(p), 12, True))
    # Every coefficient p - 1, at primes either side of 2^20.
    for q in (1048573, 1048583):
        full = poly(q, {e: q - 1 for e in range(-3, 4)})
        cases.append((ScaMatrix(full, full, full, full), PhaseVector(full, full), 6, True))
    cases.append((shear_g(3, 2, 1), PhaseVector.e_plus(3), 0, True))
    # Dict path: window sums past int64, hollow entries, hollow start, zero start.
    big = 2147483647
    cases.append((shear_g(big, 1, 5), PhaseVector(poly(big, {-5: 1, 7: 1}), poly(big, {0: 1})), 8, False))
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
    cases.append((s2, PhaseVector.random(rng, 3, box, d=2), 5, False))
    cases.append((s2, PhaseVector.zero(3, 2), 2, False))
    # Coefficients whose sums can leave int64 (p >= 2^62) travel as Python ints.
    for huge in (4611686018427388039, 18446744073709551629):
        cases.append((shear_g(huge, 1, huge - 1), PhaseVector(poly(huge, {0: huge - 2}), poly(huge, {})), 4, False))

    for s, xi, steps, windowed in cases:
        assert (s._orbit_windows(xi, steps) is not None) == windowed
        slices = list(s.orbit(xi, steps))
        assert len(slices) == steps + 1
        eta = xi
        for t, (cells, plus, minus) in enumerate(slices):
            n = len(plus)
            assert cells.shape == ((n,) if s.d == 1 else (n, s.d))
            support = eta.support()
            flat = support if s.d == 1 else [v for c in support for v in c]
            assert cells.dtype == (np.int64 if all(-(2**63) <= v < 2**63 for v in flat) else object)
            assert plus.dtype == minus.dtype == coefficient_dtype(s.p)
            got = cells.tolist() if s.d == 1 else [tuple(c) for c in cells.tolist()]
            assert got == support, (s, xi, t)
            assert plus.tolist() == [eta.plus.coeff(x) for x in support]
            assert minus.tolist() == [eta.minus.coeff(x) for x in support]
            eta = s.apply(eta)


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
