"""Tests for phase functions and the cocycle identity."""

import random

import pytest

from cqca import (
    LaurentPoly,
    NoValidPhase,
    NotSymplectic,
    PhaseExponent,
    PhaseFunction,
    PhaseVector,
    ScaMatrix,
    beta,
    default_phase,
    from_recipe,
    identity,
    local_f,
    multiply_word,
    phase_group_order,
    random_word,
    shear_g,
    shift,
    upper_shear_g,
    validate_cocycle,
)


def rand_vector(rng, p, radius=2, d=1):
    plus = {}
    minus = {}
    for x in range(-radius, radius + 1):
        key = (x,) * d
        a, b = rng.randrange(p), rng.randrange(p)
        if a:
            plus[key] = a
        if b:
            minus[key] = b
    return PhaseVector(LaurentPoly(p, d, plus), LaurentPoly(p, d, minus))


# -- the phase group -----------------------------------------------------------


def test_phase_group_order():
    assert phase_group_order(2) == 4
    assert phase_group_order(3) == 3
    assert phase_group_order(5) == 5
    with pytest.raises(ValueError):
        phase_group_order(4)


def test_phase_exponent_arithmetic():
    a = PhaseExponent(3, 4)
    b = PhaseExponent(2, 4)
    assert (a * b).numerator == 1
    assert (a**2).numerator == 2
    assert a.inverse() * a == PhaseExponent(0, 4)
    with pytest.raises(ValueError):
        a * PhaseExponent(1, 3)
    with pytest.raises(TypeError):
        a * 1
    with pytest.raises(ValueError):
        PhaseExponent(1, 0)


# -- phase function construction --------------------------------------------------


def test_phase_function_requires_symplectic():
    one, zero = LaurentPoly.one(2), LaurentPoly.zero(2)
    u = LaurentPoly.monomial(2, 1, 1)
    bad = ScaMatrix(one, u, zero, one)
    with pytest.raises(NotSymplectic):
        PhaseFunction(bad, PhaseExponent(0, 4), PhaseExponent(0, 4))
    with pytest.raises(ValueError):
        PhaseFunction(identity(2), PhaseExponent(0, 2), PhaseExponent(0, 2))


def test_evaluate_base_cases():
    rng = random.Random(71)
    for p in (2, 3, 5):
        phi = default_phase(identity(p))
        assert phi.evaluate(PhaseVector.zero(p)).numerator == 0
        assert phi.evaluate(PhaseVector.e_plus(p)) == phi.gen_plus
        assert phi.evaluate(PhaseVector.e_minus(p)) == phi.gen_minus
        for _ in range(20):
            x = rng.randint(-6, 6)
            assert phi.evaluate(PhaseVector.e_plus(p, x=x)) == phi.gen_plus


def test_identity_automaton_evaluates_to_zero():
    rng = random.Random(72)
    for p in (2, 3, 5):
        phi = default_phase(identity(p))
        assert (phi.gen_plus.numerator, phi.gen_minus.numerator) == (0, 0)
        for _ in range(50):
            xi = rand_vector(rng, p)
            assert phi.evaluate(xi).numerator == 0


def test_translation_invariance_of_evaluate():
    rng = random.Random(73)
    for p in (2, 3):
        s = shear_g(p, 1)
        phi = default_phase(s)
        for _ in range(50):
            xi = rand_vector(rng, p)
            x = rng.randint(-4, 4)
            assert phi.evaluate(xi.translate(x)) == phi.evaluate(xi)


# -- default_phase ------------------------------------------------------------------


def test_default_phase_examples():
    phi = default_phase(identity(2))
    assert phi.to_json_dict() == {"order": 4, "gen_plus": 0, "gen_minus": 0}

    for s in (local_f(2, 1), shear_g(2, 1), upper_shear_g(2, 1), shift(2, 1, 1)):
        phi = default_phase(s)
        assert validate_cocycle(phi, radius=2)


def test_default_phase_odd_p_picks_zero():
    # the power constraint is vacuous for odd p, so the least assignment wins
    rng = random.Random(74)
    for p in (3, 5):
        for trial in range(10):
            s = multiply_word(random_word(p, rng.randint(0, 5), 2, seed=trial))
            phi = default_phase(s)
            assert phi.order == p
            assert phi.gen_plus.numerator == 0
            assert phi.gen_minus.numerator == 0


def test_default_phase_sees_diagonal_correction():
    # column (1 + u + u^-1, -1) has a nonzero diagonal, forcing a nontrivial phase
    f = LaurentPoly(2, 1, {0: 1, 1: 1, -1: 1})
    s = from_recipe(f, LaurentPoly.one(2))
    phi = default_phase(s)
    assert phi.generator_diagonals() == (1, 0)
    assert phi.gen_plus.numerator == 1
    assert phi.gen_minus.numerator == 0
    assert validate_cocycle(phi, radius=2)


def test_default_phase_rejects_non_symplectic():
    one, zero = LaurentPoly.one(3), LaurentPoly.zero(3)
    with pytest.raises(NotSymplectic):
        default_phase(ScaMatrix(one, one, one, one))


# -- validation ----------------------------------------------------------------------


def test_validate_cocycle_catches_corrupted_generator():
    s = shear_g(2, 1)
    good = default_phase(s)
    assert validate_cocycle(good, radius=2)
    bad = PhaseFunction(
        s,
        PhaseExponent(good.gen_plus.numerator + 1, 4),
        good.gen_minus,
    )
    assert not validate_cocycle(bad, radius=2)


def test_validate_cocycle_sampled_branch():
    phi = default_phase(shear_g(3, 1))
    assert validate_cocycle(phi, radius=1)
    phi5 = default_phase(local_f(5, 2))
    assert validate_cocycle(phi5, radius=1, samples=1500)


def test_validate_cocycle_two_dimensional():
    phi = default_phase(identity(3, d=2))
    assert validate_cocycle(phi, radius=1, samples=400)


def test_cocycle_identity_from_fold():
    """evaluate() folds consistently: phi(xi+eta) carries exactly the correction."""
    rng = random.Random(75)
    for p in (2, 3):
        step = phase_group_order(p) // p
        for trial in range(8):
            s = multiply_word(random_word(p, rng.randint(1, 5), 2, seed=100 + trial))
            phi = default_phase(s)
            order = phi.order
            for _ in range(60):
                xi = rand_vector(rng, p)
                eta = rand_vector(rng, p)
                expected = (
                    phi.evaluate(xi).numerator
                    + phi.evaluate(eta).numerator
                    + step * phi.correction(xi, eta)
                ) % order
                assert phi.evaluate(xi + eta).numerator == expected


def test_scalar_multiple_closed_form():
    # phi(c * e) follows the quadratic formula in the generator exponent
    for p in (3, 5):
        s = local_f(p, 1)
        phi = default_phase(s)
        dplus, _ = phi.generator_diagonals()
        for c in range(p):
            vec = PhaseVector(
                LaurentPoly.constant(p, 1, c), LaurentPoly.zero(p)
            )
            expected = (dplus * (c * (c - 1) // 2) + c * phi.gen_plus.numerator) % p
            assert phi.evaluate(vec).numerator == expected


def test_composition_consistency():
    """The pointwise product phase for s(t(.)) satisfies the s@t cocycle."""
    rng = random.Random(76)
    for p in (2, 3):
        order = phase_group_order(p)
        step = order // p
        for trial in range(10):
            s = multiply_word(random_word(p, rng.randint(1, 4), 2, seed=200 + trial))
            t = multiply_word(random_word(p, rng.randint(1, 4), 2, seed=300 + trial))
            st = s @ t
            phi_s = default_phase(s)
            phi_t = default_phase(t)

            def psi(v):
                return phi_t.evaluate(v) * phi_s.evaluate(t.apply(v))

            for _ in range(40):
                xi = rand_vector(rng, p, radius=1)
                eta = rand_vector(rng, p, radius=1)
                corr = (
                    beta(xi, eta)
                    - beta(st.apply(xi), st.apply(eta))
                ) % p
                expected = (
                    psi(xi).numerator + psi(eta).numerator + step * corr
                ) % order
                assert psi(xi + eta).numerator == expected


def test_evaluated_phases_live_in_the_right_group():
    rng = random.Random(77)
    for p, expected_order in ((2, 4), (3, 3), (5, 5)):
        s = shear_g(p, 2)
        phi = default_phase(s)
        for _ in range(30):
            val = phi.evaluate(rand_vector(rng, p))
            assert val.order == expected_order
            assert 0 <= val.numerator < expected_order


def test_evaluate_rejects_foreign_vectors():
    phi = default_phase(identity(3))
    with pytest.raises(ValueError):
        phi.evaluate(PhaseVector.zero(5))
