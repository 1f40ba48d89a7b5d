"""Tests for phase functions and the cocycle identity."""

import random
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqca import (
    GeneratorWord,
    LaurentPoly,
    Local,
    NotSymplectic,
    PhaseFunction,
    PhaseVector,
    ScaMatrix,
    Shear,
    UpperShear,
    beta,
    cocycle_failure,
    default_phase,
    from_recipe,
    identity,
    local_f,
    multiply_word,
    palindromize,
    phase_group_order,
    random_word,
    shear_g,
    shift,
    upper_shear_g,
    validate_cocycle,
)
from cqca import sca
from cqca.laurent import coefficient_dtype


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


def fold_reference(phi, xi):
    """phi(xi) by folding the cocycle over the single-cell components of xi.

    Components are visited in ascending cell order, plus before minus; each
    step adds phi of the scalar multiple c * e, which is
    C(e, e) * c(c-1)/2 + c * gen, and the correction C(partial, c * e)
    computed with beta on the running sums and their images.
    """
    s = phi.automaton
    p = s.p
    order = phi.order
    step = order // p
    c1 = s.column_plus()
    c2 = s.column_minus()
    diag_plus = -beta(c1, c1) % p
    diag_minus = -beta(c2, c2) % p
    total = 0
    partial = PhaseVector.zero(p, s.d)
    image = PhaseVector.zero(p, s.d)
    for x in sorted(set(xi.plus.terms) | set(xi.minus.terms)):
        for comp_plus in (True, False):
            c = xi.plus.terms.get(x, 0) if comp_plus else xi.minus.terms.get(x, 0)
            if c == 0:
                continue
            mono = LaurentPoly.monomial(p, s.d, x, c)
            if comp_plus:
                v = PhaseVector(mono, LaurentPoly.zero(p, s.d))
                v_img = PhaseVector(mono * c1.plus, mono * c1.minus)
                diag, gen = diag_plus, phi.gen_plus
            else:
                v = PhaseVector(LaurentPoly.zero(p, s.d), mono)
                v_img = PhaseVector(mono * c2.plus, mono * c2.minus)
                diag, gen = diag_minus, phi.gen_minus
            val = (step * ((diag * (c * (c - 1) // 2)) % p) + c * gen) % order
            corr = (beta(partial, v) - beta(image, v_img)) % p
            total = (total + val + step * corr) % order
            partial = partial + v
            image = image + v_img
    return total


# -- the phase group -----------------------------------------------------------


def test_phase_group_order():
    assert phase_group_order(2) == 4
    assert phase_group_order(3) == 3
    assert phase_group_order(5) == 5
    with pytest.raises(ValueError):
        phase_group_order(4)


# -- phase function construction --------------------------------------------------


def test_phase_function_requires_symplectic():
    one, zero = LaurentPoly.one(2), LaurentPoly.zero(2)
    u = LaurentPoly.monomial(2, 1, 1)
    bad = ScaMatrix(one, u, zero, one)
    with pytest.raises(NotSymplectic):
        PhaseFunction(bad, 0, 0)
    for gen in (0.0, "0", True, None):
        with pytest.raises(TypeError):
            PhaseFunction(identity(2), gen, 0)
        with pytest.raises(TypeError):
            PhaseFunction(identity(2), 0, gen)
    # generator exponents are reduced into [0, order)
    phi = PhaseFunction(identity(2), 5, -1)
    assert (phi.gen_plus, phi.gen_minus) == (1, 3)


def test_evaluate_base_cases():
    rng = random.Random(71)
    for p in (2, 3, 5):
        phi = default_phase(identity(p))
        assert phi.evaluate(PhaseVector.zero(p)) == 0
        assert phi.evaluate(PhaseVector.e_plus(p)) == phi.gen_plus
        assert phi.evaluate(PhaseVector.e_minus(p)) == phi.gen_minus
        for _ in range(20):
            x = rng.randint(-6, 6)
            assert phi.evaluate(PhaseVector.e_plus(p, x=x)) == phi.gen_plus


def test_identity_automaton_evaluates_to_zero():
    rng = random.Random(72)
    for p in (2, 3, 5):
        phi = default_phase(identity(p))
        assert (phi.gen_plus, phi.gen_minus) == (0, 0)
        for _ in range(50):
            xi = rand_vector(rng, p)
            assert phi.evaluate(xi) == 0


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
            assert phi.gen_plus == 0
            assert phi.gen_minus == 0


def test_default_phase_sees_diagonal_correction():
    # column (1 + u + u^-1, -1) has a nonzero diagonal, forcing a nontrivial phase
    f = LaurentPoly(2, 1, {0: 1, 1: 1, -1: 1})
    s = from_recipe(f, LaurentPoly.one(2))
    phi = default_phase(s)
    assert phi.generator_diagonals() == (1, 0)
    assert phi.gen_plus == 1
    assert phi.gen_minus == 0
    assert validate_cocycle(phi, radius=2)


def test_default_phase_rejects_non_symplectic():
    one, zero = LaurentPoly.one(3), LaurentPoly.zero(3)
    with pytest.raises(NotSymplectic):
        default_phase(ScaMatrix(one, one, one, one))


def test_default_phase_certifies_once(monkeypatch):
    """One classify per phase function, and no second certificate from is_symplectic."""
    calls = []
    classify = sca.classify

    def counting_classify(s):
        calls.append("classify")
        return classify(s)

    monkeypatch.setattr(sca, "classify", counting_classify)
    monkeypatch.setattr(ScaMatrix, "is_symplectic", lambda self: calls.append("is_symplectic"))
    f2 = LaurentPoly(3, 2, {(1, 0): 1, (-1, 0): 1, (0, 1): 2, (0, -1): 2})
    for s in (shear_g(2, 1, 1), multiply_word(random_word(3, 6, 2, 1)), from_recipe(f2, LaurentPoly.one(3, 2))):
        calls.clear()
        default_phase(s)
        assert calls == ["classify"]
    # the reason of a rejection is classify's
    calls.clear()
    one = LaurentPoly.one(3)
    with pytest.raises(NotSymplectic, match="is not a monomial"):
        default_phase(ScaMatrix(one, one, one, one))
    assert calls == ["classify"]


# -- validation ----------------------------------------------------------------------


def test_validate_cocycle_catches_corrupted_generator():
    s = shear_g(2, 1)
    good = default_phase(s)
    assert validate_cocycle(good, radius=2)
    bad = PhaseFunction(s, good.gen_plus + 1, good.gen_minus)
    assert not validate_cocycle(bad, radius=2)


def test_validate_cocycle_sampled_branch():
    phi = default_phase(shear_g(3, 1))
    assert validate_cocycle(phi, radius=1)
    phi5 = default_phase(local_f(5, 2))
    assert validate_cocycle(phi5, radius=1, samples=1500)


def test_validate_cocycle_rejects_empty_samples():
    # with no sampled pair a wrong phase would pass
    bad = PhaseFunction(shear_g(2, 1, 1), 1, 0)
    assert not validate_cocycle(bad, 4)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples"):
            validate_cocycle(bad, 4, samples=samples)


def test_validate_cocycle_rejects_a_negative_radius():
    phi = default_phase(shear_g(3, 1, 1))
    assert validate_cocycle(phi, 0)
    with pytest.raises(ValueError, match="radius must be non-negative, got -1"):
        validate_cocycle(phi, -1)


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
                    phi.evaluate(xi) + phi.evaluate(eta) + step * phi.correction(xi, eta)
                ) % order
                assert phi.evaluate(xi + eta) == expected


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
            expected = (dplus * (c * (c - 1) // 2) + c * phi.gen_plus) % p
            assert phi.evaluate(vec) == expected


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
                return (phi_t.evaluate(v) + phi_s.evaluate(t.apply(v))) % order

            for _ in range(40):
                xi = rand_vector(rng, p, radius=1)
                eta = rand_vector(rng, p, radius=1)
                corr = (
                    beta(xi, eta)
                    - beta(st.apply(xi), st.apply(eta))
                ) % p
                expected = (psi(xi) + psi(eta) + step * corr) % order
                assert psi(xi + eta) == expected


def test_evaluated_phases_live_in_the_right_group():
    rng = random.Random(77)
    for p, expected_order in ((2, 4), (3, 3), (5, 5)):
        s = shear_g(p, 2)
        phi = default_phase(s)
        for _ in range(30):
            assert phi.order == expected_order
            val = phi.evaluate(rand_vector(rng, p))
            assert isinstance(val, int)
            assert 0 <= val < expected_order


def test_evaluate_rejects_foreign_vectors():
    phi = default_phase(identity(3))
    with pytest.raises(ValueError):
        phi.evaluate(PhaseVector.zero(5))


# -- the closed form against the fold ------------------------------------------------

PRIMES = (2, 3, 5, 1048573, 10**18 + 3)


@st.composite
def phase_functions(draw):
    """A phase function of a shifted automaton with arbitrary generator ints.

    d = 1 automata are generator words; d = 2 automata are products of
    recipe matrices built from random palindromes.
    """
    p = draw(st.sampled_from(PRIMES))
    d = draw(st.sampled_from((1, 2)))
    coeff = st.integers(0, p - 1)
    unit = st.integers(1, p - 1)
    if d == 1:
        letter = st.one_of(
            st.builds(Shear, st.integers(0, 2), unit),
            st.builds(UpperShear, st.integers(0, 2), unit),
            st.builds(Local, unit),
        )
        s = multiply_word(GeneratorWord(p, tuple(draw(st.lists(letter, max_size=4)))))
        offset = draw(st.integers(-3, 3))
    else:
        small = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
        palindrome = st.dictionaries(small, coeff, max_size=3).map(
            lambda terms: palindromize(LaurentPoly(p, 2, terms))
        )
        s = identity(p, 2)
        for _ in range(draw(st.integers(0, 2))):
            s = s @ from_recipe(draw(palindrome), draw(palindrome))
        offset = draw(small)
    return PhaseFunction(s.shifted(offset), draw(st.integers()), draw(st.integers()))


@st.composite
def phase_inputs(draw):
    """A phase function from phase_functions and a vector on cells near the origin."""
    phi = draw(phase_functions())
    p, d = phi.automaton.p, phi.automaton.d
    coeff = st.integers(0, p - 1)
    cell = st.integers(-4, 4) if d == 1 else st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    plus = draw(st.dictionaries(cell, coeff, max_size=6))
    minus = draw(st.dictionaries(cell, coeff, max_size=6))
    return phi, PhaseVector(LaurentPoly(p, d, plus), LaurentPoly(p, d, minus))


@st.composite
def family_inputs(draw):
    """A phase function, a family of up to 4 coefficient boxes, its first cell, and padding.

    The padding is (before, after) per axis: how many zero cells a wider
    box has on either side of the family's box.
    """
    phi = draw(phase_functions())
    p, d = phi.automaton.p, phi.automaton.d
    box = tuple(draw(st.integers(1, 5 if d == 1 else 3)) for _ in range(d))
    count = draw(st.integers(1, 4))
    size = count * prod(box) * 2
    coeff = st.one_of(st.just(0), st.integers(0, p - 1))
    values = draw(st.lists(coeff, min_size=size, max_size=size))
    coeffs = np.array(values, dtype=coefficient_dtype(p)).reshape((count,) + box + (2,))
    first = st.integers(-3, 3)
    lo = draw(first) if d == 1 else draw(st.tuples(first, first))
    padding = [draw(st.tuples(st.integers(0, 3), st.integers(0, 3))) for _ in range(d)]
    return phi, coeffs, lo, padding


def family_vectors(p, coeffs, lo):
    return [PhaseVector.from_coefficients(p, c, lo) for c in coeffs]


@settings(max_examples=300)
@given(phase_inputs())
def test_evaluate_matches_fold_reference(case):
    phi, xi = case
    assert phi.evaluate(xi) == fold_reference(phi, xi)


@settings(max_examples=200)
@given(family_inputs())
def test_evaluate_batch_matches_fold_and_evaluate(case):
    phi, coeffs, lo, padding = case
    values = phi.evaluate_batch(coeffs)
    vectors = family_vectors(phi.automaton.p, coeffs, lo)
    assert values.tolist() == [fold_reference(phi, xi) for xi in vectors]
    assert values.tolist() == [phi.evaluate(xi) for xi in vectors]
    # the same vectors laid out at other offsets of a zero-padded wider box
    padded = np.pad(coeffs, [(0, 0)] + padding + [(0, 0)])
    assert phi.evaluate_batch(padded).tolist() == values.tolist()


@settings(max_examples=200)
@given(family_inputs())
def test_apply_window_matches_apply(case):
    phi, coeffs, lo, _ = case
    s = phi.automaton
    p, r = s.p, s.radius()
    images = s.apply_window(coeffs)
    assert images.shape == (len(coeffs),) + tuple(n + 2 * r for n in coeffs.shape[1:-1]) + (2,)
    first = lo - r if s.d == 1 else tuple(x - r for x in lo)
    assert family_vectors(p, images, first) == [s.apply(xi) for xi in family_vectors(p, coeffs, lo)]


def test_apply_window_reduces_per_term_below_2_31(monkeypatch):
    # At p = 2^31 - 1 the unreduced sums of 28 terms leave int64, but one
    # product does not: the images stay int64 and equal the object path's.
    p = 2**31 - 1
    full = LaurentPoly(p, 1, {e: p - 1 for e in range(-3, 4)})
    s = ScaMatrix(full, full, full, full)
    coeffs = np.full((3, 5, 2), p - 1, dtype=np.int64)
    images = s.apply_window(coeffs)
    assert images.dtype == np.int64
    monkeypatch.setattr(sca, "coefficient_dtype", lambda p, products=0: object)
    reference = s.apply_window(coeffs)
    assert reference.dtype == object
    assert images.tolist() == reference.tolist()
    assert images.any()


def test_evaluate_batch_reduces_per_product_below_2_31():
    # At p = 2^31 - 1 the unreduced sums over 9 cells leave int64, but two
    # products do not: the phases stay int64 and equal the fold.  At
    # 10^18 + 3 one product leaves int64 and the phases are Python ints.
    # On this word some of the 40 vectors need every reduction of the int64
    # path, the partial quadratic sums' included.
    for p, dtype in ((2**31 - 1, np.int64), (10**18 + 3, object)):
        s = multiply_word(random_word(p, 6, 2, 18))
        phi = PhaseFunction(s, p - 1, p - 2)
        rng = random.Random(p)
        coeffs = np.full((41, 9, 2), p - 1, dtype=coefficient_dtype(p))
        coeffs[1:] = [[[rng.randrange(p), rng.randrange(p)] for _ in range(9)] for _ in range(40)]
        values = phi.evaluate_batch(coeffs)
        assert values.dtype == dtype
        assert values.tolist() == [fold_reference(phi, xi) for xi in family_vectors(p, coeffs, -4)]


def test_cocycle_failure_names_the_pair_of_a_phase_wrong_on_a_sum(monkeypatch):
    # phi is off by one only on xi + eta of the 8th drawn pair; the message
    # names that pair, whatever the batching of the evaluations.
    from cqca import cocycle

    draws = []

    def recording(*args):
        draws.append(real_draw(*args))
        return draws[-1]

    def wrong_on_the_sum(self, coeffs):
        values = real_evaluate(self, coeffs)
        if len(draws[-1]) == 1:  # the translation check
            return values
        xi, eta = draws[-1].reshape((-1, 2) + coeffs.shape[1:])[7]
        hits = (coeffs == (xi + eta) % 3).reshape(len(coeffs), -1).all(axis=1)
        return (values + hits) % self.order

    real_draw, real_evaluate = cocycle.random_coefficients, PhaseFunction.evaluate_batch
    monkeypatch.setattr(cocycle, "random_coefficients", recording)
    monkeypatch.setattr(PhaseFunction, "evaluate_batch", wrong_on_the_sum)
    assert cocycle_failure(default_phase(shear_g(3, 1)), radius=2, samples=50, seed=4) == (
        "cocycle identity fails for xi = (2u^-1 + 1 + u, u^-2 + 2 + u + u^2),"
        " eta = (0, 2u^-2 + 2u^-1 + 1 + 2u^2): phi(xi + eta) = 1,"
        " but phi(xi) + phi(eta) + 1 C(xi, eta) = 0 (mod 3)"
    )


def test_evaluate_shrinks_wide_gaps():
    # a sparse vector spanning 2^40 cells costs a box of a few cells
    s = shear_g(3, 2)
    phi = default_phase(s)
    far = 1 << 40
    xi = PhaseVector(LaurentPoly(3, 1, {0: 1, 3: 2, far: 2}), LaurentPoly(3, 1, {1: 1, far + 2: 1}))
    near = PhaseVector(LaurentPoly(3, 1, {0: 1, 3: 2, 9: 2}), LaurentPoly(3, 1, {1: 1, 11: 1}))
    assert phi.evaluate(xi) == fold_reference(phi, xi) == phi.evaluate(near)


def test_cocycle_failure_names_the_failing_pair():
    s = shear_g(2, 1)
    good = default_phase(s)
    assert cocycle_failure(good, radius=2) is None
    bad = PhaseFunction(s, good.gen_plus + 1, good.gen_minus)
    assert cocycle_failure(bad, radius=2) == (
        "cocycle identity fails for xi = (u^-2, 0), eta = (u^-2, 0): phi(xi + eta) = 0,"
        " but phi(xi) + phi(eta) + 2 C(xi, eta) = 2 (mod 4)"
    )
    # the sampled path names its pair the same way
    message = cocycle_failure(bad, radius=3, samples=50)
    assert message.startswith("cocycle identity fails for xi = (")
    assert message.endswith(" (mod 4)")


def test_cocycle_failure_refuses_past_its_cell_budget(monkeypatch):
    from cqca import cocycle

    def no_draw(*args):
        raise AssertionError("no vector may be drawn past the budget")

    phi = default_phase(shear_g(3, 1))
    cells = (24 + 2 * 10) * 3  # radius 1 on one variable, 10 samples
    monkeypatch.setattr(cocycle, "COCYCLE_CELL_BUDGET", cells)
    assert cocycle_failure(phi, radius=1, samples=10) is None
    monkeypatch.setattr(cocycle, "COCYCLE_CELL_BUDGET", cells - 1)
    monkeypatch.setattr(cocycle, "random_coefficients", no_draw)
    with pytest.raises(ValueError, match=f"would draw {cells} vector-cells, over the budget of {cells - 1}"):
        cocycle_failure(phi, radius=1, samples=10)


def test_cocycle_failure_rejects_a_negative_radius():
    phi = default_phase(shear_g(2, 1, 1))
    assert cocycle_failure(phi, 0) is None
    for radius in (-1, -5):
        with pytest.raises(ValueError, match=f"radius must be non-negative, got {radius}"):
            cocycle_failure(phi, radius)


def test_cocycle_failure_names_a_translation_witness(monkeypatch):
    real = PhaseFunction.evaluate_batch

    def position_dependent(self, coeffs):
        first = np.argmax(coeffs.reshape(len(coeffs), -1) != 0, axis=1)
        return (real(self, coeffs) + first) % self.order

    monkeypatch.setattr(PhaseFunction, "evaluate_batch", position_dependent)
    assert cocycle_failure(default_phase(shear_g(3, 1)), radius=1) == (
        "phi is not translation invariant: phi(xi) = 0 but phi(u^-2 xi) = 2"
        " for xi = (u^-1 + 1 + 2u, 2u^-1 + 1 + 2u)"
    )


def test_sampled_path_catches_corrupted_generators():
    """Off the exhaustive windows a wrong generator value is caught by sampling.

    At odd p every pair of generator exponents is admissible (two differ by
    a character), so there the corrupted value is a generator's diagonal
    cocycle value C(e, e), which the quadratic form reads.
    """
    f = palindromize(LaurentPoly(3, 2, {(1, 0): 1, (0, 1): 2}))
    for s in (shear_g(3, 1), from_recipe(f, LaurentPoly.one(3, 2))):
        phi = default_phase(s)
        assert validate_cocycle(phi, radius=2, samples=200)
        phi._diagonals = ((phi._diagonals[0] + 1) % 3, phi._diagonals[1])
        assert not validate_cocycle(phi, radius=2, samples=200)
    f = palindromize(LaurentPoly(2, 2, {(1, 0): 1, (0, 1): 1}))
    s = from_recipe(f, LaurentPoly.one(2, 2))
    good = default_phase(s)
    assert validate_cocycle(good, radius=1, samples=200)
    for gens in ((good.gen_plus + 1, good.gen_minus), (good.gen_plus, good.gen_minus + 1)):
        assert not validate_cocycle(PhaseFunction(s, *gens), radius=1, samples=200)


def test_default_phase_takes_the_least_admissible_exponents():
    """Each exponent is the least g with p*g == -step*kappa*C(e, e) (mod order)."""
    rng = random.Random(78)
    for p in (2, 3, 5):
        order = phase_group_order(p)
        step = order // p
        kappa = p * (p - 1) // 2
        diagonals = set()
        for trial in range(16):
            s = multiply_word(random_word(p, rng.randint(0, 6), 3, seed=400 + trial))
            phi = default_phase(s)
            for e, gen in (
                (PhaseVector.e_plus(p), phi.gen_plus),
                (PhaseVector.e_minus(p), phi.gen_minus),
            ):
                diag = phi.correction(e, e)
                diagonals.add(diag)
                admissible = [g for g in range(order) if (p * g + step * kappa * diag) % order == 0]
                assert gen == admissible[0]
        assert len(diagonals) > 1  # both kinds of generator occur
