"""Operator oracle tests: exact Weyl operators on finite windows."""

import random
import time
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqca import (
    LaurentPoly,
    PhaseFunction,
    PhaseVector,
    ScaMatrix,
    beta,
    default_phase,
    from_recipe,
    identity,
    local_f,
    shear_g,
    shift,
    sigma,
)
from cqca import oracle
from cqca.oracle import (
    MAX_WINDOW_DIM,
    Window,
    WeylOperator,
    check_clifford_action,
    check_commutation,
    check_order_condition,
    check_unitary,
    check_weyl_relation,
    commutation_exponent,
    run_selftest,
    weyl_matrix,
)
from cqca.phasespace import beta_batch

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def single_cell(p, a, b, x=0):
    plus = {x: a % p} if a % p else {}
    minus = {x: b % p} if b % p else {}
    return PhaseVector(LaurentPoly(p, 1, plus), LaurentPoly(p, 1, minus))


def test_window_geometry():
    w = Window(3, -2, 2)
    assert w.sites == 5
    assert w.dim == 243
    assert list(w.cells()) == [-2, -1, 0, 1, 2]


def test_window_rejects_bad_ranges():
    with pytest.raises(ValueError):
        Window(2, 3, 1)
    # 2**13 = 8192 crosses the dense-matrix cap
    Window(2, 0, 11)
    with pytest.raises(ValueError):
        Window(2, 0, 12)
    with pytest.raises(ValueError):
        Window(5, 0, 5)
    assert MAX_WINDOW_DIM == 4096


def test_window_cap_is_checked_before_the_dimension():
    # 2**(10**8) alone takes about half a second to compute
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds"):
        Window(2, 0, 10**8 - 1)
    assert time.perf_counter() - start < 0.1


def test_weyl_matrix_zero_vector_is_identity():
    for p in (2, 3, 5):
        w = Window(p, 0, 1)
        m = weyl_matrix(PhaseVector.zero(p), w).dense()
        assert np.allclose(m, np.eye(w.dim), atol=1e-10)


def test_weyl_matrix_clock_and_shift():
    for p in (2, 3, 5):
        w = Window(p, 0, 0)
        eps = np.exp(2j * np.pi / p)
        z = weyl_matrix(PhaseVector.e_plus(p), w).dense()
        assert np.allclose(z, np.diag([eps ** q for q in range(p)]), atol=1e-10)
        x = weyl_matrix(PhaseVector.e_minus(p), w).dense()
        expect = np.zeros((p, p), dtype=complex)
        for q in range(p):
            expect[(q - 1) % p, q] = 1.0
        assert np.allclose(x, expect, atol=1e-10)


def test_pauli_dictionary_char_two():
    w = Window(2, 0, 0)
    z = weyl_matrix(single_cell(2, 1, 0), w).dense()
    x = weyl_matrix(single_cell(2, 0, 1), w).dense()
    y_like = weyl_matrix(single_cell(2, 1, 1), w).dense()
    assert np.allclose(z, PAULI_Z, atol=1e-10)
    assert np.allclose(x, PAULI_X, atol=1e-10)
    assert np.allclose(y_like, x @ z, atol=1e-10)
    assert np.allclose(y_like, -1j * PAULI_Y, atol=1e-10)


def test_weyl_matrix_factorizes_over_cells():
    w = Window(2, 0, 1)
    xi = PhaseVector(
        LaurentPoly(2, 1, {0: 1}),
        LaurentPoly(2, 1, {1: 1}),
    )
    assert np.allclose(weyl_matrix(xi, w).dense(), np.kron(PAULI_Z, PAULI_X), atol=1e-10)


def test_weyl_matrix_rejects_bad_input():
    w = Window(2, 0, 1)
    outside = PhaseVector.e_plus(2, x=5)
    with pytest.raises(ValueError):
        weyl_matrix(outside, w)
    with pytest.raises(ValueError):
        weyl_matrix(PhaseVector.e_plus(3), w)
    with pytest.raises(ValueError):
        weyl_matrix(PhaseVector.e_plus(2, d=2), w)


def test_weyl_relation_unit_pair():
    for p in (2, 3, 5):
        w = Window(p, 0, 0)
        xi = PhaseVector.e_plus(p)
        eta = PhaseVector.e_minus(p)
        assert beta(xi, eta) == 1
        assert check_weyl_relation(xi, eta, w)
        lhs = weyl_matrix(xi + eta, w).dense()
        eps = np.exp(2j * np.pi / p)
        rhs = eps * weyl_matrix(xi, w).dense() @ weyl_matrix(eta, w).dense()
        assert np.allclose(lhs, rhs, atol=1e-10)


def clock_shift_kron(xi, window):
    """w(xi) as the kron over cells of X^b Z^a, with Z the clock and X the shift."""
    p = window.p
    clock = np.diag(np.exp(2j * np.pi * np.arange(p) / p))
    shift_down = np.zeros((p, p), dtype=complex)
    shift_down[(np.arange(p) - 1) % p, np.arange(p)] = 1.0
    out = np.ones((1, 1), dtype=complex)
    for x in window.cells():
        a, b = xi.plus.coeff(x), xi.minus.coeff(x)
        cell = np.linalg.matrix_power(shift_down, b) @ np.linalg.matrix_power(clock, a)
        out = np.kron(out, cell)
    return out


def test_weyl_matrix_matches_kron_randomized():
    rng = random.Random(20261018)
    for p in (2, 3, 5):
        for sites in (1, 2, 3):
            w = Window(p, -1, sites - 2)
            for _ in range(12):
                xi = PhaseVector.random(rng, p, w.cells())
                m = weyl_matrix(xi, w).dense()
                assert np.allclose(m, clock_shift_kron(xi, w), atol=1e-10), (p, sites, xi)


def test_operator_product_matches_dense_product():
    rng = random.Random(4242)
    for p in (2, 3, 5):
        w = Window(p, 0, 2)
        for _ in range(12):
            a = weyl_matrix(PhaseVector.random(rng, p, w.cells()), w).scaled(rng.randrange(7))
            b = weyl_matrix(PhaseVector.random(rng, p, w.cells()), w)
            assert np.allclose((a @ b).dense(), a.dense() @ b.dense(), atol=1e-10)
            assert a.scaled(a.order) == a and a.scaled(1) != a


def test_check_unitary_rejects_non_permutation():
    w = weyl_matrix(PhaseVector.e_minus(3), Window(3, 0, 1))
    assert check_unitary(w)
    row = w.row.copy()
    row[0] = row[1]
    assert not check_unitary(WeylOperator(row, w.phase, w.order))


def test_single_cell_checks_exhaustive():
    for p in (2, 3, 5):
        w = Window(p, 0, 0)
        vectors = [single_cell(p, a, b) for a in range(p) for b in range(p)]
        for xi in vectors:
            assert check_unitary(weyl_matrix(xi, w))
            assert check_order_condition(xi, w)
            for eta in vectors:
                assert check_weyl_relation(xi, eta, w)
                assert check_commutation(xi, eta, w)


def test_order_condition_phase_twist():
    # at p = 2 the mixed generator squares to minus the identity
    w = Window(2, 0, 0)
    m = weyl_matrix(single_cell(2, 1, 1), w).dense()
    assert np.allclose(m @ m, -np.eye(2), atol=1e-10)
    assert check_order_condition(single_cell(2, 1, 1), w)


def test_commutation_exponent_matches_sigma():
    rng = random.Random(20260819)
    for p in (2, 3, 5):
        w = Window(p, 0, 2)
        for _ in range(40):
            xi = PhaseVector(
                LaurentPoly(p, 1, {x: rng.randrange(p) for x in range(3)}),
                LaurentPoly(p, 1, {x: rng.randrange(p) for x in range(3)}),
            )
            eta = PhaseVector(
                LaurentPoly(p, 1, {x: rng.randrange(p) for x in range(3)}),
                LaurentPoly(p, 1, {x: rng.randrange(p) for x in range(3)}),
            )
            assert commutation_exponent(xi, eta, w) == sigma(xi, eta)


def test_commuting_operators_report_zero_exponent():
    w = Window(3, 0, 1)
    xi = PhaseVector.e_plus(3, x=0)
    eta = PhaseVector.e_plus(3, x=1)
    assert commutation_exponent(xi, eta, w) == 0


def test_clifford_action_reference_automata():
    s = shear_g(2, 1, 1)
    assert check_clifford_action(s, default_phase(s), Window(2, 0, 2))
    f = local_f(2, 1)
    assert check_clifford_action(f, default_phase(f), Window(2, 0, 1))
    one = LaurentPoly.one(2, 1)
    b1 = LaurentPoly(2, 1, {1: 1, -1: 1})
    r = from_recipe(one + b1, one)
    assert check_clifford_action(r, default_phase(r), Window(2, 0, 2))


def test_clifford_action_detects_wrong_phase():
    s = shear_g(2, 1, 1)
    bad = PhaseFunction(s, 1, 0)
    assert not check_clifford_action(s, bad, Window(2, 0, 2))
    # At odd p every generator assignment is admissible (two assignments
    # differ by a character), so the wrong phase is another automaton's.
    s = shear_g(3, 1, 1)
    assert check_clifford_action(s, default_phase(s), Window(3, 0, 2))
    assert not check_clifford_action(s, default_phase(local_f(3, 1)), Window(3, 0, 2))


def test_clifford_action_window_guards():
    s = shear_g(2, 1, 1)
    phi = default_phase(s)
    with pytest.raises(ValueError):
        check_clifford_action(s, phi, Window(2, 0, 0))
    flat = identity(2, 2)
    with pytest.raises(ValueError):
        check_clifford_action(flat, default_phase(flat), Window(2, 0, 1))


def test_clifford_action_rejects_a_foreign_prime():
    s = shear_g(3, 1, 1)
    for p in (2, 5):
        with pytest.raises(ValueError, match=f"modulus mismatch: automaton 3, phase 3, window {p}"):
            check_clifford_action(s, default_phase(s), Window(p, 0, 3))
    foreign = shear_g(2, 1, 1)
    with pytest.raises(ValueError, match="modulus mismatch: automaton 2, phase 3, window 2"):
        check_clifford_action(foreign, default_phase(s), Window(2, 0, 3))


def test_clifford_action_sampled_branch(monkeypatch):
    s = shift(3, 1, 1)
    phi = default_phase(s)
    monkeypatch.setattr(oracle, "CLIFFORD_EXHAUSTIVE_PAIRS", 1)
    assert check_clifford_action(s, phi, Window(3, 0, 2), samples=64, seed=3)


def test_clifford_action_samples_the_pairs_of_phasevector_random(monkeypatch):
    seen = []

    def recording(xi, eta, p):
        seen.extend(
            (PhaseVector.from_coefficients(p, a, 1), PhaseVector.from_coefficients(p, b, 1))
            for a, b in zip(xi, eta)
        )
        return beta_batch(xi, eta, p)

    monkeypatch.setattr(oracle, "beta_batch", recording)
    s = shear_g(3, 1, 1)
    assert check_clifford_action(s, default_phase(s), Window(3, 0, 3), samples=40, seed=5)
    rng = random.Random(5)
    inner = range(1, 3)
    assert seen == [
        (PhaseVector.random(rng, 3, inner), PhaseVector.random(rng, 3, inner)) for _ in range(40)
    ]


def test_selftest_report_shape_and_verdicts():
    reports = run_selftest(2, 3)
    assert [r["check"] for r in reports] == [
        "unitarity",
        "weyl_relation",
        "commutation",
        "order_condition",
        "clifford_action",
    ]
    assert all(r["pass"] for r in reports)
    by_name = {r["check"]: r for r in reports}
    # 3 single-cell choices of 3 vectors each, plus 3 cell pairs of 9
    assert by_name["unitarity"]["cases"] == 36
    assert by_name["weyl_relation"]["cases"] == 36 * 36
    # identity, shift, local_f(1), shear, and three product recipes
    assert by_name["clifford_action"]["cases"] == 7


def test_selftest_samples_pairs_past_the_budget(monkeypatch):
    checked = []
    real = oracle._check_pairs

    def counting(family, first, second, p):
        checked.extend(zip(first.tolist(), second.tolist()))
        return real(family, first, second, p)

    monkeypatch.setattr(oracle, "SELFTEST_PAIR_BUDGET", 100)
    monkeypatch.setattr(oracle, "_check_pairs", counting)
    by_name = {r["check"]: r for r in run_selftest(2, 3)}
    assert all(r["pass"] for r in by_name.values())
    assert by_name["weyl_relation"]["cases"] == by_name["commutation"]["cases"] == 100
    assert by_name["unitarity"]["cases"] == 36
    assert len(checked) == 100
    assert len(set(checked)) > 50
    # the pairs rng.choice draws from the family, xi then eta
    family = [PhaseVector.from_coefficients(2, c, 0) for c in oracle._selftest_family(2, 3)]
    rng = random.Random(7)
    expected = [(rng.choice(family), rng.choice(family)) for _ in range(100)]
    assert [(family[i], family[j]) for i, j in checked] == expected

    # a wrong commutation phase is still caught on the sample: with beta
    # read as 0 everywhere, sigma = beta(xi, eta) - beta(eta, xi) is 0 too
    monkeypatch.setattr(oracle, "beta_batch", lambda xi, eta, p: np.zeros(len(xi), dtype=np.int64))
    by_name = {r["check"]: r for r in run_selftest(2, 3)}
    assert not by_name["commutation"]["pass"]


def test_clifford_action_rejects_empty_samples():
    # with no sampled pair a wrong phase would pass
    s = shear_g(2, 1, 1)
    bad = PhaseFunction(s, 1, 0)
    assert not check_clifford_action(s, bad, Window(2, 0, 5))
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples"):
            check_clifford_action(s, bad, Window(2, 0, 5), samples=samples)


def test_selftest_family_order():
    # single cells first, then cell pairs; per support the product order
    family = oracle._selftest_family(3, 3)
    vectors = [PhaseVector.from_coefficients(3, c, 0) for c in family]
    expected = []
    for cells in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
        for values in product(product(range(3), repeat=2), repeat=len(cells)):
            if all(a or b for a, b in values):
                plus = {x: a for x, (a, _) in zip(cells, values) if a}
                minus = {x: b for x, (_, b) in zip(cells, values) if b}
                expected.append(PhaseVector(LaurentPoly(3, 1, plus), LaurentPoly(3, 1, minus)))
    assert vectors == expected


def random_family(rng, p, sites, count):
    """Coefficient arrays of random vectors on the window, zero vectors and repeats included."""
    family = np.array(
        [[[rng.randrange(p), rng.randrange(p)] for _ in range(sites)] for _ in range(count)],
        dtype=np.int64,
    )
    family[0] = 0
    family[-1] = family[1]
    return family


def test_batched_checks_match_the_per_pair_reference(monkeypatch):
    # beta_batch is corrupted on some vectors, so that verdicts differ from
    # pair to pair; the per-pair functions read beta and sigma corrupted by
    # the same rule, sigma being beta(xi, eta) - beta(eta, xi).
    def bad_beta_batch(xi, eta, p):
        return (beta_batch(xi, eta, p) + (xi[:, 0, 0] == 1) * eta[:, 0, 1]) % p

    def bad_beta(xi, eta):
        return (beta(xi, eta) + (xi.plus.coeff(0) == 1) * eta.minus.coeff(0)) % xi.p

    def bad_sigma(xi, eta):
        return (bad_beta(xi, eta) - bad_beta(eta, xi)) % xi.p

    rng = random.Random(20261018)
    seen = set()
    for p in (2, 3, 5):
        for sites in (1, 2, 3):
            window = Window(p, 0, sites - 1)
            family = random_family(rng, p, sites, 10)
            vectors = [PhaseVector.from_coefficients(p, c, 0) for c in family]
            first, second = np.divmod(np.arange(len(family) ** 2), len(family))
            w = oracle._weyl_batch(family, p)
            exponents = oracle._commutation_exponents(w[first], w[second], p)
            for k, (i, j) in enumerate(zip(first.tolist(), second.tolist())):
                assert exponents[k] == commutation_exponent(vectors[i], vectors[j], window)
            for forms in ((beta_batch, beta, sigma), (bad_beta_batch, bad_beta, bad_sigma)):
                monkeypatch.setattr(oracle, "beta_batch", forms[0])
                monkeypatch.setattr(oracle, "beta", forms[1])
                monkeypatch.setattr(oracle, "sigma", forms[2])
                relation = [check_weyl_relation(vectors[i], vectors[j], window) for i, j in zip(first, second)]
                commutation = [check_commutation(vectors[i], vectors[j], window) for i, j in zip(first, second)]
                order = [check_order_condition(v, window) for v in vectors]
                seen.update(relation + commutation + order)
                for k in range(len(first)):
                    verdicts = oracle._check_pairs(family, first[k : k + 1], second[k : k + 1], p)
                    assert verdicts == (relation[k], commutation[k]), (p, sites, k)
                assert oracle._check_pairs(family, first, second, p) == (all(relation), all(commutation))
                for k in range(len(family)):
                    assert oracle._check_family(family[k : k + 1], p) == (True, order[k])
                assert oracle._check_family(family, p) == (True, all(order))
    assert seen == {True, False}


def test_batched_commutation_exponent_without_a_phase():
    # w(e_plus) and w(e_minus) on two cells: sigma is 1 one way round and 2 the other
    w = oracle._weyl_batch(np.array([[[1, 0], [0, 0]], [[0, 1], [0, 0]]]), 3)
    assert oracle._commutation_exponents(w, w[::-1], 3).tolist() == [1, 2]
    bent = WeylOperator(w.row, w.phase.copy(), w.order)
    bent.phase[0, 4] += 1
    assert oracle._commutation_exponents(w, bent[::-1], 3).tolist() == [1, -1]
    moved = WeylOperator(w.row[:, ::-1].copy(), w.phase, w.order)
    assert oracle._commutation_exponents(moved, w[::-1], 3).tolist() == [-1, -1]


def pair_loop_clifford_action(s, phi, window, samples=512, seed=7):
    """check_clifford_action as a loop over PhaseVector pairs, three operators each."""
    radius = s.radius()
    inner = range(window.lo + radius, window.hi - radius + 1)
    p = window.p
    step = phi.order // p

    def pair_ok(xi, eta):
        lhs = weyl_matrix(s.apply(xi), window) @ weyl_matrix(s.apply(eta), window)
        rhs = weyl_matrix(s.apply(xi + eta), window)
        lhs_phase = phi.evaluate(xi) + phi.evaluate(eta)
        rhs_phase = phi.evaluate(xi + eta) - step * beta(xi, eta)
        return lhs.scaled(lhs_phase - rhs_phase) == rhs

    if (p * p) ** (2 * len(inner)) <= oracle.CLIFFORD_EXHAUSTIVE_PAIRS:
        vectors = []
        for values in product(product(range(p), repeat=2), repeat=len(inner)):
            plus = {x: a for x, (a, _) in zip(inner, values) if a}
            minus = {x: b for x, (_, b) in zip(inner, values) if b}
            vectors.append(PhaseVector(LaurentPoly(p, 1, plus), LaurentPoly(p, 1, minus)))
        return all(pair_ok(xi, eta) for xi in vectors for eta in vectors)
    rng = random.Random(seed)
    return all(
        pair_ok(PhaseVector.random(rng, p, inner), PhaseVector.random(rng, p, inner))
        for _ in range(samples)
    )


def test_batched_clifford_action_matches_the_pair_loop(monkeypatch):
    verdicts = []
    for p in (2, 3, 5):
        one = LaurentPoly.one(p, 1)
        b1 = LaurentPoly(p, 1, {1: 1, -1: 1})
        automata = [
            shear_g(p, 1, 1),
            local_f(p, 1),
            from_recipe(one + b1, one),
            shear_g(p, 1, 1) @ local_f(p, 1),
        ]
        for s, other in zip(automata, automata[1:] + automata[:1]):
            phases = [
                default_phase(s),
                PhaseFunction(s, 1, 0),
                PhaseFunction(s, 0, 1),
                default_phase(other),
            ]
            # One inner cell is checked exhaustively by default (625 pairs at
            # p = 5, left to the sampled run), two inner cells exhaustively at
            # p = 2 and by sampling at odd p.
            narrow = Window(p, 0, 2 * s.radius())
            exhaustive = oracle.CLIFFORD_EXHAUSTIVE_PAIRS
            runs = [
                (narrow, 1, {"samples": 24}),
                (Window(p, 0, 2 * s.radius() + 1), exhaustive, {"samples": 24, "seed": p}),
            ]
            if p < 5:
                runs.append((narrow, exhaustive, {}))
            for phi in phases:
                for window, pairs, kwargs in runs:
                    monkeypatch.setattr(oracle, "CLIFFORD_EXHAUSTIVE_PAIRS", pairs)
                    expected = pair_loop_clifford_action(s, phi, window, **kwargs)
                    assert check_clifford_action(s, phi, window, **kwargs) == expected, (p, s, phi, window)
                    verdicts.append(expected)
    assert True in verdicts and False in verdicts


# -- integer-coded families and one operator build per block ----------------------


def window_sites(p):
    """The most cells of a window at p: p**sites <= MAX_WINDOW_DIM."""
    sites = 1
    while p ** (sites + 1) <= MAX_WINDOW_DIM:
        sites += 1
    return sites


@st.composite
def coded_families(draw):
    """A prime, and a (vectors, sites, 2) family with repeats, zero and all-(p - 1) vectors."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    sites = draw(st.integers(1, window_sites(p)))
    vector = st.lists(st.integers(0, p - 1), min_size=2 * sites, max_size=2 * sites)
    pool = draw(st.lists(vector, min_size=1, max_size=6))
    pool += [[0] * (2 * sites), [p - 1] * (2 * sites)]
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    return p, np.array(rows, dtype=np.int64).reshape(-1, sites, 2)


@settings(max_examples=100)
@given(coded_families())
@example((2, np.array([[[1, 1]] * 12, [[0, 0]] * 12, [[1, 1]] * 12, [[0, 1]] * 12], dtype=np.int64)))
def test_distinct_vectors_match_unique_rows(case):
    p, family = case
    distinct, inverse = oracle._distinct_vectors(family, p)
    rows, want = np.unique(family.reshape(len(family), -1), axis=0, return_inverse=True)
    assert distinct.shape == (len(rows),) + family.shape[1:]
    assert np.array_equal(distinct.reshape(len(rows), -1), rows)
    assert np.array_equal(inverse, want.ravel())
    assert np.array_equal(distinct[inverse], family)


def test_one_weyl_build_equals_three():
    rng = random.Random(13)
    for p, sites in ((2, 4), (3, 3), (5, 2), (7, 2)):
        parts = [random_family(rng, p, sites, count) for count in (5, 3, 5)]
        whole = oracle._weyl_batch(np.concatenate(parts), p)
        start = 0
        for part in parts:
            assert whole[start : start + len(part)] == oracle._weyl_batch(part, p)
            start += len(part)


@pytest.mark.parametrize(
    "s, window",
    [
        (shear_g(2, 1, 1), Window(2, 0, 2)),  # 16 pairs: exhaustive
        (shear_g(3, 1, 1), Window(3, 0, 3)),  # 6561 pairs: sampled
    ],
    ids=["exhaustive", "sampled"],
)
def test_clifford_action_catches_one_wrong_image_or_phase(s, window, monkeypatch):
    phi = default_phase(s)
    assert check_clifford_action(s, phi, window, samples=64)
    apply_window, evaluate_batch = ScaMatrix.apply_window, PhaseFunction.evaluate_batch
    p = window.p
    for member in (0, 1, -1):

        def wrong_image(self, coeffs):
            images = apply_window(self, coeffs)
            images[member, window.sites // 2, 0] = (images[member, window.sites // 2, 0] + 1) % p
            return images

        def wrong_phase(self, coeffs):
            phases = evaluate_batch(self, coeffs)
            phases[member] = (phases[member] + 1) % self.order
            return phases

        for owner, name, patch in (
            (ScaMatrix, "apply_window", wrong_image),
            (PhaseFunction, "evaluate_batch", wrong_phase),
        ):
            monkeypatch.setattr(owner, name, patch)
            assert not check_clifford_action(s, phi, window, samples=64), (name, member)
            monkeypatch.undo()
