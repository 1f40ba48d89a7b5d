"""Acceptance gate: eight binding criteria, one test per criterion.

Each test asserts the full property and drops a PASS/FAIL line into the
terminal summary block (see conftest.record_criterion).
"""

import random
from time import perf_counter

import pytest

from cqca import (
    LaurentPoly,
    NotSymplectic,
    PhaseVector,
    ScaMatrix,
    Shift,
    basis_element,
    classify,
    factorize,
    form_sigma_poly,
    from_recipe,
    identity,
    local_f,
    multiply_word,
    random_word,
    shear_g,
    sigma,
)
from cqca.oracle import run_selftest

PRIMES = (2, 3, 5)
WORDS_PER_PRIME = 350
SUITE_SEED = 424243


def build_suite():
    """Word-built matrices plus single-coefficient corruptions, per prime."""
    master = random.Random(SUITE_SEED)
    words = []
    corrupted = []
    for p in PRIMES:
        for _ in range(WORDS_PER_PRIME):
            w = random_word(p, master.randint(0, 8), 3, seed=master.randrange(2**30))
            s = multiply_word(w)
            words.append((p, s))
            bump = LaurentPoly.monomial(
                p, 1, master.randint(-3, 3), master.randint(1, p - 1)
            )
            slot = master.randrange(4)
            flat = [s.pp, s.pm, s.mp, s.mm]
            flat[slot] = flat[slot] + bump
            corrupted.append((p, ScaMatrix(*flat)))
    return words, corrupted


@pytest.fixture(scope="module")
def suite_one():
    return build_suite()


def random_vector(rng, p, d=1, span=4):
    if d == 1:
        cells = [x for x in range(-span, span + 1)]
    else:
        half = max(1, span // 2)
        cells = [
            (x, y) for x in range(-half, half + 1) for y in range(-half, half + 1)
        ]
    plus = {x: rng.randrange(p) for x in rng.sample(cells, k=min(4, len(cells)))}
    minus = {x: rng.randrange(p) for x in rng.sample(cells, k=min(4, len(cells)))}
    return PhaseVector(LaurentPoly(p, d, plus), LaurentPoly(p, d, minus))


def test_criterion_1_symplectic_classify_equivalence(suite_one, record_criterion):
    words, corrupted = suite_one
    instances = words + corrupted
    assert len(words) >= 1000 and len(corrupted) >= 1000
    start = perf_counter()
    disagreements = 0
    for p, s in instances:
        direct = s.is_symplectic()
        try:
            classify(s)
            classified = True
        except NotSymplectic:
            classified = False
        if direct != classified:
            disagreements += 1
    elapsed = perf_counter() - start
    passed = disagreements == 0 and elapsed < 30.0
    record_criterion(
        1,
        "is_symplectic matches classification success",
        passed,
        f"{len(instances)} instances in {elapsed:.2f}s, limit 30s",
    )
    assert disagreements == 0
    assert elapsed < 30.0


def test_criterion_2_factorization_round_trip(suite_one, record_criterion):
    words, _ = suite_one
    checked = 0
    worst = 0.0
    for p, s in words:
        if max(e.degree() for e in (s.pp, s.pm, s.mp, s.mm)) > 24:
            continue
        start = perf_counter()
        word = factorize(s)
        elapsed = perf_counter() - start
        worst = max(worst, elapsed)
        assert elapsed < 1.0
        assert multiply_word(word) == s
        shifts = [l.a for l in word.letters if isinstance(l, Shift)]
        recovered = shifts[0] if shifts else 0
        assert (recovered,) == classify(s).shift
        checked += 1
    record_criterion(
        2,
        "multiply_word(factorize(s)) == s with matching shift",
        True,
        f"{checked} matrices, worst case {worst * 1000:.0f}ms, limit 1s each",
    )
    assert checked >= 1000


def test_criterion_3_form_preservation(record_criterion):
    rng = random.Random(515253)
    count = 0
    for p in PRIMES:
        for _ in range(334):
            s = multiply_word(random_word(p, rng.randint(0, 5), 3, seed=rng.randrange(2**30)))
            xi = random_vector(rng, p)
            eta = random_vector(rng, p)
            assert sigma(s.apply(xi), s.apply(eta)) == sigma(xi, eta)
            assert form_sigma_poly(s.apply(xi), s.apply(eta)) == form_sigma_poly(xi, eta)
            count += 1
    record_criterion(
        3,
        "sigma and the polynomial form survive automaton application",
        True,
        f"{count} random (s, xi, eta) triples, exact equality",
    )
    assert count >= 1000


def test_criterion_4_sigma_consistency(record_criterion):
    # The polynomial form collects sigma against translates: coefficient x
    # equals sigma(xi, translate(eta, -x)).
    rng = random.Random(616263)
    count = 0
    for d in (1, 2):
        for _ in range(500):
            p = PRIMES[count % 3]
            xi = random_vector(rng, p, d=d, span=3 if d == 1 else 4)
            eta = random_vector(rng, p, d=d, span=3 if d == 1 else 4)
            poly = form_sigma_poly(xi, eta)
            candidates = set(poly.support())
            for a in list(xi.plus.support()) + list(xi.minus.support()):
                for b in list(eta.plus.support()) + list(eta.minus.support()):
                    if d == 1:
                        candidates.add(b - a)
                        candidates.add(a - b)
                    else:
                        candidates.add(tuple(v - w for v, w in zip(b, a)))
                        candidates.add(tuple(w - v for v, w in zip(b, a)))
            candidates.add(0 if d == 1 else (0,) * d)
            for x in candidates:
                back = -x if d == 1 else tuple(-v for v in x)
                assert poly.coeff(x) == sigma(xi, eta.translate(back))
            count += 1
    record_criterion(
        4,
        "coefficientwise sigma consistency of the polynomial form",
        True,
        f"{count} random pairs across d=1 and d=2, exact",
    )
    assert count == 1000


def test_criterion_5_oracle_suite(record_criterion):
    start = perf_counter()
    reports = run_selftest(2, 4) + run_selftest(3, 3)
    elapsed = perf_counter() - start
    failing = [r for r in reports if not r["pass"]]
    passed = not failing and elapsed < 60.0
    record_criterion(
        5,
        "exact operator-oracle suite on 4-site (p=2) and 3-site (p=3) windows",
        passed,
        f"{len(reports)} report blocks in {elapsed:.1f}s, limit 60s",
    )
    assert not failing
    assert elapsed < 60.0


def test_oracle_suite_on_wider_windows():
    # beside criterion 5: 8 sites at p = 2 and 5 at p = 3, each past the pair budget
    start = perf_counter()
    reports = run_selftest(2, 8) + run_selftest(3, 5)
    elapsed = perf_counter() - start
    assert [r["check"] for r in reports if not r["pass"]] == []
    assert [r["cases"] for r in reports if r["check"] == "weyl_relation"] == [2**16, 2**16]
    assert elapsed < 60.0


def test_criterion_6_light_cone(suite_one, record_criterion):
    words, _ = suite_one
    for p, s in words:
        radius = s.radius()
        xi = PhaseVector.e_plus(p)
        for t in range(1, 11):
            xi = s.apply(xi)
            support = xi.support()
            assert support, "symplectic automata never annihilate a unit vector"
            assert -t * radius <= support[0] and support[-1] <= t * radius
    for p in PRIMES:
        for n in range(7):
            image = shear_g(p, n, 1).apply(PhaseVector.e_plus(p))
            assert set(image.support()) == ({-n, 0, n} if n else {0})
    record_criterion(
        6,
        "supports stay inside the radius-t cone; shears hit {-n, 0, n}",
        True,
        f"{len(words)} automata over 10 steps",
    )


def test_criterion_7_recipe_validity(record_criterion):
    rng = random.Random(717273)
    failures = 0
    for i in range(100):
        p = PRIMES[i % 3]
        f = LaurentPoly.zero(p, 1)
        h = LaurentPoly.zero(p, 1)
        for n in range(7):
            f = f + rng.randrange(p) * basis_element(p, n)
            h = h + rng.randrange(p) * basis_element(p, n)
        s = from_recipe(f, h)
        if not s.is_symplectic():
            failures += 1
    record_criterion(
        7,
        "trivially completed palindrome recipes are symplectic",
        failures == 0,
        "100 random pairs with degrees up to 6, zero failures",
    )
    assert failures == 0


def test_criterion_8_generator_sanity(record_criterion):
    one = {p: LaurentPoly.one(p, 1) for p in PRIMES}
    for p in PRIMES:
        zero = LaurentPoly.zero(p, 1)
        minus_one = LaurentPoly.constant(p, 1, p - 1)
        for c in range(1, p):
            f = local_f(p, c)
            assert f.is_symplectic()
            assert f.det() == one[p]
            for n in range(7):
                assert shear_g(p, n, c).is_symplectic()
        f1 = local_f(p, 1)
        minus_identity = ScaMatrix(minus_one, zero, zero, minus_one)
        assert f1 @ f1 == minus_identity
        if p == 2:
            assert f1 @ f1 == identity(p, 1)
    record_criterion(
        8,
        "local and shear generators are symplectic with unit determinant",
        True,
        "all c in F_p*, n up to 6, p in {2, 3, 5}",
    )
