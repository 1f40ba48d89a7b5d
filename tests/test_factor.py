"""Tests for generator words and the Euclidean factorization."""

import operator
import random
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cqca import (
    GeneratorWord,
    InvariantViolation,
    LaurentPoly,
    Local,
    NotOneDimensional,
    NotSymplectic,
    ScaMatrix,
    Shear,
    Shift,
    SymplecticCertificate,
    UpperShear,
    classify,
    factorize,
    identity,
    letter_matrix,
    local_f,
    multiply_word,
    random_word,
    shear_g,
    shift,
    upper_shear_g,
    word_from_json_list,
    word_to_json_list,
)
from cqca import factor, laurent


def poly(p, terms):
    return LaurentPoly(p, 1, terms)


def counted(fn, name, calls):
    """fn, appending name to calls on every call."""

    def wrapper(*args):
        calls.append(name)
        return fn(*args)

    return wrapper


# -- words and letters --------------------------------------------------------


def test_letter_matrix_mapping():
    assert letter_matrix(Shift(2), 3) == shift(3, 1, 2)
    assert letter_matrix(Shear(2, 2), 3) == shear_g(3, 2, 2)
    assert letter_matrix(UpperShear(1, 1), 3) == upper_shear_g(3, 1, 1)
    assert letter_matrix(Local(2), 3) == local_f(3, 2)


def test_multiply_word_examples():
    assert multiply_word(GeneratorWord(2, ())) == identity(2)
    assert multiply_word(GeneratorWord(3, (Shift(1),))) == shift(3, 1, 1)
    far = GeneratorWord(3, (Shift(2**70), Shear(1, 2)))  # exponents past int64
    assert multiply_word(far) == fold_reference(far)
    m = multiply_word(GeneratorWord(2, (Local(1), Shear(1, 1))))
    assert m == ScaMatrix(
        poly(2, {1: 1, -1: 1}),
        LaurentPoly.one(2),
        LaurentPoly.one(2),
        LaurentPoly.zero(2),
    )


def fold_reference(word):
    """The word multiplied out as one general matrix product per letter."""
    letters = (letter_matrix(let, word.p) for let in word.letters)
    return reduce(operator.matmul, letters, identity(word.p))


@st.composite
def generator_words(draw):
    """Words with every letter kind, a leading shift and hollow shear indices p^k."""
    p = draw(st.sampled_from((2, 3, 5, 1048573, 2**61 - 1)))
    unit = st.integers(1, p - 1)
    index = st.one_of(st.integers(0, 3), st.sampled_from((p, p**2)))
    letter = st.one_of(
        st.builds(Shear, index, unit),
        st.builds(UpperShear, index, unit),
        st.builds(Local, unit),
    )
    letters = draw(st.lists(letter, max_size=10))
    a = draw(st.integers(-3, 3))
    if a or not letters:
        letters = [Shift(a)] + letters
    return GeneratorWord(p, tuple(letters))


def reach(word):
    """Sum of the shear indices: the half-width of the word product's windows."""
    return sum(let.n for let in word.letters if isinstance(let, (Shear, UpperShear)))


# Words whose windows stay this small are also multiplied and factored on
# windows, whichever path their hollowness selects.
WINDOW_REACH = 1 << 12


@given(generator_words())
def test_multiply_word_matches_the_letter_matrix_fold(word):
    want = fold_reference(word)
    assert multiply_word(word) == want
    if reach(word) <= WINDOW_REACH:
        assert factor._multiply_word_windows(word, reach(word)) == want


def factorize_on(s, loop):
    """factorize(s) with loop as its Euclidean loop: the word and the step_hook degrees."""
    steps = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(factor, "_euclid_windows", loop)
        patch.setattr(factor, "_euclid_terms", loop)
        word = factorize(s, step_hook=lambda *degrees: steps.append(degrees))
    return word, steps


@given(generator_words())
def test_window_euclid_matches_the_term_loop(word):
    s = multiply_word(word)
    want = factorize_on(s, factor._euclid_terms)
    assert multiply_word(want[0]) == s
    if reach(word) <= WINDOW_REACH:
        assert factorize_on(s, factor._euclid_windows) == want


def test_unhollow_words_never_reach_a_term_loop(monkeypatch):
    """128-letter words multiply and factor on windows, at p = 3 and past int64 sums."""

    def no_term_loop(*args):
        raise AssertionError("a word that is not hollow reached a term loop")

    for owner, name in ((factor, "_euclid_terms"), (factor, "_multiply_word_terms"), (laurent, "_palindrome_divmod_terms")):
        monkeypatch.setattr(owner, name, no_term_loop)
    for p, seed in ((3, 91), (2**61 - 1, 92)):
        word = random_word(p, 128, 3, seed)
        s = multiply_word(word)
        assert s == fold_reference(word)
        steps = []
        recovered = factorize(s, step_hook=lambda *degrees: steps.append(degrees))
        assert multiply_word(recovered) == s
        assert len(steps) > 20


def test_far_shear_takes_the_term_loops(monkeypatch):
    """shear_g(3, 2^31 - 1) would need 2^32-cell windows; it stays on the term loops."""
    calls = []
    for name in ("_euclid_terms", "_multiply_word_terms", "_euclid_windows", "_multiply_word_windows"):
        monkeypatch.setattr(factor, name, counted(getattr(factor, name), name, calls))
    s = shear_g(3, 2**31 - 1)
    word = factorize(s)
    assert word.letters == (Shear(2**31 - 1, 1),)
    assert multiply_word(word) == s
    assert calls == ["_euclid_terms", "_multiply_word_terms"]


def test_word_invariants_enforced():
    with pytest.raises(ValueError):
        GeneratorWord(2, (Shear(1, 1), Shift(1)))
    with pytest.raises(ValueError):
        GeneratorWord(2, (Shift(1), Shift(2)))
    with pytest.raises(ValueError):
        GeneratorWord(2, (Shift(0), Local(1)))
    with pytest.raises(ValueError):
        GeneratorWord(2, (Shear(-1, 1),))
    with pytest.raises(ValueError):
        GeneratorWord(2, (Shear(1, 0),))
    with pytest.raises(ValueError):
        GeneratorWord(2, (Local(0),))
    with pytest.raises(ValueError):
        GeneratorWord(4, (Local(1),))
    with pytest.raises(TypeError):
        GeneratorWord(2, ("g1",))
    # the identity word may be spelled with a single zero shift
    assert multiply_word(GeneratorWord(2, (Shift(0),))) == identity(2)


def test_random_word_contract():
    assert random_word(3, 0, 3, seed=5).letters == ()
    w1 = random_word(3, 6, 3, seed=17)
    w2 = random_word(3, 6, 3, seed=17)
    assert w1 == w2
    assert multiply_word(w1).is_symplectic()
    assert random_word(3, 6, 3, seed=18) != w1


# -- factorization ------------------------------------------------------------


def test_factorize_fixes_generators():
    for p in (2, 3, 5):
        for n in range(1, 7):
            word = factorize(shear_g(p, n))
            assert word.letters == (Shear(n, 1),)
    assert factorize(shift(2, 1, 3)).letters == (Shift(3),)
    assert factorize(identity(5)).letters == ()


def test_factorize_requires_one_dimension():
    with pytest.raises(NotOneDimensional):
        factorize(identity(3, d=2))


def test_factorize_rejects_non_symplectic():
    u = LaurentPoly.monomial(2, 1, 1)
    one, zero = LaurentPoly.one(2), LaurentPoly.zero(2)
    with pytest.raises(NotSymplectic):
        factorize(ScaMatrix(one, u, zero, one))


def test_factorize_round_trip_randomized():
    rng = random.Random(61)
    for trial in range(1000):
        p = rng.choice([2, 3, 5])
        word = random_word(p, rng.randint(0, 8), 3, seed=trial)
        s = multiply_word(word)
        recovered = factorize(s)
        assert multiply_word(recovered) == s
        shifts = [let for let in recovered.letters if isinstance(let, Shift)]
        cert = classify(s)
        if cert.shift == (0,):
            assert not shifts
        else:
            assert shifts == [Shift(cert.shift[0])]


def test_factorize_shift_uniqueness():
    rng = random.Random(62)
    for trial in range(200):
        p = rng.choice([2, 3, 5])
        s = multiply_word(random_word(p, rng.randint(1, 6), 3, seed=rng.random()))
        for a in (-3, 1, 4):
            shifted = s.shifted(a)
            try:
                cert = classify(shifted)
            except NotSymplectic:
                continue
            word = factorize(shifted)
            lead = word.letters[0] if word.letters else Shift(0)
            got = lead.a if isinstance(lead, Shift) else 0
            assert (got,) == cert.shift


def test_euclidean_degrees_strictly_decrease():
    rng = random.Random(63)
    for trial in range(300):
        p = rng.choice([2, 3, 5])
        s = multiply_word(random_word(p, rng.randint(1, 8), 3, seed=rng.random()))
        sums = []

        def hook(du, dl):
            # degree(upper) + degree(lower) right before each division
            base = du if du > 0 else 0
            sums.append(base + dl)

        factorize(s, step_hook=hook)
        assert all(a > b for a, b in zip(sums, sums[1:]))
        max_deg = max(
            (e.degree() for row in s.entries() for e in row if not e.is_zero()),
            default=0,
        )
        assert len(sums) <= 2 * max_deg + 2


def test_word_length_stays_linear_in_degree():
    # regression metric: letters per unit of entry degree stays small
    rng = random.Random(64)
    worst = 0.0
    for trial in range(300):
        p = rng.choice([2, 3, 5])
        s = multiply_word(random_word(p, rng.randint(1, 8), 3, seed=rng.random()))
        max_deg = max(
            (e.degree() for row in s.entries() for e in row if not e.is_zero()),
            default=0,
        )
        word = factorize(s)
        worst = max(worst, len(word.letters) / (max_deg + 1))
    assert worst <= 8.0


def test_factorize_handles_constant_diagonal_tail():
    for p in (3, 5):
        for c in range(2, p):
            diag = ScaMatrix(
                LaurentPoly.constant(p, 1, c),
                LaurentPoly.zero(p),
                LaurentPoly.zero(p),
                LaurentPoly.constant(p, 1, pow(c, -1, p)),
            )
            word = factorize(diag)
            assert multiply_word(word) == diag


def test_factorize_upper_triangular_core():
    for p in (2, 3, 5):
        m = upper_shear_g(p, 2) @ upper_shear_g(p, 1)
        word = factorize(m)
        assert multiply_word(word) == m
        assert all(isinstance(let, UpperShear) for let in word.letters)


def test_factorize_raises_on_non_constant_tail(monkeypatch):
    from cqca import factor

    p = 3
    zero = LaurentPoly.zero(p, 1)
    core = ScaMatrix(poly(p, {-1: 1, 0: 1, 1: 1}), zero, zero, LaurentPoly.one(p, 1))
    monkeypatch.setattr(factor.sca, "classify", lambda s: SymplecticCertificate((0,), core))
    with pytest.raises(InvariantViolation, match=r"non-constant unit u\^-1 \+ 1 \+ u"):
        factorize(identity(p))


# -- serialization ---------------------------------------------------------------


def test_word_json_round_trip():
    rng = random.Random(65)
    for trial in range(200):
        p = rng.choice([2, 3, 5])
        word = random_word(p, rng.randint(0, 8), 3, seed=rng.random())
        data = word_to_json_list(word)
        assert word_from_json_list(p, data) == word


def test_word_json_example_and_errors():
    data = [{"shift": 2}, {"g": {"n": 1, "c": 1}}, {"f": {"c": 2}}]
    word = word_from_json_list(3, data)
    assert word.letters == (Shift(2), Shear(1, 1), Local(2))
    assert word_to_json_list(word) == data
    with pytest.raises(ValueError):
        word_from_json_list(3, [{"q": 1}])
    with pytest.raises(ValueError):
        word_from_json_list(3, [{"shift": 1, "g": {"n": 1, "c": 1}}])


@pytest.mark.parametrize(
    "letter",
    [
        {"g": {"n": 1.9, "c": True}},
        {"shift": "2"},
        {"f": {"c": 2.5}},
        {"g": 5},
        {"g": {"n": 1}},
        {"ug": {"n": 1, "c": 1, "x": 0}},
        {"shift": None},
    ],
)
def test_word_json_takes_only_integers(letter):
    """Only JSON integers are letter values: no float, string, boolean or missing member."""
    with pytest.raises(ValueError, match=r"^letter 1: "):
        word_from_json_list(3, [{"shift": 1}, letter])
