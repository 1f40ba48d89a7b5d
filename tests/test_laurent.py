"""Tests for sparse Laurent polynomial arithmetic and the palindrome subring."""

import itertools
import random
import re
from collections import Counter

import numpy as np
import pytest

from cqca import (
    LaurentPoly,
    PhaseVector,
    basis_element,
    identity,
    palindrome_coeffs,
    palindrome_divmod,
    palindromize,
)
from cqca import laurent
from cqca.laurent import NEG_INF, coefficient_dtype


def oracle_mul(f, g):
    """Convolution straight from the definition, independent of LaurentPoly.__mul__.

    Walks every pair of terms with plain Python ints and rebuilds the result
    through the canonicalizing constructor.
    """
    acc = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            acc[key] = acc.get(key, 0) + c1 * c2
    return LaurentPoly(f.p, f.d, acc)


def poly(p, terms, d=1):
    return LaurentPoly(p, d, terms)


def rand_poly(rng, p, d=1, max_terms=4, span=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(-span, span) for _ in range(d))
        terms[e] = rng.randint(0, p - 1)
    return LaurentPoly(p, d, terms)


def box_poly(rng, p, spans, lo, coeff=None):
    """Nonzero coefficient on every cell of the box lo .. lo + spans."""
    terms = {}
    for e in itertools.product(*(range(a, a + s + 1) for a, s in zip(lo, spans))):
        terms[e] = coeff if coeff is not None else rng.randint(1, p - 1)
    return LaurentPoly(p, len(spans), terms)


def counted(fn, name, counts):
    """fn, counting its calls in counts[name]."""

    def wrapper(*args):
        counts[name] += 1
        return fn(*args)

    return wrapper


def rand_palindrome(rng, p, half_span):
    g = rand_poly(rng, p, 1, max_terms=4, span=half_span)
    return palindromize(g) + LaurentPoly.constant(p, 1, rng.randrange(p))


# -- frozen examples ---------------------------------------------------------


def test_add_examples():
    one_u = poly(2, {0: 1, 1: 1})
    assert one_u + one_u == LaurentPoly.zero(2)
    f = poly(5, {-2: 3, 1: 4})
    assert f + LaurentPoly.zero(5) == f
    assert poly(3, {1: 1, -1: 1}) + poly(3, {0: 1}) == poly(3, {-1: 1, 0: 1, 1: 1})


def test_mul_example_char2_telescope():
    f = poly(2, {0: 1, 1: 1})
    g = poly(2, {0: 1, -1: 1})
    expected = poly(2, {1: 1, -1: 1})
    assert f * g == expected
    assert oracle_mul(f, g) == expected


def test_mul_monomial_law_and_identity():
    for p in (2, 3, 5):
        for a in (-3, 0, 2):
            for b in (-1, 4):
                ua = LaurentPoly.monomial(p, 1, a)
                ub = LaurentPoly.monomial(p, 1, b)
                assert ua * ub == LaurentPoly.monomial(p, 1, a + b)
        f = poly(p, {-1: 1, 0: p - 1, 3: 1})
        assert f * LaurentPoly.one(p) == f


def test_reflect_examples():
    assert poly(3, {1: 1}).reflect() == poly(3, {-1: 1})
    assert poly(5, {0: 1, 1: 1, 2: 1}).reflect() == poly(5, {0: 1, -1: 1, -2: 1})
    pal = poly(2, {1: 1, -1: 1})
    assert pal.reflect() == pal


def test_is_palindrome_examples():
    assert poly(3, {0: 1, 1: 1, -1: 1}).is_palindrome()
    assert not poly(3, {1: 1}).is_palindrome()
    assert LaurentPoly.zero(3).is_palindrome()


def test_palindromize_examples():
    assert palindromize(poly(3, {1: 1})) == poly(3, {1: 1, -1: 1})
    assert palindromize(LaurentPoly.one(2)) == LaurentPoly.zero(2)
    assert palindromize(LaurentPoly.one(5)) == LaurentPoly.constant(5, 1, 2)
    assert palindromize(poly(3, {1: 1, 2: 1})) == poly(
        3, {1: 1, 2: 1, -1: 1, -2: 1}
    )


def test_degree_examples():
    assert poly(2, {3: 1, 0: 1, -3: 1}).degree() == 3
    assert LaurentPoly.constant(7, 1, 5).degree() == 0
    assert LaurentPoly.zero(7).degree() == NEG_INF
    assert NEG_INF < -(10**9)
    with pytest.raises(ValueError):
        LaurentPoly.one(3, 2).degree()


def test_palindrome_divmod_examples():
    f = poly(2, {2: 1, -2: 1})
    h = poly(2, {1: 1, -1: 1})
    q, r = palindrome_divmod(f, h)
    assert q == h and r.is_zero()
    assert oracle_mul(q, h) + r == f

    g = poly(5, {2: 3, 0: 1, -2: 3})
    q, r = palindrome_divmod(g, g)
    assert q == LaurentPoly.one(5) and r.is_zero()

    small = poly(5, {1: 2, -1: 2})
    q, r = palindrome_divmod(small, g)
    assert q.is_zero() and r == small


def test_is_unit_examples():
    assert poly(5, {2: 3}).is_unit()
    assert not poly(5, {0: 1, 1: 1}).is_unit()
    assert not LaurentPoly.zero(5).is_unit()


# -- representation invariants ------------------------------------------------


def test_canonical_form_drops_zeros():
    f = LaurentPoly(3, 1, {0: 3, 1: 0, 2: 6})
    assert f.terms == {}
    assert f.is_zero()
    g = LaurentPoly(3, 1, {1: 2, -1: 4})
    assert g == LaurentPoly(3, 1, {1: -1, -1: 1})
    assert all(c for c in g.terms.values())


def test_constructor_accumulates_and_validates():
    assert LaurentPoly(2, 1, {5: 1}) == LaurentPoly(2, 1, {(5,): 1})
    with pytest.raises(ValueError):
        LaurentPoly(4, 1, {0: 1})
    with pytest.raises(ValueError):
        LaurentPoly(3, 2, {(1,): 1})
    with pytest.raises(TypeError):
        LaurentPoly(3, 1, {(1.5,): 1})


@pytest.mark.parametrize("d", [0, -1, 63, 1.0])
@pytest.mark.parametrize(
    "make",
    [
        lambda d: LaurentPoly(3, d, {}),
        lambda d: LaurentPoly.zero(3, d),
        lambda d: LaurentPoly.one(3, d),
        lambda d: LaurentPoly.constant(3, d, 2),
        lambda d: LaurentPoly.monomial(3, d, 0),
        lambda d: identity(3, d),
        lambda d: PhaseVector.e_plus(3, d),
        lambda d: PhaseVector.e_minus(3, d),
    ],
    ids=["init", "zero", "one", "constant", "monomial", "identity", "e_plus", "e_minus"],
)
def test_constructors_refuse_a_bad_variable_count(make, d):
    """Every constructor checks d as the LaurentPoly constructor does."""
    message = f"number of variables {d} exceeds 62" if d == 63 else f"number of variables must be a positive int, got {d!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        make(d)


def test_ring_mismatch_raises():
    f = LaurentPoly.one(2)
    g = LaurentPoly.one(3)
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        f * g
    with pytest.raises(ValueError):
        LaurentPoly.one(2, 1) * LaurentPoly.one(2, 2)


def test_scalar_multiplication():
    f = poly(5, {0: 1, 2: 3})
    assert 2 * f == poly(5, {0: 2, 2: 1})
    assert f * 0 == LaurentPoly.zero(5)
    assert f * 6 == f


def test_shifted_and_support():
    f = poly(3, {0: 1, 2: 2})
    assert f.shifted(-2) == poly(3, {-2: 1, 0: 2})
    assert f.support() == [0, 2]
    g = LaurentPoly(3, 2, {(0, 1): 1, (-1, 0): 2})
    assert g.support() == [(-1, 0), (0, 1)]
    assert g.shifted((1, 1)) == LaurentPoly(3, 2, {(1, 2): 1, (0, 1): 2})


def test_pow_matches_repeated_product():
    rng = random.Random(21)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        f = rand_poly(rng, p)
        n = rng.randint(0, 5)
        acc = LaurentPoly.one(p)
        for _ in range(n):
            acc = oracle_mul(acc, f)
        assert f**n == acc
    with pytest.raises(ValueError):
        LaurentPoly.one(3) ** -1


# -- randomized ring properties ------------------------------------------------


def test_mul_matches_oracle_randomized():
    rng = random.Random(22)
    for _ in range(2000):
        p = rng.choice([2, 3, 5, 17])
        d = rng.choice([1, 1, 1, 2])
        span = rng.choice([3, 3, 9, 40])
        f = rand_poly(rng, p, d, max_terms=5, span=span)
        g = rand_poly(rng, p, d, max_terms=5, span=span)
        assert f * g == oracle_mul(f, g)

    # Full boxes take the dense path in any number of variables, including
    # 2-D windows whose rows differ in width (the Kronecker padding).
    for _ in range(300):
        p = rng.choice([2, 3, 5, 17])
        d = rng.choice([1, 2, 2, 3])
        f, g = (
            box_poly(
                rng, p, [rng.randint(0, 5) for _ in range(d)], [rng.randint(-3, 3) for _ in range(d)]
            )
            for _ in range(2)
        )
        if len(f.terms) > 1 and len(g.terms) > 1:
            assert f._mul_dense(g) == oracle_mul(f, g)
        assert f * g == oracle_mul(f, g)

    # Windows at the product budget with every coefficient p - 1.  Since
    # (p-1)^2 = 1 mod p, each product coefficient is the number of pairs
    # landing on it.
    p = 1048573
    for shape in ([2048], [32, 32]):
        full = box_poly(rng, p, [n - 1 for n in shape], [0] * len(shape), coeff=p - 1)
        product = full._mul_dense(full)
        expected = {}
        for e in product.terms:
            count = 1
            for k, n in zip(e, shape):
                count *= min(k + 1, 2 * n - 1 - k)
            expected[e] = count % p
        assert len(product.terms) == len(expected) > 0
        assert product.terms == expected
        assert full * full == product

    # Hollow pairs stay on the sparse walk.
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        d = rng.choice([1, 2])
        f = rand_poly(rng, p, d, max_terms=5, span=3) + LaurentPoly.monomial(p, d, (1000,) * d)
        g = rand_poly(rng, p, d, max_terms=5, span=3) + LaurentPoly.monomial(p, d, (-999,) * d)
        if len(f.terms) > 1 and len(g.terms) > 1:
            assert f._mul_dense(g) is None
        assert f * g == oracle_mul(f, g)

    # So do contiguous supports whose exponents do not fit an int64 window.
    for p, shift in ((3, 2**62), (5, -(2**70))):
        f = box_poly(rng, p, [4], [shift])
        assert f._mul_dense(f) is None
        assert f * f == oracle_mul(f, f)


def test_dense_path_takes_every_prime(monkeypatch):
    """Non-hollow products take the dense path whatever the size of p."""

    def no_sparse(self, other):
        raise AssertionError("a non-hollow product reached the sparse walk")

    monkeypatch.setattr(LaurentPoly, "_mul_sparse", no_sparse)
    rng = random.Random(24)
    for p in (1048583, 2**31 - 1):
        for _ in range(100):
            d = rng.choice((1, 1, 2))
            f, g = (
                box_poly(rng, p, [rng.randint(1, 6) for _ in range(d)], [rng.randint(-3, 3) for _ in range(d)])
                for _ in range(2)
            )
            assert f * g == oracle_mul(f, g)


def test_dense_path_takes_products_of_any_size(monkeypatch):
    """A 4000-term product that is not hollow is one convolution, not a sparse walk."""

    def no_sparse(self, other):
        raise AssertionError("a non-hollow product reached the sparse walk")

    monkeypatch.setattr(LaurentPoly, "_mul_sparse", no_sparse)
    rng = random.Random(25)
    p = 3
    # every third cell empty: 4000 terms on 6000 cells
    a = np.array([0 if k % 3 == 2 else rng.randint(1, p - 1) for k in range(6000)])
    b = np.array([rng.randint(1, p - 1) for _ in range(4000)])
    f = LaurentPoly(p, 1, {k - 3000: int(c) for k, c in enumerate(a) if c})
    g = LaurentPoly(p, 1, {k + 17: int(c) for k, c in enumerate(b)})
    assert len(f.terms) == len(g.terms) == 4000
    want = np.convolve(a, b) % p
    assert (f * g).terms == {(k - 2983,): int(c) for k, c in enumerate(want) if c}


def test_dense_dtype_boundary_matches_sparse():
    """Products either side of the int64 bound 2p + n p^2 < 2^63 are exact.

    n is the length of the shorter window.  At this p a shorter window of
    200 cells still sums in int64 and one of 201 cells needs Python ints;
    with every coefficient p - 1 the middle cells of the int64 product come
    within 2^40 of 2^63.
    """
    p = 214748357
    assert 2 * p + 200 * p * p < 2**63 <= 2 * p + 201 * p * p
    assert coefficient_dtype(p, 200) is np.int64 and coefficient_dtype(p, 201) is object
    g = box_poly(None, p, [299], [-150], coeff=p - 1)
    for n in (200, 201):
        f = box_poly(None, p, [n - 1], [7], coeff=p - 1)
        product = f._mul_dense(g)
        assert product is not None
        assert product.terms == f._mul_sparse(g).terms


def test_ring_axioms_randomized():
    rng = random.Random(23)
    cases = 0
    while cases < 10000:
        p = rng.choice([2, 3, 5])
        d = rng.choice([1, 2])
        f = rand_poly(rng, p, d)
        g = rand_poly(rng, p, d)
        h = rand_poly(rng, p, d)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + (-f) == LaurentPoly.zero(p, d)
        cases += 1


def test_no_zero_divisors():
    rng = random.Random(24)
    for _ in range(3000):
        p = rng.choice([2, 3, 5])
        d = rng.choice([1, 2])
        f = rand_poly(rng, p, d)
        g = rand_poly(rng, p, d)
        if (f * g).is_zero():
            assert f.is_zero() or g.is_zero()


def test_reflect_is_ring_involution():
    rng = random.Random(25)
    for _ in range(2000):
        p = rng.choice([2, 3, 5])
        d = rng.choice([1, 2])
        f = rand_poly(rng, p, d)
        g = rand_poly(rng, p, d)
        assert f.reflect().reflect() == f
        assert (f * g).reflect() == f.reflect() * g.reflect()
        assert (f + g).reflect() == f.reflect() + g.reflect()


def test_palindromes_closed_under_ring_ops():
    rng = random.Random(26)
    for _ in range(1000):
        p = rng.choice([2, 3, 5])
        a = rand_palindrome(rng, p, 4)
        b = rand_palindrome(rng, p, 4)
        assert (a + b).is_palindrome()
        assert (a * b).is_palindrome()


def test_palindrome_divmod_randomized():
    rng = random.Random(27)
    done = 0
    while done < 10000:
        p = rng.choice([2, 3, 5])
        f = rand_palindrome(rng, p, rng.choice([3, 8, 24]))
        h = rand_palindrome(rng, p, rng.choice([2, 6, 12]))
        if h.is_zero():
            continue
        q, r = palindrome_divmod(f, h)
        assert q * h + r == f
        assert q.is_palindrome() and r.is_palindrome()
        assert r.is_zero() or r.degree() < h.degree()
        done += 1


def test_palindrome_divmod_rejects_bad_input():
    pal = poly(3, {1: 1, -1: 1})
    with pytest.raises(ZeroDivisionError):
        palindrome_divmod(pal, LaurentPoly.zero(3))
    with pytest.raises(ValueError):
        palindrome_divmod(poly(3, {1: 1}), pal)
    with pytest.raises(ValueError):
        palindrome_divmod(pal, poly(3, {1: 1}))


def test_symmetric_basis_product_law():
    # b_m * b_n = b_{m+n} + b_{|m-n|}, the diagonal picking up 2 instead of b_0
    for p in (2, 3, 5):
        two = LaurentPoly.constant(p, 1, 2)
        for m in range(1, 13):
            for n in range(1, 13):
                lhs = basis_element(p, m) * basis_element(p, n)
                if m == n:
                    rhs = basis_element(p, m + n) + two
                else:
                    rhs = basis_element(p, m + n) + basis_element(p, abs(m - n))
                assert lhs == rhs


def test_basis_element_edges():
    assert basis_element(3, 0) == LaurentPoly.one(3)
    assert basis_element(3, 2) == poly(3, {2: 1, -2: 1})
    with pytest.raises(ValueError):
        basis_element(3, -1)
    with pytest.raises(ValueError):
        basis_element(3, 1, d=2)


def test_palindrome_coeffs_round_trip():
    rng = random.Random(28)
    for _ in range(500):
        p = rng.choice([2, 3, 5])
        f = rand_palindrome(rng, p, 6)
        coeffs = palindrome_coeffs(f)
        rebuilt = LaurentPoly.zero(p)
        for n, c in coeffs.items():
            rebuilt = rebuilt + basis_element(p, n) * c
        assert rebuilt == f
    with pytest.raises(ValueError):
        palindrome_coeffs(poly(3, {1: 1}))


def test_str_rendering_is_deterministic_and_ascending():
    f = poly(5, {3: 1, -1: 2, 0: 1})
    assert str(f) == "2u^-1 + 1 + u^3"
    assert str(LaurentPoly.zero(5)) == "0"
    assert str(LaurentPoly.monomial(5, 1, 1)) == "u"
    assert str(LaurentPoly.monomial(5, 1, -2, 3)) == "3u^-2"
    g = LaurentPoly(3, 2, {(1, -1): 2, (0, 0): 1})
    assert str(g) == "1 + 2u1u2^-1"


def test_hash_consistency():
    a = poly(3, {1: 1, -1: 2})
    b = poly(3, {-1: 2, 1: 1})
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


# -- differential checks against sympy over GF(p) ----------------------------------

# 1048583 lays its dense windows out in int64, 2^31 - 1 as Python ints.
DIFF_PRIMES = (2, 3, 5, 1048573, 1048583, 2**31 - 1)


def to_sympy(f, gens, lo):
    """u^-lo * f as a sympy Poly over GF(p); lo bounds every exponent of f from below."""
    import sympy

    terms = {tuple(a - b for a, b in zip(e, lo)): c for e, c in f.terms.items()}
    return sympy.Poly.from_dict(terms or {(0,) * f.d: 0}, *gens, modulus=f.p)


def low_corner(f):
    return tuple(min((e[i] for e in f.terms), default=0) for i in range(f.d))


def test_mul_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1048573)
    for p in DIFF_PRIMES:
        for _ in range(60):
            d = rng.choice((1, 1, 2))
            gens = sympy.symbols("u1:%d" % (d + 1))
            spans = (3, 20, 400) if d == 1 else (3, 20)  # 400: hollow supports
            f = rand_poly(rng, p, d, max_terms=rng.choice((4, 40)), span=rng.choice(spans))
            g = rand_poly(rng, p, d, max_terms=rng.choice((4, 40)), span=rng.choice(spans))
            lo_f, lo_g = low_corner(f), low_corner(g)
            expected = to_sympy(f, gens, lo_f) * to_sympy(g, gens, lo_g)
            lo = tuple(a + b for a, b in zip(lo_f, lo_g))
            assert to_sympy(f * g, gens, lo) == expected, f"({f}) * ({g}) mod {p}"


_DICKSON = {}  # p -> coefficient lists of D_0, D_1, ..., lowest degree first


def to_x(f, x):
    """A palindrome as the polynomial in x = u + u^-1 it equals, via Dickson D_k.

    D_0 = 2, D_1 = x and D_k = x D_(k-1) - D_(k-2), since u^k + u^-k
    = (u + u^-1)(u^(k-1) + u^-(k-1)) - (u^(k-2) + u^-(k-2)).
    """
    import sympy

    p = f.p
    dickson = _DICKSON.setdefault(p, [[2], [0, 1]])
    top = max((e for (e,) in f.terms), default=0)
    while len(dickson) <= top:
        shifted, prev = [0] + dickson[-1], dickson[-2] + [0, 0]
        dickson.append([(a - b) % p for a, b in zip(shifted, prev)])
    out = [0] * (top + 1)
    out[0] = f.coeff(0)
    for (k,), c in f.terms.items():
        if k > 0:
            for i, a in enumerate(dickson[k]):
                out[i] += c * a
    return sympy.Poly(out[::-1], x, modulus=p)


def test_palindrome_divmod_matches_sympy(monkeypatch):
    """Both division paths agree with sympy: windows, and the term loop of hollow operands."""
    sympy = pytest.importorskip("sympy")
    paths = Counter()
    for name in ("_divmod_windows", "_palindrome_divmod_terms"):
        monkeypatch.setattr(laurent, name, counted(getattr(laurent, name), name, paths))
    x = sympy.Symbol("x")
    rng = random.Random(573)
    done = 0
    while done < 200:
        p = rng.choice(DIFF_PRIMES)
        f = rand_palindrome(rng, p, rng.choice([3, 8, 24, 120]))  # 120: often hollow
        h = rand_palindrome(rng, p, rng.choice([2, 6, 12, 60]))
        if h.is_zero():
            continue
        q, r = palindrome_divmod(f, h)
        gq, gr = sympy.div(to_x(f, x), to_x(h, x))
        assert (to_x(q, x), to_x(r, x)) == (gq, gr), f"({f}) / ({h}) mod {p}"
        done += 1
    assert paths["_divmod_windows"] > 100 and paths["_palindrome_divmod_terms"] > 20, paths
