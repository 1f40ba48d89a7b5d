"""Tests for modular arithmetic: primality and inverses mod p."""

import pytest

from cqca import check_prime, inv_mod, is_prime
from cqca.ffield import PRIME_CAP


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-2, 32):
        assert is_prime(n) == (n in primes)
    assert is_prime(10**18 + 3)
    assert is_prime(1048573) and is_prime(2147483647)
    assert not is_prime(3215031751)  # strong pseudoprime to the bases 2, 3, 5, 7
    assert not is_prime(561)  # Carmichael number


def test_check_prime_returns_value():
    assert check_prime(2) == 2
    assert check_prime(31) == 31


def test_check_prime_rejects_bad_moduli():
    for bad in (0, 1, 4, 6, 9, 100, -7, 3215031751, PRIME_CAP + 4):
        with pytest.raises(ValueError):
            check_prime(bad)
    # bool is an int subclass but not an acceptable modulus
    with pytest.raises(ValueError):
        check_prime(True)
    with pytest.raises(ValueError):
        check_prime(2.0)


def test_inv_mod_matches_definition():
    for p in (2, 3, 5, 7, 11, 31):
        for a in range(1, p):
            assert inv_mod(a, p) * a % p == 1
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 5)
    with pytest.raises(ZeroDivisionError):
        inv_mod(10, 5)


def test_double_inverse_is_identity():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for a in range(1, p):
            assert inv_mod(inv_mod(a, p), p) == a
