"""Arithmetic in the prime field F_p.

Field elements are plain ints reduced to [0, p): the coefficients of
Laurent polynomials, the values of the phase-space forms, matrix entries.
The modulus is an ordinary runtime value carried by the objects built on
top, so a single process can work over several fields at once.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["PRIME_CAP", "is_prime", "check_prime", "inv_mod"]


# The first 13 primes as Miller-Rabin bases decide primality exactly for
# every n below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_CAP = 3317044064679887385961981


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n below PRIME_CAP (about 3.3e24).

    Larger n raise ValueError, since these bases are not proven exact there.
    """
    if n >= PRIME_CAP:
        raise ValueError(f"{n} is beyond the primality cap {PRIME_CAP}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    odd, s = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p) -> int:
    """Return ``p`` unchanged, raising ValueError unless it is a prime int below PRIME_CAP."""
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise ValueError(f"modulus must be a prime integer, got {p!r}")
    return p


def inv_mod(a: int, p: int) -> int:
    """Multiplicative inverse of ``a`` modulo the prime ``p``."""
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 is not invertible mod {p}")
    return pow(a, p - 2, p)
