"""Arithmetic in the prime field F_p.

Field elements are plain ints reduced to [0, p): the coefficients of
Laurent polynomials, the values of the phase-space forms, matrix entries.
The modulus is an ordinary runtime value carried by the objects built on
top, so a single process can work over several fields at once.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["is_prime", "check_prime", "inv_mod"]


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test, meant for small moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_prime(p) -> int:
    """Return ``p`` unchanged, raising ValueError unless it is a prime int."""
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise ValueError(f"modulus must be a prime integer, got {p!r}")
    return p


def inv_mod(a: int, p: int) -> int:
    """Multiplicative inverse of ``a`` modulo the prime ``p``."""
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 is not invertible mod {p}")
    return pow(a, p - 2, p)
