"""Brute-force checks of the dense convolution behind LaurentPoly products."""

import itertools
import random

from cqca import LaurentPoly


def brute_convolve(a, b, p):
    """Schoolbook reference convolution, independent of the product code."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def brute_convolve2d(a, b, p):
    n0, n1 = len(a), len(a[0])
    m0, m1 = len(b), len(b[0])
    out = [[0] * (n1 + m1 - 1) for _ in range(n0 + m0 - 1)]
    for i0 in range(n0):
        for i1 in range(n1):
            for j0 in range(m0):
                for j1 in range(m1):
                    out[i0 + j0][i1 + j1] = (
                        out[i0 + j0][i1 + j1] + a[i0][i1] * b[j0][j1]
                    ) % p
    return out


def from_window(p, window, lo):
    """The polynomial whose coefficient at lo + index is window[index]."""
    cells = itertools.product(*(range(n) for n in _shape(window)))
    terms = {}
    for idx in cells:
        c = window
        for i in idx:
            c = c[i]
        terms[tuple(x + i for x, i in zip(lo, idx))] = c
    return LaurentPoly(p, len(lo), terms)


def to_window(poly, lo, shape):
    """Coefficients of poly on the box lo .. lo + shape - 1, as nested lists."""

    def rows(prefix, dims):
        if not dims:
            return poly.terms.get(tuple(x + i for x, i in zip(lo, prefix)), 0)
        return [rows(prefix + (i,), dims[1:]) for i in range(dims[0])]

    return rows((), tuple(shape))


def _shape(window):
    shape = []
    while isinstance(window, list):
        shape.append(len(window))
        window = window[0]
    return shape


def check_product(p, a, b, lo_a, lo_b, expect):
    f, g = from_window(p, a, lo_a), from_window(p, b, lo_b)
    lo = [x + y for x, y in zip(lo_a, lo_b)]
    shape = _shape(expect)
    if f.terms and g.terms:
        # Windows this small are never hollow, so the dense path always runs.
        assert to_window(f._mul_dense(g), lo, shape) == expect
    assert to_window(f * g, lo, shape) == expect
    assert len((f * g).terms) == sum(1 for c in _flatten(expect) if c)


def _flatten(window):
    if isinstance(window, list):
        for row in window:
            yield from _flatten(row)
    else:
        yield window


def test_numpy_kernel_matches_brute_force_1d():
    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 251])
        a = [rng.randrange(p) for _ in range(rng.randint(1, 12))]
        b = [rng.randrange(p) for _ in range(rng.randint(1, 12))]
        lo_a, lo_b = [rng.randint(-6, 6)], [rng.randint(-6, 6)]
        check_product(p, a, b, lo_a, lo_b, brute_convolve(a, b, p))


def test_numpy_kernel_matches_brute_force_2d():
    rng = random.Random(8)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        n0, n1 = rng.randint(1, 5), rng.randint(1, 5)
        m0, m1 = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randrange(p) for _ in range(n1)] for _ in range(n0)]
        b = [[rng.randrange(p) for _ in range(m1)] for _ in range(m0)]
        lo_a = [rng.randint(-4, 4) for _ in range(2)]
        lo_b = [rng.randint(-4, 4) for _ in range(2)]
        check_product(p, a, b, lo_a, lo_b, brute_convolve2d(a, b, p))
