"""Exact integer matrix arithmetic on small dense matrices.

Matrices are tuples of tuples of Python ints, so all operations are exact
regardless of magnitude.  Used for unimodularity checks, modular
square-and-multiply on the fixed-point torus model, and exact
characteristic polynomials.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Sequence

from .errors import Singular

IntMatrix = tuple[tuple[int, ...], ...]


def as_int_matrix(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Normalize to a square tuple-of-tuples of Python ints."""
    out = tuple(tuple(int(x) for x in row) for row in rows)
    d = len(out)
    if d == 0 or any(len(row) != d for row in out):
        raise ValueError("matrix must be square and nonempty")
    for row, src in zip(out, rows):
        for x, y in zip(row, src):
            if x != y:
                raise ValueError("matrix entries must be integers")
    return out


def mat_identity(d: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_mul(a: IntMatrix, b: IntMatrix, mod: int | None = None) -> IntMatrix:
    d = len(a)
    bt = tuple(zip(*b))
    if mod is None:
        return tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
        )
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % mod for col in bt) for row in a
    )


def mat_vec(a: IntMatrix, v: Sequence[int], mod: int | None = None) -> tuple[int, ...]:
    if len(v) != len(a[0]):
        raise ValueError(f"vector has {len(v)} entries, the matrix has {len(a[0])} columns")
    if mod is None:
        return tuple(sum(x * y for x, y in zip(row, v)) for row in a)
    return tuple(sum(x * y for x, y in zip(row, v)) % mod for row in a)


def mat_pow(a: IntMatrix, n: int, mod: int | None = None) -> IntMatrix:
    """Square-and-multiply power; n must be >= 0."""
    if n < 0:
        raise ValueError("negative power: invert the matrix first")
    result = mat_identity(len(a))
    base = a if mod is None else tuple(tuple(x % mod for x in row) for row in a)
    while n:
        if n & 1:
            result = mat_mul(result, base, mod)
        base = mat_mul(base, base, mod)
        n >>= 1
    return result


def mat_det(a: IntMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    d = len(a)
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(d - 1):
        if m[k][k] == 0:
            for i in range(k + 1, d):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[d - 1][d - 1]


def mat_adjugate(a: IntMatrix) -> IntMatrix:
    """Exact adjugate (transposed cofactor matrix)."""
    d = len(a)
    if d == 1:
        return ((1,),)
    cof = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            minor = tuple(
                tuple(a[r][c] for c in range(d) if c != j)
                for r in range(d)
                if r != i
            )
            cof[i][j] = (-1) ** (i + j) * mat_det(minor)
    return tuple(tuple(cof[j][i] for j in range(d)) for i in range(d))


def mat_inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact integer inverse; requires det = +-1."""
    det = mat_det(a)
    if det not in (1, -1):
        raise Singular(f"matrix has determinant {det}, not +-1")
    adj = mat_adjugate(a)
    if det == 1:
        return adj
    return tuple(tuple(-x for x in row) for row in adj)


def char_poly(a: IntMatrix) -> tuple[int, ...]:
    """Exact characteristic polynomial det(xI - A).

    Returns coefficients (c_0, ..., c_d) with c_d = 1, evaluated by
    interpolation at the integers 0..d and solved exactly over Fractions.
    """
    d = len(a)
    xs = list(range(d + 1))
    ys = []
    for x in xs:
        shifted = tuple(
            tuple((x if i == j else 0) - a[i][j] for j in range(d)) for i in range(d)
        )
        ys.append(mat_det(shifted))
    # Newton's divided differences over exact rationals.
    coeffs = [Fraction(y) for y in ys]
    for level in range(1, d + 1):
        for i in range(d, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    # Expand the Newton form into monomial coefficients.
    poly = [Fraction(0)] * (d + 1)
    acc = [Fraction(1)]  # running product (x - x_0)...(x - x_{k-1})
    for k in range(d + 1):
        for j, c in enumerate(acc):
            poly[j] += coeffs[k] * c
        nxt = [Fraction(0)] * (len(acc) + 1)
        for j, c in enumerate(acc):
            nxt[j] -= c * xs[k]
            nxt[j + 1] += c
        acc = nxt
    out = []
    for c in poly:
        if c.denominator != 1:
            raise ArithmeticError("characteristic polynomial interpolation failed")
        out.append(int(c))
    return tuple(out)


def _poly_divmod(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Exact polynomial division for monic divisors, ascending coefficients."""
    num = list(num)
    den = list(den)
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    q = [0] * max(1, len(num) - len(den) + 1)
    r = num[:]
    for k in range(len(num) - len(den), -1, -1):
        coef = r[k + len(den) - 1]
        q[k] = coef
        if coef:
            for j, dj in enumerate(den):
                r[k + j] -= coef * dj
    while len(r) > 1 and r[-1] == 0:
        r.pop()
    return q, r


@functools.cache
def cyclotomic(k: int) -> tuple[int, ...]:
    """k-th cyclotomic polynomial, ascending integer coefficients."""
    # x^k - 1 divided by the product of Phi_d over proper divisors d of k.
    poly = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic(d))
            if any(rem):
                raise ArithmeticError("cyclotomic division left a remainder")
    return tuple(poly)


def is_cyclotomic_product(poly: Sequence[int]) -> bool:
    """True iff the monic integer polynomial factors into cyclotomics.

    By Kronecker's criterion this holds exactly when every root lies on
    the unit circle.  phi(k) >= sqrt(k/2) bounds the cyclotomic degrees
    that can divide a polynomial of the given degree.
    """
    p = list(poly)
    if p[-1] != 1:
        raise ValueError("polynomial must be monic")
    if p[0] == 0:
        return False  # zero root: singular, certainly not on the unit circle
    deg = len(p) - 1
    k_max = max(1, 2 * deg * deg + 1)
    k = 1
    while len(p) > 1 and k <= k_max:
        phi = cyclotomic(k)
        if len(phi) <= len(p):
            q, rem = _poly_divmod(p, phi)
            if not any(rem):
                p = q
                continue  # the same factor may divide again
        k += 1
    return len(p) == 1 and p[0] == 1
