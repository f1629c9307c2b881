"""Exact integer matrix arithmetic on small dense matrices.

Matrices are tuples of tuples of Python ints, so all operations are exact
regardless of magnitude.  Used for unimodularity checks and modular
square-and-multiply on the fixed-point torus model.
"""

from __future__ import annotations

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
