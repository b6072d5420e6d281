"""Smith normal form of integer matrices with audit transforms.

Arithmetic is exact (Python integers), so there is no overflow regardless
of entry size.  The decomposition returns unimodular ``left`` and
``right`` with ``left @ m @ right`` diagonal, which callers can recheck.
"""

from __future__ import annotations

from dataclasses import dataclass

Matrix = list[list[int]]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _swap_rows(m: Matrix, i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _swap_cols(m: Matrix, i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m: Matrix, src: int, dst: int, factor: int) -> None:
    m[dst] = [a + factor * b for a, b in zip(m[dst], m[src])]


def _add_col(m: Matrix, src: int, dst: int, factor: int) -> None:
    for row in m:
        row[dst] += factor * row[src]


@dataclass(frozen=True)
class SmithDecomposition:
    """diagonal entries d1 | d2 | ... >= 0 plus the transforms that achieve them."""

    diagonal: tuple[int, ...]
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]


def smith_normal_form(matrix) -> SmithDecomposition:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns diagonal entries of length ``min(rows, cols)`` satisfying the
    divisibility chain, zeros last.  An empty matrix has empty diagonal.
    """
    a: Matrix = [[int(x) for x in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(row) != cols for row in a):
        raise ValueError("ragged matrix")
    u = _identity(rows)
    v = _identity(cols)

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # move the absolutely smallest nonzero entry of the submatrix to (t, t)
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            _swap_rows(a, i, t)
            _swap_rows(u, i, t)
        if j != t:
            _swap_cols(a, j, t)
            _swap_cols(v, j, t)

        dirty = False
        for i in range(rows):
            if i != t and a[i][t] != 0:
                q = a[i][t] // a[t][t]
                _add_row(a, t, i, -q)
                _add_row(u, t, i, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(cols):
            if j != t and a[t][j] != 0:
                q = a[t][j] // a[t][t]
                _add_col(a, t, j, -q)
                _add_col(v, t, j, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue

        # pivot must divide the rest of the submatrix for the chain to hold
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _add_row(a, offender, t, 1)
            _add_row(u, offender, t, 1)
            continue

        if a[t][t] < 0:
            for j in range(cols):
                a[t][j] = -a[t][j]
            for j in range(rows):
                u[t][j] = -u[t][j]
        t += 1

    diagonal = tuple(a[i][i] for i in range(limit))
    return SmithDecomposition(
        diagonal=diagonal,
        left=tuple(tuple(row) for row in u),
        right=tuple(tuple(row) for row in v),
    )


def matmul(a, b) -> Matrix:
    """Exact integer matrix product, for rechecking decompositions."""
    rows, inner = len(a), len(b)
    cols = len(b[0]) if inner else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def det(matrix) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
