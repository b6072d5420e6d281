"""Exact integer matrix product and determinant, for rechecking the
Smith normal form and the surface homology certificate."""


def matmul(a, b) -> list[list[int]]:
    """Exact integer matrix product."""
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
