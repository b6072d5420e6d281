import itertools
import math
import random

from integer_oracles import det, matmul
from sympy import Matrix
from sympy.matrices.normalforms import invariant_factors

from lefgroup.snf import smith_normal_form


def check_decomposition(matrix):
    result = smith_normal_form(matrix)
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    product = matmul(matmul([list(r) for r in result.left], matrix),
                     [list(r) for r in result.right])
    for i in range(rows):
        for j in range(cols):
            expected = result.diagonal[i] if i == j and i < len(result.diagonal) else 0
            assert product[i][j] == expected
    assert abs(det(result.left)) == 1
    assert abs(det(result.right)) == 1
    diag = [d for d in result.diagonal if d != 0]
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    return result


def test_classical_diag():
    assert check_decomposition([[2, 0], [0, 3]]).diagonal == (1, 6)


def test_zero_matrix():
    assert check_decomposition([[0, 0], [0, 0]]).diagonal == (0, 0)


def test_two_by_two():
    # gcd of entries is 2, |det| = 8, so the factors are 2 and 4
    assert check_decomposition([[2, 4], [6, 8]]).diagonal == (2, 4)


def test_empty_and_ragged():
    assert smith_normal_form([]).diagonal == ()
    import pytest

    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


def test_rectangular():
    assert check_decomposition([[1, 2, 3]]).diagonal == (1,)
    assert check_decomposition([[6], [4]]).diagonal == (2,)


def test_against_sympy_oracle():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        ours = check_decomposition(m).diagonal
        theirs = [int(x) for x in invariant_factors(Matrix(m))]
        nonzero_ours = [d for d in ours if d != 0]
        nonzero_theirs = [abs(d) for d in theirs if d != 0]
        assert nonzero_ours == nonzero_theirs, (m, ours, theirs)


def test_large_entries_exact():
    big = 10**30
    result = check_decomposition([[big, 0], [0, big * 3]])
    assert result.diagonal == (big, 3 * big)


def determinantal_diagonal(matrix):
    """s_k = d_k / d_(k-1), with d_k the gcd of the k x k minors (d_0 = 1)."""
    rows, cols = len(matrix), len(matrix[0])
    diagonal, previous = [], 1
    for k in range(1, min(rows, cols) + 1):
        d = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                d = math.gcd(d, det([[matrix[r][c] for c in cs] for r in rs]))
        diagonal.append(d // previous if d else 0)
        previous = d
    return tuple(diagonal)


def _random_small_matrix(rng):
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and rng.random() < 0.4:
        # one row a combination of two others, so the rank drops
        i, j, k = (rng.randrange(rows) for _ in range(3))
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    return m


def test_diagonal_matches_determinantal_divisors():
    fixed = [[[2, 0], [0, 3]], [[0, 0, 0], [0, 0, 0]], [[4], [6], [10]],
             [[2, 4, 6], [1, 2, 3]], [[0, 0], [0, 5]]]
    rng = random.Random(25)
    matrices = fixed + [_random_small_matrix(rng) for _ in range(300)]
    assert any(determinantal_diagonal(m)[-1] == 0 for m in matrices)
    for m in matrices:
        assert smith_normal_form(m).diagonal == determinantal_diagonal(m), m
