import random

import pytest
from integer_oracles import matmul

from lefgroup.surface import SurfaceGroup, verify_homology_triviality
from lefgroup.words import Word, exponent_sums


def test_surface_relator_genus_two():
    s = SurfaceGroup(2)
    expected = Word([(4, -1), (3, -1), (1, 1), (3, 1), (1, -1), (2, 1), (4, 1), (2, -1)])
    assert s.relator == expected


def test_separating_curve_small_cases():
    s = SurfaceGroup(2)
    # c_1 = b1^-1 a1 b1 a1^-1
    assert s.separating_curve(1) == Word([(3, -1), (1, 1), (3, 1), (1, -1)])
    # c_2 = b2^-1 b1^-1 (a1 b1 a1^-1)(a2 b2 a2^-1)
    assert s.separating_curve(2) == s.relator
    assert s.separating_curve(0).is_identity


def test_separating_curve_abelianized_trivial():
    for g in (1, 2, 3, 5):
        s = SurfaceGroup(g)
        for i in range(g + 1):
            assert s.homology_class(s.separating_curve(i)) == (0,) * (2 * g)


def test_chain_curves_genus_two():
    s = SurfaceGroup(2)
    # B_0 = b1 b2 c2  (a_0 and a_3 drop out)
    assert s.chain_curve(0) == s.b(1) * s.b(2) * s.separating_curve(2)
    # B_1 = a1 b1 b2 c2 a2
    assert s.chain_curve(1) == s.a(1) * s.b(1) * s.b(2) * s.separating_curve(2) * s.a(2)
    assert exponent_sums(s.chain_curve(0), 4) == (0, 0, 1, 1)


def test_chain_curve_range():
    s = SurfaceGroup(3)
    with pytest.raises(ValueError):
        s.chain_curve(5)
    s.chain_curve(4)  # index g+1 is defined even though the trivial word skips it


def test_middle_curves():
    s3 = SurfaceGroup(3)
    u, v = s3.middle_curves()
    assert u == s3.a(2)
    assert v == s3.separating_curve(1) * s3.a(2)
    s2 = SurfaceGroup(2)
    (c,) = s2.middle_curves()
    assert c == s2.separating_curve(1)
    s5 = SurfaceGroup(5)
    assert s5.middle_curves()[0] == s5.a(3)


def test_monodromy_cycle_counts():
    assert len(SurfaceGroup(2).monodromy_cycles()) == 8
    assert len(SurfaceGroup(3).monodromy_cycles()) == 16
    assert len(SurfaceGroup(1).monodromy_cycles()) == 12


def test_intersection_form():
    s = SurfaceGroup(2)
    a1 = s.homology_class(s.a(1))
    a2 = s.homology_class(s.a(2))
    b1 = s.homology_class(s.b(1))
    assert s.intersection(a1, b1) == 1
    assert s.intersection(a1, a2) == 0
    assert s.intersection(b1, a1) == -1


def test_intersection_bilinear_antisymmetric():
    s = SurfaceGroup(3)
    rng = random.Random(5)
    for _ in range(25):
        x = tuple(rng.randint(-4, 4) for _ in range(6))
        y = tuple(rng.randint(-4, 4) for _ in range(6))
        z = tuple(rng.randint(-4, 4) for _ in range(6))
        assert s.intersection(x, y) == -s.intersection(y, x)
        xy = tuple(a + b for a, b in zip(x, y))
        assert s.intersection(xy, z) == s.intersection(x, z) + s.intersection(y, z)


def _basis(g):
    return [tuple(int(i == j) for i in range(2 * g)) for j in range(2 * g)]


def test_transvection_properties():
    s = SurfaceGroup(2)
    zero = (0, 0, 0, 0)
    assert all(s.twist(e, zero) == e for e in _basis(2))
    c = s.homology_class(s.a(1))
    assert s.twist(c, c) == c  # the twisted curve itself is fixed
    # b1 moves by a1 (up to the pinned global sign)
    moved = s.twist(s.homology_class(s.b(1)), c)
    assert moved[0] in (1, -1) and moved[2] == 1
    with pytest.raises(ValueError):
        s.twist((1, 0), c)


def test_all_monodromy_transvections_symplectic():
    for g in (1, 2, 3, 4):
        s = SurfaceGroup(g)
        basis = _basis(g)
        for w in s.monodromy_cycles():
            c = s.homology_class(w)
            for x in basis:
                for y in basis:
                    assert s.intersection(s.twist(x, c), s.twist(y, c)) == s.intersection(x, y)


def _transvection_matrix(g, c):
    """I + c (Jc)^T entry by entry, with J the matrix of the intersection form."""
    jc = [c[g + i] for i in range(g)] + [-c[i] for i in range(g)]
    return [[int(r == k) + c[r] * jc[k] for k in range(2 * g)] for r in range(2 * g)]


def test_homology_product_matches_matrix_product():
    for g in range(1, 9):
        s = SurfaceGroup(g)
        standard = s.monodromy_cycles()
        shuffled = [random.Random(seed).sample(standard, len(standard)) for seed in (g, g + 50)]
        for cycles in [standard, standard[:-1], standard[1:], *shuffled]:
            product = [list(row) for row in _basis(g)]
            for w in cycles:
                product = matmul(product, _transvection_matrix(g, s.homology_class(w)))
            cert = verify_homology_triviality(g, cycles)
            assert cert.product == tuple(tuple(row) for row in product), g
            assert cert.ok == (cert.product == tuple(_basis(g)))


def test_homology_certificate_identity():
    for g in range(1, 9):
        cert = verify_homology_triviality(g)
        assert cert.ok, f"genus {g}"


def test_homology_certificate_negative_control():
    s = SurfaceGroup(3)
    cycles = s.monodromy_cycles()
    cycles.pop()  # drop one chain-curve twist
    cert = verify_homology_triviality(3, cycles)
    assert not cert.ok


def test_b_curves_meet_some_cycle_once():
    # homology stand-in for "b_i crosses a chain curve exactly once"
    for g in range(1, 7):
        s = SurfaceGroup(g)
        cycle_classes = [s.homology_class(w) for w in s.monodromy_cycles()]
        for i in range(1, g + 1):
            bi = s.homology_class(s.b(i))
            assert any(abs(s.intersection(bi, c)) == 1 for c in cycle_classes), (g, i)
        for i in range(1, g // 2 + 1):
            bi = s.homology_class(s.b(i))
            b2i = s.homology_class(s.chain_curve(2 * i))
            assert abs(s.intersection(bi, b2i)) == 1


def _chained_curves(s: SurfaceGroup) -> tuple[Word, list[Word], list[Word]]:
    """Relator, separating curves and chain curves grown one product at a time."""
    g = s.genus

    def separating(i):
        w = Word()
        for t in range(i, 0, -1):
            w = w * s.b(t, -1)
        for t in range(1, i + 1):
            w = w * s.a(t) * s.b(t) * s.a(t, -1)
        return w

    def chain(index):
        k, odd = divmod(index, 2)

        def a_or_identity(i):
            return Word() if i in (0, g + 1) else s.a(i)

        w = a_or_identity(k + 1 if odd else k)
        for t in range(k + 1, g - k + 1):
            w = w * s.b(t)
        return w * separating(g - k) * a_or_identity(g - k if odd else g - k + 1)

    return (separating(g), [separating(i) for i in range(g + 1)],
            [chain(j) for j in range(g + 2)])


def test_curve_builders_match_chained_products():
    for g in range(1, 25):
        s = SurfaceGroup(g)
        relator, separating, chain = _chained_curves(s)
        assert s.relator == relator
        assert [s.separating_curve(i) for i in range(g + 1)] == separating
        assert [s.chain_curve(j) for j in range(g + 2)] == chain
        # the trivial word's cycles list the chain curves from B_g down to B_0
        assert s.monodromy_cycles()[-(g + 1):] == chain[g::-1]
