import itertools

import pytest

from lefgroup.finite_groups import (
    FiniteGroupTable,
    HomCountCapExceeded,
    cyclic_group_table,
    default_battery,
    dihedral_group_table,
    hom_count,
    symmetric_group_table,
)
from lefgroup.presentations import presentation


def test_table_axioms_verified():
    s3 = symmetric_group_table(3)
    assert s3.order == 6
    assert s3.multiply(s3.identity, 4) == 4
    assert s3.multiply(2, s3.inverse(2)) == s3.identity


def test_corrupt_table_rejected():
    bad = ((0, 1), (1, 1))
    with pytest.raises(ValueError):
        FiniteGroupTable("bad", bad)


def test_table_without_its_identity_rejected():
    with pytest.raises(ValueError, match="identity 0 is not an element"):
        FiniteGroupTable("E", ())
    z2 = ((0, 1), (1, 0))
    for identity in (2, -1):
        with pytest.raises(ValueError, match="is not an element"):
            FiniteGroupTable("Z2", z2, identity)


def test_power():
    z5 = cyclic_group_table(5)
    assert z5.power(1, 7) == 2
    assert z5.power(2, -1) == 3


def naive_hom_count(p, group):
    count = 0
    for assignment in itertools.product(range(group.order), repeat=p.rank):
        ok = True
        for r in p.relators:
            acc = group.identity
            for g, e in r:
                acc = group.multiply(acc, group.power(assignment[g - 1], e))
            if acc != group.identity:
                ok = False
                break
        if ok:
            count += 1
    return count


def test_commuting_pairs_in_s3():
    p = presentation("a,b", "a b a^-1 b^-1")
    assert hom_count(p, symmetric_group_table(3)) == 18


def test_free_pairs():
    p = presentation("a,b")
    assert hom_count(p, symmetric_group_table(3)) == 36


def test_involutions_in_s3():
    p = presentation("x", "x^2")
    assert hom_count(p, symmetric_group_table(3)) == 4


def test_matches_naive_enumeration():
    groups = [symmetric_group_table(3), cyclic_group_table(4), dihedral_group_table(3)]
    presentations = [
        presentation("a,b", "a b a^-1 b^-1"),
        presentation("a,b", "a^2", "b^3"),
        presentation("a,b,c", "a b a^-1 b^-1"),
        presentation("x,y", "x y x y^-2"),
        presentation("x"),
    ]
    for g in groups:
        for p in presentations:
            assert hom_count(p, g) == naive_hom_count(p, g), (p.generators, g.name)


def test_cap_refusal():
    p = presentation("a,b,c,d,e")
    with pytest.raises(HomCountCapExceeded):
        hom_count(p, symmetric_group_table(4))


def test_default_battery_contents():
    names = [g.name for g in default_battery()]
    assert names == ["S3", "S4", "Z2", "Z3", "Z4", "Z5", "Z6"]
