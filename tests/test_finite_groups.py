import itertools
import random

import pytest

from lefgroup.finite_groups import (
    FiniteGroupTable,
    HomCountCapExceeded,
    _light_generators,
    cyclic_group_table,
    default_battery,
    dihedral_group_table,
    hom_count,
    symmetric_group_table,
)
from lefgroup.presentations import Presentation, presentation
from lefgroup.words import Word


def test_table_axioms_verified():
    s3 = symmetric_group_table(3)
    assert s3.order == 6
    assert s3.multiply(s3.identity, 4) == 4
    assert s3.multiply(2, s3.inverse(2)) == s3.identity


@pytest.mark.parametrize("n", range(6))
def test_symmetric_table_matches_composition(n):
    """Oracle: every entry composed letter by letter as a tuple."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    expected = tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms) for p in perms
    )
    group = symmetric_group_table(n)
    assert group.name == f"S{n}"
    assert group.table == expected


def test_corrupt_table_rejected():
    bad = ((0, 1), (1, 1))
    with pytest.raises(ValueError):
        FiniteGroupTable("bad", bad)


def test_nonassociative_loop_rejected():
    # a Latin square with identity 0 in which every element is its own
    # inverse, so only the associativity check can refuse it
    loop = (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1),
        (4, 3, 1, 2, 0),
    )
    with pytest.raises(ValueError, match="associativity"):
        FiniteGroupTable("loop5", loop)


@pytest.mark.parametrize("group", [
    symmetric_group_table(3),
    symmetric_group_table(5),
    dihedral_group_table(4),
    cyclic_group_table(6),
], ids=lambda g: g.name)
def test_light_generators_reach_every_element(group):
    # the associativity check is exact only if left-bracketed products of
    # the checked elements reach the whole table
    gens = _light_generators(group.table, group.identity)
    assert gens and group.identity not in gens
    reached = {group.identity}
    frontier = [group.identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = group.multiply(x, g)
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    assert reached == set(range(group.order))


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
    s4 = symmetric_group_table(4)
    for k in (-3, -1, 0, 1, 2, 5):
        assert s4.power_row(k) == tuple(s4.power(a, k) for a in range(s4.order))
    assert s4.power_row(2) is s4.power_row(2)


@pytest.mark.parametrize("group, count", [
    (symmetric_group_table(3), 3),
    (symmetric_group_table(4), 5),
    (symmetric_group_table(5), 7),
    (dihedral_group_table(4), 5),
    (cyclic_group_table(1), 1),
    (cyclic_group_table(6), 6),
    (cyclic_group_table(7), 7),
], ids=lambda v: v.name if isinstance(v, FiniteGroupTable) else str(v))
def test_conjugacy_classes(group, count):
    classes = group.classes
    assert len(classes) == count
    assert sum(size for _, size in classes) == group.order
    for rep, size in classes:
        members = {
            group.multiply(group.multiply(h, rep), group.inverse(h))
            for h in range(group.order)
        }
        assert min(members) == rep and len(members) == size
    assert [rep for rep, _ in classes] == sorted(rep for rep, _ in classes)


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


def random_presentation(rng, rank):
    """Relators over random subsets of the generators, so that some
    generators occur in no relator and the rest fall into several
    components; the first generator often has relators of its own."""
    rels = []
    for _ in range(rng.randint(0, 3)):
        support = rng.sample(range(1, rank + 1), rng.randint(1, min(rank, 2)))
        w = Word(
            (rng.choice(support), rng.choice([-3, -2, -1, 1, 2, 3]))
            for _ in range(rng.randint(1, 5))
        )
        if not w.is_identity:
            rels.append(w)
    return Presentation(tuple(f"g{i}" for i in range(1, rank + 1)), tuple(rels))


ORACLE_CASES = [
    presentation("a,b,c,d", "a^2", "b c b^-1 c^-2"),
    presentation("a,b,c", "a^3", "a b a^-1 b^-1", "c^2"),
    presentation("a,b", "a^2", "a b a b^-1"),
    presentation("a,b,c", "b^2", "c^3"),
    presentation("a,b,c", "a b^2", "c"),
]


@pytest.mark.parametrize("group, max_rank", [
    (symmetric_group_table(3), 4),
    (symmetric_group_table(4), 3),
    (dihedral_group_table(4), 4),
    (cyclic_group_table(6), 4),
    (symmetric_group_table(5), 2),
], ids=lambda v: v.name if isinstance(v, FiniteGroupTable) else str(v))
def test_hom_count_matches_naive_on_random_presentations(group, max_rank):
    rng = random.Random(f"hom-count-{group.name}")
    cases = [p for p in ORACLE_CASES if p.rank <= max_rank]
    cases += [random_presentation(rng, rng.randint(1, max_rank)) for _ in range(25)]
    for p in cases:
        assert hom_count(p, group) == naive_hom_count(p, group), (p, group.name)


def test_cap_is_nominal_search_space():
    # 120^3 exceeds the cap even though the search would visit far fewer
    # assignments; 24^4 stays under it
    rank3 = presentation("a,b,c", "a^2", "b^3", "c^5", "a b c")
    with pytest.raises(HomCountCapExceeded, match="120\\^3"):
        hom_count(rank3, symmetric_group_table(5))
    rank4 = presentation("a,b,c,d", "a^2", "b^2", "c^2", "d^2")
    assert hom_count(rank4, symmetric_group_table(4)) == 10 ** 4


def test_cap_refusal():
    p = presentation("a,b,c,d,e")
    with pytest.raises(HomCountCapExceeded):
        hom_count(p, symmetric_group_table(4))


def test_default_battery_contents():
    names = [g.name for g in default_battery()]
    assert names == ["S3", "S4", "Z2", "Z3", "Z4", "Z5", "Z6"]
