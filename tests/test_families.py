import random
import warnings

import pytest

from lefgroup.coset_enum import coset_enumerate
from lefgroup.families import (
    FamilySpec,
    abelian_group_plan,
    family_presentation,
    family_spec,
    genus_bounds,
    reduce_mod_torsion,
    verify_braid_relators,
    verify_hyperelliptic_identities,
    verify_symmetric_relators,
)
from lefgroup.fibration import TransversalityWarning
from lefgroup.finite_groups import cyclic_group_table, hom_count, symmetric_group_table
from lefgroup.presentations import (
    AbelianInvariants,
    abelianization,
    format_presentation,
    generator_lower_bound,
    presentation,
)
from lefgroup.words import Word


@pytest.fixture(autouse=True)
def quiet_transversality():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TransversalityWarning)
        yield


def test_braid_three_presentation():
    p = family_presentation(FamilySpec("braid", (3,)))
    assert format_presentation(p) == (
        "< x, y | x y x y^-1 x y x^-1 y^-1 x^-1 y x^-1 y^-1, x y x y^-2 >"
    )


def test_braid_two_degenerates():
    p = family_presentation(FamilySpec("braid", (2,)))
    assert p.relators == (Word([(1, 1), (2, -1)]),)


def test_symmetric_adds_involution():
    p3 = family_presentation(FamilySpec("symmetric", (3,)))
    braid3 = family_presentation(FamilySpec("braid", (3,)))
    assert p3.relators == braid3.relators + (Word([(1, 2)]),)


def test_sphere_mcg_three():
    p = family_presentation(FamilySpec("sphere_mcg", (3,)))
    braid3 = family_presentation(FamilySpec("braid", (3,)))
    extra = (Word([(2, 3)]), Word([(2, -1), (1, 1), (2, -1), (1, 1)]))
    assert p.relators == braid3.relators + extra


def test_artin_presentation_shape():
    p = family_presentation(FamilySpec("artin", (5,)))
    assert p.generators == ("x", "y", "z")
    # braid relators, the braid-type z relator, and commutation for i != 4
    assert len(p.relators) == 2 + 1 + 1 + 1 + 3
    assert abelianization(p) == AbelianInvariants(1, ())


def test_abelian_presentation():
    p = family_presentation(FamilySpec("abelian", (2, 1, 3)))
    assert abelianization(p) == AbelianInvariants(2, (3,))


def test_surface_presentation():
    p = family_presentation(FamilySpec("surface", (2,)))
    assert abelianization(p) == AbelianInvariants(4, ())
    assert family_presentation(FamilySpec("surface", (0,))).generators == ()


def test_family_validation():
    for bad in [("braid", (1,)), ("artin", (4,)), ("abelian", (1, 1, 2)),
                ("abelian", (2, 1)), ("abelian", (0, 2, 1, 2)), ("surface", (-1,))]:
        with pytest.raises(ValueError):
            FamilySpec(bad[0], bad[1])


def test_family_spec_routes_small_abelian():
    assert family_spec("abelian", 1, 1, 5).family == "small_abelian"
    assert family_spec("abelian", 2, 1, 5).family == "abelian"


def test_genus_bounds_table():
    assert genus_bounds(FamilySpec("braid", (2,))) .lower == 1
    assert genus_bounds(FamilySpec("braid", (5,))) == genus_bounds(FamilySpec("braid", (3,)))
    assert str(genus_bounds(FamilySpec("braid", (3,)))) == "[2, 4]"
    assert genus_bounds(FamilySpec("hyperelliptic", (1,))) == genus_bounds(
        FamilySpec("hyperelliptic", (4,))
    )
    assert genus_bounds(FamilySpec("symmetric", (2,))).exact
    assert genus_bounds(FamilySpec("sphere_mcg", (2,))).lower == 2
    assert genus_bounds(FamilySpec("artin", (6,))).upper == 5
    assert genus_bounds(FamilySpec("abelian", (2, 1, 3))).lower == 2
    assert genus_bounds(FamilySpec("abelian", (2, 1, 3))).upper == 4
    assert genus_bounds(FamilySpec("surface", (7,))) == genus_bounds(FamilySpec("surface", (7,)))
    assert genus_bounds(family_spec("abelian", 0, 0)).lower == 0
    assert genus_bounds(family_spec("abelian", 1, 0)).lower == 1
    assert genus_bounds(family_spec("abelian", 1, 1, 9)).lower == 1
    assert genus_bounds(family_spec("abelian", 0, 1, 7)).lower == 2
    assert genus_bounds(family_spec("abelian", 0, 2, 2, 4)).lower == 2


def test_generator_bound_consistent_with_genus_lower_bound():
    specs = [
        FamilySpec("braid", (4,)),
        FamilySpec("hyperelliptic", (2,)),
        FamilySpec("sphere_mcg", (4,)),
        FamilySpec("symmetric", (5,)),
        FamilySpec("artin", (5,)),
        FamilySpec("abelian", (2, 2, 2, 3)),
        FamilySpec("surface", (3,)),
    ]
    for spec in specs:
        p = family_presentation(spec)
        assert generator_lower_bound(p) <= 2 * genus_bounds(spec).lower, spec


def test_braid_certificates():
    for n in range(3, 7):
        assert verify_braid_relators(n).ok


def test_braid_negative_control():
    from lefgroup.families import _half_twist_images, braid_automorphism
    from lefgroup.words import substitute

    fake = Word([(1, 1), (2, 1), (1, -1), (2, -1)])  # x and y do not commute
    braid_word = substitute(fake, _half_twist_images(3))
    images = braid_automorphism(braid_word, 3)
    assert any(images[i] != Word.generator(i + 1) for i in range(3))


def test_symmetric_certificates():
    assert verify_symmetric_relators(3).coset_result.order == 6
    assert verify_symmetric_relators(4).coset_result.order == 24
    assert verify_symmetric_relators(2).coset_result.order == 2
    assert verify_symmetric_relators(5).coset_result.order == 120


def test_sphere_mcg_three_is_order_six():
    p = family_presentation(FamilySpec("sphere_mcg", (3,)))
    result = coset_enumerate(p, max_cosets=1000)
    assert result.conclusive and result.order == 6


def test_hyperelliptic_identities():
    for g in (1, 2, 3, 4):
        assert verify_hyperelliptic_identities(g).ok


def test_reduce_mod_torsion():
    w = Word([(2, 5), (1, 1), (2, -3)])
    out = reduce_mod_torsion(w, 2, 4)
    assert out == Word([(2, 1), (1, 1), (2, 1)])
    # collapse cascades through merges
    w2 = Word([(1, 1), (2, 4), (1, 2)])
    assert reduce_mod_torsion(w2, 2, 4) == Word([(1, 3)])


def test_abelian_plan_even_and_odd():
    cases = [
        ((3, 0, ()), AbelianInvariants(3, ())),
        ((0, 3, (2, 2, 2)), AbelianInvariants(0, (2, 2, 2))),
        ((2, 2, (2, 4)), AbelianInvariants(2, (2, 4))),
        ((4, 0, ()), AbelianInvariants(4, ())),
    ]
    for (n, k, ms), expected in cases:
        plan, quotient = abelian_group_plan(n, k, ms)
        assert plan.genus == n + k + 1
        assert abelianization(quotient.presentation) == expected


def test_abelian_plan_matches_direct_presentation():
    small = [symmetric_group_table(3)] + [cyclic_group_table(i) for i in range(2, 7)]
    rng = random.Random(8)
    for _ in range(6):
        total = rng.choice([3, 4])
        k = rng.randint(0, total)
        n = total - k
        ms = tuple(rng.choice([2, 3, 4]) for _ in range(k))
        _, quotient = abelian_group_plan(n, k, ms)
        direct = family_presentation(family_spec("abelian", n, k, *ms))
        assert abelianization(quotient.presentation) == abelianization(direct)
        for table in small:
            assert hom_count(quotient.presentation, table) == hom_count(direct, table)


def test_abelian_interim_plan_is_free_abelian():
    _, quotient = abelian_group_plan(4, 0)
    assert abelianization(quotient.presentation) == AbelianInvariants(4, ())
    assert quotient.presentation.rank == 4
