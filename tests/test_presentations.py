import random
import sys

import pytest

from lefgroup.coset_enum import coset_enumerate
from lefgroup.finite_groups import (
    cyclic_group_table,
    dihedral_group_table,
    hom_count,
    symmetric_group_table,
)
from lefgroup.presentations import (
    AbelianInvariants,
    Presentation,
    abelianization,
    format_presentation,
    generator_lower_bound,
    parse_presentation,
    presentation,
    same_presentation,
    tietze_simplify,
)
from lefgroup.presentations import _rewrite_pass
from lefgroup.words import Word, cyclic_reduce, parse_word


def test_parse_format_round_trip():
    texts = [
        "< a, b | a b a^-1 b^-1 >",
        "< a, b | >",
        "< | >",
        "< x | x^2, x^3 >",
        "< g1, g2 | g1^2, g2^3, g1 g2 g1 g2 g1 g2 >",
    ]
    for text in texts:
        p = parse_presentation(text)
        assert format_presentation(p) == text
        assert parse_presentation(format_presentation(p)) == p


def test_parse_errors():
    for bad in ["a, b | a", "< a, b  a >", "< a, a | >", "< a | b >", "< 1 | >"]:
        with pytest.raises(ValueError):
            parse_presentation(bad)


def test_presentation_validates_relator_indices():
    with pytest.raises(ValueError):
        Presentation(("a",), (Word([(2, 1)]),))


def test_abelianization_free_abelian():
    p = presentation("a,b", "a b a^-1 b^-1")
    assert abelianization(p) == AbelianInvariants(2, ())


def test_abelianization_z2_plus_z3():
    p = presentation("a,b", "a^2", "b^3")
    assert abelianization(p) == AbelianInvariants(0, (6,))


def test_abelianization_braid_is_z():
    # the two-generator braid presentation on three strands
    p = presentation(
        "x,y",
        "x y x y^-1 x y x^-1 y^-1 x^-1 y x^-1 y^-1",
        "x y x y^-2",
    )
    assert abelianization(p) == AbelianInvariants(1, ())


def test_generator_lower_bound():
    assert generator_lower_bound(presentation("a,b", "a b a^-1 b^-1")) == 2
    assert generator_lower_bound(presentation("", )) == 0
    s3 = presentation(
        "x,y",
        "x y x y^-1 x y x^-1 y^-1 x^-1 y x^-1 y^-1",
        "x y x y^-2",
        "x^2",
    )
    assert generator_lower_bound(s3) == 1


def test_tietze_kills_pinned_generators():
    p = presentation("a,b", "b", "a b")
    result = tietze_simplify(p)
    assert result.presentation.generators == ()
    assert result.presentation.relators == ()


def test_tietze_keeps_lowest_index():
    p = presentation("a1,b1,a2,b2", "b1", "b2", "a1 a2")
    result = tietze_simplify(p)
    assert result.presentation.generators == ("a1",)
    assert result.presentation.relators == ()
    # the map must send a2 to the inverse of the surviving generator
    assert result.images["a2"] == Word([(1, -1)])
    assert result.images["b1"].is_identity


def test_tietze_power_gcd():
    p = presentation("x", "x^2", "x^3")
    result = tietze_simplify(p)
    assert result.presentation.generators == ()


def test_tietze_rewrite_flag_off_preserves_powers():
    p = presentation("x", "x^2", "x^3")
    result = tietze_simplify(p, rewrite=False)
    # without the rewriting move the gcd reduction is unavailable
    assert result.presentation.generators == ("x",)


def test_tietze_image_of_is_quotient_map():
    p = presentation("a,b,c", "c a b")
    result = tietze_simplify(p)
    # c was rewritten in terms of a and b; its image times the others is trivial
    w = parse_word("c a b", p.generators)
    assert result.image_of(w).is_identity


def test_same_presentation_mod_rotation_inversion():
    p = presentation("a,b", "a b a^-1 b^-1")
    q = presentation("a,b", "b a^-1 b^-1 a")
    r = presentation("a,b", "b a b^-1 a^-1")
    assert same_presentation(p, q)
    assert same_presentation(p, r)
    assert not same_presentation(p, presentation("a,b", "a b a b"))


def random_presentation(rng):
    n = rng.randint(1, 3)
    names = tuple(f"g{i}" for i in range(1, n + 1))
    rels = []
    for _ in range(rng.randint(0, 4)):
        letters = [
            (rng.randint(1, n), rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(1, 6))
        ]
        w = Word(letters)
        if not w.is_identity:
            rels.append(w)
    return Presentation(names, tuple(rels))


SMALL_BATTERY = [
    symmetric_group_table(3),
    dihedral_group_table(4),
    cyclic_group_table(2),
    cyclic_group_table(3),
    cyclic_group_table(4),
    cyclic_group_table(5),
    cyclic_group_table(6),
    cyclic_group_table(7),
    cyclic_group_table(8),
]


def test_tietze_preserves_invariants_on_random_presentations():
    rng = random.Random(2024)
    for _ in range(40):
        p = random_presentation(rng)
        q = tietze_simplify(p).presentation
        assert abelianization(p) == abelianization(q)
        for table in SMALL_BATTERY:
            assert hom_count(p, table) == hom_count(q, table), (
                format_presentation(p),
                format_presentation(q),
                table.name,
            )


def test_tietze_preserves_conclusive_coset_counts():
    rng = random.Random(99)
    checked = 0
    for _ in range(40):
        p = random_presentation(rng)
        before = coset_enumerate(p, max_cosets=400)
        if not before.conclusive:
            continue
        q = tietze_simplify(p).presentation
        after = coset_enumerate(q, max_cosets=400)
        assert after.conclusive and after.order == before.order
        checked += 1
    assert checked > 5


def test_budget_exhaustion_flag():
    p = presentation("a,b,c", "a b", "b c", "c a")
    result = tietze_simplify(p, budget=1)
    assert result.budget_exhausted


def reference_rewrite_pass(rels):
    """The rewrite pass as a plain scan over letter lists: the oracle for
    the string search in ``_rewrite_pass``."""
    order = sorted(range(len(rels)), key=lambda i: -len(rels[i]))
    for ti in order:
        t_letters = rels[ti].letters()
        if not t_letters:
            continue
        doubled = t_letters + t_letters
        for si, s in enumerate(rels):
            if si == ti or len(s) > len(rels[ti]) or s.is_identity:
                continue
            s_letters = s.letters()
            n = len(s_letters)
            for var in (s_letters, [-x for x in reversed(s_letters)]):
                var2 = var + var
                for rot in range(n):
                    rotation = var2[rot:rot + n]
                    for ulen in range(n, n // 2, -1):
                        piece = rotation[:ulen]
                        hit = next((i for i in range(len(t_letters))
                                    if doubled[i:i + ulen] == piece), None)
                        if hit is None:
                            continue
                        tail = rotation[ulen:]
                        rest = doubled[hit + ulen:hit + len(t_letters)]
                        new = cyclic_reduce(
                            Word.from_letters([-x for x in reversed(tail)] + rest))
                        if len(new) < len(rels[ti]):
                            rels[ti] = new
                            return ti
    return None


def random_relators(rng, gens):
    """A few random words over ``gens``, some spliced from pieces of the
    others so that the rewrite pass finds long common pieces."""
    rels = []
    for _ in range(rng.randint(1, 5)):
        if rels and rng.random() < 0.5:
            letters = rng.choice(rels).letters()
            if rng.random() < 0.5:
                letters = [-x for x in reversed(letters)]
            cut = rng.randrange(len(letters) + 1)
            letters = letters[cut:] + letters[:cut]
            piece = letters[:rng.randint(len(letters) // 2, len(letters))]
            extra = [rng.choice(gens) * rng.choice([-1, 1]) for _ in range(rng.randint(0, 4))]
            w = Word.from_letters(extra + piece)
        else:
            w = Word((rng.choice(gens), rng.choice([-2, -1, 1, 2]))
                     for _ in range(rng.randint(1, 7)))
        rels.append(w)
    return rels


@pytest.mark.parametrize("gens", [
    [1, 2],
    [1, 2, 3, 4],
    [1, 301, 302, 5000],
    [1, sys.maxunicode // 2],
], ids=["rank2", "rank4", "above300", "top_index"])
def test_rewrite_pass_matches_reference_scan(gens):
    """Passes run to a fixed point with one barren-pair set per relator
    list, as in one simplification; every pass must agree with the plain
    scan, which keeps no memo."""
    rng = random.Random(f"rewrite-{gens}")
    rewritten = 0
    repeated = 0
    for _ in range(150):
        rels = random_relators(rng, gens)
        expected = list(rels)
        got = list(rels)
        barren = set()
        passes = 0
        while True:  # every rewrite shortens a relator, so this ends
            passes += 1
            ti = _rewrite_pass(got, barren)
            assert ti == reference_rewrite_pass(expected), rels
            assert got == expected, rels
            if ti is None:
                break
        rewritten += passes > 1
        repeated += passes > 2
    assert rewritten > 30
    assert repeated > 50


def test_rewrite_pass_refuses_indices_without_a_code_point():
    rels = [Word.generator(sys.maxunicode // 2 + 1, 3), Word.generator(1, 2)]
    with pytest.raises(ValueError, match="generator indices up to"):
        _rewrite_pass(rels, set())
