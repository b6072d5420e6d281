import json
import random

import pytest
from hypothesis import given, settings
from presentation_strategies import (
    ROUND_TRIP_BATTERY,
    assert_same_invariants,
    small_presentations,
)

from lefgroup import battery, families
from lefgroup.battery import BATTERY_MAX_COSETS, invariant_vector, parse_battery
from lefgroup.coset_enum import coset_enumerate
from lefgroup.presentations import Presentation, abelianization, presentation, tietze_simplify
from lefgroup.words import Word


def names(text):
    return [table.name for table in parse_battery(text)]


def test_parse_battery_tokens():
    assert names("s3") == ["S3"]
    assert names("S4, z5") == ["S4", "Z5"]
    # empty tokens and surrounding blanks are skipped
    assert names(" s3,, z2 , ") == ["S3", "Z2"]
    assert names("") == []


def test_parse_battery_range():
    assert names("z2..z6") == ["Z2", "Z3", "Z4", "Z5", "Z6"]
    assert names("s3,z2..z4,z7") == ["S3", "Z2", "Z3", "Z4", "Z7"]
    assert names("z4..z4") == ["Z4"]
    assert names("z5..z3") == []
    tables = parse_battery("z2..z3")
    assert [t.order for t in tables] == [2, 3]


@pytest.mark.parametrize("text", ["q3", "a5", "s3,d4"])
def test_parse_battery_bad_token(text):
    with pytest.raises(ValueError, match="bad battery token"):
        parse_battery(text)


@pytest.mark.parametrize("text", ["s2..s4", "z2..s4", "2..6"])
def test_parse_battery_bad_range(text):
    with pytest.raises(ValueError, match="bad battery range"):
        parse_battery(text)


@pytest.mark.parametrize("text", ["z0", "z-3"])
def test_parse_battery_refuses_empty_groups(text):
    with pytest.raises(ValueError, match="is not an element"):
        parse_battery(text)


@pytest.mark.parametrize("text", ["s6", "s8", "z121", "z2..z500", "s3,s8"])
def test_parse_battery_refuses_large_groups_before_building(monkeypatch, text):
    def refuse(n):
        raise AssertionError(f"built a table for {n}")

    monkeypatch.setattr(battery, "symmetric_group_table", refuse)
    monkeypatch.setattr(battery, "cyclic_group_table", refuse)
    token = text.split(",")[-1]
    with pytest.raises(ValueError, match=f"battery token '{token}'.*exceeds 120"):
        parse_battery(text)


def test_parse_battery_bound_admits_s5():
    # the largest group in use: the invariants benchmark battery has S5
    assert [t.order for t in parse_battery("s5")] == [120]


def test_invariant_vector_to_dict():
    vector = invariant_vector(presentation("x", "x^2"), parse_battery("s3,z2..z4"))
    data = vector.to_dict()
    assert data == {
        "abelianization": {"free_rank": 0, "torsion": [2]},
        # involutions plus the identity: 3 + 1 in S3, 1 + 1 in Z2 and Z4
        "hom_counts": {"S3": 4, "Z2": 2, "Z3": 1, "Z4": 2},
        "coset_order": 2,
    }
    assert json.loads(json.dumps(data)) == data


def test_invariant_vector_to_dict_skipped_and_inconclusive():
    gens = ",".join(f"x{i}" for i in range(1, 9))
    vector = invariant_vector(presentation(gens, "x1^2"), parse_battery("s3,z2"),
                              max_cosets=50)
    assert vector.to_dict() == {
        "abelianization": {"free_rank": 7, "torsion": [2]},
        # 6^8 assignments into S3 exceed the hom-count cap
        "hom_counts": {"S3": "skipped", "Z2": 256},
        "coset_order": "inconclusive",
    }


def infinite_abelianization_inputs():
    """Presentations whose H1 has free rank > 0, by label: braid and Artin
    groups, and seeded one-relator groups x^a y^b x^c y^d (one relator on
    two generators leaves free rank >= 1)."""
    inputs = {f"braid{n}": families.family_presentation(families.family_spec("braid", n))
              for n in range(2, 7)}
    inputs.update({f"artin{n}": families.family_presentation(families.family_spec("artin", n))
                   for n in (5, 6)})
    rng = random.Random("one-relator")
    exponents = [e for e in range(-3, 4) if e]
    for index in range(8):
        relator = Word([(g, rng.choice(exponents)) for g in (1, 2, 1, 2)])
        inputs[f"one_relator{index}"] = Presentation(("x", "y"), (relator,))
    return inputs


INFINITE_H1 = infinite_abelianization_inputs()


@pytest.mark.parametrize("p", INFINITE_H1.values(), ids=INFINITE_H1.keys())
def test_invariant_vector_skips_enumeration_when_h1_is_infinite(monkeypatch, p):
    assert abelianization(p).free_rank > 0
    # the enumeration the vector skips could not have closed
    assert not coset_enumerate(p, max_cosets=BATTERY_MAX_COSETS).conclusive

    def refuse(*args, **kwargs):
        raise AssertionError("coset_enumerate called on an infinite group")

    monkeypatch.setattr(battery, "coset_enumerate", refuse)
    vector = invariant_vector(p, parse_battery("s3,z2..z4"))
    assert vector.coset_order is None
    assert vector.to_dict()["coset_order"] == "inconclusive"


@settings(derandomize=True, deadline=None)
@given(small_presentations())
def test_tietze_simplify_keeps_invariant_vector(p):
    before = invariant_vector(p, ROUND_TRIP_BATTERY, max_cosets=200)
    after = invariant_vector(tietze_simplify(p).presentation, ROUND_TRIP_BATTERY,
                             max_cosets=200)
    assert_same_invariants(before, after)
