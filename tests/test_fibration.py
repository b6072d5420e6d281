import random
import warnings

import pytest
from hypothesis import given, settings
from presentation_strategies import (
    ROUND_TRIP_BATTERY,
    assert_same_invariants,
    small_presentations,
)

from lefgroup import fibration as fib
from lefgroup.battery import invariant_vector
from lefgroup.finite_groups import default_battery, hom_count
from lefgroup.presentations import (
    AbelianInvariants,
    abelianization,
    presentation,
    same_presentation,
    tietze_simplify,
)
from lefgroup.relator_curves import a_image, relator_curve
from lefgroup.surface import SurfaceGroup
from lefgroup.words import Word, syllable_length


@pytest.fixture(autouse=True)
def quiet_transversality():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fib.TransversalityWarning)
        yield


def test_base_plan_quotient_is_half_genus_surface_group():
    q = fib.fundamental_group(fib.base_plan(2))
    # the quotient carries the genus-1 surface group
    assert abelianization(q.presentation) == AbelianInvariants(2, ())


def test_free_group_plan_quotients():
    for g in range(2, 7):
        q = fib.fundamental_group(fib.free_group_plan(g))
        assert q.presentation.relators == ()
        assert len(q.presentation.generators) == g // 2


def test_free_group_plan_odd_case_kills_middle_handle():
    q = fib.fundamental_group(fib.free_group_plan(5))
    assert q.presentation.generators == ("a1", "a2")


def test_free_product_plan_invariants():
    q4 = fib.fundamental_group(fib.free_product_plan(4))
    assert abelianization(q4.presentation) == AbelianInvariants(3, ())
    q6 = fib.fundamental_group(fib.free_product_plan(6))
    assert abelianization(q6.presentation) == AbelianInvariants(4, ())
    oracle = presentation("u,v,w", "v w v^-1 w^-1")
    for table in default_battery():
        assert hom_count(q4.presentation, table) == hom_count(oracle, table)


def test_plan_ranges():
    with pytest.raises(ValueError):
        fib.base_plan(0)
    with pytest.raises(ValueError):
        fib.free_group_plan(1)
    with pytest.raises(ValueError):
        fib.free_product_plan(2)


def test_extend_by_twist_records_center_and_doubles_letters():
    plan = fib.base_plan(2)
    s = plan.surface
    extended = fib.extend_by_twist(plan, s.b(1))
    assert s.b(1) in extended.kill_list
    assert extended.twist_letter_count == 2 * plan.twist_letter_count
    assert len(extended.blocks) == 2 * len(plan.blocks)


def test_extend_by_identity_warns():
    plan = fib.base_plan(2)
    with pytest.warns(fib.TransversalityWarning):
        extended = fib.extend_by_twist(plan, Word())
    assert Word() in extended.kill_list


def test_extend_by_b_curve_does_not_warn():
    plan = fib.base_plan(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", fib.TransversalityWarning)
        fib.extend_by_twist(plan, plan.surface.b(1))


def test_append_base_twist_reproduces_free_group_plan():
    g = 4
    s = SurfaceGroup(g)
    plan = fib.base_plan(g)
    for i in range(1, g + 1):
        plan = fib.append_base_twist(plan, s.b(i))
    assert plan == fib.free_group_plan(g)


def test_euler_characteristic_closed_forms():
    assert fib.euler_characteristic(fib.base_plan(2)) == 4
    assert fib.euler_characteristic(fib.base_plan(3)) == 8
    assert fib.euler_characteristic(fib.free_group_plan(2)) == 20


def test_euler_conservation_random_extensions():
    rng = random.Random(12)
    plan = fib.base_plan(3)
    s = plan.surface
    for _ in range(20):
        before = fib.euler_characteristic(plan)
        d = Word([(rng.randint(1, 6), rng.choice([-1, 1])) for _ in range(rng.randint(0, 3))])
        if rng.random() < 0.5:
            plan = fib.append_base_twist(plan, d)
            added = 2 * 3 + 10
        else:
            added = plan.twist_letter_count
            plan = fib.extend_by_twist(plan, d)
        assert fib.euler_characteristic(plan) == before + added


def test_minimal_genus():
    assert fib.minimal_genus(presentation("g1")) == 2
    assert fib.minimal_genus(presentation("g1,g2", "g1 g2 g1^-1 g2^-1")) == 7
    assert fib.minimal_genus(presentation("")) == 1


def test_realize_free_group_of_rank_one():
    r = fib.realize_group(presentation("g1"))
    assert r.plan.genus == 2
    assert r.presentation.generators == ("a1",)
    assert r.presentation.relators == ()


def test_realize_trivial_group():
    r = fib.realize_group(presentation("g1", "g1"))
    assert r.presentation.generators == ()
    for table in default_battery():
        assert hom_count(r.presentation, table) == 1


def test_realize_rejects_small_genus():
    with pytest.raises(ValueError):
        fib.realize_group(presentation("g1", "g1"), genus=1)


def test_realize_z_squared_literal_output():
    p = presentation("g1,g2", "g1 g2 g1^-1 g2^-1")
    r = fib.realize_group(p)
    assert r.plan.genus == 7
    assert same_presentation(r.presentation, r.expected_presentation())
    assert abelianization(r.presentation) == AbelianInvariants(2, ())


def test_realize_no_generator_presentation():
    r = fib.realize_group(presentation(""))
    assert r.plan.genus == 1
    assert r.presentation.generators == ()


def test_realize_genus_monotonic_invariants():
    p = presentation("g1,g2", "g1^2", "g2^2")
    bound = fib.minimal_genus(p)
    outputs = []
    for g in range(bound, bound + 5):
        r = fib.realize_group(p, genus=g)
        assert same_presentation(r.presentation, r.expected_presentation()), g
        outputs.append(abelianization(r.presentation))
    assert len(set(outputs)) == 1


def test_quotient_image_of_relator_curve_is_a_image():
    rng = random.Random(7)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        letters = [
            (rng.randint(1, n), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(1, 4))
        ]
        r = Word(letters)
        if r.is_identity:
            continue
        g = 2 * n + syllable_length(r) - 1
        s = SurfaceGroup(g)
        plan = fib.free_group_plan(g)
        for t in range(n + 1, g // 2 + 1):
            plan = fib.append_base_twist(plan, s.a(t))
        q = fib.fundamental_group(plan)
        curve = relator_curve(r, n, g, fillers="random", rng=rng)
        assert q.simplification.image_of(curve.word) == q.simplification.image_of(a_image(r))
        checked += 1
    assert checked >= 40


def test_plan_serialization_round_trip():
    plans = [
        fib.base_plan(2),
        fib.free_group_plan(4),
        fib.realize_group(presentation("g1", "g1^2")).plan,
    ]
    for plan in plans:
        text = fib.plan_dumps(plan)
        assert fib.plan_loads(text) == plan


def test_plan_validation_rejects_bad_kill_list():
    plan = fib.base_plan(2)
    data = fib.plan_to_dict(plan)
    data["kill_list"] = data["kill_list"][:-1]
    with pytest.raises(ValueError):
        fib.plan_from_dict(data)


def test_plan_loader_rejects_kill_word_no_block_gives():
    # killing a1 as well would drop the quotient from <a1, a2> to <a2>
    data = fib.plan_to_dict(fib.free_group_plan(4))
    data["kill_list"].append("a1")
    with pytest.raises(ValueError):
        fib.plan_from_dict(data)


def test_plan_loader_rejects_wrong_letter_count():
    data = fib.plan_to_dict(fib.free_group_plan(4))
    data["twist_letters"] *= 3
    with pytest.raises(ValueError):
        fib.plan_from_dict(data)


@pytest.mark.parametrize("schema", [None, "lefgroup/plan/1", "lefgroup/plan/3"])
def test_plan_loader_rejects_missing_or_unknown_schema(schema):
    data = fib.plan_to_dict(fib.base_plan(2))
    if schema is None:
        del data["schema"]
    else:
        data["schema"] = schema
    with pytest.raises(ValueError):
        fib.plan_from_dict(data)


def test_nested_twists_record_conjugator_chains():
    plan = fib.base_plan(2)
    s = plan.surface
    plan = fib.extend_by_twist(fib.extend_by_twist(plan, s.b(1)), s.b(2))
    assert plan.blocks == ((), (s.b(1),), (s.b(2),), (s.b(2), s.b(1)))
    assert plan.kill_list == fib.base_plan(2).kill_list + (s.b(1), s.b(2))
    assert fib.plan_loads(fib.plan_dumps(plan)) == plan


def test_realized_presentation_matches_simplified_source_battery():
    p = presentation("g1,g2", "g1^2", "g2^3", "g1 g2 g1 g2 g1 g2")
    r = fib.realize_group(p)
    source = tietze_simplify(p).presentation
    for table in default_battery():
        assert hom_count(r.presentation, table) == hom_count(source, table)


@settings(derandomize=True, deadline=None)
@given(small_presentations())
def test_realize_group_keeps_invariant_vector(p):
    before = invariant_vector(p, ROUND_TRIP_BATTERY, max_cosets=200)
    after = invariant_vector(fib.realize_group(p).presentation, ROUND_TRIP_BATTERY,
                             max_cosets=200)
    assert_same_invariants(before, after)
