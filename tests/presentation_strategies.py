"""Hypothesis presentations and the invariant-vector comparison shared by
the round-trip tests of Tietze simplification and of realize_group."""

from hypothesis import strategies as st

from lefgroup.battery import InvariantVector, parse_battery
from lefgroup.presentations import Presentation
from lefgroup.words import Word


@st.composite
def small_presentations(draw):
    rank = draw(st.integers(1, 3))
    syllable = st.tuples(st.integers(1, rank),
                         st.integers(-3, 3).filter(lambda e: e != 0))
    relators = draw(st.lists(st.lists(syllable, min_size=1, max_size=5), max_size=4))
    names = tuple(f"x{i}" for i in range(1, rank + 1))
    return Presentation(names, tuple(Word(r) for r in relators))


ROUND_TRIP_BATTERY = parse_battery("s3,z2..z4")


def assert_same_invariants(before: InvariantVector, after: InvariantVector) -> None:
    assert after.abelian == before.abelian
    # a skipped hom count or an enumeration that did not close says nothing
    for (name, a), (other, b) in zip(before.hom_counts, after.hom_counts):
        assert name == other
        assert a is None or b is None or a == b, name
    assert (before.coset_order is None or after.coset_order is None
            or before.coset_order == after.coset_order)
