"""Batched one-letter kills against one-at-a-time elimination.

``reference_simplify`` is the Tietze loop as it was before one-letter
relators were killed in batches: each pass eliminates the generator of the
least pin key alone, or else rewrites once.  ``tietze_simplify`` must give
the same pass count, budget flag, simplified presentation (relators in the
same rotation) and images on every input and budget.
"""

import warnings

import pytest
from hypothesis import given, settings, strategies as st

from lefgroup import fibration
from lefgroup.presentations import (
    DEFAULT_BUDGET,
    Presentation,
    _TietzeState,
    format_presentation,
    parse_presentation,
    presentation,
    tietze_simplify,
)
from lefgroup.words import Word

BUDGETS = (1, 2, 3, 5, 8, 13, DEFAULT_BUDGET)


def eliminate_one(state: _TietzeState) -> bool:
    """Eliminate the generator of the least pin key, if any relator pins one."""
    if not state.pins:
        return False
    _, neg_gen, ri = min(state.pins.values())
    gen = -neg_gen
    r = state._detach(ri)
    pos = next(i for i, (g, _) in enumerate(r.syllables) if g == gen)
    rotated = r.syllables[pos:] + r.syllables[:pos]
    rest = Word(rotated[1:])
    replacement = ~rest if rotated[0][1] == 1 else rest
    inverse = ~replacement
    touched = sorted(state.occurs[gen])
    for i, w in [(i, state._detach(i)) for i in touched]:
        pieces = []
        for g, e in w.syllables:
            if g != gen:
                pieces.append((g, e))
            else:
                pieces.extend((replacement if e > 0 else inverse).syllables * abs(e))
        state._settle(i, Word(pieces))
    state.replacements.append((gen, replacement))
    return True


def reference_simplify(p: Presentation, budget: int, rewrite: bool):
    state = _TietzeState(p.relators, p.rank)
    passes = 0
    exhausted = False
    while True:
        if passes >= budget:
            exhausted = True
            break
        passes += 1
        if eliminate_one(state):
            continue
        if rewrite and state.rewrite():
            continue
        break
    return state.result(p, passes, exhausted)


def assert_same(p: Presentation, budget: int, rewrite: bool):
    got = tietze_simplify(p, budget=budget, rewrite=rewrite)
    want = reference_simplify(p, budget, rewrite)
    assert (got.passes, got.budget_exhausted) == (want.passes, want.budget_exhausted)
    assert got.presentation == want.presentation, (
        format_presentation(got.presentation), format_presentation(want.presentation))
    assert got.images == want.images


@st.composite
def presentations_with_letters(draw):
    """Rank 2-9, a few relators of 1-8 syllables and 2-5 one-letter ones.

    Some relators are wrapped as ``g^-e w g^f h`` or ``g^-e w g^f h g^f' h'``
    with h and h' pinned by one-letter relators: once they are killed,
    cyclic reduction works across the point where the word starts, and
    there the kill order can change the rotation a relator is stored in.
    """
    rank = draw(st.integers(2, 9))
    generator = st.integers(1, rank)
    exponent = st.sampled_from([-2, -1, 1, 2, 3])
    syllable = st.tuples(generator, exponent)
    letters = draw(st.lists(
        st.tuples(generator, st.sampled_from([-1, 1])), min_size=2, max_size=5))
    relators = []
    for body in draw(st.lists(st.lists(syllable, min_size=1, max_size=8), min_size=1, max_size=6)):
        if draw(st.booleans()):
            g, e = draw(syllable)
            tail = draw(st.lists(st.tuples(exponent, st.sampled_from(letters)),
                                 min_size=1, max_size=2))
            body = [(g, -e)] + body + [s for f, h in tail for s in ((g, f), h)]
        relators.append(Word(body))
    for g, e in letters:
        at = draw(st.integers(0, len(relators)))
        relators.insert(at, Word.generator(g, e))
    return Presentation(tuple(f"x{i}" for i in range(1, rank + 1)), tuple(relators))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(presentations_with_letters())
def test_matches_one_at_a_time(p):
    for rewrite in (False, True):
        for budget in BUDGETS:
            assert_same(p, budget, rewrite)


def test_kill_order_sets_the_rotation():
    # killing y first leaves b^-1 a^2 b^2 x b, whose cyclic reduction
    # cancels b^-1 against the last b; cutting x and y at once would merge
    # that b into b^2 first and give the rotation b^2 a^2
    p = presentation("a,b,x,y", "b^-1 a^2 b^2 x b y", "x", "y")
    result = tietze_simplify(p, rewrite=False)
    assert format_presentation(result.presentation) == "< a, b | a^2 b^2 >"
    for budget in (1, 2, 3, 4):
        assert_same(p, budget, rewrite=False)


def test_batch_stops_at_the_limit():
    p = presentation("a,b,c,d", "a b c d", "a", "b", "c", "d")
    state = _TietzeState(p.relators, p.rank)
    assert state.eliminate_pinned(2) == 2
    assert [gen for gen, _ in state.replacements] == [4, 3]
    assert state.eliminate_pinned(DEFAULT_BUDGET) == 2


SWEEP_SOURCES = {
    "cyclic": "< x | x^3 >",
    "one_relator": "< x, y | x^2 y^3 x^-1 y^2 >",
}


def sweep_quotient(source: str, genus: int) -> Presentation:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fibration.TransversalityWarning)
        r = fibration.realize_group(parse_presentation(SWEEP_SOURCES[source]), genus=genus)
    return r.quotient.raw


@pytest.mark.parametrize("genus", [8, 14])
@pytest.mark.parametrize("source", SWEEP_SOURCES)
def test_budget_sweep_on_realize_quotient(source, genus):
    raw = sweep_quotient(source, genus)
    # the first batch alone kills several generators, so small budgets end
    # inside it and large ones run it whole
    assert _TietzeState(raw.relators, raw.rank).eliminate_pinned(raw.rank) > 1
    full = tietze_simplify(raw, rewrite=False).passes
    for budget in range(1, full + 2):
        assert_same(raw, budget, rewrite=False)
