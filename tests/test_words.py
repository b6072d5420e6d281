import pytest
from hypothesis import given, strategies as st

from lefgroup.words import (
    Word,
    conjugate,
    cyclic_normal_form,
    cyclic_reduce,
    exponent_sums,
    format_word,
    parse_word,
    substitute,
    syllable_length,
)


def test_reduce_cancellation():
    assert Word([(1, 1), (1, -1)]).is_identity


def test_reduce_merge():
    assert Word([(1, 2), (1, 1)]) == Word([(1, 3)])


def test_reduce_nested_cancellation():
    assert Word([(2, 1), (1, 1), (1, -1), (2, -1)]).is_identity


def test_reduce_rejects_bad_index():
    with pytest.raises(ValueError):
        Word([(0, 1)])


def test_syllable_length_running_example():
    # g2 g1 g2^2 g4^-1 g3^-2 has five syllables
    w = Word([(2, 1), (1, 1), (2, 2), (4, -1), (3, -2)])
    assert syllable_length(w) == 5


def test_syllable_length_identity_and_power():
    assert syllable_length(Word()) == 0
    assert syllable_length(Word([(1, 3)])) == 1


def test_conjugate_definition():
    g1, g2 = Word.generator(1), Word.generator(2)
    assert conjugate(g1, Word()) == g1
    assert conjugate(g1, g1) == g1
    assert conjugate(g1, g2) == Word([(2, -1), (1, 1), (2, 1)])


def test_substitute_braid_generator_rewrite():
    # sigma_i maps to y^(i-1) x y^(1-i); x is generator 1, y is generator 2
    images = {i: Word([(2, i - 1), (1, 1), (2, 1 - i)]) for i in (1, 2, 3)}
    sigma2 = Word.generator(2)
    assert substitute(sigma2, images) == Word([(2, 1), (1, 1), (2, -1)])


def test_substitute_identity_and_power():
    images = {1: Word([(2, 1), (3, 1)])}
    assert substitute(Word([(1, 1), (1, -1)]), images).is_identity
    assert substitute(Word([(1, 2)]), images) == Word(
        [(2, 1), (3, 1), (2, 1), (3, 1)]
    )


def test_substitute_missing_image():
    with pytest.raises(ValueError, match="index 2"):
        substitute(Word([(2, 1)]), {1: Word()})


def test_exponent_sums_examples():
    w = Word([(2, 1), (1, 1), (2, 2), (4, -1), (3, -2)])
    assert exponent_sums(w, 4) == (1, 3, -2, -1)
    assert exponent_sums(Word(), 3) == (0, 0, 0)
    comm = Word([(1, 1), (2, 1), (1, -1), (2, -1)])
    assert exponent_sums(comm, 2) == (0, 0)
    with pytest.raises(ValueError):
        exponent_sums(w, 3)


words_strategy = st.lists(
    st.tuples(st.integers(1, 4), st.integers(-3, 3).filter(lambda e: e != 0)),
    max_size=12,
).map(Word)


@given(words_strategy)
def test_reduce_idempotent(w):
    assert Word(w.syllables) == w


@given(words_strategy)
def test_word_times_inverse_is_identity(w):
    assert (w * ~w).is_identity
    assert (~w * w).is_identity


@given(words_strategy, words_strategy)
def test_exponent_sums_homomorphism(u, v):
    su = exponent_sums(u, 4)
    sv = exponent_sums(v, 4)
    assert exponent_sums(u * v, 4) == tuple(a + b for a, b in zip(su, sv))


@given(words_strategy)
def test_syllable_length_bounded_by_any_spelling(w):
    # doubling the spelling of w * w^-1 * w gives an unreduced spelling of w
    raw = list(w.syllables) + list((~w).syllables) + list(w.syllables)
    assert syllable_length(Word(raw)) <= len(raw) or not raw


@given(words_strategy)
def test_substitute_respects_composition(w):
    f = {i: Word([(i % 4 + 1, 1), (4, -1)]) for i in range(1, 5)}
    g = {i: Word([(i, 2)]) for i in range(1, 5)}
    composed = {i: substitute(f[i], g) for i in range(1, 5)}
    assert substitute(substitute(w, f), g) == substitute(w, composed)


@given(words_strategy)
def test_parse_format_round_trip(w):
    names = ["a", "b", "c", "d"]
    assert parse_word(format_word(w, names), names) == w


def test_parse_identity_token():
    assert parse_word("1", ["a"]).is_identity
    assert format_word(Word(), ["a"]) == "1"


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_word("zz", ["a"])
    with pytest.raises(ValueError):
        parse_word("a^0", ["a"])
    with pytest.raises(ValueError):
        parse_word("a^^2", ["a"])


def test_cyclic_reduce():
    w = Word([(1, 1), (2, 1), (1, -1)])
    assert cyclic_reduce(w) == Word([(2, 1)])
    w2 = Word([(1, 2), (2, 1), (1, -1)])
    assert cyclic_reduce(w2) == Word([(1, 1), (2, 1)])


@given(words_strategy, words_strategy)
def test_cyclic_normal_form_conjugation_invariant(w, y):
    assert cyclic_normal_form(conjugate(w, y)) == cyclic_normal_form(w)


@given(words_strategy)
def test_cyclic_normal_form_inversion_invariant(w):
    assert cyclic_normal_form(~w) == cyclic_normal_form(w)
