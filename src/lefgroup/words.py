"""Freely reduced words over a ranked alphabet.

A word is a sequence of syllables ``(i, e)`` where ``i`` is a 1-based
generator index and ``e`` a nonzero integer exponent.  Adjacent syllables
never share a generator index, so every :class:`Word` is the unique
reduced spelling of a free group element.  Words are immutable; all
operations return new words and are safe to evaluate concurrently.

The text form used throughout the package is whitespace-separated tokens
``name`` or ``name^k`` with ``k`` a nonzero signed integer; the single
token ``1`` denotes the identity word.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping, Sequence

Syllable = tuple[int, int]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def _reduce_syllables(pairs: Iterable[Syllable]) -> tuple[Syllable, ...]:
    stack: list[list[int]] = []
    for gen, exp in pairs:
        if exp == 0:
            continue
        if gen < 1:
            raise ValueError(f"generator index must be >= 1, got {gen}")
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return tuple((g, e) for g, e in stack)


class Word:
    """A freely reduced word; the empty word is the identity."""

    __slots__ = ("syllables",)

    def __init__(self, pairs: Iterable[Syllable] = ()):
        object.__setattr__(self, "syllables", _reduce_syllables(pairs))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def generator(cls, index: int, exp: int = 1) -> "Word":
        return cls([(index, exp)])

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def __len__(self) -> int:
        """Letter count: the sum of absolute exponents."""
        return sum(abs(e) for _, e in self.syllables)

    def __iter__(self) -> Iterator[Syllable]:
        return iter(self.syllables)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.syllables == other.syllables

    def __hash__(self) -> int:
        return hash(self.syllables)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.syllables + other.syllables)

    def __invert__(self) -> "Word":
        return Word([(g, -e) for g, e in reversed(self.syllables)])

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word()
        base = self if n > 0 else ~self
        return Word(base.syllables * abs(n))

    def __repr__(self) -> str:
        if self.is_identity:
            return "Word()"
        return f"Word({list(self.syllables)!r})"

    def letters(self) -> list[int]:
        """Expanded spelling as signed indices, one entry per letter."""
        out: list[int] = []
        for g, e in self.syllables:
            out.extend([g if e > 0 else -g] * abs(e))
        return out

    @classmethod
    def from_letters(cls, letters: Iterable[int]) -> "Word":
        return cls((abs(x), 1 if x > 0 else -1) for x in letters)

    def max_index(self) -> int:
        return max((g for g, _ in self.syllables), default=0)


def syllable_length(w: Word) -> int:
    """Number of maximal generator-power blocks; 0 for the identity."""
    return len(w.syllables)


def conjugate(x: Word, y: Word) -> Word:
    """x conjugated by y, i.e. y^-1 x y."""
    return ~y * x * y


def substitute(w: Word, images: Mapping[int, Word]) -> Word:
    """Apply the homomorphism sending generator i to ``images[i]``.

    Every generator index occurring in ``w`` must have an image; negative
    exponents map to powers of the inverse image.
    """
    pieces: list[Syllable] = []
    for g, e in w.syllables:
        try:
            img = images[g]
        except KeyError:
            raise ValueError(f"no image given for generator index {g}") from None
        pieces.extend((img ** e).syllables)
    return Word(pieces)


def exponent_sums(w: Word, rank: int) -> tuple[int, ...]:
    """Total exponent of each of the first ``rank`` generators."""
    sums = [0] * rank
    for g, e in w.syllables:
        if g > rank:
            raise ValueError(f"generator index {g} exceeds rank {rank}")
        sums[g - 1] += e
    return tuple(sums)


def cyclic_reduce(w: Word) -> Word:
    """Strip cancelling prefix/suffix pairs; the result is a conjugate of w."""
    if len(w.syllables) < 2 or w.syllables[0][0] != w.syllables[-1][0]:
        return w
    syl = list(w.syllables)
    while len(syl) >= 2 and syl[0][0] == syl[-1][0]:
        g = syl[0][0]
        e = syl[0][1] + syl[-1][1]
        syl = syl[1:-1]
        if e != 0:
            # inner neighbours use other generators, so this is final
            syl.insert(0, (g, e))
            break
    return Word(syl)


def cyclic_normal_form(w: Word) -> tuple[int, ...]:
    """Canonical representative of w under rotation and inversion.

    Two relators define the same normal closure contribution exactly when
    their normal forms agree (after cyclic reduction).
    """
    w = cyclic_reduce(w)
    letters = w.letters()
    if not letters:
        return ()
    inv = [-x for x in reversed(letters)]
    best: tuple[int, ...] | None = None
    n = len(letters)
    for seq in (letters, inv):
        doubled = seq + seq
        # the least rotation starts at an occurrence of the least letter
        low = min(seq)
        for i in [i for i, x in enumerate(seq) if x == low]:
            cand = tuple(doubled[i:i + n])
            if best is None or cand < best:
                best = cand
    assert best is not None
    return best


def parse_word(text: str, names: Sequence[str]) -> Word:
    """Parse the word grammar ``name`` / ``name^k`` / ``1`` over ``names``."""
    index = {name: i + 1 for i, name in enumerate(names)}
    pairs: list[Syllable] = []
    for token in text.split():
        if token == "1":
            continue
        m = _TOKEN_RE.match(token)
        if not m:
            raise ValueError(f"bad word token {token!r}")
        name, exp = m.group(1), m.group(2)
        if name not in index:
            raise ValueError(f"unknown generator {name!r}")
        e = int(exp) if exp is not None else 1
        if e == 0:
            raise ValueError(f"zero exponent in token {token!r}")
        pairs.append((index[name], e))
    return Word(pairs)


def format_word(w: Word, names: Sequence[str]) -> str:
    """Print a word; exact inverse of :func:`parse_word`."""
    if w.is_identity:
        return "1"
    parts = []
    for g, e in w.syllables:
        if g > len(names):
            raise ValueError(f"generator index {g} has no name (rank {len(names)})")
        parts.append(names[g - 1] if e == 1 else f"{names[g - 1]}^{e}")
    return " ".join(parts)


def is_valid_name(name: str) -> bool:
    return bool(_NAME_RE.fullmatch(name)) and name != "1"
