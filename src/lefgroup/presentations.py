"""Finitely presented groups: text grammar, Tietze moves, abelianization.

The text grammar is ``pres := "<" names "|" relators? ">"`` with
comma-separated generator names and relators written in the word grammar
of :mod:`lefgroup.words`.  The printer is an exact inverse of the parser.
A presentation with no generators prints as ``< | >``.
"""

from __future__ import annotations

import heapq
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .snf import smith_normal_form
from .words import (
    Word,
    cyclic_normal_form,
    cyclic_reduce,
    format_word,
    is_valid_name,
    parse_word,
    substitute,
)

DEFAULT_BUDGET = 10_000


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        names = self.generators
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        for name in names:
            if not is_valid_name(name):
                raise ValueError(f"bad generator name {name!r}")
        rank = len(names)
        for r in self.relators:
            if r.max_index() > rank:
                raise ValueError(
                    f"relator {r!r} uses generator index {r.max_index()} "
                    f"but the presentation has rank {rank}"
                )

    @property
    def rank(self) -> int:
        return len(self.generators)

    def relator_texts(self) -> list[str]:
        return [format_word(r, self.generators) for r in self.relators]

    def word(self, text: str) -> Word:
        return parse_word(text, self.generators)


def presentation(gens: str | Sequence[str], *relator_texts: str) -> Presentation:
    """Convenience builder: ``presentation("x,y", "x^2", "x y x^-1 y^-1")``."""
    names = tuple(g.strip() for g in gens.split(",")) if isinstance(gens, str) else tuple(gens)
    names = tuple(n for n in names if n)
    rels = tuple(parse_word(t, names) for t in relator_texts)
    return Presentation(names, rels)


def parse_presentation(text: str) -> Presentation:
    stripped = text.strip()
    if not stripped.startswith("<"):
        raise ValueError(f"expected '<' at position {text.find(text.lstrip()[0]) if text.strip() else 0}")
    if not stripped.endswith(">"):
        raise ValueError(f"expected '>' at position {len(text) - 1}")
    body = stripped[1:-1]
    if "|" not in body:
        raise ValueError(f"expected '|' inside presentation at position {text.find(body) + len(body)}")
    names_part, _, rel_part = body.partition("|")
    names = tuple(n.strip() for n in names_part.split(",") if n.strip())
    for name in names:
        if not is_valid_name(name):
            raise ValueError(f"bad generator name {name!r} at position {text.find(name)}")
    rel_texts = [t.strip() for t in rel_part.split(",") if t.strip()]
    rels = tuple(parse_word(t, names) for t in rel_texts)
    return Presentation(names, rels)


def format_presentation(p: Presentation) -> str:
    head = f"< {', '.join(p.generators)} |" if p.generators else "< |"
    rels = ", ".join(p.relator_texts())
    return f"{head} {rels} >" if rels else f"{head} >"


def same_presentation(p: Presentation, q: Presentation) -> bool:
    """Equality up to free/cyclic reduction, rotation and inversion of relators."""
    if p.generators != q.generators:
        return False
    left = Counter(cyclic_normal_form(r) for r in p.relators if not cyclic_reduce(r).is_identity)
    right = Counter(cyclic_normal_form(r) for r in q.relators if not cyclic_reduce(r).is_identity)
    return left == right


# ---------------------------------------------------------------------------
# abelianization


@dataclass(frozen=True)
class AbelianInvariants:
    """Free rank plus torsion coefficients, each dividing the next."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {self.torsion} violates divisibility")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion coefficients must be >= 2")

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z_{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def abelianization(p: Presentation) -> AbelianInvariants:
    """Invariant factors of the relator exponent matrix."""
    n = p.rank
    matrix = []
    for r in p.relators:
        row = [0] * n
        for g, e in r:
            row[g - 1] += e
        matrix.append(row)
    if not matrix:
        return AbelianInvariants(n, ())
    diag = smith_normal_form(matrix).diagonal
    nonzero = [d for d in diag if d != 0]
    return AbelianInvariants(n - len(nonzero), tuple(d for d in nonzero if d >= 2))


def generator_lower_bound(p: Presentation) -> int:
    """Minimal generator count of the abelianization, a lower bound for the group."""
    inv = abelianization(p)
    return inv.free_rank + len(inv.torsion)


# ---------------------------------------------------------------------------
# Tietze simplification
#
# One call keeps its relators in a _TietzeState.  Generators keep their
# input indices until the loop ends, and the survivors are renumbered once.
# That renaming is monotone, so every comparison on the way (the pin order
# and the order of cyclic normal forms) decides as it would on renumbered
# words.  An occurrence index maps each generator to the relators that
# hold it, so an elimination rewrites only those relators; each relator's
# pin key and normal form are cached and recomputed only when it changes.
# The images of the input generators are built once, at the end, by
# back-substituting the recorded replacements in reverse elimination order;
# substitution composes and free reduction is canonical, so these are the
# words that substituting into every image on every pass would give.
#
# One-letter relators (mostly kill words that are, or have shrunk to, a
# single handle curve) pin most eliminations, and each would settle every
# relator that holds its generator again.  While the least pin key has
# length 1, its generator and every other generator that a one-letter
# relator pins, now or after the kills shrink one, are killed as one batch
# (_TietzeState._kill_letters).  The result is exactly that of killing them
# one pass at a time:
# - Setting generators to 1 is a homomorphism that maps conjugates to
#   conjugates and inverses to inverses, so a relator's normal form after
#   the batch does not depend on the kill order, nor does which relators
#   shrink to one letter; two relators that share a form share it from then
#   on, and a collision keeps the lower position whenever it happens.  So
#   the pins, the surviving positions and the killed generators are those
#   of the one-at-a-time run, and normal forms are computed once per batch.
# - The rotation a relator is stored in does depend on the order, because
#   cyclic reduction keeps the point where the word starts (see _Ring).
#   The batch therefore kills in the one-at-a-time order, highest generator
#   first, and reduces each touched relator after every kill.
# - Each kill counts as one pass, and a batch stops after as many kills as
#   the budget has passes left, so a budget that ends inside a batch leaves
#   the state after exactly that many one-at-a-time kills.


@dataclass
class TietzeResult:
    presentation: Presentation
    original_generators: tuple[str, ...]
    images: dict[str, Word] = field(default_factory=dict)
    passes: int = 0
    budget_exhausted: bool = False

    def image_of(self, w: Word) -> Word:
        """Push a word over the original generators into the simplified ones."""
        table = {
            i + 1: self.images[name] for i, name in enumerate(self.original_generators)
        }
        return substitute(w, table)


class _TietzeState:
    """The relators of one simplification, keyed by their input position.

    Every stored relator is cyclically reduced, is not the identity, and is
    the only one with its cyclic normal form: of two relators that share a
    form the lower position stays, as a pass over the list in order keeps
    the first.  A relator pins a generator that occurs in exactly one of
    its syllables, with exponent +-1; the relator then rewrites that
    generator as a word in the others.  Its pin key ``(length, -generator,
    position)`` names the highest such generator, so the least key over
    all relators picks the shortest relator and, on ties, the
    highest-index generator, keeping low-index generators alive.
    """

    def __init__(self, relators: Sequence[Word], rank: int):
        self.words: dict[int, Word] = {}
        self.forms: dict[int, tuple[int, ...]] = {}
        self.holder: dict[tuple[int, ...], int] = {}
        self.pins: dict[int, tuple[int, int, int]] = {}
        self.occurs: dict[int, set[int]] = {g: set() for g in range(1, rank + 1)}
        self.replacements: list[tuple[int, Word]] = []
        self.barren: set[tuple[str, str]] = set()
        for ri, r in enumerate(relators):
            self._settle(ri, r)

    def _settle(self, ri: int, w: Word) -> None:
        c = cyclic_reduce(w)
        if c.is_identity:
            return
        form = cyclic_normal_form(c)
        other = self.holder.get(form)
        if other is not None:
            if other < ri:
                return
            self._detach(other)
        self.words[ri] = c
        self.forms[ri] = form
        self.holder[form] = ri
        counts = Counter(g for g, _ in c.syllables)
        for g in counts:
            self.occurs[g].add(ri)
        pinned = [g for g, e in c.syllables if counts[g] == 1 and abs(e) == 1]
        if pinned:
            self.pins[ri] = (sum(abs(e) for _, e in c.syllables), -max(pinned), ri)

    def _detach(self, ri: int) -> Word:
        w = self.words.pop(ri)
        del self.holder[self.forms.pop(ri)]
        self.pins.pop(ri, None)
        for g, _ in w.syllables:
            self.occurs[g].discard(ri)
        return w

    def eliminate_pinned(self, limit: int) -> int:
        """Eliminate pinned generators, at most ``limit``; return how many.

        While the least pin key is a one-letter relator this is
        :meth:`_kill_letters`; otherwise it eliminates the generator of the
        least pin key alone.
        """
        if not self.pins:
            return 0
        length, neg_gen, ri = min(self.pins.values())
        if length == 1:
            return self._kill_letters(limit)
        gen = -neg_gen
        r = self._detach(ri)
        pos = next(i for i, (g, _) in enumerate(r.syllables) if g == gen)
        rotated = r.syllables[pos:] + r.syllables[:pos]
        rest = Word(rotated[1:])
        replacement = ~rest if rotated[0][1] == 1 else rest
        inverse = ~replacement
        touched = sorted(self.occurs[gen])
        for i, w in [(i, self._detach(i)) for i in touched]:
            pieces: list[tuple[int, int]] = []
            for g, e in w.syllables:
                if g != gen:
                    pieces.append((g, e))
                else:
                    pieces.extend((replacement if e > 0 else inverse).syllables * abs(e))
            self._settle(i, Word(pieces))
        self.replacements.append((gen, replacement))
        return 1

    def _kill_letters(self, limit: int) -> int:
        """Kill up to ``limit`` generators that one-letter relators pin, in
        one batch, and return how many.

        A relator that the kills shrink to one letter adds its generator to
        the batch.  The kills run in the order that one-at-a-time
        elimination takes (highest generator first), and every relator
        they touch is reduced after each kill as that elimination would
        leave it (see :class:`_Ring`).  Only the normal forms, pin keys and
        duplicate checks, which do not depend on the order, wait for the
        end of the batch.
        """
        pending = [neg_gen for length, neg_gen, _ in self.pins.values() if length == 1]
        heapq.heapify(pending)
        queued = set(pending)
        rings: dict[int, _Ring] = {}
        kills = 0
        while pending and kills < limit:
            gen = -heapq.heappop(pending)
            kills += 1
            self.replacements.append((gen, Word()))
            # occurs still indexes the words from before the batch, and a
            # ring only loses generators
            for ri in self.occurs[gen]:
                ring = rings.get(ri)
                if ring is None:
                    ring = rings[ri] = _Ring(self.words[ri])
                letter = ring.kill(gen)
                if letter and -letter not in queued:
                    queued.add(-letter)
                    heapq.heappush(pending, -letter)
        # a ring may now have the old normal form of another ring, so all
        # leave the state before any comes back
        for ri in rings:
            self._detach(ri)
        for ri in sorted(rings):
            self._settle(ri, rings[ri].word())
        return kills

    def rewrite(self) -> bool:
        """Shorten one relator by another (see :func:`_rewrite_pass`)."""
        order = sorted(self.words)
        rels = [self.words[ri] for ri in order]
        ti = _rewrite_pass(rels, self.barren)
        if ti is None:
            return False
        self._detach(order[ti])
        self._settle(order[ti], rels[ti])
        return True

    def result(self, p: Presentation, passes: int, exhausted: bool) -> TietzeResult:
        eliminated = {gen for gen, _ in self.replacements}
        survivors = [g for g in range(1, p.rank + 1) if g not in eliminated]
        renumber = {g: k for k, g in enumerate(survivors, 1)}
        relators = tuple(
            Word((renumber[g], e) for g, e in self.words[ri].syllables)
            for ri in sorted(self.words)
        )
        table = {g: Word.generator(k) for g, k in renumber.items()}
        for gen, replacement in reversed(self.replacements):
            table[gen] = substitute(replacement, table)
        return TietzeResult(
            presentation=Presentation(tuple(p.generators[g - 1] for g in survivors), relators),
            original_generators=p.generators,
            images={name: table[i] for i, name in enumerate(p.generators, 1)},
            passes=passes,
            budget_exhausted=exhausted,
        )


class _Ring:
    """A cyclically reduced relator as a ring of syllables closed by a cut
    node at the point where its word starts.

    Killing a generator unlinks its syllables, freely reduces where they
    were, then cyclically reduces across the cut: exactly what cutting the
    letters out of the word, freely reducing and calling
    :func:`cyclic_reduce` do, at a cost of the syllables touched rather
    than the length.  That reduction keeps the cut: it starts the word at
    a syllable merged across it.  So which rotation a relator ends up in
    depends on the order of the kills (``b^-1 a^2 b^2 x b y`` with y then
    x killed gives ``a^2 b^2``, with both cut at once ``b^2 a^2``), and a
    batch must kill in the one-at-a-time order, reducing after each kill.
    """

    __slots__ = ("gen", "exp", "prv", "nxt", "at", "size")

    def __init__(self, w: Word):
        n = self.size = len(w.syllables)
        # node n is the cut; a dead node gets generator 0
        self.gen = [g for g, _ in w.syllables] + [0]
        self.exp = [e for _, e in w.syllables] + [0]
        self.prv = [n, *range(n)]
        self.nxt = [*range(1, n + 1), 0]
        self.at: dict[int, list[int]] = {}
        for i in range(n):
            self.at.setdefault(self.gen[i], []).append(i)

    def _unlink(self, i: int) -> tuple[int, int]:
        p, q = self.prv[i], self.nxt[i]
        self.nxt[p], self.prv[q] = q, p
        self.gen[i] = 0
        self.size -= 1
        return p, q

    def kill(self, g: int) -> int:
        """Set generator g to 1; return h when the ring is left as h^+-1."""
        gen, exp, cut = self.gen, self.exp, len(self.gen) - 1
        for i in self.at.pop(g, ()):
            if gen[i] != g:
                continue
            a, b = self._unlink(i)
            while a != cut and b != cut and gen[a] == gen[b]:
                s = exp[a] + exp[b]
                self._unlink(b)
                if s:
                    exp[a] = s
                    break
                a, b = self._unlink(a)
        while True:
            x, y = self.prv[cut], self.nxt[cut]
            if x == y or gen[x] != gen[y]:
                break
            s = exp[x] + exp[y]
            self._unlink(x)
            if s:
                exp[y] = s
                break
            self._unlink(y)
        first = self.nxt[cut]
        return gen[first] if self.size == 1 and abs(exp[first]) == 1 else 0

    def word(self) -> Word:
        out = []
        cut = len(self.nxt) - 1
        i = self.nxt[cut]
        while i != cut:
            out.append((self.gen[i], self.exp[i]))
            i = self.nxt[i]
        return Word(out)


# The rewrite pass spells each relator as a str, one code point per signed
# letter x, namely chr(x + _LETTER_OFFSET), so that str.find does the
# piece search.  Every index up to _LETTER_OFFSET has its own code points.
_LETTER_OFFSET = sys.maxunicode // 2


def _spell(letters: list[int]) -> str:
    return "".join([chr(x + _LETTER_OFFSET) for x in letters])


def _unspell(text: str) -> list[int]:
    return [ord(c) - _LETTER_OFFSET for c in text]


def _rewrite_pass(rels: list[Word], barren: set[tuple[str, str]]) -> int | None:
    """Shorten one relator using a cyclic piece of another; return its index.

    Replacing more than half of a relator s inside a relator t multiplies t
    by a conjugate of a rotation of s, so the normal closure is unchanged
    while t gets strictly shorter.

    Whether s shortens t depends on those two words alone, so the spelled
    pairs (t, s) that shortened nothing are added to ``barren`` and skipped
    when a later pass meets them again; the scan order is the same.
    """
    top = max((r.max_index() for r in rels), default=0)
    if top > _LETTER_OFFSET:
        raise ValueError(
            f"rewriting supports generator indices up to {_LETTER_OFFSET}, got {top}"
        )
    texts = [_spell(r.letters()) for r in rels]
    inverses = [_spell([-x for x in reversed(r.letters())]) for r in rels]
    order = sorted(range(len(rels)), key=lambda i: -len(texts[i]))
    for ti in order:
        t = texts[ti]
        m = len(t)
        if not m:
            continue
        doubled = t + t
        for si, s in enumerate(texts):
            n = len(s)
            if si == ti or n > m or not n or (t, s) in barren:
                continue
            for var in (s, inverses[si]):
                var2 = var + var
                for rot in range(n):
                    rotation = var2[rot:rot + n]
                    for ulen in range(n, n // 2, -1):
                        # the leftmost start below m, as in the doubled cyclic word
                        hit = doubled.find(rotation[:ulen], 0, m - 1 + ulen)
                        if hit < 0:
                            continue
                        tail = _unspell(rotation[ulen:])
                        rest = _unspell(doubled[hit + ulen:hit + m])
                        new = Word.from_letters([-x for x in reversed(tail)] + rest)
                        new = cyclic_reduce(new)
                        if len(new) < m:
                            rels[ti] = new
                            return ti
            barren.add((t, s))
    return None


def tietze_simplify(p: Presentation, budget: int = DEFAULT_BUDGET,
                    rewrite: bool = True) -> TietzeResult:
    """Simplify a presentation without changing the group it defines.

    Applies, until a fixed point or the pass budget runs out: removal of
    identity relators, removal of relators that duplicate another up to
    rotation or inversion, elimination of pinned generators, and (when
    ``rewrite`` is set) shortening of a relator by another one.

    A pass is one eliminated generator, one rewrite, or the last look that
    finds nothing to do.  Generators pinned by one-letter relators are
    killed in batches, with the result and pass count of killing them one
    pass at a time, and a batch never runs past the budget (see the notes
    above :class:`TietzeResult`).
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    state = _TietzeState(p.relators, p.rank)
    passes = 0
    exhausted = False
    while True:
        if passes >= budget:
            exhausted = True
            break
        eliminated = state.eliminate_pinned(budget - passes)
        if eliminated:
            passes += eliminated
            continue
        passes += 1
        if rewrite and state.rewrite():
            continue
        break
    return state.result(p, passes, exhausted)
