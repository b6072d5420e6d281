"""Finite groups as verified multiplication tables, and homomorphism counting.

Homomorphism counts into a battery of small groups separate all the
presentations handled at desk scale, without ever claiming isomorphism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .presentations import Presentation
from .words import Word

DEFAULT_HOM_CAP = 1_000_000


class HomCountCapExceeded(RuntimeError):
    """Raised instead of silently truncating an oversized search space."""


@dataclass(frozen=True)
class FiniteGroupTable:
    name: str
    table: tuple[tuple[int, ...], ...]
    identity: int = 0
    _inverse: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _power_rows: dict[int, tuple[int, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        n = len(self.table)
        if any(len(row) != n for row in self.table):
            raise ValueError("multiplication table must be square")
        e = self.identity
        if not 0 <= e < n:
            raise ValueError(f"{self.name}: identity {e} is not an element of a table of order {n}")
        for a in range(n):
            if self.table[e][a] != a or self.table[a][e] != a:
                raise ValueError(f"{self.name}: identity axiom fails at {a}")
        inverse = [-1] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == e and self.table[b][a] == e:
                    inverse[a] = b
                    break
            if inverse[a] < 0:
                raise ValueError(f"{self.name}: element {a} has no inverse")
        # Light's test: the b with (x·b)·y == x·(b·y) for all x, y are closed
        # under products (Clifford & Preston 1961), so checking b over a
        # set that generates every element by left-bracketed products
        # proves associativity in O(n^2 |gens|) instead of O(n^3).
        for b in _light_generators(self.table, e):
            row_b = self.table[b]
            for x in range(n):
                row_x = self.table[x]
                row_xb = self.table[row_x[b]]
                for y in range(n):
                    if row_xb[y] != row_x[row_b[y]]:
                        raise ValueError(f"{self.name}: associativity fails at {(x, b, y)}")
        object.__setattr__(self, "_inverse", tuple(inverse))

    @property
    def order(self) -> int:
        return len(self.table)

    def multiply(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self._inverse[a]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self._inverse[a], -k
        out = self.identity
        while k:
            if k & 1:
                out = self.table[out][a]
            a = self.table[a][a]
            k >>= 1
        return out

    def power_row(self, k: int) -> tuple[int, ...]:
        """The map ``a -> a^k`` as a row indexed by element, built once per ``k``."""
        row = self._power_rows.get(k)
        if row is None:
            row = tuple(self.power(a, k) for a in range(self.order))
            self._power_rows[k] = row
        return row

    @cached_property
    def classes(self) -> tuple[tuple[int, int], ...]:
        """Conjugacy classes as (least element, class size), by least element."""
        inv = self._inverse
        seen = [False] * self.order
        out = []
        for a in range(self.order):
            if seen[a]:
                continue
            members = {self.table[self.table[h][a]][inv[h]] for h in range(self.order)}
            for c in members:
                seen[c] = True
            out.append((a, len(members)))
        return tuple(out)


def _light_generators(table, identity: int) -> list[int]:
    """A greedy generating set without the identity: every element is the
    identity or a left-bracketed product ``(..(g1·g2)..)·gk`` of its members."""
    n = len(table)
    reached = [False] * n
    reached[identity] = True
    gens: list[int] = []
    for a in range(n):
        if reached[a]:
            continue
        gens.append(a)
        stack = [x for x in range(n) if reached[x]]
        while stack:
            x = stack.pop()
            for g in gens:
                y = table[x][g]
                if not reached[y]:
                    reached[y] = True
                    stack.append(y)
    return gens


def cyclic_group_table(n: int) -> FiniteGroupTable:
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroupTable(f"Z{n}", table)


def symmetric_group_table(n: int) -> FiniteGroupTable:
    """S_n on the permutations of range(n) in lexicographic order."""
    if n < 2:
        # one element; itemgetter needs two indices to return a tuple
        return FiniteGroupTable(f"S{n}", ((0,),))
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # product = apply right permutation first, then the left one:
    # itemgetter(*q)(p) is the tuple p[q[0]], ..., p[q[n-1]]
    composers = [itemgetter(*q) for q in perms]
    table = tuple(tuple([index[compose(p)] for compose in composers]) for p in perms)
    return FiniteGroupTable(f"S{n}", table)


def dihedral_group_table(n: int) -> FiniteGroupTable:
    """Dihedral group of order 2n; element 2k is rotation k, 2k+1 a reflection."""
    def mul(a, b):
        ra, fa = divmod(a, 2)[0], a % 2
        rb, fb = divmod(b, 2)[0], b % 2
        if fa == 0:
            return 2 * ((ra + rb) % n) + fb
        return 2 * ((ra - rb) % n) + (1 - fb)

    size = 2 * n
    table = tuple(tuple(mul(a, b) for b in range(size)) for a in range(size))
    return FiniteGroupTable(f"D{n}", table)


def _relator_support(rels: list[Word]) -> list[set[int]]:
    return [set(g for g, _ in r) for r in rels]


def hom_count(p: Presentation, group: FiniteGroupTable,
              cap: int = DEFAULT_HOM_CAP) -> int:
    """Number of homomorphisms from the presented group into ``group``.

    Backtracks over generator assignments, checking each relator as soon
    as its generators are assigned.  Generators that share no relator are
    counted independently, and the first generator of each component runs
    over one element per conjugacy class, weighted by the class size;
    neither changes the result.  Refuses outright when the nominal search
    space ``order ** rank`` exceeds ``cap``, whatever these reductions save.
    """
    n = p.rank
    if group.order ** n > cap:
        raise HomCountCapExceeded(
            f"{group.order}^{n} assignments exceed the cap of {cap}"
        )
    if n == 0:
        return 1

    rels = [r for r in p.relators if not r.is_identity]
    support = _relator_support(rels)

    # connected components of generators linked through common relators
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in support:
        s = sorted(s)
        for a, b in zip(s, s[1:]):
            parent[find(a)] = find(b)

    components: dict[int, list[int]] = {}
    for g in range(1, n + 1):
        components.setdefault(find(g), []).append(g)

    total = 1
    for gens in components.values():
        rel_here = [r for r, s in zip(rels, support) if s and s.issubset(set(gens))]
        total *= _count_component(gens, rel_here, group)
    return total


def _count_component(gens: list[int], rels: list[Word],
                     group: FiniteGroupTable) -> int:
    k = len(gens)
    if not rels:
        return group.order ** k
    pos = {g: i for i, g in enumerate(gens)}
    compiled = [[(pos[g], group.power_row(e)) for g, e in r] for r in rels]
    # check each relator as soon as all its generators are assigned
    by_depth: list[list[list[tuple[int, tuple[int, ...]]]]] = [[] for _ in range(k)]
    for c in compiled:
        by_depth[max(i for i, _ in c)].append(c)

    table = group.table
    identity = group.identity
    assignment = [0] * k

    def holds(depth: int) -> bool:
        for rel in by_depth[depth]:
            acc = identity
            for i, row in rel:
                acc = table[acc][row[assignment[i]]]
            if acc != identity:
                return False
        return True

    def count_from(depth: int) -> int:
        if depth == k:
            return 1
        count = 0
        for val in range(group.order):
            assignment[depth] = val
            if holds(depth):
                count += count_from(depth + 1)
        return count

    # conjugating by h maps the homomorphisms sending the first generator
    # to a one-to-one onto those sending it to h a h^-1
    total = 0
    for rep, size in group.classes:
        assignment[0] = rep
        if holds(0):
            total += size * count_from(1)
    return total


def default_battery() -> list[FiniteGroupTable]:
    """S3, S4 and the cyclic groups Z2 through Z6."""
    return [symmetric_group_table(3), symmetric_group_table(4)] + [
        cyclic_group_table(n) for n in range(2, 7)
    ]
