"""The fundamental group of a closed genus-g surface and its curve catalog.

Generators are the handle loops a_1..a_g, b_1..b_g, indexed 1..2g with
a_i at index i and b_i at index g+i.  The catalog provides the separating
curves c_i, the chain curves B_0..B_g of the built-in trivial monodromy
word, and the extra middle curves that word needs when the genus is odd.

Homology classes are integer tuples in Z^(2g) in the (a_1..a_g, b_1..b_g)
basis, paired by the intersection form with <a_i, b_i> = +1.  A right Dehn
twist about a curve of class c acts on them as x -> x + <x, c> c.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .words import Word, exponent_sums

HomologyClass = tuple[int, ...]


class SurfaceGroup:
    """pi_1 of the closed orientable surface of genus g >= 1."""

    def __init__(self, genus: int):
        if genus < 1:
            raise ValueError("genus must be >= 1")
        self.genus = genus
        self.generator_names = tuple(
            [f"a{i}" for i in range(1, genus + 1)]
            + [f"b{i}" for i in range(1, genus + 1)]
        )

    def a(self, i: int, exp: int = 1) -> Word:
        self._check_index(i)
        return Word([(i, exp)])

    def b(self, i: int, exp: int = 1) -> Word:
        self._check_index(i)
        return Word([(self.genus + i, exp)])

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.genus:
            raise ValueError(f"handle index {i} out of range 1..{self.genus}")

    @property
    def relator(self) -> Word:
        """b_g^-1 ... b_1^-1 (a_1 b_1 a_1^-1) ... (a_g b_g a_g^-1)."""
        return self.separating_curve(self.genus)

    def presentation_tuple(self) -> tuple[tuple[str, ...], tuple[Word, ...]]:
        return self.generator_names, (self.relator,)

    # -- curve catalog ------------------------------------------------------

    def separating_curve(self, i: int) -> Word:
        """c_i = b_i^-1 .. b_1^-1 (a_1 b_1 a_1^-1) .. (a_i b_i a_i^-1).

        Splits the surface into a genus-i and a genus-(g-i) part; c_0 is
        the boundary of a disk and is the identity.
        """
        if not 0 <= i <= self.genus:
            raise ValueError(f"separating curve index {i} out of range 0..{self.genus}")
        return Word(self._separating_syllables(i))

    def _separating_syllables(self, i: int) -> list[tuple[int, int]]:
        g = self.genus
        pieces = [(g + t, -1) for t in range(i, 0, -1)]
        for t in range(1, i + 1):
            pieces += [(t, 1), (g + t, 1), (t, -1)]
        return pieces

    def chain_curve(self, index: int) -> Word:
        """The chain curve with the given subscript, 0 <= index <= g+1.

        Even subscript 2k: a_k b_(k+1) .. b_(g-k) c_(g-k) a_(g-k+1).
        Odd subscript 2k+1: a_(k+1) b_(k+1) .. b_(g-k) c_(g-k) a_(g-k).
        Out-of-range handle loops a_0 and a_(g+1) are read as the identity.
        """
        g = self.genus
        if not 0 <= index <= g + 1:
            raise ValueError(f"chain curve index {index} out of range 0..{g + 1}")
        k, odd = divmod(index, 2)
        first = k + 1 if odd else k
        last = g - k if odd else g - k + 1
        # Word() reduces the b-run against the b^-1 run that opens c_(g-k)
        pieces = [(first, 1)] if 1 <= first <= g else []
        pieces += [(g + t, 1) for t in range(k + 1, g - k + 1)]
        pieces += self._separating_syllables(g - k)
        if 1 <= last <= g:
            pieces.append((last, 1))
        return Word(pieces)

    def middle_curves(self) -> tuple[Word, ...]:
        """Extra twist curves of the trivial word: one separating curve for
        even genus, a middle handle loop and its companion for odd genus."""
        g = self.genus
        if g % 2 == 0:
            return (self.separating_curve(g // 2),)
        mid = (g + 1) // 2
        return (self.a(mid), self.separating_curve((g - 1) // 2) * self.a(mid))

    def monodromy_cycles(self) -> list[Word]:
        """Ordered twist centers of the built-in trivial mapping-class word.

        Even genus: (c, B_g, ..., B_0) twice, 2g+4 entries.  Odd genus:
        (u, u, v, v, B_g, ..., B_0) twice with (u, v) the middle curves,
        2g+10 entries.
        """
        g = self.genus
        chain = [self.chain_curve(j) for j in range(g, -1, -1)]
        if g % 2 == 0:
            (c,) = self.middle_curves()
            half = [c] + chain
        else:
            u, v = self.middle_curves()
            half = [u, u, v, v] + chain
        return half + half

    # -- homology -----------------------------------------------------------

    def homology_class(self, w: Word) -> HomologyClass:
        return exponent_sums(w, 2 * self.genus)

    def intersection(self, x: HomologyClass, y: HomologyClass) -> int:
        g = self.genus
        if len(x) != 2 * g or len(y) != 2 * g:
            raise ValueError("homology classes must have length 2g")
        total = 0
        for i in range(g):
            total += x[i] * y[g + i] - x[g + i] * y[i]
        return total

    def twist(self, x: HomologyClass, c: HomologyClass) -> HomologyClass:
        """The right Dehn twist about a curve of class c applied to x:
        x + <x, c> c."""
        k = self.intersection(x, c)
        return tuple(xi + k * ci for xi, ci in zip(x, c)) if k else x


@dataclass(frozen=True)
class HomologyCertificate:
    genus: int
    ok: bool
    cycle_classes: tuple[HomologyClass, ...]
    product: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        verdict = "identity" if self.ok else "NOT identity"
        return (
            f"genus {self.genus}: product of {len(self.cycle_classes)} "
            f"transvections is {verdict}"
        )


def verify_homology_triviality(genus: int, cycles: list[Word] | None = None) -> HomologyCertificate:
    """Certify that the trivial monodromy word acts trivially on homology.

    The product P = T_1 .. T_n of the twists about the listed centers is
    built row by row, starting from the identity.  Each twist, from the last
    center to the first, acts on every column of P at once: with
    Jc = (c_b, -c_a), so that <x, c> = x . Jc, the row vector v = (Jc)^T P
    holds <x, c> for every column x, and row i gains c_i v.  ``product``
    holds P row by row, and P is compared with the identity exactly.

    P must also preserve the intersection form, <P e_i, P e_j> =
    <e_i, e_j>.  That check runs only when P is not the identity: for
    P = I both sides are the same pairing of the same classes, so it cannot
    fail.  Pass ``cycles`` to check a mutated list instead of the standard
    one.
    """
    surface = SurfaceGroup(genus)
    if cycles is None:
        cycles = surface.monodromy_cycles()
    classes = tuple(surface.homology_class(w) for w in cycles)
    n = 2 * genus
    basis = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    rows = [list(e) for e in basis]
    for c in reversed(classes):
        jc = c[genus:] + tuple(-ci for ci in c[:genus])
        # v is read off the rows as they were before this twist; the
        # updates below build new lists, so a row that v aliases stays put
        v = None
        for k, row in zip(jc, rows):
            if k:
                term = row if k == 1 else list(map(k.__mul__, row))
                v = term if v is None else list(map(add, v, term))
        if v is None:
            continue
        for i, k in enumerate(c):
            if k:
                rows[i] = list(map(add, rows[i], v if k == 1 else map(k.__mul__, v)))
    product = tuple(map(tuple, rows))
    ok = product == basis
    if not ok:
        columns = list(zip(*product))
        if any(surface.intersection(columns[i], columns[j])
               != surface.intersection(basis[i], basis[j])
               for i in range(n) for j in range(i + 1, n)):
            raise AssertionError("the twist product failed the symplectic check")
    return HomologyCertificate(
        genus=genus,
        ok=ok,
        cycle_classes=classes,
        product=product,
    )
