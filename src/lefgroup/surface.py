"""The fundamental group of a closed genus-g surface and its curve catalog.

Generators are the handle loops a_1..a_g, b_1..b_g, indexed 1..2g with
a_i at index i and b_i at index g+i.  The catalog provides the separating
curves c_i, the chain curves B_0..B_g of the built-in trivial monodromy
word, and the extra middle curves that word needs when the genus is odd.

Homology classes live in Z^(2g) in the (a_1..a_g, b_1..b_g) basis; a right
Dehn twist about a curve acts as the symplectic transvection
x -> x + <x, c> c where <a_i, b_i> = +1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def intersection_matrix(self) -> np.ndarray:
        g = self.genus
        j = np.zeros((2 * g, 2 * g), dtype=object)
        for i in range(g):
            j[i, g + i] = 1
            j[g + i, i] = -1
        return j

    def intersection(self, x: HomologyClass, y: HomologyClass) -> int:
        g = self.genus
        if len(x) != 2 * g or len(y) != 2 * g:
            raise ValueError("homology classes must have length 2g")
        total = 0
        for i in range(g):
            total += x[i] * y[g + i] - x[g + i] * y[i]
        return total

    def transvection(self, c: HomologyClass) -> np.ndarray:
        """Matrix of x -> x + <x, c> c on column vectors, exact integers."""
        g = self.genus
        if len(c) != 2 * g:
            raise ValueError("homology class must have length 2g")
        col = np.array(c, dtype=object).reshape(-1, 1)
        jc = self.intersection_matrix() @ col
        return np.identity(2 * g, dtype=object) + col @ jc.T


def is_symplectic(surface: SurfaceGroup, m: np.ndarray) -> bool:
    j = surface.intersection_matrix()
    return bool(np.array_equal(m.T @ j @ m, j))


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

    Multiplies the transvections of the twist centers in their listed
    order (the matrix of "apply x then y" acting on row vectors) and
    compares with the identity, exactly.  Pass ``cycles`` to check a
    mutated list instead of the standard one.
    """
    surface = SurfaceGroup(genus)
    if cycles is None:
        cycles = surface.monodromy_cycles()
    classes = tuple(surface.homology_class(w) for w in cycles)
    product = np.identity(2 * genus, dtype=object)
    for cls in classes:
        m = surface.transvection(cls)
        if not is_symplectic(surface, m):
            raise AssertionError("transvection failed the symplectic check")
        product = product @ m
    return HomologyCertificate(
        genus=genus,
        ok=bool(np.array_equal(product, np.identity(2 * genus, dtype=object))),
        cycle_classes=classes,
        product=tuple(tuple(int(x) for x in row) for row in np.asarray(product)),
    )


def format_matrix(m) -> str:
    """Row-major integer text, one row per line."""
    return "\n".join(" ".join(str(int(x)) for x in row) for row in np.asarray(m))
