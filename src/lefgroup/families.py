"""Presentation families, their fiber-genus bounds, and certificates.

Families are given by the two-generator form (x = first half twist,
y = product of all half twists) or, for the Artin family, a three
generator form.  Certificates check the printed relators against a
faithful representation where one is available at desk scale: the braid
action on a free group, permutations for the symmetric family, and free
product normal forms for the hyperelliptic word identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coset_enum import CosetEnumeration, coset_enumerate
from .fibration import FibrationPlan, PlanQuotient, append_base_twist, base_plan, fundamental_group
from .presentations import Presentation
from .surface import SurfaceGroup
from .words import Word, format_word, substitute

FAMILIES = (
    "braid",
    "hyperelliptic",
    "sphere_mcg",
    "symmetric",
    "artin",
    "abelian",
    "surface",
    "small_abelian",
)


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple[int, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        _validate_params(self.family, self.params)


# one-parameter families: the parameter's name and its least value
_SINGLE_PARAM = {"braid": ("n", 2), "hyperelliptic": ("g", 1), "sphere_mcg": ("n", 2),
                 "symmetric": ("n", 2), "artin": ("n", 5), "surface": ("g", 0)}


def _validate_params(family: str, params: tuple[int, ...]) -> None:
    if family in _SINGLE_PARAM:
        name, least = _SINGLE_PARAM[family]
        if len(params) != 1:
            raise ValueError(f"{family} takes one parameter {name} >= {least}, got {params}")
        if params[0] < least:
            raise ValueError(f"{family} needs {name} >= {least}")
        return
    if len(params) < 2:
        raise ValueError("abelian takes n, k, then k torsion orders")
    n, k = params[0], params[1]
    ms = params[2:]
    if n < 0 or k < 0 or len(ms) != k:
        raise ValueError(f"abelian params malformed: {params}")
    if any(m < 2 for m in ms):
        raise ValueError("torsion orders must be >= 2")
    if family == "abelian" and n + k < 3:
        raise ValueError("abelian needs n + k >= 3 (smaller cases are tabulated)")
    if family == "small_abelian" and n + k > 2:
        raise ValueError("small_abelian covers n + k <= 2 only")

def family_spec(family: str, *params: int) -> FamilySpec:
    """Build a spec, routing abelian groups with n + k <= 2 to the table."""
    if family == "abelian" and len(params) >= 2 and params[0] + params[1] <= 2:
        family = "small_abelian"
    return FamilySpec(family, tuple(params))


# ---------------------------------------------------------------------------
# presentations

_X, _Y, _Z = Word.generator(1), Word.generator(2), Word.generator(3)


def _commutation_relator(k: int) -> Word:
    # x y^k x y^-k x^-1 y^k x^-1 y^-k
    return Word([(1, 1), (2, k), (1, 1), (2, -k), (1, -1), (2, k), (1, -1), (2, -k)])


_BRAID_RELATOR = Word(
    [(1, 1), (2, 1), (1, 1), (2, -1), (1, 1), (2, 1),
     (1, -1), (2, -1), (1, -1), (2, 1), (1, -1), (2, -1)]
)


def _power_relator(strands: int) -> Word:
    # (x y)^(strands-1) y^-strands
    return Word([(1, 1), (2, 1)] * (strands - 1) + [(2, -strands)])


def _braid_relators(strands: int) -> list[Word]:
    rels = [_commutation_relator(k) for k in range(2, strands - 1)]
    if strands >= 3:
        rels.append(_BRAID_RELATOR)
    rels.append(_power_relator(strands))
    return rels


def _alternating(first: Word, second: Word, count: int) -> Word:
    w = Word()
    for _ in range(count):
        w = w * first * second
    return w


def family_presentation(spec: FamilySpec) -> Presentation:
    """The printed relator list of the family, over x, y (and z)."""
    fam, params = spec.family, spec.params
    if fam == "braid":
        (n,) = params
        return Presentation(("x", "y"), tuple(_braid_relators(n)))
    if fam == "symmetric":
        (n,) = params
        return Presentation(("x", "y"), tuple(_braid_relators(n) + [Word([(1, 2)])]))
    if fam == "sphere_mcg":
        (n,) = params
        extra = [Word([(2, n)]), _alternating(Word([(2, -1)]), _X, n - 1)]
        return Presentation(("x", "y"), tuple(_braid_relators(n) + extra))
    if fam == "hyperelliptic":
        (g,) = params
        strands = 2 * g + 2
        rels = [_commutation_relator(k) for k in range(2, 2 * g + 1)]
        rels.append(_BRAID_RELATOR)
        rels.append(_power_relator(strands))
        rels.append(Word([(2, strands)]))
        rels.append(_alternating(Word([(2, -1)]), _X, 4 * g + 2))
        rels.append(
            _alternating(Word([(2, -1)]), _X, 2 * g + 1)
            * _alternating(_Y, Word([(1, -1)]), 2 * g + 1)
        )
        return Presentation(("x", "y"), tuple(rels))
    if fam == "artin":
        (n,) = params
        rels = _braid_relators(n)
        conj = Word([(2, 3), (1, 1), (2, -3)])
        conj_inv = Word([(2, 3), (1, -1), (2, -3)])
        rels.append(conj * _Z * conj * ~_Z * conj_inv * ~_Z)
        for i in range(1, n):
            if i == 4:
                continue
            si = Word([(2, i - 1), (1, 1), (2, 1 - i)])
            si_inv = Word([(2, i - 1), (1, -1), (2, 1 - i)])
            rels.append(_Z * si * ~_Z * si_inv)
        return Presentation(("x", "y", "z"), tuple(rels))
    if fam in ("abelian", "small_abelian"):
        n, k = params[0], params[1]
        ms = params[2:]
        total = n + k
        names = tuple(f"x{i}" for i in range(1, total + 1))
        rels = []
        for i in range(1, total + 1):
            for j in range(i + 1, total + 1):
                rels.append(Word([(i, 1), (j, 1), (i, -1), (j, -1)]))
        for idx, m in enumerate(ms):
            rels.append(Word([(n + idx + 1, m)]))
        return Presentation(names, tuple(rels))
    if fam == "surface":
        (g,) = params
        if g == 0:
            return Presentation((), ())
        names, rels = SurfaceGroup(g).presentation_tuple()
        return Presentation(names, rels)
    raise AssertionError(fam)


# ---------------------------------------------------------------------------
# genus bounds


@dataclass(frozen=True)
class GenusBounds:
    lower: int
    upper: int
    exact: bool = False

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")
        if self.exact and self.lower != self.upper:
            raise ValueError("exact bounds must coincide")

    def __str__(self) -> str:
        if self.exact:
            return str(self.lower)
        return f"[{self.lower}, {self.upper}]"


def genus_bounds(spec: FamilySpec) -> GenusBounds:
    """Fiber-genus bounds for the family member, exact where known."""
    fam, params = spec.family, spec.params
    if fam == "braid":
        (n,) = params
        return GenusBounds(1, 1, exact=True) if n == 2 else GenusBounds(2, 4)
    if fam == "hyperelliptic":
        return GenusBounds(2, 4)
    if fam in ("sphere_mcg", "symmetric"):
        (n,) = params
        return GenusBounds(2, 2, exact=True) if n == 2 else GenusBounds(2, 4)
    if fam == "artin":
        return GenusBounds(2, 5)
    if fam == "abelian":
        n, k = params[0], params[1]
        return GenusBounds(math.ceil((n + k + 1) / 2), n + k + 1)
    if fam == "surface":
        (g,) = params
        return GenusBounds(g, g, exact=True)
    if fam == "small_abelian":
        n, k = params[0], params[1]
        if (n, k) == (0, 0):
            return GenusBounds(0, 0, exact=True)
        if (n, k) in ((1, 0), (2, 0), (1, 1)):
            return GenusBounds(1, 1, exact=True)
        # Z_m and Z_m + Z_m'
        return GenusBounds(2, 2, exact=True)
    raise AssertionError(fam)


# ---------------------------------------------------------------------------
# braid certification through the action on a free group


def _half_twist_images(n: int) -> dict[int, Word]:
    """x and y as words in the standard generators of the braid group."""
    return {1: Word([(1, 1)]), 2: Word([(i, 1) for i in range(1, n)])}


def _artin_step(images: list[Word], gen: int, sign: int) -> list[Word]:
    if sign > 0:
        table = {gen: Word([(gen, 1), (gen + 1, 1), (gen, -1)]), gen + 1: Word([(gen, 1)])}
    else:
        table = {gen: Word([(gen + 1, 1)]), gen + 1: Word([(gen + 1, -1), (gen, 1), (gen + 1, 1)])}

    def image(w: Word) -> Word:
        full = {i: table.get(i, Word.generator(i)) for i in range(1, len(images) + 1)}
        return substitute(w, full)

    return [image(w) for w in images]


def braid_automorphism(word: Word, strands: int) -> list[Word]:
    """Images of the free basis under the braid word's action."""
    images = [Word.generator(i) for i in range(1, strands + 1)]
    for g, e in word.syllables:
        if not 1 <= g <= strands - 1:
            raise ValueError(f"braid letter {g} out of range for {strands} strands")
        sign = 1 if e > 0 else -1
        for _ in range(abs(e)):
            images = _artin_step(images, g, sign)
    return images


@dataclass(frozen=True)
class RelatorCertificate:
    family: str
    parameter: int
    ok: bool
    failures: tuple[str, ...] = ()
    coset_result: CosetEnumeration | None = None

    def __str__(self) -> str:
        status = "ok" if self.ok else f"FAILED: {', '.join(self.failures)}"
        extra = f"; {self.coset_result}" if self.coset_result else ""
        return f"{self.family}({self.parameter}) relators {status}{extra}"


def verify_braid_relators(n: int) -> RelatorCertificate:
    """Check the two-generator braid relators via the action on a free group."""
    if not 2 <= n <= 8:
        raise ValueError("braid certification supports 2 <= n <= 8")
    pres = family_presentation(FamilySpec("braid", (n,)))
    images = _half_twist_images(n)
    failures = []
    for r in pres.relators:
        braid_word = substitute(r, images)
        result = braid_automorphism(braid_word, n)
        if any(result[i] != Word.generator(i + 1) for i in range(n)):
            failures.append(format_word(r, pres.generators))
    return RelatorCertificate("braid", n, not failures, tuple(failures))


# ---------------------------------------------------------------------------
# symmetric group certification through permutations


def _perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # apply q first, then p
    return tuple(p[q[i]] for i in range(len(p)))


def _perm_inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _perm_eval(word: Word, images: dict[int, tuple[int, ...]], degree: int) -> tuple[int, ...]:
    acc = tuple(range(degree))
    for g, e in word.syllables:
        p = images[g] if e > 0 else _perm_inv(images[g])
        for _ in range(abs(e)):
            acc = _perm_mul(acc, p)
    return acc


def verify_symmetric_relators(n: int) -> RelatorCertificate:
    """Check the relators on transpositions; enumerate the order for n <= 5."""
    if not 2 <= n <= 8:
        raise ValueError("symmetric certification supports 2 <= n <= 8")
    pres = family_presentation(FamilySpec("symmetric", (n,)))
    transpositions = {}
    for i in range(1, n):
        p = list(range(n))
        p[i - 1], p[i] = p[i], p[i - 1]
        transpositions[i] = tuple(p)
    y = tuple(range(n))
    for i in range(1, n):
        y = _perm_mul(y, transpositions[i])
    images = {1: transpositions[1], 2: y}
    identity = tuple(range(n))
    failures = [
        format_word(r, pres.generators)
        for r in pres.relators
        if _perm_eval(r, images, n) != identity
    ]
    coset = None
    if n <= 5:
        coset = coset_enumerate(pres)
        if not (coset.conclusive and coset.order == math.factorial(n)):
            failures = failures + [f"order {coset.order} != {n}!"]
    return RelatorCertificate("symmetric", n, not failures, tuple(failures), coset)


# ---------------------------------------------------------------------------
# hyperelliptic word identities in Z * Z_m


def reduce_mod_torsion(w: Word, gen: int, m: int) -> Word:
    """Normal form in the free product with gen of order m.

    Exponents of ``gen`` move to the centered residue (ties positive);
    merging may cascade, so iterate to a fixed point.  Words are equal in
    the free product exactly when these normal forms agree.
    """
    if m < 2:
        raise ValueError("torsion order must be >= 2")
    current = w
    while True:
        pairs = []
        for g, e in current.syllables:
            if g == gen:
                e = e % m
                if e > m // 2:
                    e -= m
            if e != 0:
                pairs.append((g, e))
        reduced = Word(pairs)
        if reduced == current:
            return reduced
        current = reduced


@dataclass(frozen=True)
class IdentityCheck:
    label: str
    ok: bool
    left: Word
    right: Word


@dataclass(frozen=True)
class HyperellipticCertificate:
    genus: int
    ok: bool
    checks: tuple[IdentityCheck, ...]

    def __str__(self) -> str:
        verdict = "ok" if self.ok else "FAILED"
        labels = ", ".join(f"{c.label}={'ok' if c.ok else 'FAIL'}" for c in self.checks)
        return f"hyperelliptic({self.genus}) identities {verdict} ({labels})"


def verify_hyperelliptic_identities(g: int) -> HyperellipticCertificate:
    """Verify the derived word identities behind the hyperelliptic relators.

    Works with x free and y of order 2g+2.  The chain checked: the
    full-twist word sigma_1..sigma_(2g+1) sigma_(2g+1)..sigma_1 reduces
    freely to y^(2g+1) (x y^-1)^(2g) x, collapses to (y^-1 x)^(2g+1) once
    y^(2g+2) = 1, its square gives (y^-1 x)^(4g+2), and its commutator
    with x gives (y^-1 x)^(2g+1) (y x^-1)^(2g+1).
    """
    if not 1 <= g <= 4:
        raise ValueError("hyperelliptic identities supported for 1 <= g <= 4")
    m = 2 * g + 2
    sigma = {i: Word([(2, i - 1), (1, 1), (2, 1 - i)]) for i in range(1, 2 * g + 2)}
    # the ascending half is the defining word of y itself
    big = _Y
    for i in range(2 * g + 1, 0, -1):
        big = big * sigma[i]

    free_form = Word([(2, 2 * g + 1)]) * _alternating(_X, Word([(2, -1)]), 2 * g) * _X
    target = _alternating(Word([(2, -1)]), _X, 2 * g + 1)
    target_square = _alternating(Word([(2, -1)]), _X, 4 * g + 2)
    mirror = _alternating(_Y, Word([(1, -1)]), 2 * g + 1)

    def mod(w: Word) -> Word:
        return reduce_mod_torsion(w, 2, m)

    def check(label: str, left: Word, right: Word) -> IdentityCheck:
        return IdentityCheck(label, left == right, left, right)

    checks = [
        check("free-reduction", big, free_form),
        check("torsion-collapse", mod(big), mod(target)),
        check("square", mod(big * big), mod(target_square)),
        check("commutator", mod(big * _X * ~big * ~_X), mod(target * mirror)),
    ]
    return HyperellipticCertificate(g, all(c.ok for c in checks), tuple(checks))


# ---------------------------------------------------------------------------
# abelian groups as fibrations


def abelian_group_plan(n: int, k: int, torsion: tuple[int, ...] = ()) -> tuple[FibrationPlan, PlanQuotient]:
    """Genus n+k+1 plan whose fundamental group is Z^n plus the given torsion.

    The curve set depends on the parity of n+k; torsion orders attach to
    power curves over the first k handle loops.
    """
    spec = family_spec("abelian", n, k, *torsion)
    if spec.family != "abelian":
        raise ValueError("abelian_group_plan needs n + k >= 3")
    total = n + k
    genus = total + 1
    surface = SurfaceGroup(genus)
    if total % 2 == 0:
        plan = _abelian_even_plan(surface, total // 2, k, torsion)
    else:
        plan = _abelian_odd_plan(surface, total // 2, k, torsion)
    return plan, fundamental_group(plan)


def _abelian_even_plan(s: SurfaceGroup, r: int, k: int, ms: tuple[int, ...]) -> FibrationPlan:
    plan = base_plan(s.genus)
    curves = []
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            curves.append(
                s.a(i) * s.a(j, -1) * s.a(2 * r - i + 2) * s.a(2 * r - j + 2, -1)
                * ~s.separating_curve(r + 1) * s.b(r + 1, -1)
            )
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            curves.append(
                s.b(i) * s.b(j) * s.b(i, -1)
                * s.a(2 * r - j + 2) * s.b(2 * r - j + 2) * s.a(2 * r - j + 2, -1)
                * s.b(r + 1, -1) * s.separating_curve(r)
            )
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            if i == j:
                curves.append(
                    s.b(i, -1) * s.a(i) * s.b(i) * s.a(i, -1) * s.b(r + 1, -1)
                )
            else:
                curves.append(
                    s.a(i) * s.b(j, -1) * s.a(i, -1)
                    * s.a(2 * r - j + 2) * s.b(2 * r - j + 2, -1) * s.a(2 * r - j + 2, -1)
                    * s.a(r + 1) * s.b(r + 1, -1)
                )
    for index, m in enumerate(ms, start=1):
        if index <= r:
            i = index
            curves.append(
                s.a(i, m)
                * s.a(2 * r - i + 2) * s.b(2 * r - i + 2, -1) * s.a(2 * r - i + 2, -1)
                * s.a(r + 1) * s.b(r + 1, -1) * s.b(i, -1)
            )
        else:
            i = index - r
            curves.append(
                s.b(i, m) * s.a(i, -1) * s.a(2 * r - i + 2, -1) * s.a(r + 1) * s.b(r + 1, -1)
            )
    for c in curves:
        plan = append_base_twist(plan, c)
    return plan


def _abelian_odd_plan(s: SurfaceGroup, r: int, k: int, ms: tuple[int, ...]) -> FibrationPlan:
    plan = base_plan(s.genus)
    curves = [s.b(r + 1)]
    for i in range(1, r + 2):
        for j in range(i + 1, r + 2):
            if j <= r:
                curves.append(
                    s.a(i) * s.a(j, -1) * s.a(2 * r - i + 3) * s.a(2 * r - j + 3, -1)
                    * ~s.separating_curve(r + 1) * s.b(r + 1, -1)
                )
            else:
                curves.append(
                    s.a(i) * s.a(r + 1, -1) * s.b(r + 2) * s.a(2 * r - i + 3)
                    * s.separating_curve(r + 2) * s.a(r + 1)
                )
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            curves.append(
                s.b(i) * s.b(j) * s.b(i, -1) * s.b(r + 2)
                * s.a(2 * r - j + 3) * s.b(2 * r - j + 3) * s.a(2 * r - j + 3, -1)
                * s.b(r + 2, -1) * s.b(r + 1) * s.separating_curve(r + 1)
            )
    for i in range(1, r + 2):
        for j in range(1, r + 1):
            if i == j:
                curves.append(
                    s.b(i, -1) * s.a(i) * s.b(i) * s.a(i, -1) * s.b(r + 1, -1)
                )
            elif i <= r:
                curves.append(
                    s.a(i) * s.b(j) * s.a(i, -1) * s.b(r + 2)
                    * s.a(2 * r - j + 3) * s.b(2 * r - j + 3) * s.a(2 * r - j + 3, -1)
                    * s.b(r + 2, -1) * s.b(r + 1) * s.separating_curve(r + 1)
                )
            else:
                curves.append(
                    s.a(r + 1) * s.b(j) * s.a(r + 1, -1) * s.b(r + 2)
                    * s.a(2 * r - j + 3) * s.b(2 * r - j + 3) * s.a(2 * r - j + 3, -1)
                    * s.separating_curve(r + 2)
                )
    for index, m in enumerate(ms, start=1):
        if index <= r:
            i = index
            curves.append(
                s.a(i, m)
                * s.a(2 * r - i + 3) * s.b(2 * r - i + 3, -1) * s.a(2 * r - i + 3, -1)
                * ~s.separating_curve(r + 1) * s.b(r + 1, -1) * s.b(i, -1)
            )
        elif index <= 2 * r:
            i = index - r
            curves.append(
                s.b(i, m) * s.a(i, -1) * s.a(2 * r - i + 3, -1)
                * ~s.separating_curve(r + 1) * s.b(r + 1, -1)
            )
        else:
            curves.append(s.a(r + 1, m) * s.b(r + 1, -1))
    for c in curves:
        plan = append_base_twist(plan, c)
    return plan
