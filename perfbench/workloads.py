"""Seeded workloads of the lefgroup benchmark.

A workload turns a seed into a list of items (one pass), runs one item at
a time through ``call``, checks an output with ``check`` and reduces it to
canonical text with ``digest_text``.  Only ``call`` is timed.  ``setup``
builds what the timed calls need once per process, such as a hom-count
battery, and ``setup_s`` covers it.

Every call into lefgroup goes through a module attribute
(``fibration.realize_group``, not a name bound here), so that the tracer
can wrap it.

Importing this module puts the checkout's own ``src/`` first on
``sys.path`` and refuses to run without it: the benchmark measures the
source next to it, never an installed copy.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "lefgroup" / "__init__.py").is_file():
    raise SystemExit(f"benchmark: no lefgroup source at {SRC}")
sys.path.insert(0, str(SRC))

import lefgroup  # noqa: E402
from lefgroup import (  # noqa: E402
    battery,
    families,
    fibration,
    presentations,
    surface,
)
from lefgroup.words import Word  # noqa: E402

if Path(lefgroup.__file__).resolve().parent != SRC / "lefgroup":
    raise SystemExit(f"benchmark: imported lefgroup from {lefgroup.__file__}, not {SRC}")


EXPONENTS = [e for e in range(-3, 4) if e]


def random_relator(rng: random.Random, rank: int) -> Word:
    """A relator of 1 to 4 syllables over the first ``rank`` generators,
    with exponents in +-1..+-3."""
    count = rng.randint(1, 4) if rank > 1 else 1
    syllables: list[tuple[int, int]] = []
    for _ in range(count):
        gens = [g for g in range(1, rank + 1) if not syllables or g != syllables[-1][0]]
        syllables.append((rng.choice(gens), rng.choice(EXPONENTS)))
    return Word(syllables)


def random_presentation(rng: random.Random, rank: int, relators: int) -> presentations.Presentation:
    names = tuple(f"x{i}" for i in range(1, rank + 1))
    return presentations.Presentation(
        names, tuple(random_relator(rng, rank) for _ in range(relators)))


def _same_vector(left: battery.InvariantVector, right: battery.InvariantVector) -> list[str]:
    """Differences between two vectors of the same battery.  A hom count
    over the cap (skipped) or a coset enumeration that did not close says
    nothing, so those entries are compared only when both sides have them."""
    problems = []
    if left.abelian != right.abelian:
        problems.append(f"abelianization {left.abelian} != {right.abelian}")
    for (name, a), (_, b) in zip(left.hom_counts, right.hom_counts):
        if a is not None and b is not None and a != b:
            problems.append(f"{name} hom count {a} != {b}")
    if (left.coset_order is not None and right.coset_order is not None
            and left.coset_order != right.coset_order):
        problems.append(f"coset order {left.coset_order} != {right.coset_order}")
    return problems


# ---------------------------------------------------------------------------
# realize: realize_group over random sources at a spread of fiber genera


@dataclass(frozen=True)
class RealizeItem:
    source: presentations.Presentation
    genus: int | None  # None asks for the minimal genus


class Realize:
    """Genus sets the cost: the raw quotient has rank 2g and about 2.5g
    relators, and Tietze elimination (rewrite off) dominates."""

    # spread evenly over 12..30, so that latencies form a continuum and the
    # median and 90th percentile do not sit in a gap between genus levels
    GENERA = [12 + round(18 * k / 35) for k in range(36)]

    def items(self, seed: int) -> list[RealizeItem]:
        # one source per (rank, relator count) stratum at its minimal genus,
        # and the 36 genera dealt to the sources at random, four each: seeds
        # differ in their relators but not in their cost mix
        rng = random.Random(seed)
        sources = [random_presentation(rng, rank, count)
                   for rank, count in itertools.product((1, 2, 3), (1, 2, 3))]
        genera = list(self.GENERA)
        rng.shuffle(genera)
        items = [RealizeItem(source, None) for source in sources]
        items += [RealizeItem(sources[k % len(sources)], g) for k, g in enumerate(genera)]
        rng.shuffle(items)
        return items

    def setup(self):
        return None

    def call(self, item: RealizeItem, ctx):
        return fibration.realize_group(item.source, genus=item.genus)

    def digest_text(self, item: RealizeItem, out) -> str:
        return fibration.plan_dumps(out.plan) + "\n" + presentations.format_presentation(out.presentation)

    def check(self, item: RealizeItem, out, ctx, memo: dict) -> list[str]:
        # one source, and often one quotient, serves several genera
        def vector(p):
            key = presentations.format_presentation(p)
            if key not in memo:
                memo[key] = battery.invariant_vector(p)
            return memo[key]

        problems = _same_vector(vector(item.source), vector(out.presentation))
        if fibration.plan_loads(fibration.plan_dumps(out.plan)) != out.plan:
            problems.append("plan does not survive plan_dumps/plan_loads")
        return problems


# ---------------------------------------------------------------------------
# certify: the surface, braid, symmetric and hyperelliptic certificates


@dataclass(frozen=True)
class CertifyItem:
    kind: str  # "homology", "braid", "symmetric" or "hyperelliptic"
    param: int
    abelian: tuple[int, int, tuple[int, ...]] | None = None  # (n, k, torsion)


class Certify:
    """Surface transvection products and the braid action through
    words.substitute dominate; there is no hom search and little Tietze work."""

    def items(self, seed: int) -> list[CertifyItem]:
        # every parameter of every certificate once (braid twice) per pass;
        # the seed draws the abelian groups and the order
        rng = random.Random(seed)
        items = [CertifyItem("homology", g) for g in range(8, 25)]
        items += [CertifyItem("braid", n) for n in range(3, 9)] * 2
        items += [CertifyItem("symmetric", n) for n in range(2, 9)]
        for g in range(1, 5):
            total = rng.choice((3, 4, 5))
            k = rng.randint(0, total)
            torsion = tuple(sorted(rng.randint(2, 6) for _ in range(k)))
            items.append(CertifyItem("hyperelliptic", g, (total - k, k, torsion)))
        rng.shuffle(items)
        return items

    def setup(self):
        return None

    def call(self, item: CertifyItem, ctx):
        if item.kind == "homology":
            return surface.verify_homology_triviality(item.param)
        if item.kind == "braid":
            return families.verify_braid_relators(item.param)
        if item.kind == "symmetric":
            return families.verify_symmetric_relators(item.param)
        n, k, torsion = item.abelian
        return (families.verify_hyperelliptic_identities(item.param),
                families.abelian_group_plan(n, k, torsion))

    def digest_text(self, item: CertifyItem, out) -> str:
        if item.kind != "hyperelliptic":
            return repr(out)
        cert, (plan, quotient) = out
        return "\n".join([repr(cert), fibration.plan_dumps(plan),
                          presentations.format_presentation(quotient.presentation)])

    def check(self, item: CertifyItem, out, ctx, memo: dict) -> list[str]:
        if item.kind != "hyperelliptic":
            return [] if out.ok else [f"{item.kind}({item.param}) certificate not ok"]
        cert, (_, quotient) = out
        problems = [] if cert.ok else [f"hyperelliptic({item.param}) certificate not ok"]
        n, k, torsion = item.abelian
        spec = families.family_spec("abelian", n, k, *torsion)
        expected = presentations.abelianization(families.family_presentation(spec))
        got = presentations.abelianization(quotient.presentation)
        if got != expected:
            problems.append(f"abelian plan {item.abelian}: quotient {got} != {expected}")
        return problems


# ---------------------------------------------------------------------------
# invariants: Tietze simplification with rewriting, then the invariant vector


@dataclass(frozen=True)
class InvariantsItem:
    family: str  # a family name, or "random"
    param: int
    source: presentations.Presentation


class Invariants:
    """Few generators, rewriting on, no elimination: the opposite use of
    presentations to realize.  Hom search, the rewrite pass and coset
    enumeration (closing and hitting the limit) share the time."""

    BATTERY = "s3,s4,s5,z2..z6"
    FAMILIES = (
        [("braid", n) for n in range(3, 7)]
        + [("sphere_mcg", n) for n in range(3, 6)]
        + [("symmetric", n) for n in range(4, 7)]
        + [("artin", n) for n in (5, 6)]
        + [("hyperelliptic", g) for g in (1, 2, 3)]
    )

    def items(self, seed: int) -> list[InvariantsItem]:
        # the fixed family members plus twelve random one-relator groups
        # x^a y^b x^c y^d: infinite, so their coset enumeration runs to the
        # limit and their cost barely depends on the draw
        rng = random.Random(seed)
        items = [
            InvariantsItem(fam, n, families.family_presentation(families.family_spec(fam, n)))
            for fam, n in self.FAMILIES
        ]
        for index in range(12):
            relator = Word([(g, rng.choice(EXPONENTS)) for g in (1, 2, 1, 2)])
            items.append(InvariantsItem("random", index, presentations.Presentation(("x", "y"), (relator,))))
        rng.shuffle(items)
        return items

    def setup(self):
        return battery.parse_battery(self.BATTERY)

    def call(self, item: InvariantsItem, ctx):
        simplified = presentations.tietze_simplify(item.source).presentation
        return simplified, battery.invariant_vector(simplified, ctx)

    def digest_text(self, item: InvariantsItem, out) -> str:
        simplified, vector = out
        return (presentations.format_presentation(simplified) + "\n"
                + json.dumps(vector.to_dict(), sort_keys=True))

    def check(self, item: InvariantsItem, out, ctx, memo: dict) -> list[str]:
        _, vector = out
        problems = _same_vector(battery.invariant_vector(item.source, ctx), vector)
        n = item.param
        if (item.family == "symmetric" and vector.coset_order is not None
                and vector.coset_order != math.factorial(n)):
            problems.append(f"symmetric({n}) has order {vector.coset_order}, not {n}!")
        return problems


WORKLOADS = {"realize": Realize(), "certify": Certify(), "invariants": Invariants()}


def item_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
