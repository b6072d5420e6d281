"""Monodromy plans of Lefschetz fibrations and their fundamental groups.

A plan records the fiber genus, an ordered list of blocks (each one copy
of the built-in trivial mapping-class word "W", optionally conjugated by
a twist about a recorded curve), the accumulated kill list of curve
words, and the total twist-letter count.  All plans built here admit a
section, so the fundamental group of the total space is the surface
group modulo the normal closure of the kill list.

Extending a plan by a twist about d appends a conjugated copy of the
block product and adds the single word d to the kill list; that quotient
rule is what everything downstream consumes.  Block conjugators of the
copied tail are kept as they were rather than composed with d, which is
a flat bookkeeping choice: the kill list and letter counts are exact.
"""

from __future__ import annotations

import json
import random
import warnings
from dataclasses import dataclass, replace

from .presentations import Presentation, TietzeResult, tietze_simplify
from .relator_curves import RelatorCurve, a_image, relator_curve
from .surface import SurfaceGroup
from .words import Word, cyclic_reduce, format_word, parse_word, syllable_length

BASE_RELATION = "W"
PLAN_SCHEMA = "lefgroup/plan/1"


class TransversalityWarning(UserWarning):
    """No recorded cycle meets the new twist curve algebraically once.

    Algebraic intersection zero does not preclude a geometric single
    crossing, so this is advisory; the construction proceeds.
    """


@dataclass(frozen=True)
class Block:
    relation: str
    conjugator: Word | None


@dataclass(frozen=True)
class FibrationPlan:
    genus: int
    blocks: tuple[Block, ...]
    kill_list: tuple[Word, ...]
    twist_letter_count: int
    has_section: bool = True

    @property
    def surface(self) -> SurfaceGroup:
        return SurfaceGroup(self.genus)

    def conjugator_centers(self) -> tuple[Word, ...]:
        seen = []
        for block in self.blocks:
            if block.conjugator is not None and block.conjugator not in seen:
                seen.append(block.conjugator)
        return tuple(seen)


def _dedup(words) -> tuple[Word, ...]:
    """The words in first-seen order, each once."""
    return tuple(dict.fromkeys(words))


def base_plan(genus: int) -> FibrationPlan:
    """The fibration whose monodromy is the trivial word alone."""
    surface = SurfaceGroup(genus)
    cycles = surface.monodromy_cycles()
    return FibrationPlan(
        genus=genus,
        blocks=(Block(BASE_RELATION, None),),
        kill_list=_dedup(cycles),
        twist_letter_count=len(cycles),
    )


def _cycle_count(genus: int) -> int:
    return 2 * genus + 4 if genus % 2 == 0 else 2 * genus + 10


def _check_twist_curve(plan: FibrationPlan, d: Word) -> None:
    surface = plan.surface
    d_class = surface.homology_class(d)
    for c in plan.kill_list:
        if abs(surface.intersection(d_class, surface.homology_class(c))) == 1:
            return
    warnings.warn(
        "twist curve meets no recorded cycle algebraically once; "
        "relying on a geometric crossing instead",
        TransversalityWarning,
        stacklevel=3,
    )


def append_base_twist(plan: FibrationPlan, d: Word) -> FibrationPlan:
    """Multiply the monodromy by one conjugated copy of the trivial word."""
    _check_twist_curve(plan, d)
    return replace(
        plan,
        blocks=plan.blocks + (Block(BASE_RELATION, d),),
        kill_list=_dedup(plan.kill_list + (d,)),
        twist_letter_count=plan.twist_letter_count + _cycle_count(plan.genus),
    )


def _append_plan_copy(plan: FibrationPlan, copy_blocks: tuple[Block, ...],
                      d: Word) -> FibrationPlan:
    head = (Block(BASE_RELATION, d),)
    tail = copy_blocks[1:]
    letters = len(copy_blocks) * _cycle_count(plan.genus)
    return replace(
        plan,
        blocks=plan.blocks + head + tail,
        kill_list=_dedup(plan.kill_list + (d,)),
        twist_letter_count=plan.twist_letter_count + letters,
    )


def extend_by_twist(plan: FibrationPlan, d: Word) -> FibrationPlan:
    """Append a conjugated copy of the whole current plan, twisted about d.

    The quotient gains exactly the relation d = 1; the twist-letter count
    doubles.
    """
    _check_twist_curve(plan, d)
    return _append_plan_copy(plan, plan.blocks, d)


def free_group_plan(genus: int) -> FibrationPlan:
    """Plan over genus g >= 2 whose fundamental group is free of rank g // 2;
    the trivial word followed by copies twisted about every b-curve."""
    if genus < 2:
        raise ValueError("free_group_plan needs genus >= 2")
    return _b_twisted_plan(genus, range(1, genus + 1))


def free_product_plan(genus: int) -> FibrationPlan:
    """Plan over genus g >= 3 whose fundamental group is the free product
    of a free group of rank g // 2 - 1 with Z x Z; twists run over the
    b-curves with the two outermost left out."""
    if genus < 3:
        raise ValueError("free_product_plan needs genus >= 3")
    return _b_twisted_plan(genus, range(2, genus))


def _b_twisted_plan(genus: int, b_indices) -> FibrationPlan:
    surface = SurfaceGroup(genus)
    plan = base_plan(genus)
    for i in b_indices:
        plan = append_base_twist(plan, surface.b(i))
    return plan


def euler_characteristic(plan: FibrationPlan) -> int:
    """4 - 4g plus the number of singular fibers (one per twist letter)."""
    return 4 - 4 * plan.genus + plan.twist_letter_count


# ---------------------------------------------------------------------------
# fundamental group of the total space


@dataclass(frozen=True)
class PlanQuotient:
    presentation: Presentation
    raw: Presentation
    simplification: TietzeResult


def fundamental_group(plan: FibrationPlan, budget: int | None = None) -> PlanQuotient:
    """Surface group modulo the kill list, Tietze-simplified.

    Simplification uses generator elimination only; relators surviving it
    are reported verbatim, not shortened against each other.
    """
    if not plan.has_section:
        raise ValueError("the quotient rule needs a section")
    names, (relator,) = plan.surface.presentation_tuple()
    raw = Presentation(names, (relator,) + _dedup(plan.kill_list))
    kwargs = {"budget": budget} if budget is not None else {}
    result = tietze_simplify(raw, rewrite=False, **kwargs)
    return PlanQuotient(presentation=result.presentation, raw=raw,
                        simplification=result)


# ---------------------------------------------------------------------------
# realizing an arbitrary finitely presented group


@dataclass(frozen=True)
class Realization:
    source: Presentation
    plan: FibrationPlan
    quotient: PlanQuotient
    curves: tuple[RelatorCurve, ...]
    genus_bound: int

    @property
    def presentation(self) -> Presentation:
        return self.quotient.presentation

    def expected_presentation(self) -> Presentation:
        """The a-letter image of the source presentation, before simplification."""
        n = self.source.rank
        names = tuple(f"a{i}" for i in range(1, n + 1))
        rels = tuple(
            a_image(r) for r in self.source.relators if not cyclic_reduce(r).is_identity
        )
        return Presentation(names, rels)


def minimal_genus(p: Presentation) -> int:
    """Smallest fiber genus the realization accepts: 2n + L - 1 with L the
    largest relator syllable length (L = 1 when there are no relators)."""
    lengths = [syllable_length(r) for r in p.relators if not r.is_identity]
    longest = max(lengths) if lengths else 1
    return max(2 * p.rank + longest - 1, 1)


def realize_group(p: Presentation, genus: int | None = None,
                  fillers: str = "empty",
                  rng: random.Random | None = None) -> Realization:
    """Build a genus-g fibration plan whose total space has fundamental
    group presented by ``p``, following the free-quotient route.

    Starts from the plan whose group is free on a_1..a_(g//2), kills the
    spare generators a_(n+1)..a_(g//2) by further twists, then adds one
    twisted copy of the whole plan per relator curve.  The quotient then
    simplifies to the a-letter image of ``p``.
    """
    n = p.rank
    bound = minimal_genus(p)
    if genus is None:
        genus = bound
    elif genus < bound:
        raise ValueError(f"genus {genus} is below the bound {bound}")

    surface = SurfaceGroup(genus)
    plan = _b_twisted_plan(genus, range(1, genus + 1))
    for t in range(n + 1, genus // 2 + 1):
        plan = append_base_twist(plan, surface.a(t))
    core_blocks = plan.blocks

    relators = [r for r in p.relators if not cyclic_reduce(r).is_identity]
    curves = tuple(
        relator_curve(r, n, genus, fillers=fillers, rng=rng) for r in relators
    )
    with warnings.catch_warnings():
        # relator curves are sanctioned by construction; their algebraic
        # crossing numbers with the recorded cycles are often not +-1
        warnings.simplefilter("ignore", TransversalityWarning)
        for curve in curves:
            plan = _append_plan_copy(plan, core_blocks, curve.word)

    quotient = fundamental_group(plan)
    return Realization(source=p, plan=plan, quotient=quotient,
                       curves=curves, genus_bound=bound)


# ---------------------------------------------------------------------------
# serialization


def plan_to_dict(plan: FibrationPlan) -> dict:
    names = plan.surface.generator_names
    return {
        "genus": plan.genus,
        "blocks": [
            {
                "relation": b.relation,
                "conjugator": None if b.conjugator is None else format_word(b.conjugator, names),
            }
            for b in plan.blocks
        ],
        "kill_list": [format_word(w, names) for w in plan.kill_list],
        "twist_letters": plan.twist_letter_count,
    }


def plan_from_dict(data: dict) -> FibrationPlan:
    genus = int(data["genus"])
    names = SurfaceGroup(genus).generator_names
    blocks = []
    for item in data["blocks"]:
        if item["relation"] != BASE_RELATION:
            raise ValueError(f"unknown block relation {item['relation']!r}")
        conj = item["conjugator"]
        blocks.append(Block(BASE_RELATION, None if conj is None else parse_word(conj, names)))
    kill = tuple(parse_word(t, names) for t in data["kill_list"])
    plan = FibrationPlan(
        genus=genus,
        blocks=tuple(blocks),
        kill_list=kill,
        twist_letter_count=int(data["twist_letters"]),
    )
    _validate_plan(plan)
    return plan


def _validate_plan(plan: FibrationPlan) -> None:
    if plan.twist_letter_count % _cycle_count(plan.genus) != 0:
        raise ValueError("twist letter count is not a whole number of blocks")
    cycles = set(_dedup(plan.surface.monodromy_cycles()))
    killed = set(plan.kill_list)
    if not cycles <= killed:
        raise ValueError("kill list is missing base vanishing cycles")
    for center in plan.conjugator_centers():
        if center not in killed:
            raise ValueError("kill list is missing a conjugator center")


def plan_dumps(plan: FibrationPlan) -> str:
    return json.dumps(plan_to_dict(plan), indent=2)


def plan_loads(text: str) -> FibrationPlan:
    return plan_from_dict(json.loads(text))
