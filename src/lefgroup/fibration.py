"""Monodromy plans of Lefschetz fibrations and their fundamental groups.

A plan is the fiber genus plus the monodromy factorization: an ordered
tuple of blocks, each one copy of the built-in trivial mapping-class word
W conjugated by a chain of twist curves, outermost first.  The block
(d, c) stands for t_d t_c W t_c^-1 t_d^-1, and the base block is ().
Twisting the whole plan P about d appends (d,) + chain for every block,
which records the factorization t_d P t_d^-1.

All plans built here admit a section, so the fundamental group of the
total space is the surface group modulo the normal closure of the kill
list.  The kill list and the twist-letter count are read off the blocks:
the kill list is the twist centers of W followed by every chain curve in
block order, each once, and every block contributes the letters of W.
"""

from __future__ import annotations

import functools
import itertools
import json
import warnings
from dataclasses import dataclass

from .presentations import Presentation, TietzeResult, tietze_simplify
from .relator_curves import RelatorCurve, a_image, relator_curve
from .surface import SurfaceGroup
from .words import Word, cyclic_reduce, format_word, parse_word, syllable_length

PLAN_SCHEMA = "lefgroup/plan/2"


class TransversalityWarning(UserWarning):
    """No recorded cycle meets the new twist curve algebraically once.

    Algebraic intersection zero does not preclude a geometric single
    crossing, so this is advisory; the construction proceeds.
    """


@functools.cache
def _base_cycles(genus: int) -> tuple[Word, ...]:
    """Twist centers of W at this genus; shared by every plan of the genus."""
    return tuple(SurfaceGroup(genus).monodromy_cycles())


@dataclass(frozen=True)
class FibrationPlan:
    genus: int
    blocks: tuple[tuple[Word, ...], ...]

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("genus must be >= 1")

    @property
    def surface(self) -> SurfaceGroup:
        return SurfaceGroup(self.genus)

    @functools.cached_property
    def kill_list(self) -> tuple[Word, ...]:
        """Twist centers of W, then every chain curve in block order, each once."""
        return tuple(dict.fromkeys(itertools.chain(_base_cycles(self.genus), *self.blocks)))

    @property
    def twist_letter_count(self) -> int:
        return len(self.blocks) * len(_base_cycles(self.genus))


def base_plan(genus: int) -> FibrationPlan:
    """The fibration whose monodromy is the trivial word alone."""
    return FibrationPlan(genus, ((),))


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


def _twisted_copy(plan: FibrationPlan, blocks: tuple[tuple[Word, ...], ...],
                  d: Word) -> FibrationPlan:
    """``plan`` followed by ``blocks``, each conjugated by the twist about d."""
    return FibrationPlan(plan.genus, plan.blocks + tuple((d,) + chain for chain in blocks))


def append_base_twist(plan: FibrationPlan, d: Word) -> FibrationPlan:
    """Multiply the monodromy by one conjugated copy of the trivial word."""
    _check_twist_curve(plan, d)
    return _twisted_copy(plan, ((),), d)


def extend_by_twist(plan: FibrationPlan, d: Word) -> FibrationPlan:
    """Append a conjugated copy of the whole current plan, twisted about d.

    The quotient gains exactly the relation d = 1; the twist-letter count
    doubles.
    """
    _check_twist_curve(plan, d)
    return _twisted_copy(plan, plan.blocks, d)


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


def fundamental_group(plan: FibrationPlan) -> PlanQuotient:
    """Surface group modulo the kill list, Tietze-simplified.

    Simplification uses generator elimination only; relators surviving it
    are reported verbatim, not shortened against each other.
    """
    names, (relator,) = plan.surface.presentation_tuple()
    raw = Presentation(names, (relator,) + plan.kill_list)
    result = tietze_simplify(raw, rewrite=False)
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


def realize_group(p: Presentation, genus: int | None = None) -> Realization:
    """Build a genus-g fibration plan whose total space has fundamental
    group presented by ``p``, following the free-quotient route.

    Starts from the plan whose group is free on a_1..a_(g//2), kills the
    spare generators a_(n+1)..a_(g//2) by further twists, then adds one
    copy of that core plan per relator curve, twisted about the curve.
    The quotient then simplifies to the a-letter image of ``p``.
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
    curves = tuple(relator_curve(r, n, genus) for r in relators)
    # relator curves are sanctioned by construction, so they skip the
    # transversality check: their algebraic crossing numbers with the
    # recorded cycles are often not +-1
    for curve in curves:
        plan = _twisted_copy(plan, core_blocks, curve.word)

    quotient = fundamental_group(plan)
    return Realization(source=p, plan=plan, quotient=quotient,
                       curves=curves, genus_bound=bound)


# ---------------------------------------------------------------------------
# serialization


def plan_to_dict(plan: FibrationPlan) -> dict:
    names = plan.surface.generator_names
    return {
        "schema": PLAN_SCHEMA,
        "genus": plan.genus,
        "blocks": [[format_word(w, names) for w in chain] for chain in plan.blocks],
        "kill_list": [format_word(w, names) for w in plan.kill_list],
        "twist_letters": plan.twist_letter_count,
    }


def plan_from_dict(data: dict) -> FibrationPlan:
    """Read a plan; the recorded kill list and letter count must be the
    ones its blocks give."""
    if data.get("schema") != PLAN_SCHEMA:
        raise ValueError(f"unknown plan schema {data.get('schema')!r}")
    genus = int(data["genus"])
    names = SurfaceGroup(genus).generator_names
    plan = FibrationPlan(
        genus, tuple(tuple(parse_word(t, names) for t in chain) for chain in data["blocks"])
    )
    if tuple(parse_word(t, names) for t in data["kill_list"]) != plan.kill_list:
        raise ValueError("kill list differs from the one the blocks give")
    if data["twist_letters"] != plan.twist_letter_count:
        raise ValueError("twist letter count differs from the one the blocks give")
    return plan


def plan_dumps(plan: FibrationPlan) -> str:
    return json.dumps(plan_to_dict(plan), indent=2)


def plan_loads(text: str) -> FibrationPlan:
    return plan_from_dict(json.loads(text))
