"""Invariant vectors: the package's honest substitute for isomorphism tests.

A vector bundles the abelianization, homomorphism counts into a battery
of finite groups, and the coset-enumeration verdict.  Two presentations
with different vectors present non-isomorphic groups; equal vectors mean
"indistinguishable by this battery", never more.

The coset order is attempted only when the abelianization is finite.  A
group whose H1 has free rank > 0 maps onto Z, so it is infinite and no
coset enumeration can close on it; its verdict is "inconclusive" without
running one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coset_enum import coset_enumerate
from .finite_groups import (
    FiniteGroupTable,
    HomCountCapExceeded,
    cyclic_group_table,
    default_battery,
    hom_count,
    symmetric_group_table,
)
from .presentations import AbelianInvariants, Presentation, abelianization

BATTERY_MAX_COSETS = 5_000
# |S5|, the largest group the battery is run with; S6 alone is a 720^2 table
MAX_BATTERY_ORDER = 120


@dataclass(frozen=True)
class InvariantVector:
    abelian: AbelianInvariants
    hom_counts: tuple[tuple[str, int | None], ...]
    coset_order: int | None

    def to_dict(self) -> dict:
        return {
            "abelianization": {
                "free_rank": self.abelian.free_rank,
                "torsion": list(self.abelian.torsion),
            },
            "hom_counts": {
                name: ("skipped" if count is None else count)
                for name, count in self.hom_counts
            },
            "coset_order": "inconclusive" if self.coset_order is None else self.coset_order,
        }


def invariant_vector(p: Presentation,
                     battery: list[FiniteGroupTable] | None = None,
                     max_cosets: int = BATTERY_MAX_COSETS) -> InvariantVector:
    """Compute the vector; oversized hom counts are recorded as skipped.

    Coset enumeration runs only when H1 is finite (free rank 0).  Otherwise
    the group is infinite, the enumeration could not close, and the coset
    order is recorded as inconclusive (None) straight away.
    """
    if battery is None:
        battery = default_battery()
    counts = []
    for table in battery:
        try:
            counts.append((table.name, hom_count(p, table)))
        except HomCountCapExceeded:
            counts.append((table.name, None))
    abelian = abelianization(p)
    coset_order = None
    if abelian.free_rank == 0:
        enumeration = coset_enumerate(p, max_cosets=max_cosets)
        if enumeration.conclusive:
            coset_order = enumeration.order
    return InvariantVector(
        abelian=abelian,
        hom_counts=tuple(counts),
        coset_order=coset_order,
    )


def parse_battery(text: str) -> list[FiniteGroupTable]:
    """CLI battery syntax: comma-separated tokens like ``s3``, ``z4``, or
    the range form ``z2..z6``.  Every token is checked against
    ``MAX_BATTERY_ORDER`` before any table is built."""
    specs: list[tuple[str, int]] = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if ".." in token:
            start, _, end = token.partition("..")
            if not (start.startswith("z") and end.startswith("z")):
                raise ValueError(f"bad battery range {token!r}")
            kind, first, last = "z", int(start[1:]), int(end[1:])
        elif token[:1] in ("s", "z"):
            kind, first = token[0], int(token[1:])
            last = first
        else:
            raise ValueError(f"bad battery token {token!r}")
        # 6! already exceeds the bound, so s8 costs no large factorial
        order = math.factorial(min(last, 6)) if kind == "s" else last
        if order > MAX_BATTERY_ORDER:
            raise ValueError(f"battery token {token!r}: group order exceeds {MAX_BATTERY_ORDER}")
        specs += [(kind, n) for n in range(first, last + 1)]
    build = {"s": symmetric_group_table, "z": cyclic_group_table}
    return [build[kind](n) for kind, n in specs]
