"""Spans and work counts at lefgroup's public functions, recorded from outside.

``Tracer.install`` replaces each traced function at every name that binds
it: the defining module and every lefgroup module that imported it (for
example ``presentations.tietze_simplify`` and ``fibration.tietze_simplify``).
``uninstall`` puts the originals back.  A span is (layer, start, end,
parent); spans stay in memory until the run writes them out at its end.
A layer's self time is the time its spans cover minus the time their
direct child spans cover.  Work counts are read from each call's result.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

import workloads  # noqa: F401  (puts the checkout's src/ on sys.path)
from lefgroup import finite_groups, surface


def _tietze(c, args, out, error):
    c["passes"] += out.passes
    c["gens_eliminated"] += len(out.original_generators) - out.presentation.rank
    c["relators_out"] += len(out.presentation.relators)


def _snf(c, args, out, error):
    c["cells"] += len(out.left) * len(out.right)


def _coset(c, args, out, error):
    c["cosets_defined"] += out.cosets_defined
    if out.conclusive:
        c["closed"] += 1
        c["closed_order"] += out.order
        c["closed_defined"] += out.cosets_defined


def _hom_count(c, args, out, error):
    if isinstance(error, finite_groups.HomCountCapExceeded):
        c["skipped"] += 1
    elif error is None:
        p, group = args[0], args[1]
        c["assignments"] += group.order ** p.rank


def _table(c, args, out, error):
    c["elements"] += out.order


def _homology(c, args, out, error):
    c["factors"] += len(out.cycle_classes)


def _curve(c, args, out, error):
    c["letters"] += len(out.word)


def _realize(c, args, out, error):
    c["blocks"] += len(out.plan.blocks)
    c["kill_list"] += len(out.plan.kill_list)
    c["twist_letters"] += out.plan.twist_letter_count


def _fundamental_group(c, args, out, error):
    c["raw_rank"] += out.raw.rank


# (layer, defining module, function name, count hook); several functions
# may share a layer
TRACED = [
    ("presentations.tietze_simplify", "lefgroup.presentations", "tietze_simplify", _tietze),
    ("words.substitute", "lefgroup.words", "substitute", None),
    ("snf.smith_normal_form", "lefgroup.snf", "smith_normal_form", _snf),
    ("coset_enum.coset_enumerate", "lefgroup.coset_enum", "coset_enumerate", _coset),
    ("finite_groups.hom_count", "lefgroup.finite_groups", "hom_count", _hom_count),
    ("finite_groups.table_build", "lefgroup.finite_groups", "symmetric_group_table", _table),
    ("finite_groups.table_build", "lefgroup.finite_groups", "cyclic_group_table", _table),
    ("surface.verify_homology_triviality", "lefgroup.surface", "verify_homology_triviality", _homology),
    ("relator_curves.relator_curve", "lefgroup.relator_curves", "relator_curve", _curve),
    ("fibration.realize_group", "lefgroup.fibration", "realize_group", _realize),
    ("fibration.fundamental_group", "lefgroup.fibration", "fundamental_group", _fundamental_group),
    ("families.certificates", "lefgroup.families", "verify_braid_relators", None),
    ("families.certificates", "lefgroup.families", "verify_symmetric_relators", None),
    ("families.certificates", "lefgroup.families", "verify_hyperelliptic_identities", None),
    ("families.abelian_group_plan", "lefgroup.families", "abelian_group_plan", None),
    ("battery.invariant_vector", "lefgroup.battery", "invariant_vector", None),
    ("battery.parse_battery", "lefgroup.battery", "parse_battery", None),
]
# a method, wrapped on its class
METHOD = ("surface.monodromy_cycles", surface.SurfaceGroup, "monodromy_cycles")

LAYERS = list(dict.fromkeys([t[0] for t in TRACED] + [METHOD[0]]))
# work counts reported per layer, beside calls and self_s
COUNTS = {
    "presentations.tietze_simplify": ["passes", "gens_eliminated", "relators_out"],
    "snf.smith_normal_form": ["cells"],
    "coset_enum.coset_enumerate": ["cosets_defined", "conclusive_frac", "useful_ratio"],
    "finite_groups.hom_count": ["skipped", "assignments"],
    "finite_groups.table_build": ["elements"],
    "surface.verify_homology_triviality": ["factors"],
    "relator_curves.relator_curve": ["letters"],
    "fibration.realize_group": ["blocks", "kill_list", "twist_letters"],
    "fibration.fundamental_group": ["raw_rank"],
}
ROOT = "item"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter_ns()
        self._stack.pop()

    def item(self, fn, *args):
        """Run one workload item under a root span, so its spans share a root."""
        index = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _wrap(self, layer: str, fn, hook):
        counts = self.counts[layer]

        def traced(*args, **kwargs):
            index = self._open(layer)
            try:
                out = fn(*args, **kwargs)
            except Exception as error:
                self._close(index)
                if hook is not None:
                    hook(counts, args, None, error)
                raise
            self._close(index)
            if hook is not None:
                hook(counts, args, out, None)
            return out

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("lefgroup.")]
        for layer, module_name, attr, hook in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(layer, original, hook)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)
        layer, cls, attr = METHOD
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self._wrap(layer, original, None))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child = [0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        total: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            total[name] += (self.ends[i] - self.starts[i] - child[i]) / 1e9
        return total

    def layer_metrics(self, per: int = 1) -> dict[str, float]:
        """calls, self_s and work counts of every layer, divided by ``per``
        (fractions and ratios are not divided)."""
        calls = Counter(self.names)
        self_s = self.self_times()
        out: dict[str, float] = {}
        for layer in LAYERS:
            c = self.counts[layer]
            out[f"{layer}.calls"] = calls[layer] / per
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0) / per
            for key in COUNTS.get(layer, []):
                if key == "conclusive_frac":
                    value = c["closed"] / calls[layer] if calls[layer] else 0.0
                elif key == "useful_ratio":
                    value = c["closed_order"] / c["closed_defined"] if c["closed_defined"] else 0.0
                else:
                    value = c[key] / per
                out[f"{layer}.{key}"] = value
        return out

    def spans(self) -> dict:
        """The spans as JSON-ready data: the layer names, then one
        [name index, start ns, end ns, parent index] row per span."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], s, e, p] for n, s, e, p in
                zip(self.names, self.starts, self.ends, self.parents)]
        return {"names": names, "spans": rows}


def combined_metrics(setup: Tracer, passes: Tracer, count: int) -> dict[str, float]:
    """Per-layer metrics of one set-up plus one pass: set-up spans count
    once, pass spans are averaged over ``count`` passes."""
    once = setup.layer_metrics()
    each = passes.layer_metrics(count)
    out = {}
    for name, value in each.items():
        layer = name.rsplit(".", 1)[0]
        if name.endswith(("_frac", "_ratio")):
            out[name] = value if each[f"{layer}.calls"] else once[name]
        else:
            out[name] = once[name] + value
    return out
