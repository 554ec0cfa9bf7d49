"""Per-layer spans around calls into qweyl's public functions.

install() replaces each target function by a wrapper that records a span:
calls, inclusive time and self time (span time minus the time of the child
spans it contains).  Every module-level binding of a target inside the qweyl
package is replaced, so calls through names imported elsewhere (for example
`torus.rule_table` or `cli.spec_from_config`) are seen too.  A target that
does not exist in the code being measured is skipped and reports zero calls.

Only traced session processes import this module; untraced sessions run the
program unmodified.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric prefix, module, attribute path); the layer is the metric's first part.
TARGETS = (
    ("cli.run", "qweyl.cli", "run"),
    ("presentation.spec_from_config", "qweyl.presentation", "spec_from_config"),
    ("presentation.rule_table", "qweyl.presentation", "rule_table"),
    ("presentation.casimir", "qweyl.presentation", "casimir"),
    ("pbw.normal_form", "qweyl.pbw", "normal_form"),
    ("pbw.multiply", "qweyl.pbw", "multiply"),
    ("pbw.growth_count", "qweyl.pbw", "growth_count"),
    ("pbw.verify_relations", "qweyl.pbw", "verify_relations"),
    ("pbw.verify_normality", "qweyl.pbw", "verify_normality"),
    ("scalars.Scalar.mul", "qweyl.scalars", "Scalar.__mul__"),
    ("scalars.Scalar.add", "qweyl.scalars", "Scalar.__add__"),
    ("scalars.Scalar.eq", "qweyl.scalars", "Scalar.__eq__"),
    ("scalars.Scalar.new", "qweyl.scalars", "Scalar.__init__"),
    ("scalars.LaurentPoly.mul", "qweyl.scalars", "LaurentPoly.mul"),
    ("torus.localized_torus", "qweyl.torus", "localized_torus"),
    ("torus.check_torus_isomorphism", "qweyl.torus", "check_torus_isomorphism"),
    ("torus.torus_mul", "qweyl.torus", "torus_mul"),
    ("dimension.torus_dimension", "qweyl.dimension", "torus_dimension"),
    ("dimension.rank_upper_bound", "qweyl.dimension", "rank_upper_bound"),
    ("dimension.max_isotropic_rank_single", "qweyl.dimension", "max_isotropic_rank_single"),
    ("dimension.isotropic_witness_search", "qweyl.dimension", "isotropic_witness_search"),
    ("dimension.integer_rank", "qweyl.dimension", "integer_rank"),
)

LAYERS = ("scalars", "presentation", "pbw", "torus", "dimension", "cli")

# Result observers: metric suffix and the value each call's result adds.
OBSERVERS = {
    "pbw.normal_form": ("out_terms", lambda result: len(result.terms)),
    "dimension.isotropic_witness_search": ("hit_ratio", lambda result: result is not None),
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for prefix, _, _ in TARGETS:
        names += [f"{prefix}.calls", f"{prefix}.self_s", f"{prefix}.total_s"]
        if prefix in OBSERVERS:
            names.append(f"{prefix}.{OBSERVERS[prefix][0]}")
    names += [f"{layer}.self_s" for layer in LAYERS]
    names.append("trace.overhead_ratio")
    return names


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "active", "observed")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.active = 0
        self.observed = 0


class Tracer:
    def __init__(self):
        self.stats = {prefix: _Stat() for prefix, _, _ in TARGETS}
        # child-time accumulators of the open spans; the bottom entry is the root
        self._stack = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, prefix: str, fn):
        stat = self.stats[prefix]
        stack = self._stack
        clock = time.perf_counter
        observe = OBSERVERS[prefix][1] if prefix in OBSERVERS else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            stat.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stat.active -= 1
                stat.calls += 1
                stat.self_s += duration - stack.pop()
                if not stat.active:  # count recursive activations once
                    stat.total_s += duration
                stack[-1] += duration
            if observe is not None:
                stat.observed += observe(result)
            return result

        return span

    def install(self) -> None:
        for module_name in sorted({module for _, module, _ in TARGETS}):
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qweyl"]
        for prefix, module_name, path in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None:
                continue
            if owner_name:  # a method: the class holds its only binding
                original = vars(owner).get(attr)
                if original is None:
                    continue
                self._replace(owner, attr, self._wrap(prefix, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(prefix, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, name, wrapper)

    def _replace(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def snapshot(self) -> dict:
        """Raw totals: {prefix: [calls, self_s, total_s, observed]}."""
        return {
            prefix: [s.calls, s.self_s, s.total_s, s.observed] for prefix, s in self.stats.items()
        }


def layer_metrics(totals: dict, jobs: int) -> dict:
    """Per-job metrics from summed snapshots; trace.overhead_ratio is added by the caller."""
    out = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for prefix, _, _ in TARGETS:
        calls, self_s, total_s, observed = totals.get(prefix, [0, 0.0, 0.0, 0])
        out[f"{prefix}.calls"] = (calls / jobs, "calls/job")
        out[f"{prefix}.self_s"] = (self_s / jobs, "s/job")
        out[f"{prefix}.total_s"] = (total_s / jobs, "s/job")
        if prefix in OBSERVERS:
            suffix = OBSERVERS[prefix][0]
            unit = "terms/call" if suffix == "out_terms" else "ratio"
            out[f"{prefix}.{suffix}"] = (observed / calls if calls else 0.0, unit)
        layer_self[prefix.split(".")[0]] += self_s
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer] / jobs, "s/job")
    return out
