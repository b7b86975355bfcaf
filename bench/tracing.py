"""Spans around polylogic's public functions, recorded from outside the
program.

``Tracer.install`` replaces each traced function in every loaded module of
the package that binds it (``pipeline`` and ``cli`` import ``is_valid`` by
name, for example) and each traced method on its class; ``uninstall``
puts the originals back. A span is (name, start, end, parent, pass, op,
counts); spans stay in memory until the run writes them out. Self time is
a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from statistics import median

GENERATOR = "generator"
RECURSIVE = "recursive"


def _non_nested_pairs(args, result):
    simplices = [set(s) for s in args[0].simplices]
    pairs = sum(
        1 for i, s in enumerate(simplices) for t in simplices[i + 1:]
        if not (s <= t or t <= s)
    )
    return {"pairs": pairs}


def _tables_counts(args, result, was_built):
    m = len(args[0])
    return {} if was_built else {"bytes_computed": 3 * m * m * 8}


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # "function" or "Class.method"
    group: str  # metric prefix
    style: str = ""  # GENERATOR, RECURSIVE or plain
    counts: object = None  # (args, result) -> {counter: amount}
    key: object = None  # (args, kwargs) -> hashable, for distinct/repeat shares
    pre: object = None  # args -> state passed to counts as a third argument


TARGETS = (
    Target("polylogic.poset", "enumerate_posets", "poset.enumerate_posets", GENERATOR,
           key=lambda a, kw: (a[0], a[1] if len(a) > 1 else kw.get("max_depth"))),
    Target("polylogic.poset", "Poset.all_upsets", "poset.all_upsets",
           counts=lambda a, r: {"upsets": len(r)}),
    Target("polylogic.algebra", "FiniteHeyting.__init__", "algebra.FiniteHeyting"),
    Target("polylogic.algebra", "FiniteHeyting.tables", "algebra.tables",
           counts=_tables_counts, pre=lambda a: a[0]._tables is not None),
    Target("polylogic.algebra", "is_valid", "algebra.is_valid",
           counts=lambda a, r: {"valuations": r.checked}),
    Target("polylogic.algebra", "eval_formula", "algebra.eval_formula", RECURSIVE),
    Target("polylogic.algebra", "join_irreducibles", "algebra.join_irreducibles"),
    Target("polylogic.algebra", "stone_map", "algebra.stone_map"),
    Target("polylogic.simplicial", "Complex.carrier", "simplicial.carrier",
           key=lambda a, kw: (id(a[0]), a[1])),
    Target("polylogic.simplicial", "Complex.contains_point", "simplicial.contains_point"),
    Target("polylogic.simplicial", "verify_complex", "simplicial.verify_complex",
           counts=_non_nested_pairs),
    Target("polylogic.simplicial", "Complex.face_poset", "simplicial.face_poset"),
    Target("polylogic.simplicial", "build_complex", "simplicial.build_complex"),
    Target("polylogic.simplicial", "heyting_implication", "simplicial.heyting_implication"),
    Target("polylogic.simplicial", "co_implication", "simplicial.co_implication"),
    Target("polylogic.nerve", "realize", "nerve.realize"),
    Target("polylogic.nerve", "transfer_countermodel", "nerve.transfer_countermodel"),
    Target("polylogic.pipeline", "find_frame_countermodel", "pipeline.find_frame_countermodel"),
    Target("polylogic.pipeline", "verify_esakia", "pipeline.verify_suites"),
    Target("polylogic.pipeline", "verify_ji", "pipeline.verify_suites"),
    Target("polylogic.pipeline", "verify_dim_bd", "pipeline.verify_suites"),
)

GROUPS = tuple(dict.fromkeys(t.group for t in TARGETS))

# Which end-to-end metrics each layer should move, and the workloads whose
# traced run exercises it (it should be near zero on the others).
LAYER_MAP = {
    "poset.enumerate_posets": (("ops_per_s", "op_p50_ms"), ("frame-search",)),
    "poset.all_upsets": (("ops_per_s",), ("frame-search", "wide-frames")),
    "algebra.FiniteHeyting": (("peak_rss_mb", "op_tail_ms"), ("wide-frames", "frame-search")),
    "algebra.tables": (("peak_rss_mb", "op_tail_ms"), ("wide-frames", "frame-search")),
    "algebra.is_valid": (("ops_per_s", "op_p50_ms"), ("frame-search", "wide-frames")),
    "algebra.eval_formula": (("op_p50_ms",), ("frame-search", "polyhedra")),
    "algebra.join_irreducibles": (("op_tail_ms",), ("wide-frames",)),
    "algebra.stone_map": (("op_tail_ms",), ("wide-frames",)),
    "simplicial.carrier": (("ops_per_s", "op_p50_ms"), ("polyhedra",)),
    "simplicial.contains_point": (("ops_per_s", "op_p50_ms"), ("polyhedra",)),
    "simplicial.verify_complex": (("op_tail_ms",), ("polyhedra",)),
    "simplicial.face_poset": (("op_p50_ms",), ("polyhedra",)),
    "simplicial.build_complex": (("op_p50_ms",), ("polyhedra",)),
    "simplicial.heyting_implication": (("op_p50_ms",), ("polyhedra",)),
    "simplicial.co_implication": (("op_p50_ms",), ("polyhedra",)),
    "nerve.realize": (("op_p50_ms",), ("polyhedra",)),
    "nerve.transfer_countermodel": (("op_p50_ms",), ("polyhedra",)),
    "pipeline.find_frame_countermodel": (("ops_per_s",), ("frame-search",)),
    "pipeline.verify_suites": (("ops_per_s",), ("wide-frames",)),
}

# Per-layer metrics beyond each group's self_s and self_share:
# (metric, unit, better).
COUNT_METRICS = (
    ("poset.enumerate_posets.calls", "count", "lower"),
    ("poset.enumerate_posets.frames", "count", "lower"),
    ("poset.enumerate_posets.repeat_share", "ratio", "lower"),
    ("poset.all_upsets.calls", "count", "lower"),
    ("poset.all_upsets.upsets", "count", "lower"),
    ("algebra.tables.calls", "count", "lower"),
    ("algebra.tables.bytes_computed", "bytes", "lower"),
    ("algebra.is_valid.calls", "count", "lower"),
    ("algebra.is_valid.valuations", "count", "lower"),
    ("simplicial.carrier.calls", "count", "lower"),
    ("simplicial.carrier.distinct_share", "ratio", "higher"),
    ("simplicial.verify_complex.calls", "count", "lower"),
    ("simplicial.verify_complex.pairs", "count", "lower"),
    ("pipeline.frames_per_query", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for g in GROUPS:
        out.append((f"{g}.self_s", "s", "lower"))
        out.append((f"{g}.self_share", "ratio", "lower"))
    return out + list(COUNT_METRICS)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [group, start, end, parent, pass, op, counts, child_s]
        self.calls: list[tuple] = []  # (group, pass, key) per call with a key
        self.where = (None, None)  # (pass, op id) of the operation running
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- spans --------------------------------------------------------

    def _open(self, group) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([group, time.perf_counter(), None, parent, *self.where, None, 0.0])
        self._stack.append(i)
        return i

    def _close(self, i, counts=None):
        span = self.spans[i]
        span[2] = time.perf_counter()
        span[6] = counts
        self._stack.pop()
        if span[3] is not None:
            self.spans[span[3]][7] += span[2] - span[1]

    def _call(self, target, args, kwargs):
        if target.key is not None:
            self.calls.append((target.group, self.where[0], target.key(args, kwargs)))

    # -- wrappers -----------------------------------------------------

    def _wrap(self, target: Target, fn):
        tracer = self
        group = target.group
        if target.style == GENERATOR:
            def wrapper(*args, **kwargs):
                tracer._call(target, args, kwargs)
                return tracer._timed_next(group, fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                if target.style == RECURSIVE and tracer._stack and \
                        tracer.spans[tracer._stack[-1]][0] == group:
                    return fn(*args, **kwargs)
                tracer._call(target, args, kwargs)
                state = target.pre(args) if target.pre else None
                i = tracer._open(group)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    tracer._close(i)
                    raise
                counts = None
                if target.counts is not None:
                    counts = (target.counts(args, result, state) if target.pre
                              else target.counts(args, result))
                tracer._close(i, counts)
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_next(self, group, gen):
        # A generator does its work inside next(), so each next() is a span.
        while True:
            i = self._open(group)
            try:
                item = next(gen)
            except StopIteration:
                self._close(i)
                return
            except BaseException:
                self._close(i)
                raise
            self._close(i, {"frames": 1})
            yield item

    # -- patching -----------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "polylogic" or name.startswith("polylogic."))]
        for target in TARGETS:
            owner = sys.modules[target.module]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(target, original))
                continue
            original = getattr(owner, target.attr)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        while self._saved:
            obj, name, original = self._saved.pop()
            setattr(obj, name, original)

    # -- aggregation --------------------------------------------------

    def pass_metrics(self, pass_no, op_seconds) -> dict:
        """Per-layer metrics of one traced pass; ``op_seconds`` is the sum
        of the pass's operation latencies."""
        spans = [s for s in self.spans if s[4] == pass_no]
        out = {}
        for g in GROUPS:
            self_s = sum(s[2] - s[1] - s[7] for s in spans if s[0] == g)
            out[f"{g}.self_s"] = self_s
            out[f"{g}.self_share"] = self_s / op_seconds if op_seconds else 0.0

        def calls(group):
            keyed = [c for c in self.calls if c[0] == group and c[1] == pass_no]
            if keyed:
                return len(keyed), len({c[2] for c in keyed})
            return sum(1 for s in spans if s[0] == group), None

        def total(group, counter):
            return sum((s[6] or {}).get(counter, 0) for s in spans if s[0] == group)

        n, distinct = calls("poset.enumerate_posets")
        out["poset.enumerate_posets.calls"] = n
        out["poset.enumerate_posets.frames"] = total("poset.enumerate_posets", "frames")
        out["poset.enumerate_posets.repeat_share"] = (n - distinct) / n if n else 0.0
        out["poset.all_upsets.calls"] = calls("poset.all_upsets")[0]
        out["poset.all_upsets.upsets"] = total("poset.all_upsets", "upsets")
        out["algebra.tables.calls"] = calls("algebra.tables")[0]
        out["algebra.tables.bytes_computed"] = total("algebra.tables", "bytes_computed")
        out["algebra.is_valid.calls"] = calls("algebra.is_valid")[0]
        out["algebra.is_valid.valuations"] = total("algebra.is_valid", "valuations")
        n, distinct = calls("simplicial.carrier")
        out["simplicial.carrier.calls"] = n
        out["simplicial.carrier.distinct_share"] = distinct / n if n else 0.0
        out["simplicial.verify_complex.calls"] = calls("simplicial.verify_complex")[0]
        out["simplicial.verify_complex.pairs"] = total("simplicial.verify_complex", "pairs")
        searches = [i for i, s in enumerate(self.spans)
                    if s[4] == pass_no and s[0] == "pipeline.find_frame_countermodel"]
        inside = set(searches)
        frames = sum(1 for s in spans if s[0] == "algebra.is_valid" and s[3] in inside)
        out["pipeline.frames_per_query"] = frames / len(searches) if searches else 0.0
        return out


def combine(per_pass: list[dict]) -> dict:
    """Median over traced passes of each per-layer metric."""
    return {k: median(p[k] for p in per_pass) for k in per_pass[0]}
