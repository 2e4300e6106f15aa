"""Per-layer spans recorded from outside the program.

``Tracer.installed()`` replaces, for the duration of a ``with`` block, the
bindings that pmmwm's callers actually look up (``orchestrator`` and
``harness`` import names directly, so e.g. ``pmmwm.orchestrator.evolve`` is
wrapped rather than ``pmmwm.hga.evolve``) with wrappers that record a span
per call: name, start, end, parent span and instance id. A few wrappers also
read counters off the call's arguments and result. Spans stay in memory
until ``write_jsonl``; the original bindings are restored on exit.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from pmmwm import graph, harness, hga, matching, numpart, orchestrator
from pmmwm.errors import NoPerfectMatching


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span in Tracer.spans, -1 for a root
    instance: str


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# Counter hooks: ``hook(tracer, args, kwargs)`` runs before the call and
# returns ``finish(result, exc)``, which runs after it.

def _solve_full_hook(tr, args, kwargs):
    def finish(result, exc):
        if exc is None:
            tr.counts["matching.phases"] += result.phase_count
    return finish


def _repair_after_ban_hook(tr, args, kwargs):
    st = _arg(args, kwargs, 1, "st")
    before = st.phase_count

    def finish(result, exc):
        tr.counts["matching.phases"] += st.phase_count - before
        if exc is None:
            tr.counts["matching.bans_accepted"] += 1
        elif isinstance(exc, NoPerfectMatching):
            tr.counts["matching.bans_vetoed"] += 1
    return finish


def _batch_resolve_hook(tr, args, kwargs):
    g = _arg(args, kwargs, 0, "g")
    st = _arg(args, kwargs, 1, "st")
    released = len(_arg(args, kwargs, 2, "released"))
    before = st.phase_count  # a full re-solve builds a new state, counted by solve_full

    def finish(result, exc):
        tr.counts["matching.phases"] += st.phase_count - before
        if released:
            tr.counts["matching.batch_resolve_releasing"] += 1
            if released * 4 > g.n1:
                tr.counts["matching.batch_resolve_full"] += 1
    return finish


def _evolve_hook(tr, args, kwargs):
    params = _arg(args, kwargs, 3, "params")
    before = tr.calls["hga.gpx_crossover"]

    def finish(result, exc):
        # every generation breeds pop_size - elite_count children by crossover
        children = tr.calls["hga.gpx_crossover"] - before
        tr.counts["hga.generations"] += children // (params.pop_size - params.elite_count)
    return finish


def _mls_improve_hook(tr, args, kwargs):
    ind = _arg(args, kwargs, 0, "ind")

    def finish(result, exc):
        if exc is None and result is not ind:
            tr.counts["hga.mls_moved"] += 1
    return finish


def _modify_graph_hook(tr, args, kwargs):
    bans = _arg(args, kwargs, 4, "bans")
    # bans that outlive this step's aging; only a recovery removes them
    survivors = {edge for edge, left in bans.entries.items() if left > 1}

    def finish(result, exc):
        after = set(bans.entries)
        tr.counts["orchestrator.bans_applied"] += len(after - survivors)
        if survivors and not after:
            tr.counts["orchestrator.recoveries"] += 1
    return finish


def _solve_hook(tr, args, kwargs):
    def finish(result, exc):
        if exc is None:
            trace = result.stats.trace
            tr.counts["orchestrator.iterations"] += result.stats.iterations
            tr.counts["orchestrator.incumbent_improvements"] += sum(
                1 for prev, rec in zip(trace, trace[1:]) if rec.incumbent < prev.incumbent)
    return finish


def _targets():
    """(owner, attribute, span name, hook) for every wrapped binding."""
    return [
        (graph, "load_instance", "graph.load_instance", None),
        (graph.BipartiteGraph, "has_perfect_matching", "graph.has_perfect_matching", None),
        (matching, "solve_full", "matching.solve_full", _solve_full_hook),
        (orchestrator, "solve_full", "matching.solve_full", _solve_full_hook),
        (harness, "solve_full", "matching.solve_full", _solve_full_hook),
        (orchestrator, "repair_after_ban", "matching.repair_after_ban", _repair_after_ban_hook),
        (orchestrator, "batch_resolve", "matching.batch_resolve", _batch_resolve_hook),
        (hga, "greedy_lpt", "numpart.greedy_lpt", None),
        (harness, "greedy_lpt", "numpart.greedy_lpt", None),
        (hga, "kk_multiway", "numpart.kk_multiway", None),
        (hga, "greedy_in_order", "numpart.greedy_in_order", None),
        (numpart, "greedy_in_order", "numpart.greedy_in_order", None),
        (orchestrator, "evolve", "hga.evolve", _evolve_hook),
        (hga, "init_population", "hga.init_population", None),
        (hga, "gpx_crossover", "hga.gpx_crossover", None),
        (hga, "mutate", "hga.mutate", None),
        (hga, "mls_improve", "hga.mls_improve", _mls_improve_hook),
        (harness, "mls_improve", "hga.mls_improve", _mls_improve_hook),
        (orchestrator, "modify_graph", "orchestrator.modify_graph", _modify_graph_hook),
        (harness, "solve", "orchestrator.solve", _solve_hook),
        (harness, "baseline_ls", "harness.baseline_ls", None),
    ]


class Tracer:
    """Spans and counters of one traced stretch of a single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.instance = ""       # id stamped on spans opened from now on
        self._open: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            finish = hook(self, args, kwargs) if hook is not None else None
            self.calls[name] += 1
            span = Span(name, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.instance)
            open_spans.append(len(spans))
            spans.append(span)
            result = exc = None
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span.end = clock()
                open_spans.pop()
                if finish is not None:
                    finish(result, exc)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, hook in _targets():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_times(self, instances: set[str] | None = None) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total ms, self ms), over the spans stamped with
        one of ``instances`` (default: all); self time is a span's duration
        minus the time covered by its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, list] = {}
        for s, inner in zip(self.spans, child):
            if instances is not None and s.instance not in instances:
                continue
            entry = out.setdefault(s.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += (s.end - s.start) * 1000.0
            entry[2] += (s.end - s.start - inner) * 1000.0
        return {name: tuple(v) for name, v in out.items()}

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.instance]) + "\n")


def bindings_restored() -> bool:
    """True when no wrapper is left on any traced binding."""
    return not any(hasattr(getattr(owner, attr), "__wrapped__")
                   for owner, attr, _, _ in _targets())
