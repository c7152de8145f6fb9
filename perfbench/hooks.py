"""The job-timing hook and the span tracer, installed around public calls.

Measured runs install only :class:`JobTimer`, which times each
``OutOfOrderCore.run`` call on the probe clock.  Traced runs additionally
install :class:`Tracer`, which wraps the public entry points of every layer the
benchmark reaches and records one span per call (name, start, end, parent) in
memory.  Spans are timed on the probe clock, so probe time never lands in any
span.
"""

from __future__ import annotations

import importlib
import operator
import sys
from dataclasses import dataclass, field
from functools import wraps
from typing import Any, Callable, Dict, List, Optional, Tuple

from probe import ProbeClock

#: Span name per wrapped function: (module, attribute) -> span name.
TRACED_FUNCTIONS: Dict[Tuple[str, str], str] = {
    ("repro.workloads.generator", "generate_trace"): "workloads.generate_trace",
    ("repro.analysis.load_inspector", "inspect_trace"): "analysis.inspect_trace",
    ("repro.experiments.orchestrator", "orchestrate_figures"): "experiments.orchestrate",
    ("repro.experiments.warehouse", "compact_warehouse"): "experiments.warehouse_compact",
    ("repro.experiments.warehouse", "load_rows"): "experiments.warehouse_load",
    ("repro.experiments.warehouse", "speedup_summary"): "experiments.warehouse_query",
    ("repro.experiments.warehouse", "verify_warehouse"): "experiments.warehouse_verify",
}

#: Span name per wrapped cache method: (class, method) -> span name.
TRACED_METHODS: Dict[Tuple[str, str], str] = {
    ("ResultCache", "get"): "experiments.cache_get",
    ("ResultCache", "get_smt"): "experiments.cache_get",
    ("ReportCache", "get"): "experiments.cache_get",
    ("ResultCache", "put"): "experiments.cache_put",
    ("ResultCache", "put_smt"): "experiments.cache_put",
    ("ReportCache", "put"): "experiments.cache_put",
}


@dataclass
class JobRecord:
    """One ``OutOfOrderCore.run`` call as the job-timing hook saw it."""

    ok: bool
    #: Instructions retired, and those the job's traces hold.  They differ
    #: only for a job that raised before draining.
    instructions: int
    planned: int
    host_s: float


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1


class _Patches:
    """Attribute and dictionary-entry replacements, undone in reverse order."""

    def __init__(self):
        self._undo: List[Tuple[Callable, Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((setattr, owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def set_item(self, mapping: Dict[str, Any], key: str, value: Any) -> None:
        self._undo.append((operator.setitem, mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self) -> None:
        while self._undo:
            undo, owner, name, value = self._undo.pop()
            undo(owner, name, value)


class Tracer:
    """In-memory span recorder with per-span hit counting for cache reads."""

    def __init__(self, clock: ProbeClock):
        self.clock = clock
        self.spans: List[Span] = []
        self.cache_hits = 0
        self.generated_instructions = 0
        #: Nesting depth of bookkeeping sections whose calls are not recorded.
        self.paused = 0
        self._stack: List[int] = []
        self._patches = _Patches()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock.now(), parent=parent))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index].end = self.clock.now()

    def wrap(self, function: Callable, name: str) -> Callable:
        @wraps(function)
        def traced(*args, **kwargs):
            if self.paused:
                return function(*args, **kwargs)
            index = self.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.close(index)
            if name == "experiments.cache_get" and result is not None:
                self.cache_hits += 1
            elif name == "workloads.generate_trace":
                self.generated_instructions += len(result.instructions)
            return result
        return traced

    def install(self) -> None:
        """Wrap every traced entry point wherever a module bound it by name."""
        from repro.experiments import cache, figures

        for (module_name, attribute), span in TRACED_FUNCTIONS.items():
            original = getattr(importlib.import_module(module_name), attribute)
            traced = self.wrap(original, span)
            for module in list(sys.modules.values()):
                if getattr(module, "__dict__", {}).get(attribute) is original:
                    self._patches.set(module, attribute, traced)
        for (class_name, method), span in TRACED_METHODS.items():
            owner = getattr(cache, class_name)
            self._patches.set(owner, method, self.wrap(getattr(owner, method), span))
        for figure, harness in list(figures.FIGURE_HARNESSES.items()):
            self._patches.set_item(figures.FIGURE_HARNESSES, figure,
                                   self.wrap(harness, "experiments.render"))

    def uninstall(self) -> None:
        self._patches.restore()

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """Per span name: (calls, self seconds), self = span minus its children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: Dict[str, Tuple[int, float]] = {}
        for index, span in enumerate(self.spans):
            calls, seconds = totals.get(span.name, (0, 0.0))
            totals[span.name] = (calls + 1,
                                 seconds + span.end - span.start - child_time[index])
        return totals


@dataclass
class CoreCounters:
    """Model counters summed over completed ``OutOfOrderCore.run`` calls."""

    values: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.values[name] = self.values.get(name, 0) + value

    def record(self, core: Any, result: Any) -> None:
        stats = result.stats
        memory = result.memory_stats
        for name, value in (
                ("instructions", result.instructions),
                ("cycles", result.cycles),
                ("uops_renamed", stats.uops_renamed),
                ("rs_issues", stats.rs_issues),
                ("flushes", stats.flushes),
                ("reexecuted_uops", stats.reexecuted_uops),
                ("stepped_cycles", core.stepped_cycles),
                ("skipped_idle_cycles", core.skipped_idle_cycles),
                ("branches_predicted", stats.branches_predicted),
                ("branch_mispredictions", stats.branch_mispredictions),
                ("l1d_accesses", memory["l1d"]["accesses"]),
                ("l1d_misses", memory["l1d"]["misses"]),
                ("llc_misses", memory["llc"]["misses"]),
                ("dram_accesses", memory["dram_accesses"]),
                ("dtlb_accesses", memory["dtlb_accesses"]),
                ("dtlb_hits", memory["dtlb_hit_rate"] * memory["dtlb_accesses"])):
            self.add(name, value)
        if result.constable_stats is not None:
            constable = result.constable_stats
            for name in ("loads_seen", "loads_eliminated", "resets_by_snoop",
                         "resets_by_register_write", "resets_by_l1_eviction"):
                self.add(name, constable[name])
            for name in ("sld_reads", "sld_writes", "amt_accesses"):
                self.add(name, result.power_events.get(name, 0))
        if result.lvp_stats is not None:
            predictions = result.lvp_stats["predictions"]
            self.add("lvp_predictions", predictions)
            self.add("lvp_correct", result.lvp_stats["accuracy"] * predictions)


class JobTimer:
    """Times every ``OutOfOrderCore.run`` call on the probe clock.

    This is the only hook present in measured runs.  With a tracer attached it
    also records a ``pipeline.run`` span and the model's counters.
    """

    def __init__(self, clock: ProbeClock):
        self.clock = clock
        self.records: List[JobRecord] = []
        self.tracer: Optional[Tracer] = None
        self.counters = CoreCounters()
        self._patches = _Patches()

    def install(self) -> None:
        from repro.pipeline.cpu import OutOfOrderCore

        original = OutOfOrderCore.run
        timer = self

        @wraps(original)
        def run(core):
            tracer = timer.tracer
            span = tracer.open("pipeline.run") if tracer is not None else -1
            start = timer.clock.now()
            try:
                result = original(core)
            except BaseException:
                planned = sum(len(thread.instructions) for thread in core.threads)
                timer.records.append(JobRecord(False, core.stats.instructions_retired,
                                               planned, timer.clock.now() - start))
                if tracer is not None:
                    tracer.close(span)
                raise
            timer.records.append(JobRecord(True, result.instructions,
                                           result.instructions,
                                           timer.clock.now() - start))
            if tracer is not None:
                tracer.close(span)
                timer.counters.record(core, result)
            return result

        self._patches.set(OutOfOrderCore, "run", run)

    def uninstall(self) -> None:
        self._patches.restore()

    def mark(self) -> int:
        return len(self.records)

    def window(self, start: int = 0, end: Optional[int] = None) -> List[JobRecord]:
        return self.records[start:end]
