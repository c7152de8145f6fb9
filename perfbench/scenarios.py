"""The benchmark's three workloads and the phases each one runs.

Every workload runs **cold** phases, which produce its results from nothing:
traces, simulation and, for ``figures_all``, the Load Inspector, cache and
warehouse writes and figure rendering.  ``figures_all`` then runs two kinds
of pass over the cache its cold phase filled:

* **commit** puts every cold result into a fresh cache directory (one
  warehouse row each) and compacts the warehouse;
* **warm** re-renders every figure from the filled cache (traces are
  regenerated, every result is a cache hit) and runs a ``load_rows`` +
  ``speedup_summary`` query.

The simulated inputs are fixed paper-suite specs, so model outputs repeat
exactly and a known model failure cannot be seeded away; ``--seed`` permutes
the order in which figures and jobs are submitted, which must not change any
result.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments import (
    SCHEMA_VERSION,
    ExperimentRunner,
    ReportCache,
    ResultCache,
    baseline_config,
    constable_config,
    eves_constable_config,
    orchestrate_figures,
)
from repro.experiments.bench import _membound_specs
from repro.experiments.figures import FIGURE_HARNESSES
from repro.experiments.warehouse import (
    compact_warehouse,
    load_rows,
    speedup_summary,
    verify_warehouse,
)
from repro.pipeline.cpu import OutOfOrderCore
from repro.power.power_model import CorePowerModel
from repro.workloads import generate_trace, workload_specs_for_suite

from hooks import JobTimer, Tracer
from probe import ProbeClock

#: Trace length and workloads per suite of ``repro figures all`` by default.
FIGURES_INSTRUCTIONS = 6_000
FIGURES_PER_SUITE = 1
#: Long enough that several external writes land on live eliminations.
SNOOP_INSTRUCTIONS = 24_000
MEMBOUND_INSTRUCTIONS = 30_000
#: Architectural registers, as the experiment runner uses by default.
NUM_REGISTERS = 16
#: Rounds of commit and warm passes after the cold phase of ``figures_all``.
PASS_ROUNDS = 4
#: Timed seconds each round's commit passes, and its warm passes, add up to.
PASS_MIN_S = 0.5

Key = Tuple[str, str]


def first_line(error: BaseException) -> str:
    text = str(error).strip()
    return f"{type(error).__name__}: {text.splitlines()[0] if text else ''}"


@dataclass
class Failure:
    workload: str
    config: str
    message: str


@dataclass
class Context:
    """Per-run state the phases share."""

    clock: ProbeClock
    timer: JobTimer
    rng: random.Random
    tmp: Path
    tracer: Optional[Tracer] = None
    _dirs: int = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        return self.tmp / f"cache-{self._dirs:03d}"


@dataclass
class Cold:
    """What one cold phase produced."""

    raw_s: float
    attempted: int
    failures: List[Failure]
    #: (workload, config) -> SimulationResult for the model block and digest.
    results: Dict[Key, object]
    #: (kind, cache key, result) for every stored result, as commits replay.
    entries: List[Tuple[str, str, object]]
    #: Canonical JSON of the outputs besides the results: the figure payloads
    #: (which warm passes must reproduce byte for byte) or the failure list.
    payload: str
    digest: str
    directory: Optional[Path] = None
    #: Experiments-layer job demand (planned, unique); zero outside figures.
    planned_jobs: int = 0
    unique_jobs: int = 0
    problem: str = ""


@dataclass
class Pass:
    raw_s: float
    ok: bool
    failure: Optional[Failure] = None
    problem: str = ""


def canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def results_digest(payload: str, results: Dict[Key, object]) -> str:
    hasher = hashlib.sha256(payload.encode("utf-8"))
    for key in sorted(results):
        hasher.update(canonical([key, results[key].to_dict()]).encode("utf-8"))
    return hasher.hexdigest()


class Scenario:
    """A workload: its set-up and its phases."""

    name = ""
    #: Whether the workload has commit and warm passes after its cold phase.
    passes = False

    def setup(self, tmp: Path) -> None:
        """Build configs, specs and the runner: what ``setup_s`` times."""
        raise NotImplementedError

    def cold(self, ctx: Context) -> Cold:
        raise NotImplementedError


class FiguresAll(Scenario):
    """``repro figures all``: one workload per suite, default trace budget."""

    name = "figures_all"
    passes = True

    def setup(self, tmp: Path) -> None:
        self.names = list(FIGURE_HARNESSES)
        self._runner(tmp / "setup-cache").specs()

    def _runner(self, directory: Path) -> ExperimentRunner:
        return ExperimentRunner(per_suite=FIGURES_PER_SUITE,
                                instructions=FIGURES_INSTRUCTIONS,
                                num_registers=NUM_REGISTERS,
                                cache=ResultCache(directory),
                                report_cache=ReportCache(directory))

    def _order(self, ctx: Context) -> List[str]:
        names = list(self.names)
        ctx.rng.shuffle(names)
        return names

    @staticmethod
    def _payload(figures: Dict[str, Dict[str, object]]) -> str:
        return canonical({name: {key: value for key, value in result.items()
                                 if key != "text"}
                          for name, result in figures.items()})

    def cold(self, ctx: Context) -> Cold:
        names = self._order(ctx)
        directory = ctx.fresh_dir()
        runner = self._runner(directory)
        start = ctx.clock.now()
        try:
            with runner:
                figures, stats = orchestrate_figures(runner, names)
        except Exception as error:  # a wave failure fails every figure
            raw = ctx.clock.now() - start
            jobs = ", ".join(letter.label for letter in getattr(error, "dead_letters", ()))
            failures = [Failure(name, jobs or "wave", first_line(error)) for name in names]
            return Cold(raw, len(names), failures, {}, [], "", "", directory)
        raw = ctx.clock.now() - start

        results = {(workload, config): result
                   for workload, run in runner.workloads().items()
                   for config, result in run.results.items()}
        payload = self._payload(figures)
        stores = runner.cache.stats.stores
        with _untraced(ctx):
            cache = ResultCache(directory)
            entries = []
            for row in load_rows(directory, SCHEMA_VERSION):
                if row.kind == "smt":
                    entries.append(("smt", row.key, cache.get_smt(row.key)))
                else:
                    entries.append(("result", row.key, cache.get(row.key)))
        problem = ""
        if len(entries) != stores or any(entry[2] is None for entry in entries):
            problem = (f"cold phase stored {stores} results but the warehouse "
                       f"yields {len(entries)} rows")
        return Cold(raw, len(names), [], results, entries, payload,
                    results_digest(payload, results), directory,
                    stats.planned, stats.unique, problem)

    def commit(self, ctx: Context, cold: Cold) -> Pass:
        """Every cold result into a fresh cache directory, then compact."""
        directory = ctx.fresh_dir()
        start = ctx.clock.now()
        try:
            cache = ResultCache(directory)
            for kind, key, result in cold.entries:
                if kind == "smt":
                    cache.put_smt(key, result)
                else:
                    cache.put(key, result)
            compact_warehouse(directory)
        except Exception as error:  # counted, listed and never retried
            return Pass(ctx.clock.now() - start, False,
                        Failure("commit", "pass", first_line(error)))
        raw = ctx.clock.now() - start
        report = verify_warehouse(directory, SCHEMA_VERSION)
        shutil.rmtree(directory, ignore_errors=True)
        problem = ""
        if report["missing"] or report["extra"] or report["rows"] != len(cold.entries):
            problem = (f"verify_warehouse after commit: {report['rows']} rows for "
                       f"{len(cold.entries)} stores, {len(report['missing'])} "
                       f"missing, {len(report['extra'])} extra")
        return Pass(raw, True, problem=problem)

    def warm(self, ctx: Context, cold: Cold) -> Pass:
        """Re-render every figure from the cache the cold phase filled."""
        names = self._order(ctx)
        directory = cold.directory
        runner = self._runner(directory)
        start = ctx.clock.now()
        try:
            with runner:
                figures, stats = orchestrate_figures(runner, names)
            speedup_summary(load_rows(directory, SCHEMA_VERSION), group_by="suite")
        except Exception as error:
            return Pass(ctx.clock.now() - start, False,
                        Failure("warm", "pass", first_line(error)))
        raw = ctx.clock.now() - start
        problem = ""
        if stats.executed:
            problem = f"warm pass simulated {stats.executed} jobs"
        elif self._payload(figures) != cold.payload:
            problem = "warm figure payloads differ from the cold payloads"
        return Pass(raw, True, problem=problem)


class JobBatch(Scenario):
    """A fixed (workload, config) job list run job by job on the core."""

    instructions = 0

    def specs(self) -> List[object]:
        raise NotImplementedError

    def configs(self) -> List[Tuple[str, object]]:
        raise NotImplementedError

    def setup(self, tmp: Path) -> None:
        self.spec_list = self.specs()
        self.config_list = self.configs()

    def cold(self, ctx: Context) -> Cold:
        jobs = [(spec.name, name, config) for spec in self.spec_list
                for name, config in self.config_list]
        ctx.rng.shuffle(jobs)
        results: Dict[Key, object] = {}
        failures: List[Failure] = []
        start = ctx.clock.now()
        traces = {spec.name: generate_trace(spec, num_instructions=self.instructions,
                                            num_registers=NUM_REGISTERS)
                  for spec in self.spec_list}
        for workload, name, config in jobs:
            try:
                core = OutOfOrderCore(config, [traces[workload]], name=name)
                results[(workload, name)] = core.run()
            except Exception as error:  # counted, listed and never retried
                failures.append(Failure(workload, name, first_line(error)))
        raw = ctx.clock.now() - start
        failed = canonical(sorted((f.workload, f.config, f.message) for f in failures))
        return Cold(raw, len(jobs), failures, results, [], failed,
                    results_digest(failed, results))


class SnoopLong(JobBatch):
    """First two Enterprise and Server workloads: frequent external writes."""

    name = "snoop_long"
    instructions = SNOOP_INSTRUCTIONS

    def specs(self) -> List[object]:
        return (workload_specs_for_suite("Enterprise")[:2]
                + workload_specs_for_suite("Server")[:2])

    def configs(self) -> List[Tuple[str, object]]:
        return [("baseline", baseline_config()), ("constable", constable_config()),
                ("eves+constable", eves_constable_config())]


class MemBound(JobBatch):
    """Pointer chase and random access over 8-16 MiB: the no-change control."""

    name = "membound"
    instructions = MEMBOUND_INSTRUCTIONS

    def specs(self) -> List[object]:
        return _membound_specs()

    def configs(self) -> List[Tuple[str, object]]:
        return [("baseline", baseline_config()), ("constable", constable_config())]


SCENARIOS = {scenario.name: scenario for scenario in (FiguresAll, SnoopLong, MemBound)}


@contextmanager
def _untraced(ctx: Context):
    """Suspends span recording for the benchmark's own bookkeeping reads."""
    if ctx.tracer is None:
        yield
        return
    ctx.tracer.paused += 1
    try:
        yield
    finally:
        ctx.tracer.paused -= 1


# --------------------------------------------------------------- model block

def _geomean_speedup(results: Dict[Key, object], config: str) -> Optional[float]:
    ratios = [results[(workload, "baseline")].cycles / result.cycles
              for (workload, name), result in results.items()
              if name == config and (workload, "baseline") in results
              and result.cycles > 0]
    return statistics.geometric_mean(ratios) if ratios else None


def model_block(cold: Cold) -> Dict[str, Optional[float]]:
    """Deterministic model outputs; None where the workload lacks the config."""
    results = cold.results
    power = CorePowerModel()
    paired = [workload for (workload, name) in results
              if name == "constable" and (workload, "baseline") in results]
    ratio = None
    if paired:
        ratio = (sum(power.evaluate(results[(w, "constable")].power_events).total
                     for w in paired)
                 / sum(power.evaluate(results[(w, "baseline")].power_events).total
                       for w in paired))
    return {
        "model.eves_speedup": _geomean_speedup(results, "eves"),
        "model.constable_speedup": _geomean_speedup(results, "constable"),
        "model.eves_constable_speedup": _geomean_speedup(results, "eves+constable"),
        "model.constable_core_power_ratio": ratio,
        # 52 bits of the SHA-256, so the value is exact as a JSON number.
        "model.results_digest": float(int(cold.digest[:13], 16)) if cold.digest else None,
    }
