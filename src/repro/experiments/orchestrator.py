"""Cross-figure sweep orchestration with global job dedup.

The paper's evaluation is ~20 figures whose configuration sweeps overlap
heavily: figs. 11, 12, 14, 16 and 17 all re-simulate the same
baseline/constable configurations, fig. 20's ``baseline_w3``/``baseline_d1.0``
grid points are content-identical to the plain baseline, and fig. 13's
``all_loads`` is the plain Constable configuration under another name.  Run
one figure at a time, each harness's own wave re-plans those shared
``(config, workload)`` jobs (deduplicated only within the figure), and the
worker pool drains between harnesses.

:class:`SweepOrchestrator` removes both costs while staying bit-identical to
running each figure on its own:

1. **Collect** — every figure harness in :mod:`repro.experiments.figures`
   declares its configuration demand once, as a :class:`FigurePlan` that the
   harness itself runs (``FIGURE_DEMANDS`` indexes them by figure name).  The
   orchestrator merges the requested plans and materialises jobs through the
   runner's planning hooks
   (:meth:`~repro.experiments.runner.ExperimentRunner.plan_jobs` /
   :meth:`~repro.experiments.runner.ExperimentRunner.plan_smt_jobs`).
2. **Dedup** — planned jobs are grouped by *content* fingerprint (the same
   material the on-disk cache keys hash: the fully materialised
   :class:`~repro.pipeline.config.CoreConfig`, the workload spec and the trace
   parameters), so two figures demanding the same simulation under different
   names share one job.
3. **Execute** — every group's representative job, single-thread and SMT
   alike, goes through the runner's execution core
   (:meth:`~repro.experiments.runner.ExperimentRunner._run_wave`) as **one**
   wave: staged from the on-disk cache, the rest handed to the
   ``_execute_wave`` hook in one batch — the parallel runner submits them all
   to one process pool up front, so the pool never drains between harnesses.
4. **Commit** — the core commits each representative's result atomically;
   the orchestrator then commits it under *every* other ``(config name,
   workload)`` alias that demanded it, in the same in-memory stores.  Running
   the figure harnesses afterwards finds everything already committed and
   performs **zero** simulations, so their outputs are bit-identical to
   running each figure on its own fresh runner by construction (pinned
   differentially at 1/2/4 workers in ``tests/test_orchestrator.py``).

Results are pure functions of ``(config, trace)``, which is what makes the
aliasing sound: committing one result object under several names is
observationally identical to simulating the same inputs once per name.

The :class:`DedupStats` record (``planned`` figure demand, ``unique`` after
dedup, ``cache_warm`` served from disk, ``executed`` actually simulated) is
surfaced by ``repro figures``/``repro sweep`` and recorded by ``repro bench
--orchestrator`` reports.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.cache import config_fingerprint, persist_dedup_stats
from repro.experiments.runner import (
    ConfigLike,
    ExperimentRunner,
    Shard,
    SimulationJob,
    SmtJob,
)
from repro.pipeline.smt import SmtResult
from repro.pipeline.stats import SimulationResult


@dataclass(frozen=True)
class FigurePlan:
    """One figure's declared configuration demand.

    ``configs`` maps each single-thread configuration name the figure reads to
    its :data:`ConfigLike`; ``smt_configs`` does the same for SMT2 pair
    sweeps, with ``smt_max_pairs`` as the figure's pair budget (None = the
    full pair list).  A figure that only consumes workload traces and Load
    Inspector reports (fig. 3) declares an empty plan — the wave still
    generates its workloads.
    """

    figure: str
    configs: Mapping[str, ConfigLike] = field(default_factory=dict)
    smt_configs: Mapping[str, ConfigLike] = field(default_factory=dict)
    smt_max_pairs: Optional[int] = None


@dataclass
class DedupStats:
    """Cross-figure job-dedup accounting for one orchestrated wave.

    ``planned`` counts figure demand before any sharing — what serial
    per-figure execution with per-figure runners and a cold cache would
    simulate.  ``unique`` is the job count after merging identical names and
    grouping by content fingerprint; ``cache_warm`` of those came from the
    on-disk cache and ``executed`` were actually simulated in the wave.
    ``cold_jobs`` names each executed job (``config/workload`` or
    ``smt:config/first+second``) so an ``--expect-warm`` violation can say
    exactly *which* jobs ran cold instead of just how many.
    """

    figures: List[str] = field(default_factory=list)
    planned: int = 0
    unique: int = 0
    cache_warm: int = 0
    executed: int = 0
    cold_jobs: List[str] = field(default_factory=list)

    @property
    def deduped(self) -> int:
        """How many planned jobs were satisfied by sharing another job's result."""
        return self.planned - self.unique

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable form (embedded in bench reports)."""
        return {
            "figures": list(self.figures),
            "planned": self.planned,
            "unique": self.unique,
            "deduped": self.deduped,
            "cache_warm": self.cache_warm,
            "executed": self.executed,
            "cold_jobs": list(self.cold_jobs),
        }


def _relabelled(result: SimulationResult, config_name: str) -> SimulationResult:
    """The result as ``config_name`` sees it.

    A deduped group commits one simulation under several alias names; shallow
    relabelling keeps each alias's ``result.config_name`` (and ``summary()``)
    telling the truth, exactly as if the serial path had simulated under that
    name.  Everything else is shared — results are immutable downstream.
    """
    if result.config_name == config_name:
        return result
    return dataclasses.replace(result, config_name=config_name)


def _relabelled_smt(result: SmtResult, config_name: str) -> SmtResult:
    """SMT counterpart of :func:`_relabelled` (the label lives one level down)."""
    if result.result.config_name == config_name:
        return result
    return dataclasses.replace(
        result, result=_relabelled(result.result, config_name))


def _fingerprint_text(job_config) -> str:
    """A deterministic text form of a materialised config's fingerprint."""
    return json.dumps(config_fingerprint(job_config), sort_keys=True,
                      separators=(",", ":"))


def _sim_identity(job: SimulationJob) -> str:
    """The content identity of a single-thread job (cache key when available).

    Falls back to the same material the cache key hashes — the materialised
    config fingerprint plus the workload — so dedup behaves identically with
    and without an attached on-disk cache.
    """
    if job.cache_key is not None:
        return job.cache_key
    return f"sim:{job.workload}:{_fingerprint_text(job.config)}"


def _smt_identity(job: SmtJob) -> str:
    """The content identity of an SMT2 job (cache key when available)."""
    if job.cache_key is not None:
        return f"smt:{job.cache_key}"
    return (f"smt:{job.pair[0]}+{job.pair[1]}@{job.second_base_pc}:"
            f"{_fingerprint_text(job.config)}")


class SweepOrchestrator:
    """Plans, dedups and executes many figures' sweeps as one wave.

    The orchestrator owns no execution machinery of its own: planning goes
    through the runner's ``plan_jobs``/``plan_smt_jobs`` and execution and
    commit through its ``_run_wave`` core — the same path every
    ``run_config`` takes — so serial and parallel runners (and any future
    runner subclass) orchestrate without modification.  What it adds is
    merging the plans, deduplicating jobs by content, committing each shared
    result under every alias, and the dedup ledger.
    """

    def __init__(self, runner: ExperimentRunner):
        self.runner = runner
        #: Stats of the most recent :meth:`execute` call.
        self.stats: Optional[DedupStats] = None

    # ---------------------------------------------------------------- planning

    def _merge_plans(self, plans: Sequence[FigurePlan], shard: Optional[Shard]
                     ) -> Tuple[Dict[str, ConfigLike],
                                Dict[str, Tuple[ConfigLike, Optional[int]]],
                                DedupStats]:
        """Merge per-figure demand into unique config names + demand stats.

        SMT budgets merge to the *loosest* request per config name: ``None``
        (the full pair list) beats any bound, otherwise the maximum bound
        wins, so every figure finds at least the pairs it asked for.

        Two plans reusing one config *name* must mean the same config
        *content* — otherwise committing a shared result under the merged
        name would silently hand one figure another figure's data — so every
        collision is checked by content fingerprint and a mismatch raises.
        """
        runner = self.runner
        stats = DedupStats(figures=[plan.figure for plan in plans])
        workload_count = len(runner._owned_workloads(shard))
        fingerprints: Dict[str, str] = {}

        def _content(config: ConfigLike) -> str:
            # Materialise against *every* workload: builder configs may
            # coincide on one trace yet diverge on another, and a collision
            # must mean identity everywhere for the merge to be sound.
            return "\n".join(
                _fingerprint_text(runner._materialise_config(config, run))
                for run in runner.workloads().values())

        def _check_collision(kind: str, name: str, existing: ConfigLike,
                             config: ConfigLike, figure: str) -> None:
            key = f"{kind}:{name}"
            if key not in fingerprints:
                fingerprints[key] = _content(existing)
            if _content(config) != fingerprints[key]:
                raise ValueError(
                    f"figure plans disagree on the contents of {kind} config "
                    f"{name!r} (while merging {figure!r}); rename one of "
                    f"them — a shared name must mean one configuration")

        merged: Dict[str, ConfigLike] = {}
        merged_smt: Dict[str, Tuple[ConfigLike, Optional[int]]] = {}
        for plan in plans:
            stats.planned += len(plan.configs) * workload_count
            for name, config in plan.configs.items():
                if name in merged:
                    _check_collision("single-thread", name, merged[name],
                                     config, plan.figure)
                else:
                    merged[name] = config
            if plan.smt_configs:
                pairs = runner.smt_pairs(plan.smt_max_pairs, shard)
                stats.planned += len(plan.smt_configs) * len(pairs)
            for name, config in plan.smt_configs.items():
                if name not in merged_smt:
                    merged_smt[name] = (config, plan.smt_max_pairs)
                    continue
                first, bound = merged_smt[name]
                _check_collision("SMT", name, first, config, plan.figure)
                if bound is not None:
                    bound = (None if plan.smt_max_pairs is None
                             else max(bound, plan.smt_max_pairs))
                merged_smt[name] = (first, bound)
        return merged, merged_smt, stats

    # --------------------------------------------------------------- execution

    def _commit_aliases(self, sim_groups: Dict[str, List[SimulationJob]],
                        smt_groups: Dict[str, List[SmtJob]]) -> None:
        """Commit each committed representative's result under its aliases."""
        runner = self.runner
        workloads = runner.workloads()
        for representative, *aliases in sim_groups.values():
            result = workloads[representative.workload].results.get(
                representative.config_name)
            if result is None:
                continue
            for job in aliases:
                workloads[job.workload].results[job.config_name] = \
                    _relabelled(result, job.config_name)
        for representative, *aliases in smt_groups.values():
            smt_result = runner._smt_results.get(
                representative.config_name, {}).get(representative.pair)
            if smt_result is None:
                continue
            for smt_job in aliases:
                runner._smt_results.setdefault(smt_job.config_name, {})[
                    smt_job.pair] = _relabelled_smt(smt_result,
                                                    smt_job.config_name)

    def execute(self, plans: Sequence[FigurePlan],
                shard: Optional[Shard] = None) -> DedupStats:
        """Run every plan's outstanding jobs as one deduped wave and commit.

        After this returns, every ``(config name, workload)`` and
        ``(config name, pair)`` the plans demanded is committed in the
        runner's stores, so running the corresponding figure harnesses
        performs zero simulations.  The commit is atomic in the same sense as
        ``run_config``: a failure anywhere in the wave leaves every store
        untouched, and the wave's successes are journaled to the on-disk
        cache so a rerun (``repro sweep --resume``) executes only the
        missing jobs.
        """
        runner = self.runner
        merged, merged_smt, stats = self._merge_plans(plans, shard)

        # Plan per unique config name, then group planned jobs by content.
        sim_groups: Dict[str, List[SimulationJob]] = {}
        for name, config in merged.items():
            for job in runner.plan_jobs(name, config, shard):
                sim_groups.setdefault(_sim_identity(job), []).append(job)
        smt_groups: Dict[str, List[SmtJob]] = {}
        for name, (config, max_pairs) in merged_smt.items():
            for smt_job in runner.plan_smt_jobs(name, config, max_pairs, shard):
                smt_groups.setdefault(_smt_identity(smt_job), []).append(smt_job)

        # One continuously fed wave over every group's representative.
        try:
            executed, executed_smt = runner._run_wave(
                [group[0] for group in sim_groups.values()],
                [group[0] for group in smt_groups.values()])
        finally:
            # The core commits in memory before its disk writes, so even a
            # write failing (disk full) must not cost the aliases their
            # results; a failed wave committed nothing, so nothing aliases.
            self._commit_aliases(sim_groups, smt_groups)
        stats.unique = len(sim_groups) + len(smt_groups)
        stats.executed = len(executed) + len(executed_smt)
        stats.cache_warm = stats.unique - stats.executed
        stats.cold_jobs = (
            [f"{job.config_name}/{job.workload}" for job in executed]
            + [f"smt:{job.config_name}/{'+'.join(job.pair)}"
               for job in executed_smt])
        if runner.cache is not None and stats.unique:
            # Stream this wave's dedup accounting into the cache directory's
            # counter ledger so `repro cache stats` reports cross-host
            # planned/unique/cache-warm dedup rates alongside hit rates.  A
            # wave whose demand was already committed in memory planned
            # nothing and records nothing.
            persist_dedup_stats(runner.cache.directory, stats.to_dict())
        self.stats = stats
        return stats


def orchestrate_figures(runner: ExperimentRunner, names: Sequence[str]
                        ) -> Tuple[Dict[str, Dict[str, object]], DedupStats]:
    """Run the named figure harnesses through one orchestrated wave.

    The declared demand of every name in
    :data:`~repro.experiments.figures.FIGURE_DEMANDS` is merged, deduped and
    executed as a single wave; the harnesses then run against the warmed
    runner (zero simulations) in the order given.  Names without a
    declaration (standalone harnesses) are skipped here — callers dispatch
    those separately.  Returns ``(results by figure name, dedup stats)``.
    """
    from repro.experiments.figures import FIGURE_DEMANDS, FIGURE_HARNESSES

    planned_names = [name for name in names if name in FIGURE_DEMANDS]
    orchestrator = SweepOrchestrator(runner)
    stats = orchestrator.execute([FIGURE_DEMANDS[name]() for name in planned_names])
    results = {name: FIGURE_HARNESSES[name](runner) for name in planned_names}
    return results, stats
