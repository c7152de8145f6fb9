"""Per-layer metrics of a traced run.

Layer times are span self times (a span minus the part its child spans
cover), in calibrated seconds; cache writes and compaction are calibrated
with the file-system probe, everything else with the interpreter probe.  A time or ratio whose layer
was never entered, or whose denominator is zero, is absent (NaN), never 0;
``BENCHMARK.json`` lists only the metrics every workload measures.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict

from hooks import JobTimer, Tracer
from probe import ProbeClock


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else math.nan


def per_layer(clock: ProbeClock, timer: JobTimer, tracer: Tracer,
              plain, traced, bench: Dict[str, float]) -> Dict[str, float]:
    scale = clock.scale()
    self_times = tracer.self_times()

    def calls(span: str) -> int:
        return self_times.get(span, (0, 0.0))[0]

    def seconds(span: str, fs: bool = False) -> float:
        count, total = self_times.get(span, (0, 0.0))
        return total * clock.scale(fs) if count else math.nan

    counters = timer.counters.values

    def count(name: str) -> float:
        return counters.get(name, 0)

    done_host = sum(job.host_s for job in traced.jobs if job.ok) * scale
    gets = calls("experiments.cache_get")
    cold = traced.colds[0]
    metrics = {
        "workloads.gen_calls": calls("workloads.generate_trace"),
        "workloads.gen_s": seconds("workloads.generate_trace"),
        "workloads.gen_kinstr_per_s": _ratio(tracer.generated_instructions / 1000,
                                             seconds("workloads.generate_trace")),
        "analysis.inspect_calls": calls("analysis.inspect_trace"),
        "analysis.inspect_s": seconds("analysis.inspect_trace"),
        "pipeline.jobs": len(traced.jobs),
        "pipeline.failed": sum(1 for job in traced.jobs if not job.ok),
        "pipeline.run_s": seconds("pipeline.run"),
        "pipeline.instructions": count("instructions"),
        "pipeline.cycles": count("cycles"),
        "pipeline.uops_renamed": count("uops_renamed"),
        "pipeline.host_us_per_uop": _ratio(done_host * 1e6, count("uops_renamed")),
        "pipeline.rs_issues": count("rs_issues"),
        "pipeline.flushes": count("flushes"),
        "pipeline.reexecuted_uops": count("reexecuted_uops"),
        "pipeline.stepped_cycles": count("stepped_cycles"),
        "pipeline.skipped_idle_cycles": count("skipped_idle_cycles"),
        "pipeline.skip_frac": _ratio(count("skipped_idle_cycles"),
                                     count("skipped_idle_cycles") + count("stepped_cycles")),
        "frontend.branches_predicted": count("branches_predicted"),
        "frontend.mispredict_rate": _ratio(count("branch_mispredictions"),
                                           count("branches_predicted")),
        "memory.l1d_accesses": count("l1d_accesses"),
        "memory.l1d_miss_rate": _ratio(count("l1d_misses"), count("l1d_accesses")),
        "memory.llc_misses": count("llc_misses"),
        "memory.dram_accesses": count("dram_accesses"),
        "memory.dtlb_hit_rate": _ratio(count("dtlb_hits"), count("dtlb_accesses")),
        "core.loads_eliminated": count("loads_eliminated"),
        "core.elimination_coverage": _ratio(count("loads_eliminated"), count("loads_seen")),
        "core.resets_by_snoop": count("resets_by_snoop"),
        "core.resets_by_register_write": count("resets_by_register_write"),
        "core.resets_by_l1_eviction": count("resets_by_l1_eviction"),
        "core.sld_reads": count("sld_reads"),
        "core.sld_writes": count("sld_writes"),
        "core.amt_accesses": count("amt_accesses"),
        "lvp.predictions": count("lvp_predictions"),
        "lvp.accuracy": _ratio(count("lvp_correct"), count("lvp_predictions")),
        "experiments.orchestrate_self_s": seconds("experiments.orchestrate"),
        "experiments.planned_jobs": cold.planned_jobs,
        "experiments.unique_jobs": cold.unique_jobs,
        "experiments.cache_get_calls": gets,
        "experiments.cache_get_s": seconds("experiments.cache_get"),
        "experiments.cache_put_calls": calls("experiments.cache_put"),
        "experiments.cache_put_s": seconds("experiments.cache_put", fs=True),
        "experiments.cache_hit_ratio": _ratio(tracer.cache_hits, gets),
        "experiments.warehouse_compact_s": seconds("experiments.warehouse_compact",
                                                   fs=True),
        "experiments.warehouse_load_s": seconds("experiments.warehouse_load"),
        "experiments.render_s": seconds("experiments.render"),
    }
    untraced_cold = plain.colds[0].raw_s
    traced_cold = cold.raw_s
    metrics.update(bench)
    metrics["bench.probe_s"] = statistics.median(clock.samples)
    metrics["bench.tracing_overhead_frac"] = _ratio(traced_cold - untraced_cold,
                                                    untraced_cold)
    return metrics
