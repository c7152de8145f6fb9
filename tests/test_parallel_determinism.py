"""Differential tests: parallel sharded execution is bit-identical to serial.

The parallel runner regenerates traces in workers from the workload spec's
seed and merges shard results keyed by workload name (or SMT pair), so
neither the worker count nor shard completion order may change any statistic
— or any trace bit.  These tests run the same sweeps serially and with 1-,
2- and 4-worker pools and require equality of:

* every generated trace (full dynamic content, via ``trace_signature``) and
  every Load Inspector report, covering the sharded cold-start path;
* the *entire* :class:`SimulationResult` of every (workload, config) pair
  (every pipeline counter included);
* every :class:`SmtResult` of the SMT2 pair sweeps;

and then check that aggregation is merge-order independent.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.stats_utils import geomean
from repro.experiments.configs import (
    baseline_config,
    constable_config,
    eves_config,
    eves_constable_config,
)
from repro.experiments.parallel import ParallelExperimentRunner
from repro.experiments.runner import ExperimentRunner
from repro.workloads.generator import trace_signature

#: Reduced sweep shared by the differential tests.
SUITES = ("Client", "ISPEC17", "Server")
INSTRUCTIONS = 1500
CONFIGS = {
    "baseline": baseline_config,
    "constable": constable_config,
}

#: Reduced SMT sweep: 2 suites x 2 workloads -> 2 cross-suite pairs.
SMT_SUITES = ("Client", "Server")
SMT_PER_SUITE = 2
SMT_INSTRUCTIONS = 1200
SMT_CONFIGS = {
    "baseline": baseline_config,
    "constable": constable_config,
}


def _run_sweep(runner: ExperimentRunner) -> ExperimentRunner:
    for name, factory in CONFIGS.items():
        runner.run_config(name, factory())
    return runner


@pytest.fixture(scope="module")
def serial_runner():
    return _run_sweep(ExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                       suites=SUITES))


@pytest.fixture(scope="module", params=[1, 2, 4],
                ids=["workers1", "workers2", "workers4"])
def parallel_runner(request):
    runner = ParallelExperimentRunner(per_suite=1, instructions=INSTRUCTIONS,
                                      suites=SUITES, max_workers=request.param)
    yield _run_sweep(runner)
    runner.close()


def _run_smt_sweep(runner: ExperimentRunner):
    sweeps = {name: runner.run_smt_config(name, factory())
              for name, factory in SMT_CONFIGS.items()}
    return runner, sweeps


@pytest.fixture(scope="module")
def serial_smt():
    return _run_smt_sweep(ExperimentRunner(per_suite=SMT_PER_SUITE,
                                           instructions=SMT_INSTRUCTIONS,
                                           suites=SMT_SUITES))


@pytest.fixture(scope="module", params=[1, 2, 4],
                ids=["workers1", "workers2", "workers4"])
def parallel_smt(request):
    runner = ParallelExperimentRunner(per_suite=SMT_PER_SUITE,
                                      instructions=SMT_INSTRUCTIONS,
                                      suites=SMT_SUITES,
                                      max_workers=request.param)
    yield _run_smt_sweep(runner)
    runner.close()


# ----------------------------------------------------------- trace generation

def test_parallel_trace_generation_identical_to_serial(serial_runner, parallel_runner):
    """Sharded cold-start generation yields bit-identical traces and reports."""
    serial_workloads = serial_runner.workloads()
    parallel_workloads = parallel_runner.workloads()
    assert list(serial_workloads) == list(parallel_workloads), \
        "workload order must follow spec order, not shard completion order"
    for workload, serial_run in serial_workloads.items():
        parallel_run = parallel_workloads[workload]
        assert serial_run.spec == parallel_run.spec
        assert trace_signature(serial_run.trace) == trace_signature(parallel_run.trace), \
            workload
        assert serial_run.report.to_dict() == parallel_run.report.to_dict(), workload


# -------------------------------------------------------------- single thread


def test_parallel_results_identical_to_serial(serial_runner, parallel_runner):
    """Every workload/config pair produces an identical SimulationResult."""
    serial_workloads = serial_runner.workloads()
    parallel_workloads = parallel_runner.workloads()
    assert set(serial_workloads) == set(parallel_workloads)
    for workload, serial_run in serial_workloads.items():
        parallel_run = parallel_workloads[workload]
        for config in CONFIGS:
            serial_result = serial_run.results[config]
            parallel_result = parallel_run.results[config]
            # Dataclass equality covers cycles, every PipelineStats counter,
            # power events, memory stats, per-thread records, ...
            assert serial_result == parallel_result, (workload, config)


def test_parallel_aggregates_identical_to_serial(serial_runner, parallel_runner):
    for config in CONFIGS:
        if config == "baseline":
            continue
        assert (parallel_runner.speedups(config)
                == serial_runner.speedups(config))
        assert (parallel_runner.speedups_by_suite(config)
                == serial_runner.speedups_by_suite(config))
        assert (parallel_runner.geomean_speedup(config)
                == serial_runner.geomean_speedup(config))


# ------------------------------------------------------------------------ SMT

def test_parallel_smt_sweep_identical_to_serial(serial_smt, parallel_smt):
    """Every SMT pair/config produces an identical SmtResult at any worker count."""
    _, serial_sweeps = serial_smt
    _, parallel_sweeps = parallel_smt
    assert set(serial_sweeps) == set(parallel_sweeps)
    for config, serial_results in serial_sweeps.items():
        parallel_results = parallel_sweeps[config]
        assert list(serial_results) == list(parallel_results), \
            "pair order must follow smt_pairs order, not shard completion order"
        for pair, serial_result in serial_results.items():
            parallel_result = parallel_results[pair]
            # Dataclass equality covers the full SimulationResult (cycles,
            # every PipelineStats counter, power events, per-thread records)
            # plus the per-thread IPC list.
            assert serial_result == parallel_result, (config, pair)


def test_parallel_smt_speedups_identical_to_serial(serial_smt, parallel_smt):
    """Weighted speedups derived from the sweeps match exactly."""
    _, serial_sweeps = serial_smt
    _, parallel_sweeps = parallel_smt
    for flavour_sweeps in (serial_sweeps, parallel_sweeps):
        assert set(flavour_sweeps["baseline"]) == set(flavour_sweeps["constable"])
    for pair in serial_sweeps["baseline"]:
        serial_ws = serial_sweeps["constable"][pair].weighted_speedup_over(
            serial_sweeps["baseline"][pair])
        parallel_ws = parallel_sweeps["constable"][pair].weighted_speedup_over(
            parallel_sweeps["baseline"][pair])
        assert serial_ws == parallel_ws, pair
        assert (serial_sweeps["baseline"][pair].throughput()
                == parallel_sweeps["baseline"][pair].throughput()), pair


# ---------------------------------------------------------------- aggregation

def test_shard_merge_order_does_not_change_geomean(serial_runner):
    """Geomean aggregation is invariant under any shard/merge ordering."""
    speedups = serial_runner.speedups("constable")
    forward = geomean(list(speedups.values()))
    reversed_order = geomean([speedups[name] for name in sorted(speedups, reverse=True)])
    assert forward == pytest.approx(reversed_order, rel=0, abs=1e-12)
    assert serial_runner.geomean_speedup("constable") == pytest.approx(forward)


def test_executor_merges_by_workload_not_completion_order(serial_runner):
    """_execute_wave output is keyed by (config, workload), so merging is a
    plain dict update."""
    jobs = serial_runner.plan_jobs("eves", eves_config())
    assert jobs, "eves has not run yet, every workload should be planned"
    results, smt_results = serial_runner._execute_wave(list(reversed(jobs)))
    assert set(results) == {(job.config_name, job.workload) for job in jobs}
    assert smt_results == {}


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="wall-clock speedup comparison needs >= 4 CPUs; on "
                           "smaller machines pool startup and per-worker trace "
                           "regeneration can eat the margin and flake")
def test_parallel_sweep_is_faster_than_serial():
    """4 workers complete the reduced benchmark sweep measurably faster."""
    factories = {
        "baseline": baseline_config,
        "constable": constable_config,
        "eves": eves_config,
        "eves+constable": eves_constable_config,
    }

    def timed_sweep(runner: ExperimentRunner) -> float:
        runner.workloads()           # trace generation is common to both flavours
        start = time.perf_counter()
        for name, factory in factories.items():
            runner.run_config(name, factory())
        return time.perf_counter() - start

    serial_seconds = timed_sweep(ExperimentRunner(per_suite=1, instructions=4000))
    with ParallelExperimentRunner(per_suite=1, instructions=4000,
                                  max_workers=4) as parallel:
        parallel_seconds = timed_sweep(parallel)
    assert parallel_seconds < serial_seconds * 0.9, (
        f"parallel sweep took {parallel_seconds:.2f}s vs serial {serial_seconds:.2f}s")
