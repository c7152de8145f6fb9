"""Experiment orchestration: named configurations, the runner, and per-figure harnesses."""

from repro.experiments.configs import (
    EXPERIMENT_CONFIDENCE_THRESHOLD,
    baseline_config,
    constable_config,
    eves_config,
    eves_constable_config,
    elar_config,
    rfp_config,
    constable_engine_config,
    named_configs,
)
from repro.experiments.cache import (
    CacheVerifyReport,
    ReportCache,
    ResultCache,
    SCHEMA_VERSION,
    config_fingerprint,
)
from repro.experiments.faults import FaultPlan, FaultSpec, InjectedFault
from repro.experiments.runner import (
    DeadLetter,
    ExperimentRunner,
    Shard,
    SimulationJob,
    SmtJob,
    SweepExecutionError,
    SweepHealthReport,
    WorkloadRun,
)
from repro.experiments.parallel import ParallelExperimentRunner
from repro.experiments.orchestrator import (
    DedupStats,
    FigurePlan,
    SweepOrchestrator,
    orchestrate_figures,
)
from repro.experiments import figures
from repro.experiments.reporting import format_table, format_percent

__all__ = [
    "CacheVerifyReport",
    "ReportCache",
    "ResultCache",
    "SCHEMA_VERSION",
    "Shard",
    "config_fingerprint",
    "SimulationJob",
    "SmtJob",
    "ParallelExperimentRunner",
    "EXPERIMENT_CONFIDENCE_THRESHOLD",
    "baseline_config",
    "constable_config",
    "eves_config",
    "eves_constable_config",
    "elar_config",
    "rfp_config",
    "constable_engine_config",
    "named_configs",
    "DeadLetter",
    "DedupStats",
    "FaultPlan",
    "FaultSpec",
    "FigurePlan",
    "InjectedFault",
    "SweepExecutionError",
    "SweepHealthReport",
    "SweepOrchestrator",
    "orchestrate_figures",
    "ExperimentRunner",
    "WorkloadRun",
    "figures",
    "format_table",
    "format_percent",
]
