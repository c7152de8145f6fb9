"""Benchmark of the Constable simulator and its figure-sweep machinery.

Run from the repository root::

    python3 perfbench/run.py --workload figures_all --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``figures_all`` -- a cold orchestrated ``figures all`` sweep in a fresh cache
  directory, then warm re-renders and commit passes;
* ``snoop_long`` -- snoop-heavy Enterprise and Server workloads under
  baseline, Constable and EVES+Constable, job by job;
* ``membound`` -- the memory-bound pointer-chase and random-access specs.

Every host time is reported in calibrated seconds: host seconds scaled by
``REFERENCE_PROBE_S / mean probe time``, where the fixed probe of ``probe.py``
interrupts the run four times a second and is excluded from the timings.  The
run re-executes itself with a fixed ``PYTHONHASHSEED`` and pins itself to one
CPU, so neither the hash salt nor core migration varies between runs.
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload once untraced and once with spans around every
layer's public calls, and prints the per-layer metrics.  The last stdout line
is one JSON object; the exit code is non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from probe import REFERENCE_PROBE_S, ProbeClock

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
#: Fixed string-hash salt of the measured process and its set-up children.
HASH_SEED = "0"
#: Fresh interpreters timed per run for ``setup_s``, after one untimed warm-up.
SETUP_SAMPLES = 9
#: Pass rounds in each half (untraced, then traced) of a traced run.
TRACED_PASS_ROUNDS = 1
MODEL_NOTE = ("model unvalidated against hardware; paper reports +5.1% "
              "performance, −3.4% core dynamic power")


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures_all", "snoop_long", "membound"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def pin_environment(tmp: Path) -> None:
    """Keep ambient settings from changing the program being measured."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    sys.path.insert(0, str(ROOT / "src"))


def source_fingerprint() -> str:
    hasher = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        hasher.update(str(path.relative_to(ROOT)).encode("utf-8"))
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def check_digest_ledger(workload: str, digest: str) -> str:
    """Compare ``digest`` with earlier runs of the same source; '' when equal."""
    ledger_path = STATE / "digests.json"
    try:
        ledger = json.loads(ledger_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        ledger = {}
    key = f"{workload}:{source_fingerprint()}"
    previous = ledger.setdefault(key, digest)
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True), encoding="utf-8")
    if previous != digest:
        return (f"model.results_digest {digest[:13]} differs from an earlier "
                f"run of the same source ({previous[:13]})")
    return ""


def measure_setup(clock: ProbeClock, workload: str, tmp: Path) -> List[float]:
    """Calibrated seconds of fresh-interpreter set-ups (after a warm-up).

    The children share this process's core, so no timer probe runs while they
    do.  A probe before each child and one after the last calibrate them
    instead: the host's speed during the set-ups follows these probes much
    more closely than the mean of the whole run (on a shared 2-core host, the
    spread of the median set-up across runs fell from about 22% to 5%).
    """
    command = [sys.executable, str(Path(__file__).with_name("setup_child.py")),
               workload, str(tmp / "setup")]
    samples: List[float] = []
    probes: List[float] = []
    with clock.paused():
        for index in range(SETUP_SAMPLES + 1):
            probes.append(clock.timed_probe())
            start = clock.now()
            subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
            if index:
                samples.append(clock.now() - start)
        probes.append(clock.timed_probe())
    scale = REFERENCE_PROBE_S / statistics.fmean(probes)
    return [sample * scale for sample in samples]


class Phases:
    """Cold phases for ``--seconds``, then rounds of commit and warm passes.

    Commit and warm passes exist only for ``figures_all``.  Each round repeats
    its commit pass, and then its warm pass, back to back until
    ``PASS_MIN_S`` of timed work.
    """

    def __init__(self, scenario, ctx, seconds: Optional[int] = None,
                 colds: Optional[int] = None, pass_rounds: int = 0):
        from scenarios import PASS_MIN_S

        clock, timer = ctx.clock, ctx.timer
        self.scenario = scenario
        self.colds, self.jobs = [], []
        #: Per round, the back-to-back passes of each kind: one operation.
        self.commit_sets: List[list] = []
        self.warm_sets: List[list] = []
        start = clock.now()
        while True:
            # Garbage of the previous phase would otherwise be collected
            # inside whichever timed phase happens to trigger the collector.
            gc.collect()
            mark = timer.mark()
            self.colds.append(self._span(ctx, "bench.cold", scenario.cold, ctx))
            self.jobs += timer.window(mark)
            if len(self.colds) == colds or (colds is None
                                            and clock.now() - start >= seconds):
                break
        first = self.colds[0]
        if not scenario.passes or not first.entries:
            return  # nothing to commit or re-read; re-running would be a retry

        def repeat(name: str, step) -> list:
            passes, elapsed = [], 0.0
            while elapsed < PASS_MIN_S:
                done = self._span(ctx, name, step, ctx, first)
                passes.append(done)
                elapsed += done.raw_s
                if name == "bench.commit":
                    clock.fs_tick(done.raw_s)
                if not done.ok:
                    break
            return passes

        for _ in range(pass_rounds):
            gc.collect()
            self.commit_sets.append(repeat("bench.commit", scenario.commit))
            self.warm_sets.append(repeat("bench.warm", scenario.warm))

    @staticmethod
    def _span(ctx, name, function, *args):
        if ctx.tracer is None:
            return function(*args)
        index = ctx.tracer.open(name)
        try:
            return function(*args)
        finally:
            ctx.tracer.close(index)

    @property
    def commits(self) -> list:
        return [done for passes in self.commit_sets for done in passes]

    @property
    def warms(self) -> list:
        return [done for passes in self.warm_sets for done in passes]

    def failures(self):
        listed = [failure for cold in self.colds for failure in cold.failures]
        return listed + [passes[-1].failure for passes in self.commit_sets + self.warm_sets
                         if passes[-1].failure is not None]

    def attempted(self) -> int:
        return (sum(cold.attempted for cold in self.colds)
                + len(self.commit_sets) + len(self.warm_sets))

    def problems(self) -> List[str]:
        found = [cold.problem for cold in self.colds if cold.problem]
        found += sorted({done.problem for done in self.commits + self.warms if done.problem})
        digests = {cold.digest for cold in self.colds}
        if len(digests) > 1:
            found.append(f"cold phases disagree: {len(digests)} distinct results digests")
        if self.scenario.passes and not any(done.ok for done in self.warms):
            found.append("no warm pass completed, so warm payloads went unchecked")
        if self.scenario.passes and not any(done.ok for done in self.commits):
            found.append("no commit pass completed, so the warehouse went unverified")
        return found

    def raw(self) -> Dict[str, float]:
        """Mean raw host seconds per phase (NaN where none completed)."""
        def mean(values):
            return statistics.fmean(values) if values else math.nan
        done = [job for job in self.jobs if job.ok]
        return {
            "cold": mean([cold.raw_s for cold in self.colds]),
            "warm": mean([p.raw_s for p in self.warms if p.ok]),
            "commit": mean([p.raw_s for p in self.commits if p.ok]),
            "sim": sum(job.host_s for job in done),
            "sim_instructions": sum(job.instructions for job in done),
            # Cold work extrapolated to full length where a job raised early.
            "extrapolation": (sum(job.planned for job in self.jobs)
                              / max(1, sum(job.instructions for job in self.jobs))),
        }


def end_to_end(phases: Phases, setup: List[float], clock: ProbeClock) -> Dict[str, float]:
    raw = phases.raw()
    scale = clock.scale()
    attempted = phases.attempted()
    return {
        "cold_s": raw["cold"] * raw["extrapolation"] * scale,
        "sim_kips": (raw["sim_instructions"] / (raw["sim"] * scale) / 1000
                     if raw["sim"] > 0 else math.nan),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": (attempted - len(phases.failures())) / attempted,
    }


def bench_block(clock: ProbeClock, phases: Phases) -> Dict[str, float]:
    """Harness health, and the calibrated seconds per warm and commit pass."""
    raw = phases.raw()
    return {
        "bench.warm_s": raw["warm"] * clock.scale(),
        "bench.commit_s": raw["commit"] * clock.scale(fs=True),
        "bench.raw_cold_s": raw["cold"],
        "bench.raw_warm_s": raw["warm"],
        "bench.raw_commit_s": raw["commit"],
        "bench.raw_sim_s": raw["sim"],
        "bench.probe_s": statistics.median(clock.samples),
        "bench.fs_probe_s": statistics.median(clock.fs_samples),
        "bench.probe_spread": clock.spread(),
        "bench.load_average": os.getloadavg()[0],
    }


def print_failures(workload: str, phases: Phases) -> None:
    counts: Dict[Tuple[str, str, str], int] = {}
    for failure in phases.failures():
        key = (failure.workload, failure.config, failure.message)
        counts[key] = counts.get(key, 0) + 1
    for (name, config, message), count in sorted(counts.items()):
        print(f"failed: {workload} {name} {config} x{count}: {message}")


def _missing(value: Optional[float]) -> bool:
    return value is None or not math.isfinite(value)


def _shown(value: Optional[float]) -> str:
    return "absent" if _missing(value) else repr(value)


def print_model(model: Dict[str, Optional[float]]) -> None:
    print(MODEL_NOTE)
    for name, value in model.items():
        print(f"{name} {_shown(value)}")


@dataclass
class Measured:
    """Everything one invocation measured, for the report."""

    phases: Phases
    timer: object
    model: Dict[str, Optional[float]]
    problems: List[str]
    setup: List[float] = field(default_factory=list)
    #: Traced runs only: the untraced half and the tracer of the traced half.
    plain: Optional[Phases] = None
    tracer: object = None


def measure(args: argparse.Namespace, clock: ProbeClock, tmp: Path) -> Measured:
    setup = [] if args.trace else measure_setup(clock, args.workload, tmp)

    from hooks import JobTimer, Tracer
    from scenarios import PASS_ROUNDS, SCENARIOS, Context, model_block

    scenario = SCENARIOS[args.workload]()
    scenario.setup(tmp)
    timer = JobTimer(clock)
    timer.install()
    ctx = Context(clock, timer, random.Random(args.seed), tmp)
    problems: List[str] = []
    plain = tracer = None
    try:
        if args.trace:
            plain = Phases(scenario, ctx, colds=1, pass_rounds=TRACED_PASS_ROUNDS)
            tracer = Tracer(clock)
            tracer.install()
            timer.tracer = ctx.tracer = tracer
            try:
                phases = Phases(scenario, ctx, colds=1, pass_rounds=TRACED_PASS_ROUNDS)
            finally:
                tracer.uninstall()
                timer.tracer = ctx.tracer = None
            if phases.colds[0].digest != plain.colds[0].digest:
                problems.append("traced and untraced cold phases disagree")
            problems += plain.problems()
        else:
            phases = Phases(scenario, ctx, args.seconds, pass_rounds=PASS_ROUNDS)
    finally:
        timer.uninstall()
    problems += phases.problems()
    if phases.colds[0].digest:
        problems.append(check_digest_ledger(args.workload, phases.colds[0].digest))
    return Measured(phases, timer, model_block(phases.colds[0]),
                    [problem for problem in problems if problem], setup, plain, tracer)


def report(args: argparse.Namespace, clock: ProbeClock, run: Measured) -> int:
    """Print the human-readable report, then the result line; the exit code."""
    from layers import per_layer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    phases = run.phases
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {len(phases.colds)} cold phases, "
          f"{len(phases.commits)} commit and {len(phases.warms)} warm passes; "
          f"error_rate {len(phases.failures())}/{phases.attempted()}")
    print_failures(args.workload, phases)
    if args.trace:
        metrics = per_layer(clock, run.timer, run.tracer, run.plain, phases,
                            bench_block(clock, run.plain))
        wanted = spec["per_layer"]
        write_trace(args, run.tracer, {**metrics, **run.model})
        for name, value in metrics.items():
            print(f"{name} {_shown(value)}")
        metrics.update(run.model)
    else:
        metrics = end_to_end(phases, run.setup, clock)
        wanted = spec["end_to_end"]
        print(f"setup calibrated s {[round(value, 4) for value in run.setup]}")
        for name, value in bench_block(clock, phases).items():
            print(f"{name} {_shown(value)}")
    print_model(run.model)
    # A layer the workload never enters has no value.  BENCHMARK.json lists
    # only metrics that every workload measures; the others are printed above
    # and written to the trace file, and stay out of the result line.
    absent = [name for name, value in metrics.items() if _missing(value)]
    if absent:
        print(f"absent on this workload: {', '.join(absent)}")
    problems = run.problems + [f"{entry['name']} was not measured" for entry in wanted
                               if _missing(metrics.get(entry["name"]))]
    for problem in problems:
        print(f"check failed: {problem}")
    result = {
        "correct": not problems,
        "attempted": phases.attempted(),
        "failed": len(phases.failures()),
        "metrics": {entry["name"]: {"value": (None if _missing(metrics.get(entry["name"]))
                                              else metrics[entry["name"]]),
                                    "unit": entry["unit"]}
                    for entry in wanted},
    }
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0 if not problems else 1


def write_trace(args: argparse.Namespace, tracer, metrics: Dict[str, float]) -> None:
    """Write the traced run's spans and per-layer metrics under ``.perfbench``."""
    path = STATE / f"trace-{args.workload}-seed{args.seed}.json"
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "spans": [[span.name, span.start, span.end, span.parent] for span in tracer.spans],
        "metrics": {name: (None if _missing(value) else value)
                    for name, value in sorted(metrics.items())},
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    print(f"trace: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is salted per process, which changes dict and set
        # layouts and with them the simulator's speed from run to run.
        os.execve(sys.executable, [sys.executable, __file__, *argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if hasattr(os, "sched_setaffinity"):
        # One fixed core: the run then never migrates between cores that
        # other tenants load differently, and the probes time the core the
        # simulation runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    STATE.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    try:
        pin_environment(tmp)
        clock = ProbeClock(tmp / "probe")
        with clock:
            measured = measure(args, clock, tmp)
        return report(args, clock, measured)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
