"""Fixed calibration probes and the probe-excluding clock.

The host this benchmark runs on drifts: the same simulation batch can take a
third longer in one fresh process than in another.  Fixed amounts of work,
timed at regular intervals during the run, measure that drift, and every
host-time metric is rescaled to a reference host on which one probe takes
exactly ``REFERENCE_PROBE_S``.  There are two probes: pure-Python interpreter
work shaped like the simulator's hot loop, and file-system work shaped like a
cache commit (whose time is mostly spent in the kernel, which the interpreter
probe does not track).  This module never imports ``repro``: the probes must
measure the host, not the code under test.
"""

from __future__ import annotations

import gc
import os
import random
import signal
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Probe times on the reference host; calibrated seconds are host seconds
#: scaled by ``REFERENCE_PROBE_S / measured probe time``.
REFERENCE_PROBE_S = 0.050
REFERENCE_FS_PROBE_S = 0.025

#: Loop trips per interpreter probe call (about 50 ms on a 2020s x86 core).
PROBE_TRIPS = 16_000

#: Records in the interpreter probe's resident pool (about 20 MB).  Like the
#: simulator's traces, cache models and predictor tables, the pool does not
#: fit in a core's private caches, so the probe slows down with contention
#: for the shared cache and memory as the simulator does, not only with the
#: core's clock.  A probe over a small working set tracked the simulator about
#: half as well on a shared 2-core host.
POOL_RECORDS = 1 << 17

#: Checksum the probe must return; a mismatch means the probe itself changed.
PROBE_CHECKSUM = 844_935_325

#: Directories the file-system probe creates, fills, renames into and removes.
FS_PROBE_FILES = 40
FS_PROBE_BLOB = b"x" * 2048

#: Wall seconds between interpreter probes.  They are spread uniformly over
#: the run by a timer rather than placed at job boundaries: sampling the host
#: four times a second lets the mean track its speed over the same stretch as
#: the timed work.
PROBE_EVERY_S = 0.25

#: Timed cache-commit seconds after which the next commit boundary runs a
#: file-system probe.  The file system's speed swings severalfold within
#: minutes and depends on the directory churn of the commits themselves, so
#: these probes sit between commit passes, not on the timer.
FS_PROBE_EVERY_S = 0.05


class _Record:
    """A table entry of the kind the simulator's hot loop looks up and updates."""

    __slots__ = ("key", "value", "hits", "next")

    def __init__(self, key: int):
        self.key = key
        self.value = key * 7
        self.hits = 0
        self.next: Optional["_Record"] = None


Pool = Tuple[Dict[int, _Record], List[_Record]]


def build_pool(records: int = POOL_RECORDS) -> Pool:
    """The probe's resident data: a keyed table and a random pointer ring."""
    entries = [_Record(key) for key in range(records)]
    order = list(range(records))
    random.Random(1).shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        entries[here].next = entries[there]
    return {key * 64: entries[key] for key in range(records)}, entries


def probe_work(pool: Pool, trips: int = PROBE_TRIPS) -> int:
    """Dict lookups, attribute updates, pointer chasing and small allocations."""
    table, entries = pool
    size = len(entries)
    state = 12345
    checksum = 0
    node = entries[0]
    for trip in range(trips):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        record = table[(state % size) * 64]
        record.hits += 1
        checksum += record.value
        for _ in range(4):
            node = node.next
        uop = {"seq": trip, "key": node.key}
        checksum = (checksum ^ uop["key"]) + (uop["seq"] & 3)
    return checksum & 0x7FFFFFFF


def fs_probe_work(directory: Path) -> None:
    """Cache-commit-shaped kernel work: mkdir, write a temp file, rename."""
    for index in range(FS_PROBE_FILES):
        entry = directory / f"{index:02x}"
        os.mkdir(entry)
        temporary = entry / "entry.tmp"
        with open(temporary, "wb") as handle:
            handle.write(FS_PROBE_BLOB)
        os.replace(temporary, entry / "entry.json")
    for index in range(FS_PROBE_FILES):
        entry = directory / f"{index:02x}"
        os.unlink(entry / "entry.json")
        os.rmdir(entry)


class ProbeClock:
    """Host time with timer-driven probes, whose own time is excluded.

    While entered, a ``SIGALRM`` interval timer interrupts the timed work
    every ``PROBE_EVERY_S`` and runs one interpreter probe in the signal
    handler; ``fs_tick`` runs file-system probes between commit passes.
    ``now()`` is a monotonic clock that stops while a probe runs, so the
    difference of two readings is timed work only.
    """

    def __init__(self, scratch: Path, every_s: float = PROBE_EVERY_S):
        self.every_s = every_s
        self.scratch = scratch
        self.pool = build_pool()
        self.samples: List[float] = []
        self.fs_samples: List[float] = []
        self._fs_due = 0.0
        self._excluded = 0.0
        self._busy = False
        self._previous_handler = None

    def __enter__(self) -> "ProbeClock":
        self.scratch.mkdir(parents=True, exist_ok=True)
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    @contextmanager
    def paused(self):
        """No timer probes inside the block."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def now(self) -> float:
        return time.perf_counter() - self._excluded

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.probe()

    def fs_tick(self, commit_s: float) -> None:
        """Account ``commit_s`` of commit work; probe the file system when due."""
        self._fs_due -= commit_s
        if self._fs_due <= 0:
            self.probe(fs=True)
            self._fs_due = FS_PROBE_EVERY_S

    def probe(self, fs: bool = False) -> None:
        """Run one probe and record its time for ``scale``."""
        elapsed = self.timed_probe(fs)
        (self.fs_samples if fs else self.samples).append(elapsed)

    def timed_probe(self, fs: bool = False) -> float:
        """Run one probe; its seconds, excluded from ``now()`` but not recorded."""
        self._busy = True
        # A collection inside the probe would time the simulator's heap, not
        # the host, so the cyclic collector is held off while it runs.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            if fs:
                fs_probe_work(self.scratch)
            else:
                checksum = probe_work(self.pool)
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        if not fs and checksum != PROBE_CHECKSUM:
            raise RuntimeError(f"calibration probe checksum {checksum} != "
                               f"{PROBE_CHECKSUM}: the probe was changed")
        self._excluded += end - start
        return end - start

    def scale(self, fs: bool = False) -> float:
        """Host-to-calibrated factor: reference over the *mean* probe time.

        Host seconds are summed over the run, and so are probe seconds: with
        probes uniform in time, their mean is the host's average slowness
        over the same stretch.  A single job correlates only loosely with the
        probe next to it, so no sample is normalised on its own.  ``fs``
        selects the file-system probe, for cache commits.
        """
        samples = self.fs_samples if fs else self.samples
        if not samples:
            self.probe(fs)
        reference = REFERENCE_FS_PROBE_S if fs else REFERENCE_PROBE_S
        return reference / statistics.fmean(samples)

    def spread(self) -> float:
        """Inter-quartile range of all probes as a share of their median."""
        if len(self.samples) < 4:
            return 0.0
        low, _, high = statistics.quantiles(self.samples, n=4)
        return (high - low) / statistics.median(self.samples)
