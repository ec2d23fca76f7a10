"""Periodic collection scheduling (paper Section 4: "periodically executes
collection tasks for different data sources").

The scheduler advances the simulation clock and fires each collector at its
own cadence -- the paper collected SPS and advisor data every 10 minutes.
A round-robin log records what ran when, so tests can assert cadences.

Failure isolation: a collector that raises must not starve its siblings
(the seed version aborted ``run_due`` mid-loop, exactly the bug class that
holed the paper's archive).  A raising job is recorded as an ``"error"``
history entry and its cadence resumes at the next period; rounds skipped
during a stall are counted per job in ``missed_rounds``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..cloudsim import SimulationClock
from .collectors import CollectionReport

#: The paper's collection interval.
DEFAULT_INTERVAL_SECONDS = 600.0


@dataclass
class RunEntry:
    """One history line: when a job fired and how it went.

    Iterates as ``(time, name)`` for backwards compatibility with the
    original two-tuple history; the richer fields ride along.
    """

    time: float
    name: str
    status: str = "ok"
    error: str = ""
    #: wall-clock seconds the job body took (host timer, not sim time);
    #: feeds the collection benchmark's round-latency measurements
    duration: float = 0.0

    def __iter__(self) -> Iterator:
        return iter((self.time, self.name))


@dataclass
class ScheduledJob:
    """One collector registered with its own period."""

    name: str
    collect: Callable[[], CollectionReport]
    period: float
    next_due: float
    runs: int = 0
    last_report: Optional[CollectionReport] = None
    #: times this job raised out of collect() (the round is then missed)
    failures: int = 0
    last_error: str = ""
    #: periods skipped while the scheduler was stalled past next_due
    missed_rounds: int = 0
    #: cumulative wall-clock seconds spent inside collect() (host timer)
    total_runtime: float = 0.0


class CollectionScheduler:
    """Fires registered collectors as the simulation clock advances."""

    def __init__(self, clock: SimulationClock,
                 timer: Optional[Callable[[], float]] = None):
        self.clock = clock
        self._jobs: Dict[str, ScheduledJob] = {}
        self.history: List[RunEntry] = []
        # injectable monotonic timer (same idiom as MetricsRegistry): the
        # reading never influences scheduling decisions or archived data --
        # it only annotates history entries -- so determinism is preserved;
        # tests inject a fake timer to pin the accounting
        self._timer = timer if timer is not None else time.perf_counter

    def register(self, name: str, collect: Callable[[], CollectionReport],
                 period: float = DEFAULT_INTERVAL_SECONDS,
                 initial_delay: float = 0.0) -> ScheduledJob:
        """Register a collector; it first fires at now + initial_delay."""
        if name in self._jobs:
            raise ValueError(f"job {name!r} already registered")
        if period <= 0:
            raise ValueError("period must be positive")
        job = ScheduledJob(name, collect, period,
                           self.clock.now() + initial_delay)
        self._jobs[name] = job
        return job

    def jobs(self) -> List[ScheduledJob]:
        return list(self._jobs.values())

    def _due_jobs(self) -> List[ScheduledJob]:
        now = self.clock.now()
        due = [j for j in self._jobs.values() if j.next_due <= now]
        # stable sort: ties keep registration order, so rounds replay
        # identically run to run
        due.sort(key=lambda j: j.next_due)
        return due

    def _run_job(self, job: ScheduledJob) -> None:
        started = self._timer()
        try:
            job.last_report = job.collect()
        except Exception as exc:  # noqa: BLE001 -- isolation boundary:
            # one bad collector must not starve its siblings
            elapsed = self._timer() - started
            job.failures += 1
            job.total_runtime += elapsed
            job.last_error = f"{type(exc).__name__}: {exc}"
            self.history.append(RunEntry(self.clock.now(), job.name,
                                         status="error",
                                         error=job.last_error,
                                         duration=elapsed))
        else:
            elapsed = self._timer() - started
            job.runs += 1
            job.total_runtime += elapsed
            self.history.append(RunEntry(self.clock.now(), job.name,
                                         duration=elapsed))

    def run_due(self) -> int:
        """Run every job due at the current clock time; returns run count.

        Jobs that raise still count as a (failed) run and still have their
        cadence advanced -- the round is missed, visibly, not retried in a
        tight loop.
        """
        count = 0
        for job in self._due_jobs():
            self._run_job(job)
            # schedule strictly forward even after long stalls; every
            # period skipped beyond the normal reschedule is a missed round
            skipped = 0
            while job.next_due <= self.clock.now():
                job.next_due += job.period
                skipped += 1
            job.missed_rounds += max(0, skipped - 1)
            count += 1
        return count

    def run_for(self, duration: float, step: float = DEFAULT_INTERVAL_SECONDS,
                after_tick: Optional[Callable[[], None]] = None) -> int:
        """Advance the clock in ``step`` increments for ``duration`` seconds,
        firing due jobs after each advance.  ``after_tick`` runs after every
        tick that fired at least one job (the service commits the round
        there).  Returns total job runs."""
        if step <= 0:
            raise ValueError("step must be positive")

        def tick() -> int:
            fired = self.run_due()
            if fired and after_tick is not None:
                after_tick()
            return fired

        runs = tick()
        end = self.clock.now() + duration
        while self.clock.now() < end:
            self.clock.advance(min(step, end - self.clock.now()))
            runs += tick()
        return runs
