"""Deterministic fault injection for the simulated cloud.

The paper's own archive has holes: Section 5 reports missing collection
periods caused by "system management issues" on the collection server.  To
reproduce (and then survive) that class of failure, this module schedules
*transient* API faults -- throttling, 5xx internal errors, request
timeouts, and credential expiry -- against the three collection surfaces:

* ``sps``     -- :meth:`Ec2Client.get_spot_placement_scores`
* ``price``   -- :meth:`Ec2Client.describe_spot_price_history` and the
  price collector's sweep
* ``advisor`` -- :meth:`SimulatedCloud.advisor_web_snapshot` (the scraped
  web page)

Everything is a pure function of ``(plan seed, operation, per-operation
call index)`` plus the simulation clock, so two identically-seeded runs
replay the exact same fault schedule byte-for-byte (spotlint DET rules
apply here as everywhere in ``cloudsim``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .._util import stable_uniform
from .accounts import Account
from .clock import SimulationClock
from .errors import (
    CloudError,
    CredentialExpiredError,
    InternalServerError,
    RequestTimeoutError,
    ThrottlingError,
)

#: The collection surfaces faults can target.
OPERATIONS = ("sps", "price", "advisor")

#: Fault kinds in their canonical (draw) order.
FAULT_KINDS = ("throttle", "internal", "timeout", "credentials")

_ERROR_CLASSES = {
    "throttle": ThrottlingError,
    "internal": InternalServerError,
    "timeout": RequestTimeoutError,
    "credentials": CredentialExpiredError,
}


@dataclass(frozen=True)
class ChaosProfile:
    """Per-call fault probabilities, one rate per fault kind."""

    name: str
    throttle: float = 0.0
    internal: float = 0.0
    timeout: float = 0.0
    credentials: float = 0.0

    @property
    def total_rate(self) -> float:
        """Probability that any single call faults."""
        return self.throttle + self.internal + self.timeout + self.credentials

    def rates(self) -> Tuple[Tuple[str, float], ...]:
        """(kind, rate) pairs in canonical draw order."""
        return (("throttle", self.throttle), ("internal", self.internal),
                ("timeout", self.timeout), ("credentials", self.credentials))


#: Named profiles selectable from the CLI (``--chaos-profile``).  The
#: "moderate" profile clears the ISSUE's >=10% transient-fault bar.
CHAOS_PROFILES: Dict[str, ChaosProfile] = {
    "none": ChaosProfile("none"),
    "light": ChaosProfile("light", throttle=0.02, internal=0.01,
                          timeout=0.01, credentials=0.005),
    "moderate": ChaosProfile("moderate", throttle=0.05, internal=0.03,
                             timeout=0.03, credentials=0.01),
    "heavy": ChaosProfile("heavy", throttle=0.10, internal=0.08,
                          timeout=0.05, credentials=0.02),
}


def resolve_profile(name: str) -> ChaosProfile:
    """Look up a named profile, with a helpful error on typos."""
    try:
        return CHAOS_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown chaos profile {name!r} "
            f"(available: {', '.join(sorted(CHAOS_PROFILES))})") from None


@dataclass(frozen=True)
class FaultWindow:
    """A scheduled outage: every matching call inside [start, end) faults.

    Models the paper's multi-hour collection-server outages, on top of the
    profile's random per-call faults.  ``operation`` may be ``"*"``.
    """

    start: float
    end: float
    operation: str = "*"
    kind: str = "internal"

    def covers(self, operation: str, now: float) -> bool:
        if self.operation not in ("*", operation):
            return False
        return self.start <= now < self.end


@dataclass(frozen=True)
class FaultPlan:
    """Everything that determines the fault schedule of one run."""

    seed: int = 0
    profile: ChaosProfile = CHAOS_PROFILES["none"]
    windows: Tuple[FaultWindow, ...] = ()


@dataclass(frozen=True)
class InjectedFault:
    """Log entry for one injected fault (for tests and reports)."""

    operation: str
    kind: str
    time: float
    call_index: int


class FaultInjector:
    """Raises scheduled transient faults ahead of simulated API calls.

    Install on a cloud via ``cloud.faults = FaultInjector(plan, cloud.clock)``;
    the API surfaces call :meth:`before_call` and propagate whatever it
    raises.  Determinism: the draw for call *i* of operation *op* depends
    only on ``(plan.seed, op, i)``, so a retried call (a new index) re-draws
    -- transient faults clear on retry, outage windows do not until the
    clock leaves them.
    """

    def __init__(self, plan: FaultPlan, clock: SimulationClock):
        self.plan = plan
        self.clock = clock
        self.injected: List[InjectedFault] = []
        self._calls: Dict[str, int] = {}

    def calls(self, operation: str) -> int:
        """Calls seen so far for ``operation`` (faulted or not)."""
        return self._calls.get(operation, 0)

    def faults_injected(self, operation: Optional[str] = None) -> int:
        if operation is None:
            return len(self.injected)
        return sum(1 for f in self.injected if f.operation == operation)

    def _scheduled_kind(self, operation: str, index: int) -> Optional[str]:
        now = self.clock.now()
        for window in self.plan.windows:
            if window.covers(operation, now):
                return window.kind
        profile = self.plan.profile
        total = profile.total_rate
        if total <= 0.0:
            return None
        draw = stable_uniform("fault", self.plan.seed, operation, index)
        if draw >= total:
            return None
        edge = 0.0
        for kind, rate in profile.rates():
            edge += rate
            if draw < edge:
                return kind
        return FAULT_KINDS[-1]  # guard against float round-off

    def before_call(self, operation: str,
                    account: Optional[Account] = None) -> None:
        """Fault hook: raises the scheduled error for this call, if any.

        Credential faults only make sense on account-scoped calls; for
        anonymous surfaces (the advisor web page) they degrade to a
        timeout so the profile's total rate is preserved.
        """
        index = self._calls.get(operation, 0)
        self._calls[operation] = index + 1
        kind = self._scheduled_kind(operation, index)
        if kind is None:
            return
        if kind == "credentials" and account is None:
            kind = "timeout"
        self.injected.append(
            InjectedFault(operation, kind, self.clock.now(), index))
        if kind == "credentials":
            assert account is not None
            account.expire_credentials()
        raise make_fault(kind, operation)


def make_fault(kind: str, operation: str) -> CloudError:
    """Instantiate the error class for a fault kind."""
    try:
        cls = _ERROR_CLASSES[kind]
    except KeyError:
        raise ValueError(f"unknown fault kind {kind!r} "
                         f"(known: {', '.join(FAULT_KINDS)})") from None
    return cls(f"injected {kind} fault on {operation!r} ({cls.code})")
