"""Concurrent serving front end: admission control over the API gateway.

The real SpotLake exposes its archive through API Gateway, which
multiplexes many tenants onto the Lambda fleet and throttles them with
per-key usage plans.  This module reproduces that front half: a
:class:`ServingFrontend` bounds how many requests are inside the
single-dispatch :class:`~.serving.ApiGateway` at once (``workers``).  A
synchronous :meth:`~ServingFrontend.request` runs on its caller's thread
within that bound, as a Lambda invocation serves the request that
started it; async :meth:`~ServingFrontend.submit` calls, and sync
requests that find no free slot or a non-empty queue, wait in a bounded
admission queue that a worker pool drains.  Three admission gates stand
in front of both paths:

1. **authentication** -- requests carry an API key; unknown keys are
   401s and never touch a handler;
2. **per-tenant throttling** -- a deterministic token bucket (rate +
   burst) and an optional rolling-window quota per tenant, mirroring the
   collector-side :class:`~repro.cloudsim.accounts.AccountPool`
   discipline on the read side.  Rejections are 429s carrying a
   ``retry_after`` hint;
3. **load shedding** -- when the admission queue is full the frontend
   flips to a SHEDDING state and answers 503 until the shed cool-down
   elapses *and* the queue has drained below the resume depth.  503s
   carry a ``retry_after`` of at least the remaining shed window, raised
   to the collection-side circuit-breaker cool-down when a data source
   is known to be recovering.

Every outcome -- 200/400/404/500 from the gateway, 401/429/503 from
admission -- is counted in the shared
:class:`~.metrics.MetricsRegistry`, per route and per tenant.

Determinism contract
--------------------

Admission is keyed on a caller-supplied virtual ``arrival_time``, never
a wall clock (spotlint DET001 holds for this module).  Token buckets and
quotas are per tenant and serialized on the tenant's own lock, so a
tenant's admit/reject sequence is a pure fold over that tenant's
``(arrival_time, cost)`` sequence -- independent of worker count and of
how other tenants' requests interleave.  Queue-occupancy shedding is the
one gate outside this envelope (it depends on drain speed); tests pin it
by filling the queue before :meth:`ServingFrontend.start`.

Thread-safety: the queue, the slot count, the shed state machine, and
the frontend counters serialize on ``_admission_lock``; per-tenant
throttle state on the tenant's lock; everything downstream (cache,
tables, metrics) on the locks audited in their own modules.  The suite
under ``tests/serving/`` runs with ``SPOTCONC_SANITIZE=1`` to keep that
claim honest.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from .metrics import MetricsRegistry
from .serving import ApiGateway, Response

#: Admission states of the front end.
ACCEPTING = "accepting"
SHEDDING = "shedding"

#: Default worker threads draining the admission queue.
DEFAULT_WORKERS = 4

#: Default bound on queued-but-not-yet-dispatched requests.
DEFAULT_QUEUE_DEPTH = 64

#: Default virtual-seconds a shed frontend refuses new work.
DEFAULT_SHED_COOLDOWN = 5.0


class TokenBucket:
    """Deterministic token bucket over virtual time.

    ``tokens = min(burst, tokens + (now - last) * rate)`` on every
    admission attempt; a request costing more than the balance is
    rejected with the exact virtual-seconds deficit as its retry hint.
    State depends only on the sequence of ``(now, cost)`` arguments.
    """

    def __init__(self, rate: float, burst: float):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last: Optional[float] = None
        self._lock = threading.Lock()

    def admit(self, now: float, cost: float = 1.0) -> Tuple[bool, float]:
        """Try to take ``cost`` tokens at virtual time ``now``.

        Returns ``(admitted, retry_after)``; ``retry_after`` is 0.0 on
        admission, else the virtual-seconds until the deficit refills.
        """
        with self._lock:
            if self.last is not None:
                elapsed = max(0.0, now - self.last)
                self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
            self.last = now
            if self.tokens >= cost:
                self.tokens -= cost
                return True, 0.0
            return False, (cost - self.tokens) / self.rate

    def refund(self, cost: float = 1.0) -> None:
        """Return tokens taken by an admission a later gate vetoed."""
        with self._lock:
            self.tokens = min(self.burst, self.tokens + cost)


class RollingQuota:
    """Rolling-window request quota (at most ``limit`` per ``window``).

    The same shape as the account-side
    :class:`~repro.cloudsim.accounts.Account` call window: a deque of
    admission times, expired from the front as the window slides.
    """

    def __init__(self, limit: int, window: float):
        if limit < 1:
            raise ValueError("limit must be >= 1")
        if window <= 0:
            raise ValueError("window must be positive")
        self.limit = limit
        self.window = window
        self._times: Deque[float] = deque()
        self._lock = threading.Lock()

    def admit(self, now: float) -> Tuple[bool, float]:
        """Try to charge one request at virtual time ``now``."""
        with self._lock:
            while self._times and now - self._times[0] >= self.window:
                self._times.popleft()
            if len(self._times) < self.limit:
                self._times.append(now)
                return True, 0.0
            return False, self.window - (now - self._times[0])

    def used(self) -> int:
        with self._lock:
            return len(self._times)


class Tenant:
    """One API key's identity and throttle state."""

    def __init__(self, name: str, api_key: Optional[str] = None,
                 rate: float = 100.0, burst: float = 20.0,
                 quota_limit: Optional[int] = None,
                 quota_window: float = 60.0):
        self.name = name
        self.api_key = api_key if api_key is not None else f"key-{name}"
        self.bucket = TokenBucket(rate, burst)
        self.quota = (RollingQuota(quota_limit, quota_window)
                      if quota_limit is not None else None)
        self.lock = threading.Lock()
        self.admitted = 0
        self.rejected = 0

    def admit(self, now: float) -> Tuple[bool, float]:
        """One admission decision at virtual time ``now``.

        Serialized on the tenant's lock, so the decision sequence is a
        pure fold over this tenant's arrival sequence regardless of how
        other tenants' requests interleave.  A request must pass *both*
        the token bucket and the quota; a bucket grant vetoed by the
        quota is refunded so the bucket, too, stays a function of the
        admitted sequence.
        """
        with self.lock:
            ok, retry_after = self.bucket.admit(now)
            if not ok:
                self.rejected += 1
                return False, retry_after
            if self.quota is not None:
                ok, retry_after = self.quota.admit(now)
                if not ok:
                    self.bucket.refund()
                    self.rejected += 1
                    return False, retry_after
            self.admitted += 1
            return True, 0.0


class FrontendTicket:
    """A submitted request's handle; resolved with a :class:`Response`."""

    def __init__(self, path: str, params: Dict[str, str]):
        self.path = path
        self.params = params
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._response: Optional[Response] = None

    def resolve(self, response: Response) -> None:
        with self._lock:
            self._response = response
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Response:
        """Block until resolved; raises ``TimeoutError`` on expiry."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"request {self.path!r} not served "
                               f"within {timeout}s")
        with self._lock:
            assert self._response is not None
            return self._response


@dataclass
class FrontendStats:
    """Admission-outcome counters (server totals live in the registry)."""

    submitted: int = 0
    accepted: int = 0
    served: int = 0
    unauthorized: int = 0
    rate_limited: int = 0
    shed: int = 0
    #: ACCEPTING -> SHEDDING transitions (overload episodes, not 503s)
    shed_events: int = 0
    resumed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "accepted": self.accepted,
            "served": self.served,
            "unauthorized": self.unauthorized,
            "rate_limited": self.rate_limited,
            "shed": self.shed,
            "shed_events": self.shed_events,
            "resumed": self.resumed,
        }


class ServingFrontend:
    """Threaded admission-controlled request front end over the gateway.

    ``breaker_cooldown`` is an optional zero-argument callable returning
    the collection side's remaining breaker cool-down in seconds; 503
    ``retry_after`` hints are raised to it so shed clients back off at
    least as long as a degraded data source needs.

    Requests may be submitted before :meth:`start`; they queue up and
    are served once workers exist.  Tests use this to drive the shed
    state machine deterministically.
    """

    def __init__(self, gateway: ApiGateway,
                 tenants: Tuple[Tenant, ...] = (),
                 workers: int = DEFAULT_WORKERS,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 resume_depth: Optional[int] = None,
                 shed_cooldown: float = DEFAULT_SHED_COOLDOWN,
                 breaker_cooldown: Optional[Callable[[], float]] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.gateway = gateway
        self.workers = workers
        self.queue_depth = queue_depth
        self.resume_depth = (queue_depth // 2 if resume_depth is None
                             else resume_depth)
        self.shed_cooldown = shed_cooldown
        self._breaker_cooldown = breaker_cooldown
        self._tenants: Dict[str, Tenant] = {}
        for tenant in tenants:
            self.add_tenant(tenant)
        self._known_routes = frozenset(gateway.routes())
        # queue + slot count + shed state machine + counters all serialize
        # on this condition (its name keeps the guard visible to spotconc)
        self._admission_lock = threading.Condition()
        self._queue: Deque[Tuple[FrontendTicket, Tenant]] = deque()
        # requests inside ``gateway.get``, on workers and callers alike
        self._executing = 0
        self._state = ACCEPTING
        self._shed_until = 0.0
        self._stopping = False
        self._pool: Optional[ThreadPoolExecutor] = None
        self.stats = FrontendStats()

    @property
    def metrics(self) -> MetricsRegistry:
        return self.gateway.metrics

    # -- tenancy -----------------------------------------------------------

    def add_tenant(self, tenant: Tenant) -> Tenant:
        if tenant.api_key in self._tenants:
            raise ValueError(f"duplicate api key {tenant.api_key!r}")
        self._tenants[tenant.api_key] = tenant
        return tenant

    def tenants(self) -> List[Tenant]:
        return sorted(self._tenants.values(), key=lambda t: t.name)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ServingFrontend":
        """Spin up the worker pool (idempotent)."""
        if self._pool is not None:
            return self
        with self._admission_lock:
            self._stopping = False
        pool = ThreadPoolExecutor(max_workers=self.workers,
                                  thread_name_prefix="serve")
        for _ in range(self.workers):
            pool.submit(self._worker_loop)
        with self._admission_lock:
            self._pool = pool
        return self

    def stop(self) -> None:
        """Drain the queue, then stop the workers (idempotent)."""
        with self._admission_lock:
            pool = self._pool
            self._pool = None
            self._stopping = True
            self._admission_lock.notify_all()
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ServingFrontend":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- request intake ----------------------------------------------------

    def submit(self, api_key: str, path: str,
               params: Optional[Dict[str, str]] = None,
               arrival_time: float = 0.0) -> FrontendTicket:
        """Run one request through the admission gates.

        Returns a ticket that is already resolved for rejections
        (401/429/503) and resolves asynchronously once a worker serves
        an admitted request.  ``arrival_time`` is the request's virtual
        timestamp; it drives every throttle decision (see the module
        docstring's determinism contract).
        """
        outcome = self._admit(api_key, path, params, arrival_time,
                              inline=False)
        if isinstance(outcome, Response):
            ticket = FrontendTicket(path, dict(params or {}))
            ticket.resolve(outcome)
            return ticket
        return outcome

    def request(self, api_key: str, path: str,
                params: Optional[Dict[str, str]] = None,
                arrival_time: float = 0.0,
                timeout: Optional[float] = 30.0) -> Response:
        """Synchronous request: served on the calling thread when it can be.

        The same gates as :meth:`submit`.  An admitted request runs here,
        with no ticket and no hand-off, when the pool is started, nothing
        is queued ahead of it and a ``workers`` slot is free; otherwise it
        queues like a submit and waits up to ``timeout`` for a worker.
        """
        outcome = self._admit(api_key, path, params, arrival_time,
                              inline=True)
        if isinstance(outcome, Tenant):
            return self._serve(path, params, outcome)
        if isinstance(outcome, Response):
            return outcome
        return outcome.result(timeout)

    def _admit(self, api_key: str, path: str,
               params: Optional[Dict[str, str]], arrival_time: float,
               inline: bool) -> Union[Response, FrontendTicket, Tenant]:
        """The three gates (401 / 429 / 503), then a slot or the queue.

        Returns the rejection :class:`Response`, the queued ticket, or --
        only when ``inline`` and a slot could be taken at once -- the
        admitted tenant, whose request the caller must now :meth:`_serve`.
        """
        route = path if path in self._known_routes else "<unknown>"
        tenant = self._tenants.get(api_key)
        if tenant is None:
            with self._admission_lock:
                self.stats.submitted += 1
                self.stats.unauthorized += 1
            return self._reject(route, None, 401,
                                {"error": "unknown or missing api key"})
        admitted, retry_after = tenant.admit(arrival_time)
        if not admitted:
            with self._admission_lock:
                self.stats.submitted += 1
                self.stats.rate_limited += 1
            return self._reject(
                route, tenant.name, 429,
                {"error": f"tenant {tenant.name!r} rate limited",
                 "retry_after": retry_after})
        with self._admission_lock:
            self.stats.submitted += 1
            self._maybe_resume(arrival_time)
            if self._state == SHEDDING or len(self._queue) >= self.queue_depth:
                if self._state != SHEDDING:
                    self._state = SHEDDING
                    self._shed_until = arrival_time + self.shed_cooldown
                    self.stats.shed_events += 1
                self.stats.shed += 1
                retry_after = self._shed_until - arrival_time
                if self._breaker_cooldown is not None:
                    retry_after = max(retry_after, self._breaker_cooldown())
            else:
                self.stats.accepted += 1
                slot_free = self._executing < self.workers
                if inline and slot_free and not self._queue \
                        and self._pool is not None:
                    self._executing += 1
                    return tenant
                ticket = FrontendTicket(path, dict(params or {}))
                self._queue.append((ticket, tenant))
                if slot_free:
                    self._admission_lock.notify()
                return ticket
        return self._reject(
            route, tenant.name, 503,
            {"error": "overloaded, shedding load",
             "retry_after": retry_after})

    def _serve(self, path: str, params: Optional[Dict[str, str]],
               tenant: Tenant) -> Response:
        """The serve step, inside a slot :meth:`_admit` or a worker took.

        Giving the slot back wakes a worker when requests are queued: a
        queued request may be waiting on this slot, not on a worker.
        """
        try:
            return self.gateway.get(path, params, tenant=tenant.name)
        finally:
            with self._admission_lock:
                self.stats.served += 1
                self._executing -= 1
                if self._queue:
                    self._admission_lock.notify()

    def _reject(self, route: str, tenant_name: Optional[str], status: int,
                body: dict) -> Response:
        self.metrics.observe_rejection(route, status, tenant=tenant_name)
        return Response(status, body)

    def _maybe_resume(self, now: float) -> None:
        """Leave SHEDDING once cooled down *and* drained.

        Callers already hold ``_admission_lock``; the re-entry here is
        free (the condition wraps an RLock) and keeps the state-machine
        write visibly guarded on its own.
        """
        with self._admission_lock:
            if self._state == SHEDDING and now >= self._shed_until \
                    and len(self._queue) <= self.resume_depth:
                self._state = ACCEPTING
                self.stats.resumed += 1

    # -- the worker side ---------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._admission_lock:
                while not (self._queue and self._executing < self.workers):
                    if self._stopping and not self._queue:
                        return
                    self._admission_lock.wait()
                ticket, tenant = self._queue.popleft()
                self._executing += 1
            ticket.resolve(self._serve(ticket.path, ticket.params, tenant))

    # -- observability -----------------------------------------------------

    def snapshot(self) -> dict:
        """Admission-state payload (folded into serving stats)."""
        with self._admission_lock:
            state = self._state
            depth = len(self._queue)
            counters = self.stats.as_dict()
        return {
            "state": state,
            "queue_depth": depth,
            "queue_limit": self.queue_depth,
            "workers": self.workers,
            "counters": counters,
            "tenants": {t.name: {"admitted": t.admitted,
                                 "rejected": t.rejected}
                        for t in self.tenants()},
        }
