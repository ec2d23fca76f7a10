"""Serving observability: per-route counters and latency percentiles.

The real SpotLake fronts its archive with API Gateway + Lambda, where
CloudWatch supplies request counts and latency distributions for free.
This module is the reproduction's stand-in: the :class:`ApiGateway` feeds
every dispatched request into a :class:`MetricsRegistry`, and the
``/metrics`` route surfaces the snapshot.

Determinism note: latency is measured with an *injectable* timer.  The
default is ``time.perf_counter`` -- a host clock -- which is fine here
because latency samples are observability-only: they never reach the
archive, a response body other than ``/metrics``, or any byte-compared
artifact.  Tests inject a fake timer to make percentile math exact.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Percentiles reported for every route's latency distribution.
LATENCY_PERCENTILES = (50, 95, 99)

#: Per-route cap on retained latency samples; beyond it the reservoir
#: keeps every k-th sample so long benchmarks stay O(1) per request.
MAX_SAMPLES = 4096


def percentile(sorted_samples: List[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample list."""
    if not sorted_samples:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_samples)))
    return sorted_samples[min(rank, len(sorted_samples)) - 1]


@dataclass
class RouteMetrics:
    """Counters and latency samples for one route."""

    requests: int = 0
    by_status: Dict[str, int] = field(default_factory=dict)
    server_errors: int = 0
    rows_served: int = 0
    total_latency_ms: float = 0.0
    max_latency_ms: float = 0.0
    #: ascending latency samples (decimated past MAX_SAMPLES)
    samples_ms: List[float] = field(default_factory=list)
    _sample_stride: int = 1
    _sample_clock: int = 0
    # serving workers share route objects; counter updates take this
    # (the registry nests it inside its own lock, always in that order);
    # the lambda looks ``threading.Lock`` up per instance, so a lock
    # factory installed after import (the sanitizer's) applies
    _lock: threading.Lock = field(default_factory=lambda: threading.Lock(),
                                  repr=False, compare=False)

    def observe(self, status: int, rows: int, latency_ms: float,
                sample: bool = True) -> None:
        with self._lock:
            self.requests += 1
            bucket = str(status)
            self.by_status[bucket] = self.by_status.get(bucket, 0) + 1
            if status >= 500:
                self.server_errors += 1
            self.rows_served += rows
            if not sample:
                # admission rejections are counted but contribute no
                # latency sample: the percentiles keep describing served
                # requests
                return
            self.total_latency_ms += latency_ms
            self.max_latency_ms = max(self.max_latency_ms, latency_ms)
            self._sample_clock += 1
            if self._sample_clock % self._sample_stride:
                return
            insort(self.samples_ms, latency_ms)
            if len(self.samples_ms) >= MAX_SAMPLES:
                # halve the reservoir, double the stride: bounded memory
                # with an unbiased-enough tail for p50/p95/p99 reporting
                self.samples_ms = self.samples_ms[::2]
                self._sample_stride *= 2

    def snapshot(self) -> dict:
        latency = {f"p{p}_ms": percentile(self.samples_ms, p)
                   for p in LATENCY_PERCENTILES}
        latency["max_ms"] = self.max_latency_ms
        latency["mean_ms"] = (self.total_latency_ms / self.requests
                              if self.requests else 0.0)
        return {
            "requests": self.requests,
            "by_status": dict(sorted(self.by_status.items())),
            "server_errors": self.server_errors,
            "rows_served": self.rows_served,
            "latency": latency,
        }


@dataclass
class TenantMetrics:
    """Admission + serving outcome counters for one tenant.

    The front end's per-tenant fairness and throttling SLOs read these:
    ``rate_limited`` counts 429s (token bucket or quota), ``shed``
    counts 503s (admission queue overflow / shedding state).
    """

    requests: int = 0
    by_status: Dict[str, int] = field(default_factory=dict)
    rate_limited: int = 0
    shed: int = 0
    rows_served: int = 0
    # looked up per instance, as RouteMetrics._lock
    _lock: threading.Lock = field(default_factory=lambda: threading.Lock(),
                                  repr=False, compare=False)

    def observe(self, status: int, rows: int) -> None:
        with self._lock:
            self.requests += 1
            bucket = str(status)
            self.by_status[bucket] = self.by_status.get(bucket, 0) + 1
            if status == 429:
                self.rate_limited += 1
            elif status == 503:
                self.shed += 1
            self.rows_served += rows

    @property
    def succeeded(self) -> int:
        return self.by_status.get("200", 0)

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "by_status": dict(sorted(self.by_status.items())),
            "rate_limited": self.rate_limited,
            "shed": self.shed,
            "succeeded": self.succeeded,
            "rows_served": self.rows_served,
        }


class MetricsRegistry:
    """Aggregates request metrics across routes.

    ``timer`` is any zero-argument monotonic-seconds callable; the
    default reads the host performance counter (see module docstring).
    """

    def __init__(self, timer: Optional[Callable[[], float]] = None):
        self._timer = timer if timer is not None else time.perf_counter
        self._routes: Dict[str, RouteMetrics] = {}
        self._tenants: Dict[str, TenantMetrics] = {}
        # the registry is shared across serving threads (ROADMAP item 1)
        self._lock = threading.Lock()

    def clock(self) -> float:
        """Current timer reading, in seconds."""
        return self._timer()

    def route(self, route: str) -> RouteMetrics:
        with self._lock:
            metrics = self._routes.get(route)
            if metrics is None:
                metrics = self._routes[route] = RouteMetrics()
            return metrics

    def tenant(self, tenant: str) -> TenantMetrics:
        with self._lock:
            metrics = self._tenants.get(tenant)
            if metrics is None:
                metrics = self._tenants[tenant] = TenantMetrics()
            return metrics

    def observe(self, route: str, status: int, rows: int,
                latency_seconds: float,
                tenant: Optional[str] = None) -> None:
        """Record one dispatched request (optionally tenant-attributed)."""
        metrics = self.route(route)
        per_tenant = self.tenant(tenant) if tenant is not None else None
        with self._lock:
            metrics.observe(status, rows, latency_seconds * 1000.0)
            if per_tenant is not None:
                per_tenant.observe(status, rows)

    def observe_rejection(self, route: str, status: int,
                          tenant: Optional[str] = None) -> None:
        """Record an admission rejection (429/503) that never reached a
        handler.  Counted per route and per tenant, but contributes no
        latency sample -- the percentiles describe served requests."""
        metrics = self.route(route)
        per_tenant = self.tenant(tenant) if tenant is not None else None
        with self._lock:
            metrics.observe(status, 0, 0.0, sample=False)
            if per_tenant is not None:
                per_tenant.observe(status, 0)

    def reset(self) -> None:
        with self._lock:
            self._routes.clear()
            self._tenants.clear()

    def snapshot(self) -> dict:
        """JSON-able metrics payload (the ``/metrics`` body core)."""
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> dict:
        routes = {route: metrics.snapshot()
                  for route, metrics in sorted(self._routes.items())}
        tenants = {tenant: metrics.snapshot()
                   for tenant, metrics in sorted(self._tenants.items())}
        return {
            "routes": routes,
            "tenants": tenants,
            "totals": {
                "requests": sum(m.requests for m in self._routes.values()),
                "server_errors": sum(m.server_errors
                                     for m in self._routes.values()),
                "rows_served": sum(m.rows_served
                                   for m in self._routes.values()),
                "rate_limited": sum(m.by_status.get("429", 0)
                                    for m in self._routes.values()),
                "shed": sum(m.by_status.get("503", 0)
                            for m in self._routes.values()),
            },
        }
