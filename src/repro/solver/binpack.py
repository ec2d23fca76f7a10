"""Bin-packing solvers.

SpotLake reduces its placement-score query count by packing the regions
supporting an instance type (item weight = number of supporting zones) into
queries of capacity 10 -- the API's result-row cap (paper Section 3.2,
Figure 1).  The paper used a mixed-integer-programming solver (CBC via
OR-Tools); this module provides:

* :func:`first_fit_decreasing` and :func:`best_fit_decreasing` heuristics;
* :func:`branch_and_bound` -- an exact solver with L1/L2 lower bounds and a
  node budget, falling back to the best incumbent when exhausted;
* :func:`pack` -- the convenience entry point (exact with FFD fallback).

All solvers return a list of bins, each a list of the original item indexes.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple


class InfeasibleError(ValueError):
    """An item exceeds the bin capacity (can never be packed)."""


@dataclass
class SolverStats:
    """Process-wide solver invocation counters.

    The plan cache's contract -- "an unchanged catalog replans with zero
    solver calls" -- is asserted against these counters, so every public
    solver entry point increments them.
    """

    ffd_calls: int = 0
    bfd_calls: int = 0
    bnb_calls: int = 0
    #: guards the counters: spotconc's CONC003 holds a process
    #: singleton's writes to a lock whether or not a thread shares it
    #: (the lambda looks ``threading.Lock`` up per instance, so a lock
    #: factory installed after import applies)
    lock: threading.Lock = field(default_factory=lambda: threading.Lock(),
                                 repr=False, compare=False)

    @property
    def total_calls(self) -> int:
        with self.lock:
            return self.ffd_calls + self.bfd_calls + self.bnb_calls

    def reset(self) -> None:
        with self.lock:
            self.ffd_calls = self.bfd_calls = self.bnb_calls = 0


#: The module-level counter instance (``from repro.solver import STATS``).
STATS = SolverStats()


def _validate(weights: Sequence[float], capacity: float) -> None:
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    for w in weights:
        if w <= 0:
            raise ValueError("item weights must be positive")
        if w > capacity:
            raise InfeasibleError(
                f"item weight {w} exceeds bin capacity {capacity}")


def lower_bound_l1(weights: Sequence[float], capacity: float) -> int:
    """Continuous lower bound: ceil(total weight / capacity)."""
    if not weights:
        return 0
    return math.ceil(sum(weights) / capacity - 1e-9)


def lower_bound_l2(weights: Sequence[float], capacity: float) -> int:
    """Martello-Toth L2 bound, tighter than L1 for big-item mixes.

    For each threshold k in (0, capacity/2], items > capacity - k cannot
    share a bin with anything; items in (capacity/2, capacity - k] each need
    their own bin but may accept one small item; the remainder is bounded by
    volume.
    """
    if not weights:
        return 0
    best = lower_bound_l1(weights, capacity)
    thresholds = sorted({w for w in weights if w <= capacity / 2.0})
    for k in [0.0] + thresholds:
        big = [w for w in weights if w > capacity - k]
        mid = [w for w in weights if capacity / 2.0 < w <= capacity - k]
        small = [w for w in weights if k <= w <= capacity / 2.0]
        free = len(mid) * capacity - sum(mid)
        overflow = sum(small) - free
        extra = max(0, math.ceil(overflow / capacity - 1e-9))
        best = max(best, len(big) + len(mid) + extra)
    return best


def first_fit_decreasing(weights: Sequence[float], capacity: float) -> List[List[int]]:
    """Classic FFD heuristic (<= 11/9 OPT + 1 bins)."""
    with STATS.lock:
        STATS.ffd_calls += 1
    _validate(weights, capacity)
    order = sorted(range(len(weights)), key=lambda i: -weights[i])
    bins: List[List[int]] = []
    residual: List[float] = []
    for idx in order:
        w = weights[idx]
        for b, room in enumerate(residual):
            if w <= room + 1e-9:
                bins[b].append(idx)
                residual[b] = room - w
                break
        else:
            bins.append([idx])
            residual.append(capacity - w)
    return bins


def best_fit_decreasing(weights: Sequence[float], capacity: float) -> List[List[int]]:
    """BFD heuristic: place each item in the tightest bin that fits."""
    with STATS.lock:
        STATS.bfd_calls += 1
    _validate(weights, capacity)
    order = sorted(range(len(weights)), key=lambda i: -weights[i])
    bins: List[List[int]] = []
    residual: List[float] = []
    for idx in order:
        w = weights[idx]
        best_bin = -1
        best_room = float("inf")
        for b, room in enumerate(residual):
            if w <= room + 1e-9 and room < best_room:
                best_bin, best_room = b, room
        if best_bin >= 0:
            bins[best_bin].append(idx)
            residual[best_bin] = best_room - w
        else:
            bins.append([idx])
            residual.append(capacity - w)
    return bins


@dataclass
class BranchAndBoundResult:
    """Solution plus optimality evidence from the exact solver."""

    bins: List[List[int]]
    optimal: bool
    nodes_explored: int
    lower_bound: int


def branch_and_bound(weights: Sequence[float], capacity: float,
                     node_budget: int = 200_000) -> BranchAndBoundResult:
    """Exact bin packing by branch-and-bound with symmetry breaking.

    Items are placed in decreasing-weight order; each node tries every open
    bin with room plus one new bin (opening bin k+1 before bin k is filled
    is symmetric, so only a single new bin is branched).  Pruned by the L2
    lower bound on the unplaced remainder.  When the node budget runs out
    the best incumbent found so far is returned with ``optimal=False``.
    """
    with STATS.lock:
        STATS.bnb_calls += 1
    _validate(weights, capacity)
    n = len(weights)
    if n == 0:
        return BranchAndBoundResult([], True, 0, 0)

    order = sorted(range(n), key=lambda i: -weights[i])
    sorted_weights = [weights[i] for i in order]
    lb_root = lower_bound_l2(weights, capacity)

    incumbent = first_fit_decreasing(weights, capacity)
    best_count = len(incumbent)
    nodes = 0
    budget_hit = False

    assignment: List[int] = [-1] * n  # position -> bin id, in sorted order
    residuals: List[float] = []

    def remainder_bound(position: int) -> int:
        rest = sorted_weights[position:]
        if not rest:
            return 0
        free = sum(residuals)
        need = sum(rest) - free
        return max(0, math.ceil(need / capacity - 1e-9))

    def dfs(position: int) -> None:
        nonlocal best_count, incumbent, nodes, budget_hit
        if budget_hit:
            return
        nodes += 1
        if nodes > node_budget:
            budget_hit = True
            return
        if position == n:
            if len(residuals) < best_count:
                best_count = len(residuals)
                bins: List[List[int]] = [[] for _ in range(best_count)]
                for pos, b in enumerate(assignment):
                    bins[b].append(order[pos])
                incumbent = bins
            return
        if len(residuals) + remainder_bound(position) >= best_count:
            return
        w = sorted_weights[position]
        tried_rooms = set()
        for b, room in enumerate(residuals):
            if w <= room + 1e-9 and round(room, 9) not in tried_rooms:
                tried_rooms.add(round(room, 9))
                residuals[b] = room - w
                assignment[position] = b
                dfs(position + 1)
                residuals[b] = room
        if len(residuals) + 1 < best_count:
            residuals.append(capacity - w)
            assignment[position] = len(residuals) - 1
            dfs(position + 1)
            residuals.pop()
        assignment[position] = -1

    dfs(0)
    optimal = (not budget_hit) or best_count == lb_root
    return BranchAndBoundResult(incumbent, optimal, nodes, lb_root)


def pack(weights: Sequence[float], capacity: float,
         exact: bool = True, node_budget: int = 200_000) -> List[List[int]]:
    """Pack items into the fewest bins; exact by default, FFD otherwise."""
    if not exact:
        return first_fit_decreasing(weights, capacity)
    return branch_and_bound(weights, capacity, node_budget).bins


def bin_count(bins: List[List[int]]) -> int:
    """Number of non-empty bins in a packing."""
    return sum(1 for b in bins if b)


def is_valid_packing(bins: List[List[int]], weights: Sequence[float],
                     capacity: float) -> bool:
    """Every item exactly once, every bin within capacity."""
    seen: List[int] = []
    for b in bins:
        if sum(weights[i] for i in b) > capacity + 1e-9:
            return False
        seen.extend(b)
    return sorted(seen) == list(range(len(weights)))
