"""CLK001: archive writes must be timestamped from the simulation clock.

The archive is the paper's artifact: a record stamped with host wall time
instead of sim time lands in the wrong position of the 181-day window and
silently corrupts every downstream analysis (the Ding-Dong-Ditch class of
dataset artifact).  This rule inspects every archive/timeseries write sink
and flags any argument expression that contains a wall-clock read.

Heuristic: the timestamp cannot be tracked through arbitrary dataflow
statically, so the rule scans the *call's argument subtrees* for
wall-clock calls -- the common failure shape is inline
(``archive.append("price", [(..., time.time())])``).  Wall-clock values laundered through a
variable in a clocked package are still caught by DET001.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import contains_wall_clock_call, dotted_chain
from ..findings import Finding
from ..registry import FileContext, Rule, rule

#: Archive / timeseries write entry points (method-name suffix match).
_WRITE_SINKS = frozenset({"append", "write", "ingest"})


@rule
class ClockFlowRule(Rule):
    code = "CLK001"
    name = "clock-flow"
    description = ("timeseries write whose arguments read the host wall "
                   "clock; timestamps must derive from the sim clock")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_chain(node.func)
            if chain is None or chain[-1] not in _WRITE_SINKS:
                continue
            # ``write`` / ``append`` are everyday method names (file.write,
            # list.append): they only count on a table/archive receiver
            if chain[-1] != "ingest" and not self._table_like(chain):
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                clock_call = contains_wall_clock_call(arg)
                if clock_call is not None:
                    inner = dotted_chain(clock_call.func)
                    yield ctx.finding(
                        self, clock_call,
                        f"archive write {chain[-1]}() timestamped from "
                        f"{'.'.join(inner)}(); derive the timestamp from "
                        "the simulation clock (clock.now())")

    @staticmethod
    def _table_like(chain) -> bool:
        """Does the call's receiver look like a table/archive object?"""
        bases = set(chain[:-1])
        return bool(bases & {"table", "archive", "store", "series",
                             "sps", "price", "advisor"})
