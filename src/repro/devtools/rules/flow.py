"""FLOW001: the log-then-apply ordering invariant, as a call-graph rule.

The storage engine's crash-recovery contract (PR 4) is that the WAL sees
every record before the in-memory table does -- otherwise a crash between
apply and log silently loses acknowledged data.  The archive honors it by
routing all writes through one gate method (``_put_points``) that logs
first.  FLOW001 pins the contract: any function reachable from collection
entry points that applies records to a table (``append_many`` /
``write_records`` / ``table(...).write``) must itself call a WAL logging
method (``log_points`` / ...) earlier in its body.

The check is per *gate function*, not per path: a new call path that
bypasses ``_put_points`` and hits ``Table.append_many`` directly
introduces a new applying function with no logging call, which is exactly
what fires.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from ..astutil import chain_suffix_matches
from ..findings import Finding
from ..registry import FileContext, Rule, rule

#: Call-chain suffixes that apply records to a table (with "()" markers
#: as produced by astutil.deep_chain).
APPLY_SUFFIXES: Tuple[Tuple[str, ...], ...] = (
    ("append_many",),
    ("write_records",),
    ("table", "()", "write"),
)

#: WAL logging methods that establish the gate.
WAL_GATES = frozenset({"log_points", "log_create_table", "log_eviction"})

#: Packages whose collection code must log before it applies.
PACKAGES: Tuple[str, ...] = ("core",)

#: Qualname suffixes marking collection-side entry points.  The archive's
#: ``append`` is named explicitly: the call graph never resolves a bare
#: ``.append(`` (a builtin-collection method name) through a receiver.
#: It only buffers rows; ``commit_round`` applies them, and is named too
#: because a scheduler tick reaches it through an unresolvable callback.
ENTRIES: Tuple[str, ...] = (
    "collect", "collect_once", "run_sps_round", "SpotLakeArchive.append",
    "SpotLakeArchive.commit_round",
)


@rule
class LogThenApplyRule(Rule):
    code = "FLOW001"
    name = "log-then-apply"
    description = ("table apply reachable from collection code without a "
                   "preceding WAL logging call")

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.package in PACKAGES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        graph = ctx.project
        if graph is None:
            return
        entries = [qual for suffix in ENTRIES
                   for qual in graph.functions_matching(suffix)]
        reachable = graph.reachable(entries)
        for fn in graph.functions_in_module(ctx.module):
            if fn.qualname not in reachable:
                continue
            gate_lines = [site.lineno for site in fn.calls
                          if site.chain[-1] in WAL_GATES]
            for site in fn.calls:
                if not any(chain_suffix_matches(site.chain, pattern)
                           for pattern in APPLY_SUFFIXES):
                    continue
                if any(line <= site.lineno for line in gate_lines):
                    continue
                path = graph.call_path(entries, fn.qualname)
                via = " -> ".join(path) if path else fn.qualname
                yield ctx.finding(
                    self, site.node,
                    f"table apply {'.'.join(site.chain)} in {fn.qualname} "
                    f"(reached via {via}) has no preceding WAL call "
                    f"({', '.join(sorted(WAL_GATES))}); log-then-apply is "
                    f"the crash-recovery contract -- route the write "
                    f"through StorageEngine logging first")
