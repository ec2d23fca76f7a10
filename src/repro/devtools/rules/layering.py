"""LAY001: import layering against the declared package DAG.

DESIGN.md's system inventory implies a strict layering: ``cloudsim``,
``solver``, ``timeseries`` and ``mlcore`` are leaves (they substitute
external systems and must not know about SpotLake); ``core`` assembles
the leaves; ``analysis`` / ``experiments`` / ``apps`` / ``multicloud``
consume ``core``; ``devtools`` sits on top.  The shared helper modules
(``repro._util``, ``repro.scoring``) live below the leaves and are
importable from anywhere.

Keeping the DAG acyclic is what lets ROADMAP-scale refactors (sharding the
archive, swapping the solver, multi-backend stores) replace one layer
without unpicking the rest.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from ..findings import Finding
from ..registry import FileContext, Rule, rule

_ROOT = "repro"


@rule
class LayeringRule(Rule):
    code = "LAY001"
    name = "layering"
    description = ("cross-package import violating the declared package "
                   "DAG (devtools.config.DEFAULT_LAYERING_DAG)")

    def applies_to(self, ctx: FileContext) -> bool:
        # Top-level modules (cli, _util, scoring, __init__) are the
        # composition root / shared base; the DAG constrains subpackages.
        return ctx.package != ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        dag = ctx.config.layering_dag
        if ctx.package not in dag:
            yield ctx.finding(
                self, ctx.tree,
                f"package {ctx.package!r} is not declared in the layering "
                "DAG; add it to devtools.config.DEFAULT_LAYERING_DAG")
            return
        allowed = set(dag[ctx.package]) | {ctx.package}
        for node in ast.walk(ctx.tree):
            for target, where in self._imported_modules(ctx, node):
                pkg = self._target_package(ctx, target)
                if pkg is None:
                    continue
                if pkg == "":
                    # importing the repro root re-exports every layer
                    yield ctx.finding(
                        self, where,
                        f"{ctx.package!r} imports the repro root package, "
                        "which aggregates every layer; import the concrete "
                        "module instead")
                elif pkg not in allowed:
                    yield ctx.finding(
                        self, where,
                        f"{ctx.package!r} may not import from {pkg!r} "
                        f"(allowed: {', '.join(sorted(allowed - {ctx.package})) or 'none'})")

    def _imported_modules(self, ctx: FileContext, node: ast.AST):
        """Yield (absolute dotted module, ast node) for every import.

        ``ctx.module`` keeps an explicit ``.__init__`` suffix for package
        files, so "drop the last segment" always yields the containing
        package and relative levels resolve uniformly.
        """
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module or "", node
                return
            base = ctx.module.split(".")[:-1]
            if node.level > 1:
                base = base[:-(node.level - 1)]
            if node.module:
                yield ".".join(base + node.module.split(".")), node
            else:
                # ``from .. import x`` imports submodules x of the base
                for alias in node.names:
                    yield ".".join(base + [alias.name]), node

    @staticmethod
    def _target_package(ctx: FileContext, module: str) -> Optional[str]:
        """The repro subpackage a dotted module lives in.

        None -> stdlib/third-party or a shared helper module (exempt);
        "" -> the repro root package itself.
        """
        if not module:
            return None
        parts = module.split(".")
        if parts[0] != _ROOT:
            return None
        if len(parts) == 1:
            return ""
        if parts[1] in ctx.config.shared_modules:
            return None
        return parts[1]
