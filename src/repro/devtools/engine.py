"""The lint engine: file discovery, project graph, rule dispatch.

Linting is a two-pass pipeline since spotconc:

1. **Parse pass** -- every discovered file is read and parsed; syntax
   errors become ``PARSE`` pseudo-findings.
2. **Project pass** -- the parsed modules are assembled into one
   :class:`~repro.devtools.callgraph.CallGraph`, which the
   interprocedural rules (CONC001, FLOW001) query through
   ``ctx.project``; single-file rules ignore it.

Usage::

    from repro.devtools import lint_paths
    result = lint_paths(["src/repro"])
    for finding in result.findings:
        print(finding.location(), finding.message)
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .callgraph import CallGraph
from .config import LintConfig
from .findings import Finding, LintResult, parse_error_finding
from .registry import FileContext, Rule, make_rules, registered_codes
from .suppressions import is_suppressed, parse_directive, suppression_map

_ROOT = "repro"

#: Pseudo-rule codes the engine itself emits (never in the registry).
ENGINE_CODES = ("PARSE", "IO", "SUPP")


def module_identity(path: Path) -> Tuple[str, str]:
    """(dotted module, repro subpackage) for a source path.

    The dotted module keeps an explicit ``.__init__`` suffix for package
    files so relative imports resolve uniformly (see LAY001).  Files not
    under a ``repro`` directory get a bare-stem module and package "" --
    they are still linted by the package-agnostic rules.
    """
    parts = list(path.parts)
    stem = path.stem
    try:
        anchor = len(parts) - 1 - parts[::-1].index(_ROOT, 1)
    except ValueError:
        return stem, ""
    rel = parts[anchor:-1] + [stem]
    module = ".".join(rel)
    # package = first directory under repro; a top-level module has none
    package = rel[1] if len(rel) > 2 else ""
    return module, package


@dataclass
class _ParsedFile:
    path: str
    module: str
    package: str
    tree: ast.Module
    lines: List[str]


def lint_source(source: str, *, path: str = "<string>",
                module: str = "module", package: str = "",
                config: Optional[LintConfig] = None,
                rules: Optional[Sequence[Rule]] = None) -> LintResult:
    """Lint one in-memory source blob (the unit-test entry point).

    The project graph for interprocedural rules spans just this module.
    """
    config = config or LintConfig()
    rules = list(rules) if rules is not None else make_rules()
    result = LintResult(rules_run=[r.code for r in rules])
    parsed = _parse_one(source, path, module, package, result)
    project = CallGraph.build(
        [(f.path, f.module, f.package, f.tree) for f in ([parsed] if parsed
                                                         else [])])
    if parsed is not None:
        _lint_parsed(parsed, config, rules, result, project)
    result.files_checked = 1
    result.sort()
    return result


def lint_paths(paths: Iterable[Union[str, Path]],
               config: Optional[LintConfig] = None,
               codes: Optional[Sequence[str]] = None) -> LintResult:
    """Lint every ``.py`` file under the given files/directories."""
    config = config or LintConfig()
    rules = make_rules(codes)
    result = LintResult(rules_run=[r.code for r in rules])
    parsed_files: List[_ParsedFile] = []
    for file_path in discover_files(paths):
        module, package = module_identity(file_path)
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            result.parse_errors.append(
                Finding("IO", str(file_path), 0, 0, str(exc)))
            continue
        parsed = _parse_one(source, str(file_path), module, package, result)
        result.files_checked += 1
        if parsed is not None:
            parsed_files.append(parsed)
    project = CallGraph.build(
        [(f.path, f.module, f.package, f.tree) for f in parsed_files])
    for parsed in parsed_files:
        _lint_parsed(parsed, config, rules, result, project)
    result.sort()
    return result


def discover_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """All python files under the given paths, sorted, deduplicated."""
    seen = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                seen[sub] = None
        elif path.is_file() and path.suffix == ".py":
            seen[path] = None
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return sorted(seen)


def _parse_one(source: str, path: str, module: str, package: str,
               result: LintResult) -> Optional[_ParsedFile]:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        result.parse_errors.append(parse_error_finding(path, exc))
        return None
    return _ParsedFile(path=path, module=module, package=package, tree=tree,
                       lines=source.splitlines())


def _lint_parsed(parsed: _ParsedFile, config: LintConfig,
                 rules: Sequence[Rule], result: LintResult,
                 project: CallGraph) -> None:
    suppressions = suppression_map(parsed.lines)
    ctx = FileContext(path=parsed.path, module=parsed.module,
                      package=parsed.package, tree=parsed.tree,
                      lines=parsed.lines, config=config, project=project)
    emit = _make_sink(result, suppressions)
    for finding in _unknown_suppression_codes(parsed):
        emit(finding)
    for rule in rules:
        if not config.rule_enabled(rule.code, parsed.package):
            continue
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            emit(finding)


def _make_sink(result: LintResult, suppressions):
    def emit(finding: Finding) -> None:
        if is_suppressed(finding.rule, finding.line, suppressions):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    return emit


def _unknown_suppression_codes(parsed: _ParsedFile) -> Iterable[Finding]:
    """SUPP findings for directives naming codes that do not exist.

    A typo'd code silently un-suppresses the intended rule, so it blocks
    like any other finding (the directive itself can suppress SUPP while
    a rename migrates).
    """
    known = set(registered_codes()) | set(ENGINE_CODES)
    for lineno, line in enumerate(parsed.lines, start=1):
        codes = parse_directive(line)
        unknown = sorted(codes - known)
        if unknown:
            yield Finding(
                "SUPP", parsed.path, lineno, 1,
                f"suppression names unknown rule code(s): "
                f"{', '.join(unknown)} (registered: "
                f"{', '.join(registered_codes())})")
