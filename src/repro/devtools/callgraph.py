"""Project-wide module/call graph for the interprocedural spotconc rules.

The single-file rules of PR 1 see one AST at a time; the concurrency rules
(CONC001, FLOW001) need to answer *reachability* questions -- "can this
function run on a thread-pool worker?", "does every path from collection
code to a table apply pass through the WAL?" -- which requires a view of
the whole package tree at once.  This module builds that view:

* a :class:`ModuleInfo` per source file (imports resolved to absolute
  dotted targets, module-level bindings, process-wide mutable globals);
* a :class:`FunctionInfo` per function, method, nested function and
  lambda, each carrying its outgoing :class:`CallSite` list;
* a :class:`CallGraph` resolving call sites to callee functions and
  exposing reachability, path reconstruction, thread-pool submit seeds
  and a project-wide watched-globals index.

Resolution is deliberately an *over-approximation*: an attribute call
whose receiver cannot be typed falls back to matching every project
function with that bare name (minus ubiquitous builtin-collection method
names, which would only add noise edges).  Over-approximating keeps the
reachability analyses sound -- a function is only reported as
unreachable when no resolution strategy connects it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .astutil import deep_chain

#: Method names shared with the builtin collections; receiver-less
#: name-matching on these would wire ``rows.append`` to every project
#: ``append`` method, so they never resolve through the fallback.
_BUILTIN_METHODS = frozenset({
    "append", "extend", "add", "update", "insert", "pop", "popitem",
    "clear", "remove", "discard", "setdefault", "sort", "reverse", "copy",
    "get", "items", "keys", "values", "join", "split", "strip", "format",
    "encode", "decode", "read", "readline", "write", "flush", "close",
    "open", "index", "count", "startswith", "endswith", "lower", "upper",
    "map", "submit", "shutdown", "result", "dump", "dumps", "load", "loads",
})

#: Module-level names matching this pattern are screened as process-wide
#: globals (see :meth:`CallGraph.watched_globals`).
_GLOBAL_NAME = re.compile(r"^_?[A-Z][A-Z0-9_]*$")

#: Value constructors that produce a mutable container / instance.
_MUTABLE_FACTORIES = frozenset({
    "dict", "list", "set", "defaultdict", "deque", "Counter", "OrderedDict",
})


@dataclass
class CallSite:
    """One call expression inside a function body."""

    chain: Tuple[str, ...]  #: deep chain with "()" markers (see astutil)
    lineno: int
    col: int
    node: ast.Call


@dataclass
class FunctionInfo:
    """One function-like scope: def, method, nested def, or lambda."""

    qualname: str            #: "repro.core.archive.SpotLakeArchive._write"
    module: str
    package: str
    path: str
    name: str                #: bare name ("<lambda>" for lambdas)
    cls: Optional[str]       #: enclosing class name, if a method
    node: ast.AST
    lineno: int
    parent: Optional[str] = None  #: enclosing function qualname, if nested
    calls: List[CallSite] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """Per-file facts the graph and the rules share."""

    module: str
    package: str
    path: str
    tree: ast.Module
    #: local alias -> absolute dotted target ("pkg.mod" or "pkg.mod.attr")
    aliases: Dict[str, str] = field(default_factory=dict)
    #: every dotted module named by an import statement
    imported_modules: Set[str] = field(default_factory=set)
    #: names bound at module level (assignments, defs, classes, imports)
    global_names: Set[str] = field(default_factory=set)
    #: process-wide mutable globals: name -> definition line
    watched_globals: Dict[str, int] = field(default_factory=dict)
    #: classes defined at module level
    class_names: Set[str] = field(default_factory=set)


@dataclass
class PoolSubmit:
    """One thread-pool dispatch: ``executor.submit(fn, ...)`` / ``.map``."""

    caller: FunctionInfo
    site: CallSite
    targets: Tuple[str, ...]  #: resolved target qualnames

    def where(self) -> str:
        return f"{self.caller.path}:{self.site.lineno}"


def _calls_in(node: ast.AST) -> Iterator[ast.Call]:
    """Call expressions in ``node``, excluding nested function bodies."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        sub = stack.pop()
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.Lambda)):
            continue
        if isinstance(sub, ast.Call):
            yield sub
        stack.extend(ast.iter_child_nodes(sub))


def _is_mutable_value(value: ast.AST) -> bool:
    """Does this module-level initializer build a mutable object?"""
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                          ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        chain = deep_chain(value.func)
        if chain is None:
            return False
        last = chain[-1]
        if "Lock" in last or "Semaphore" in last or "Condition" in last:
            return False  # synchronization primitives are the guards
        if last in _MUTABLE_FACTORIES:
            return True
        # CamelCase call: instantiating a project class -> mutable instance
        return bool(last[:1].isupper() and last not in
                    ("Tuple", "FrozenSet", "NamedTuple"))
    return False


class CallGraph:
    """The resolved project graph plus memoized whole-project analyses."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self._by_name: Dict[str, List[str]] = {}
        self._by_module: Dict[str, List[str]] = {}
        self._node_to_function: Dict[int, str] = {}
        self._callees: Dict[str, Tuple[str, ...]] = {}
        self._threaded: Optional[Dict[str, PoolSubmit]] = None
        self._watched: Optional[Dict[str, Dict[str, int]]] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, modules: Iterable[Tuple[str, str, str, ast.Module]]
              ) -> "CallGraph":
        """Build a graph from (path, module, package, tree) tuples."""
        graph = cls()
        for path, module, package, tree in modules:
            graph._add_module(path, module, package, tree)
        return graph

    def _add_module(self, path: str, module: str, package: str,
                    tree: ast.Module) -> None:
        info = ModuleInfo(module=module, package=package, path=path,
                          tree=tree)
        self.modules[module] = info
        self._scan_imports(info)
        self._scan_globals(info)
        self._register_scope(info, tree.body, cls=None, parent=None)

    def _scan_imports(self, info: ModuleInfo) -> None:
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    info.imported_modules.add(alias.name)
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    info.aliases[bound] = target
                    info.global_names.add(bound)
            elif isinstance(node, ast.ImportFrom):
                base = self._absolute_base(info, node)
                if base:
                    info.imported_modules.add(base)
                for alias in node.names:
                    bound = alias.asname or alias.name
                    prefix = f"{base}." if base else ""
                    info.aliases[bound] = f"{prefix}{alias.name}"
                    info.global_names.add(bound)

    @staticmethod
    def _absolute_base(info: ModuleInfo, node: ast.ImportFrom) -> str:
        """Absolute dotted module an ImportFrom pulls names out of."""
        if node.level == 0:
            return node.module or ""
        base = info.module.split(".")[:-1]
        if node.level > 1:
            base = base[:-(node.level - 1)]
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base)

    def _scan_globals(self, info: ModuleInfo) -> None:
        for stmt in info.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            elif isinstance(stmt, ast.ClassDef):
                info.global_names.add(stmt.name)
                info.class_names.add(stmt.name)
                continue
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.global_names.add(stmt.name)
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                info.global_names.add(target.id)
                if _GLOBAL_NAME.match(target.id) and "LOCK" not in target.id \
                        and value is not None and _is_mutable_value(value):
                    info.watched_globals[target.id] = stmt.lineno

    def _register_scope(self, info: ModuleInfo, body: Sequence[ast.stmt],
                        cls: Optional[str], parent: Optional[str]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_function(info, stmt, cls, parent)
            elif isinstance(stmt, ast.ClassDef) and parent is None:
                self._register_scope(info, stmt.body, cls=stmt.name,
                                     parent=None)

    def _register_function(self, info: ModuleInfo, node: ast.AST,
                           cls: Optional[str], parent: Optional[str],
                           name: Optional[str] = None) -> FunctionInfo:
        bare = name if name is not None else getattr(node, "name", "<lambda>")
        if parent is not None:
            qual = f"{parent}.{bare}"
        elif cls is not None:
            qual = f"{info.module}.{cls}.{bare}"
        else:
            qual = f"{info.module}.{bare}"
        if isinstance(node, ast.Lambda):
            qual = f"{qual}:{node.lineno}"
        fn = FunctionInfo(qualname=qual, module=info.module,
                          package=info.package, path=info.path, name=bare,
                          cls=cls, node=node, lineno=node.lineno,
                          parent=parent)
        self.functions[qual] = fn
        self._by_name.setdefault(bare, []).append(qual)
        self._by_module.setdefault(info.module, []).append(qual)
        self._node_to_function[id(node)] = qual
        for call in _calls_in(node):
            chain = deep_chain(call.func)
            if chain is None:
                continue
            fn.calls.append(CallSite(chain=chain, lineno=call.lineno,
                                     col=call.col_offset, node=call))
        # nested defs and lambdas are functions of their own
        for sub in ast.walk(node):
            if sub is node:
                continue
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)) and \
                    id(sub) not in self._node_to_function:
                if self._encloses_directly(node, sub):
                    self._register_function(
                        info, sub, cls,
                        parent=qual,
                        name=getattr(sub, "name", "<lambda>"))
        return fn

    def _encloses_directly(self, outer: ast.AST, inner: ast.AST) -> bool:
        """True when no other function scope sits between outer and inner."""
        between = [sub for sub in ast.walk(outer)
                   if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.Lambda))
                   and sub is not outer and sub is not inner
                   and any(n is inner for n in ast.walk(sub))]
        return not between

    # -- lookup ------------------------------------------------------------

    def functions_in_module(self, module: str) -> List[FunctionInfo]:
        return [self.functions[q] for q in self._by_module.get(module, [])]

    def functions_matching(self, suffix: str) -> List[str]:
        """Qualnames ending with ``suffix`` as whole dotted segments."""
        dotted = f".{suffix}"
        return sorted(q for q in self.functions
                      if q == suffix or q.endswith(dotted))

    # -- edge resolution ---------------------------------------------------

    def callees(self, qual: str) -> Tuple[str, ...]:
        """Resolved callee qualnames of one function (memoized)."""
        cached = self._callees.get(qual)
        if cached is not None:
            return cached
        fn = self.functions.get(qual)
        resolved: Set[str] = set()
        if fn is not None:
            for site in fn.calls:
                resolved.update(self._resolve_site(fn, site))
            # calling a function can invoke the closures defined in it
            # only via the call sites above; defining alone adds no edge
        out = tuple(sorted(resolved))
        self._callees[qual] = out
        return out

    def _resolve_site(self, fn: FunctionInfo, site: CallSite) -> Set[str]:
        chain = tuple(seg for seg in site.chain if seg != "()")
        if not chain:
            return set()
        last = chain[-1]
        if last == "?" or not last:
            return set()
        if len(chain) == 1:
            return self._resolve_bare(fn, last)
        if chain[0] in ("self", "cls") and fn.cls is not None \
                and len(chain) == 2:
            qual = f"{fn.module}.{fn.cls}.{last}"
            if qual in self.functions:
                return {qual}
        info = self.modules.get(fn.module)
        if info is not None:
            target = info.aliases.get(chain[0])
            if target is not None:
                dotted = ".".join((target,) + chain[1:])
                if dotted in self.functions:
                    return {dotted}
        if last in _BUILTIN_METHODS:
            return set()
        # untyped receiver: every project function with this bare name
        return set(self._by_name.get(last, ()))

    def _resolve_bare(self, fn: FunctionInfo, name: str) -> Set[str]:
        # innermost enclosing scope first: nested def defined in an ancestor
        ancestor: Optional[str] = fn.qualname
        while ancestor is not None:
            nested = f"{ancestor}.{name}"
            if nested in self.functions:
                return {nested}
            ancestor = self.functions[ancestor].parent \
                if ancestor in self.functions else None
        info = self.modules.get(fn.module)
        if fn.cls is not None:
            method = f"{fn.module}.{fn.cls}.{name}"
            if method in self.functions:
                return {method}
        local = f"{fn.module}.{name}"
        if local in self.functions:
            return {local}
        if info is not None:
            target = info.aliases.get(name)
            if target is not None:
                if target in self.functions:
                    return {target}
                ctor = f"{target}.__init__"
                if ctor in self.functions:
                    return {ctor}
            if name in info.class_names:
                ctor = f"{fn.module}.{name}.__init__"
                if ctor in self.functions:
                    return {ctor}
        return set()

    # -- reachability ------------------------------------------------------

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Roots plus every function transitively callable from them."""
        seen: Set[str] = set()
        frontier = [q for q in roots if q in self.functions]
        seen.update(frontier)
        while frontier:
            nxt: List[str] = []
            for qual in frontier:
                for callee in self.callees(qual):
                    if callee not in seen:
                        seen.add(callee)
                        nxt.append(callee)
            frontier = nxt
        return seen

    def call_path(self, roots: Iterable[str], dest: str
                  ) -> Optional[List[str]]:
        """Shortest root->dest call chain, for rule messages."""
        parents: Dict[str, Optional[str]] = {}
        frontier = sorted(q for q in roots if q in self.functions)
        for q in frontier:
            parents[q] = None
        while frontier:
            nxt: List[str] = []
            for qual in frontier:
                if qual == dest:
                    path = [qual]
                    while parents[path[-1]] is not None:
                        path.append(parents[path[-1]])  # type: ignore[arg-type]
                    return list(reversed(path))
                for callee in self.callees(qual):
                    if callee not in parents:
                        parents[callee] = qual
                        nxt.append(callee)
            frontier = nxt
        return None

    # -- concurrency seeds -------------------------------------------------

    def pool_submit_sites(self) -> List[PoolSubmit]:
        """Thread-pool dispatch call sites with resolved target callables."""
        out: List[PoolSubmit] = []
        for qual in sorted(self.functions):
            fn = self.functions[qual]
            info = self.modules.get(fn.module)
            if info is None or not any(
                    mod.startswith(("concurrent.futures", "multiprocessing"))
                    for mod in info.imported_modules):
                continue
            for site in fn.calls:
                if site.chain[-1] not in ("submit", "map") or \
                        len(site.chain) < 2 or not site.node.args:
                    continue
                targets = self._resolve_callable(fn, site.node.args[0])
                if targets:
                    out.append(PoolSubmit(fn, site, tuple(sorted(targets))))
        return out

    def _resolve_callable(self, fn: FunctionInfo,
                          expr: ast.AST) -> Set[str]:
        """Resolve a callable *expression* (a submit/map first argument)."""
        if isinstance(expr, ast.Lambda):
            qual = self._node_to_function.get(id(expr))
            return {qual} if qual else set()
        if isinstance(expr, ast.Name):
            return self._resolve_bare(fn, expr.id)
        if isinstance(expr, ast.Attribute):
            chain = deep_chain(expr)
            if chain is None:
                return set()
            fake = CallSite(chain=chain, lineno=expr.lineno,
                            col=expr.col_offset, node=None)  # type: ignore[arg-type]
            return self._resolve_site(fn, fake)
        return set()

    def threaded_functions(self) -> Dict[str, PoolSubmit]:
        """Functions that may execute on a pool worker -> their seed.

        The map covers every submit/map target plus its transitive
        callees; the value records the dispatch site that makes the
        function threaded (the first one found, deterministically).
        """
        if self._threaded is not None:
            return self._threaded
        threaded: Dict[str, PoolSubmit] = {}
        for submit in self.pool_submit_sites():
            for root in submit.targets:
                for qual in sorted(self.reachable([root])):
                    threaded.setdefault(qual, submit)
        self._threaded = threaded
        return threaded

    # -- watched globals ---------------------------------------------------

    def watched_globals(self) -> Dict[str, Dict[str, int]]:
        """module -> {global name -> def line} of process-wide mutables."""
        if self._watched is None:
            self._watched = {m: dict(info.watched_globals)
                             for m, info in self.modules.items()
                             if info.watched_globals}
        return self._watched

    def watched_names_for(self, module: str) -> Dict[str, str]:
        """Local names in ``module`` bound to a watched global.

        Covers the module's own watched globals plus imported aliases of
        other modules' watched globals.  Returns local name -> origin
        ("pkg.mod.NAME") for messages.
        """
        info = self.modules.get(module)
        if info is None:
            return {}
        watched = self.watched_globals()
        out: Dict[str, str] = {}
        for name in info.watched_globals:
            out[name] = f"{module}.{name}"
        for local, target in info.aliases.items():
            owner, _, attr = target.rpartition(".")
            if attr in watched.get(owner, {}):
                out[local] = target
        return out
