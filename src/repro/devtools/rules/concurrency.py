"""Concurrency rules CONC001-CONC003 (the static half of spotconc).

The serving front end drains its admission queue on a thread pool
while collection rounds commit on the calling thread; these rules make
the thread-safety obligations checkable instead of conventional:

* CONC001 -- a function reachable from a thread-pool ``submit``/``map``
  target mutates shared state (``self``/``cls`` attributes, module
  globals) without holding a lock;
* CONC002 -- a lock is acquired imperatively without a ``with`` block or
  an adjacent ``try``/``finally`` release (leak on exception = deadlock);
* CONC003 -- a process-wide mutable global (the plan-cache singleton,
  ``solver.STATS``, registries) is mutated outside a lock guard.

Lock detection is syntactic: a ``with`` whose context expression's
dotted chain contains a ``lock``-named segment (``self._lock``,
``STATS.lock``, ``_SHARED_LOCK``) counts as holding that lock.  The
runtime sanitizer (:mod:`repro.devtools.sanitizer`) checks the same
obligations dynamically, so a false negative here is still caught when
the code actually runs threaded.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..astutil import deep_chain
from ..findings import Finding
from ..registry import FileContext, Rule, rule

#: Builtin-collection methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "append", "extend", "add", "update", "insert", "pop", "popitem",
    "clear", "remove", "discard", "setdefault", "sort", "reverse",
})

#: Constructors exempt from the shared-write rules: the object under
#: construction has not escaped to other threads yet.
_CONSTRUCTORS = frozenset({"__init__", "__new__", "__post_init__"})


def _is_lock_expr(expr: ast.AST) -> bool:
    """Is this ``with`` context expression a lock (by naming convention)?"""
    chain = deep_chain(expr)
    if chain is None:
        return False
    return any("lock" in seg.lower() for seg in chain
               if seg not in ("self", "cls"))


@dataclass
class Mutation:
    """One in-place mutation of a dotted target inside a function."""

    node: ast.AST             #: anchor for the finding location
    chain: Tuple[str, ...]    #: dotted chain of the mutated object
    kind: str                 #: assign / augassign / delete / call
    locked: bool              #: inside a ``with <lock>`` block

    @property
    def base(self) -> str:
        return self.chain[0]

    def display(self) -> str:
        return ".".join(self.chain)


def scan_mutations(fn_node: ast.AST) -> Tuple[List[Mutation], Set[str],
                                              Set[str]]:
    """(mutations, global-declared names, locally-bound names) of a scope.

    Walks one function body only -- nested defs and lambdas are separate
    scopes (the call graph registers them as functions of their own).
    """
    mutations: List[Mutation] = []
    global_decls: Set[str] = set()
    local_names: Set[str] = set()

    args = getattr(fn_node, "args", None)
    if args is not None:
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            local_names.add(arg.arg)
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                local_names.add(extra.arg)

    def record(target: ast.AST, node: ast.AST, kind: str,
               locked: bool) -> None:
        if isinstance(target, ast.Name):
            local_names.add(target.id)
            if target.id in global_decls:
                mutations.append(Mutation(node, (target.id,), kind, locked))
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                record(element, node, kind, locked)
            return
        if isinstance(target, ast.Starred):
            record(target.value, node, kind, locked)
            return
        if isinstance(target, ast.Subscript):
            chain = deep_chain(target.value)
        elif isinstance(target, ast.Attribute):
            chain = deep_chain(target)
        else:
            return
        if chain is not None:
            mutations.append(Mutation(node, chain, kind, locked))

    def visit(node: ast.AST, locked: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)) and node is not fn_node:
            return
        if isinstance(node, ast.Global):
            global_decls.update(node.names)
        elif isinstance(node, ast.Nonlocal):
            local_names.update(node.names)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            held = locked or any(_is_lock_expr(item.context_expr)
                                 for item in node.items)
            for item in node.items:
                visit(item.context_expr, locked)
                if item.optional_vars is not None:
                    record(item.optional_vars, item.optional_vars,
                           "assign", locked)
            for child in node.body:
                visit(child, held)
            return
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                record(target, node, "assign", locked)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            record(node.target, node, "assign", locked)
        elif isinstance(node, ast.AugAssign):
            record(node.target, node, "augassign", locked)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                record(target, node, "delete", locked)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            record(node.target, node.target, "assign", locked)
        elif isinstance(node, ast.NamedExpr):
            record(node.target, node, "assign", locked)
        elif isinstance(node, ast.comprehension):
            record(node.target, node.target, "assign", locked)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            local_names.add(node.name)
        elif isinstance(node, ast.Call):
            chain = deep_chain(node.func)
            if chain is not None and len(chain) > 1 and \
                    chain[-1] in MUTATOR_METHODS:
                mutations.append(Mutation(node, chain[:-1], "call", locked))
        for child in ast.iter_child_nodes(node):
            visit(child, locked)

    for child in ast.iter_child_nodes(fn_node):
        visit(child, False)
    return mutations, global_decls, local_names


def _shared_mutations(fn, module_globals: Set[str]) -> Iterator[Mutation]:
    """Mutations of state visible outside one thread's stack."""
    if fn.name in _CONSTRUCTORS:
        return
    mutations, global_decls, local_names = scan_mutations(fn.node)
    for mutation in mutations:
        base = mutation.base
        if base in ("self", "cls"):
            yield mutation
        elif base in global_decls:
            yield mutation
        elif base in module_globals and base not in local_names and \
                len(mutation.chain) > 1:
            yield mutation


@rule
class SharedWriteRule(Rule):
    code = "CONC001"
    name = "unlocked-shared-write"
    description = ("shared attribute mutated in thread-pool-reachable code "
                   "without holding a lock")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        graph = ctx.project
        if graph is None:
            return
        threaded = graph.threaded_functions()
        module_info = graph.modules.get(ctx.module)
        module_globals = module_info.global_names if module_info else set()
        for fn in graph.functions_in_module(ctx.module):
            seed = threaded.get(fn.qualname)
            if seed is None:
                continue
            for mutation in _shared_mutations(fn, module_globals):
                if mutation.locked:
                    continue
                yield ctx.finding(
                    self, mutation.node,
                    f"{mutation.display()} mutated in {fn.qualname}, which "
                    f"can run on a pool worker (dispatched at "
                    f"{seed.where()}); hold a threading.Lock "
                    f"(with self._lock:) or keep the state thread-local")


@rule
class LockReleaseRule(Rule):
    code = "CONC002"
    name = "lock-release-discipline"
    description = ("lock acquired without a with-statement or try/finally "
                   "release; an exception leaks the lock")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        parents: Dict[int, ast.AST] = {}
        for node in ast.walk(ctx.tree):
            for child in ast.iter_child_nodes(node):
                parents[id(child)] = node
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = deep_chain(node.func)
            if chain is None or len(chain) < 2 or chain[-1] != "acquire":
                continue
            receiver = chain[:-1]
            if not any("lock" in seg.lower() for seg in receiver
                       if seg not in ("self", "cls")):
                continue
            if self._released_properly(node, receiver, parents):
                continue
            yield ctx.finding(
                self, node,
                f"{'.'.join(receiver)}.acquire() without `with` or an "
                f"adjacent try/finally release; use `with "
                f"{'.'.join(receiver)}:` so exceptions cannot leak the lock")

    def _released_properly(self, call: ast.Call, receiver: Tuple[str, ...],
                           parents: Dict[int, ast.AST]) -> bool:
        # the statement containing the acquire call
        stmt: Optional[ast.AST] = call
        while stmt is not None and not isinstance(stmt, ast.stmt):
            stmt = parents.get(id(stmt))
        if stmt is None:
            return False
        # case A: inside a try whose finally releases the same lock
        node: Optional[ast.AST] = stmt
        while node is not None:
            parent = parents.get(id(node))
            if isinstance(parent, ast.Try) and node in parent.body and \
                    self._finally_releases(parent, receiver):
                return True
            node = parent
        # case B: the next sibling statement is such a try
        parent = parents.get(id(stmt))
        if parent is None:
            return False
        for field_name in ("body", "orelse", "finalbody"):
            block = getattr(parent, field_name, None)
            if not isinstance(block, list) or stmt not in block:
                continue
            index = block.index(stmt)
            if index + 1 < len(block):
                nxt = block[index + 1]
                if isinstance(nxt, ast.Try) and \
                        self._finally_releases(nxt, receiver):
                    return True
        return False

    @staticmethod
    def _finally_releases(try_node: ast.Try,
                          receiver: Tuple[str, ...]) -> bool:
        for stmt in try_node.finalbody:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    chain = deep_chain(sub.func)
                    if chain == receiver + ("release",):
                        return True
        return False


@rule
class GlobalGuardRule(Rule):
    code = "CONC003"
    name = "unguarded-global-mutation"
    description = ("process-wide mutable global mutated outside a lock "
                   "guard")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        graph = ctx.project
        if graph is None:
            return
        watched = graph.watched_names_for(ctx.module)
        module_info = graph.modules.get(ctx.module)
        class_names = module_info.class_names if module_info else set()
        aliases = module_info.aliases if module_info else {}
        for fn in graph.functions_in_module(ctx.module):
            mutations, global_decls, local_names = scan_mutations(fn.node)
            for mutation in mutations:
                if mutation.locked:
                    continue
                base = mutation.base
                if base not in ("self", "cls") and base in local_names \
                        and base not in global_decls:
                    continue
                if base in watched:
                    yield ctx.finding(
                        self, mutation.node,
                        f"process-wide mutable global {watched[base]} "
                        f"mutated in {fn.qualname} outside a lock guard; "
                        f"wrap the mutation in `with <lock>:` or justify "
                        f"with a suppression")
                elif self._is_class_attr_store(mutation, class_names,
                                               aliases):
                    yield ctx.finding(
                        self, mutation.node,
                        f"class attribute {mutation.display()} assigned in "
                        f"{fn.qualname}: class state is process-wide; guard "
                        f"the mutation with a lock")

    @staticmethod
    def _is_class_attr_store(mutation: Mutation, class_names: Set[str],
                             aliases: Dict[str, str]) -> bool:
        if mutation.kind == "call" or len(mutation.chain) < 2:
            return False
        base = mutation.chain[0]
        if base == "cls":
            return True
        if base in class_names:
            return True
        target = aliases.get(base, "")
        leaf = target.rpartition(".")[2]
        return bool(leaf[:1].isupper()) if leaf else False
