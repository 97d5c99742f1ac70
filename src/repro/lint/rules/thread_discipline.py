"""R009 — thread-shared-state discipline: cross-thread writes take a lock.

A ``repro.serve`` worker answers requests on handler threads that share
one ``StoreApp`` and one store, and any class that hands work to a
``threading.Thread`` (say, a writer that flushes on a worker thread while
the caller keeps appending) shares its attributes with that thread.  The
invariant that keeps such code safe is simple and easy to erode in review:
**an attribute written both by a thread target and by caller-thread methods
must be guarded by a shared lock** (or not shared at all — a thread target
that captures only locals needs no lock).

For every class that starts a ``threading.Thread`` whose target is one of
its own methods or a nested function, the rule intersects the
``self.X = ...`` write sets of the thread target (plus any ``nonlocal``
rebinds) against the write sets of the class's other methods, and flags
attributes in the intersection unless **every** write happens under
``with self.<lock>`` for a lock-like attribute (assigned
``threading.Lock()``/``RLock()`` or named ``*lock*``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import Finding, Project, Rule, dotted_name
from repro.lint.graph import ClassInfo, ProjectGraph
from repro.lint.rules.fork_safety import _walk_own

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

_LOCK_FACTORIES = {"threading.Lock", "threading.RLock", "threading.Condition"}


class ThreadDisciplineRule(Rule):
    id = "R009"
    title = "attributes shared across threads are lock-guarded"

    scope = "src/repro"

    def check(self, project: Project) -> Iterator[Finding]:
        graph = project.graph(self.scope)
        for dotted in sorted(graph.classes):
            info = graph.classes[dotted]
            if info.module.relpath.startswith("src/repro/lint/"):
                continue
            yield from self._check_class(graph, info)

    def _check_class(self, graph: ProjectGraph, info: ClassInfo) -> Iterator[Finding]:
        locks = _lock_attributes(graph, info)
        for method_name, method in sorted(info.methods.items()):
            for call, target in _thread_starts(graph, info, method):
                yield from self._check_thread(
                    graph, info, locks, method_name, call, target
                )

    def _check_thread(
        self,
        graph: ProjectGraph,
        info: ClassInfo,
        locks: Set[str],
        spawning_method: str,
        call: ast.Call,
        target: ast.AST,
    ) -> Iterator[Finding]:
        thread_writes = _self_writes(target, locks)
        # a thread target calling self.helper() inherits the helper's writes
        for helper in _self_calls(target):
            helper_def = info.methods.get(helper)
            if helper_def is not None:
                for attr, guarded in _self_writes(helper_def, locks).items():
                    thread_writes[attr] = thread_writes.get(attr, True) and guarded

        caller_writes: Dict[str, bool] = {}
        target_names = {getattr(target, "name", None)}
        for method_name, method in info.methods.items():
            if method is target or method_name in target_names:
                continue
            if method_name == "__init__":
                continue  # runs before any thread exists
            for attr, guarded in _self_writes(method, locks).items():
                if attr in caller_writes:
                    caller_writes[attr] = caller_writes[attr] and guarded
                else:
                    caller_writes[attr] = guarded

        shared = sorted(set(thread_writes) & set(caller_writes))
        unguarded = [
            attr
            for attr in shared
            if not (thread_writes[attr] and caller_writes[attr])
        ]
        if not unguarded:
            return
        label = getattr(target, "name", "<lambda>")
        yield self.finding(
            info.module,
            call.lineno,
            f"attribute(s) {', '.join(repr(a) for a in unguarded)} of "
            f"{info.name} are written by both the thread target "
            f"'{label}' and caller-thread methods without a shared lock",
            hint="guard every write with `with self._lock:` (a "
            "threading.Lock attribute), or restructure so the thread "
            "only touches locals like the shard seal thread does",
        )


# -- helpers -------------------------------------------------------------------


def _self_calls(func: ast.AST) -> Set[str]:
    """Names of ``self.helper()`` methods invoked inside *func*."""
    names: Set[str] = set()
    raw_body = getattr(func, "body", [])
    body = raw_body if isinstance(raw_body, list) else [raw_body]
    for element in body:
        for node in ast.walk(element):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                names.add(node.func.attr)
    return names


def _lock_attributes(graph: ProjectGraph, info: ClassInfo) -> Set[str]:
    """Attributes that plausibly hold a lock: assigned from
    ``threading.Lock()``-style factories, or named like one."""
    locks: Set[str] = set()
    for attr, value, _line in info.attr_assignments:
        if "lock" in attr.lower():
            locks.add(attr)
            continue
        if isinstance(value, ast.Call):
            callee = dotted_name(value.func)
            if callee is not None:
                resolved = graph.resolve(info.module.dotted, callee)
                if resolved in _LOCK_FACTORIES:
                    locks.add(attr)
    return locks


def _thread_starts(
    graph: ProjectGraph, info: ClassInfo, method: ast.AST
) -> Iterator[Tuple[ast.Call, ast.AST]]:
    """(thread-construction call, resolvable target def) pairs in *method*.

    Targets we can analyze: ``self.method`` and nested functions defined in
    the same method.  Module-level or foreign targets are skipped — their
    writes cannot alias this class's attributes through ``self``.
    """
    nested: Dict[str, ast.AST] = {}
    for node in _walk_own(getattr(method, "body", [])):
        if isinstance(node, _DEFS) and node is not method:
            nested[node.name] = node
    for node in _walk_own(getattr(method, "body", [])):
        if not isinstance(node, ast.Call):
            continue
        callee = dotted_name(node.func)
        if callee is None:
            continue
        if graph.resolve(info.module.dotted, callee) != "threading.Thread":
            continue
        target = _thread_target(node)
        if target is None:
            continue
        if isinstance(target, ast.Name) and target.id in nested:
            yield node, nested[target.id]
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and target.attr in info.methods
        ):
            yield node, info.methods[target.attr]
        elif isinstance(target, ast.Lambda):
            yield node, target


def _thread_target(call: ast.Call) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg == "target":
            return keyword.value
    if call.args:
        return call.args[0]
    return None


def _self_writes(func: ast.AST, locks: Set[str]) -> Dict[str, bool]:
    """attr -> all-writes-guarded?, for ``self.X = ...``/``self.X += ...``
    and ``nonlocal``-style rebinds inside *func* (descending into nested
    defs: a closure's writes still run on this thread)."""
    writes: Dict[str, bool] = {}
    guarded_ids = _lock_guarded_ids(func, locks)
    raw_body = getattr(func, "body", [])
    body = raw_body if isinstance(raw_body, list) else [raw_body]
    for element in body:
        for node in ast.walk(element):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attr = target.attr
                    guarded = id(node) in guarded_ids
                    writes[attr] = writes.get(attr, True) and guarded
    return writes


def _lock_guarded_ids(func: ast.AST, locks: Set[str]) -> Set[int]:
    """ids of nodes lexically inside ``with self.<lock>`` blocks."""
    guarded: Set[int] = set()
    raw_body = getattr(func, "body", [])
    body = raw_body if isinstance(raw_body, list) else [raw_body]
    for element in body:
        for node in ast.walk(element):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            if not any(
                _is_lock_expr(item.context_expr, locks) for item in node.items
            ):
                continue
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    guarded.add(id(sub))
    return guarded


def _is_lock_expr(expr: ast.expr, locks: Set[str]) -> bool:
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr in locks or "lock" in expr.attr.lower()
    return False
