"""AST data-flow helpers for the linter.

Three ingredients the rule engine needs beyond what
:mod:`repro.transform.scope` already provides:

* directive discovery — which functions contain ``omp("...")`` markers,
* an evaluation-ordered *first use* analysis (read vs. write) for the
  private-use-before-init rule, and
* write-site extraction: the ``Name`` stores a statement performs in
  its own scope, in source order.

The first-use walk is deliberately optimistic: an assignment on *any*
path counts as an assignment, so conditional initialisation is never
flagged.  Races are reported by the sibling rule engine only when a
write is provably to a shared variable and provably unprotected.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.transform.astutil import directive_text
from repro.transform.scope import _target_names

_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                  ast.ClassDef)

#: Runtime-library lock calls the race rule treats as protection.
LOCK_ACQUIRE = frozenset({"omp_set_lock", "omp_set_nest_lock"})
LOCK_RELEASE = frozenset({"omp_unset_lock", "omp_unset_nest_lock"})


def contains_directives(funcdef: ast.FunctionDef) -> bool:
    """Does the function body mention any omp directive marker?"""
    for node in ast.walk(funcdef):
        if isinstance(node, ast.Call) and directive_text(node) is not None:
            return True
    return False


def api_call_name(stmt: ast.stmt) -> str | None:
    """The ``omp_*`` function name of a bare call statement, if any."""
    if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value,
                                                        ast.Call):
        return None
    func = stmt.value.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def stored_names(stmt: ast.stmt) -> Iterator[tuple[str, ast.AST]]:
    """``(name, node)`` pairs this statement *itself* rebinds.

    Covers assignment statements, ``for`` targets, ``with ... as``
    bindings and walrus expressions anywhere in the statement's own
    expressions.  Does not descend into nested statement bodies (the
    walker recurses those itself) or nested scopes.
    """
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            for name in _target_names(target):
                yield name, stmt
        yield from _walrus_stores(stmt.value)
    elif isinstance(stmt, ast.AugAssign):
        for name in _target_names(stmt.target):
            yield name, stmt
        yield from _walrus_stores(stmt.value)
    elif isinstance(stmt, ast.AnnAssign):
        for name in _target_names(stmt.target):
            yield name, stmt
        if stmt.value is not None:
            yield from _walrus_stores(stmt.value)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        for name in _target_names(stmt.target):
            yield name, stmt
        yield from _walrus_stores(stmt.iter)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            yield from _walrus_stores(item.context_expr)
            if item.optional_vars is not None:
                for name in _target_names(item.optional_vars):
                    yield name, stmt
    elif isinstance(stmt, (ast.Expr, ast.Return, ast.If, ast.While)):
        expr = stmt.value if isinstance(stmt, (ast.Expr, ast.Return)) \
            else stmt.test
        if expr is not None:
            yield from _walrus_stores(expr)


def _walrus_stores(expr: ast.expr) -> Iterator[tuple[str, ast.AST]]:
    for node in ast.walk(expr):
        if isinstance(node, ast.NamedExpr):
            for name in _target_names(node.target):
                yield name, node
        elif isinstance(node, _NESTED_SCOPES):
            return


# ----------------------------------------------------------------------
# Evaluation-ordered first-use analysis.

_READ, _WRITE = "read", "write"


def first_use(stmts: Iterable[ast.stmt], name: str) -> str | None:
    """``"read"``/``"write"``/``None``: how ``name`` is first used.

    Statements are scanned in order; within a statement, children are
    visited in evaluation order (an ``Assign`` evaluates its value
    before binding its targets, an ``AugAssign`` reads its target
    first).  A use inside a nested ``def``/``class``/``lambda`` counts
    as a read — the closure observes whatever the region bound.
    """
    for stmt in stmts:
        use = _first_use_node(stmt, name)
        if use is not None:
            return use
    return None


def _first_use_node(node: ast.AST, name: str) -> str | None:
    if isinstance(node, ast.Name):
        if node.id != name:
            return None
        return _WRITE if isinstance(node.ctx, (ast.Store, ast.Del)) \
            else _READ
    if isinstance(node, _NESTED_SCOPES):
        # The nested scope reads the outer binding at call time (via a
        # closure) but never rebinds it here; its *name*, though, is a
        # binding of this scope.
        if getattr(node, "name", None) == name:
            return _WRITE
        return _READ if _reads_anywhere(node, name) else None
    if isinstance(node, ast.Assign):
        return _first_use_children(name, node.value, *node.targets)
    if isinstance(node, ast.AnnAssign):
        children = [c for c in (node.value, node.target) if c is not None]
        return _first_use_children(name, *children)
    if isinstance(node, ast.AugAssign):
        # target op= value: the target is read before it is written.
        load = ast.Name(id=node.target.id, ctx=ast.Load()) \
            if isinstance(node.target, ast.Name) else node.target
        return _first_use_children(name, load, node.value, node.target)
    if isinstance(node, ast.NamedExpr):
        return _first_use_children(name, node.value, node.target)
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return _first_use_children(name, node.iter, node.target,
                                   *node.body, *node.orelse)
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                         ast.DictComp)):
        # Comprehensions own their targets; a mention of ``name`` in
        # their expressions is at most a read of the outer binding.
        return _READ if _reads_anywhere(node, name) else None
    return _first_use_children(name, *ast.iter_child_nodes(node))


def _first_use_children(name: str, *children: ast.AST) -> str | None:
    for child in children:
        use = _first_use_node(child, name)
        if use is not None:
            return use
    return None


def _reads_anywhere(node: ast.AST, name: str) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id == name
               for sub in ast.walk(node))
