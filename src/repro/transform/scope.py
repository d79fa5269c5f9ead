"""Name-binding analysis over statement lists.

The transformer needs to know, for the body of a structured block, which
names are *assigned* (they become ``nonlocal``/``global`` when shared, or
plain locals when they are new) and which are merely *read*.  The
analysis follows Python scoping: nested ``def``/``class``/``lambda``
bodies are separate scopes and do not contribute bindings, but the
nested function's *name* is itself a binding, and comprehensions own
their targets.
"""

from __future__ import annotations

import ast
from collections import Counter
from collections.abc import Iterable

from repro.directives.parser import directive_name
from repro.transform.astutil import with_directive

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _target_names(target: ast.expr) -> Iterable[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)
    # Attribute / Subscript targets do not bind names.


class _AssignedVisitor(ast.NodeVisitor):
    """Collects the binding sites of the current scope (no descent into
    nested scopes), counted per name.

    The counts let one walk of a scope answer "which names does this
    scope bind *outside* a directive block" for every block in it: the
    block's bindings move into the generated inner function, so its own
    sites (a second, block-sized walk) are subtracted.
    """

    def __init__(self):
        self.names: Counter[str] = Counter()
        self.globals: Counter[str] = Counter()
        #: ids of the statements walked; a block whose statements are
        #: not among them contributed no sites (it sits behind a nested
        #: scope or a region-creating directive).
        self.visited: set[int] = set()

    def visit(self, node: ast.AST):
        if isinstance(node, ast.stmt):
            self.visited.add(id(node))
        return super().visit(node)

    def bound(self) -> set[str]:
        return self.names.keys() - self.globals.keys()

    def bound_outside(self, body: list[ast.stmt],
                      block: _AssignedVisitor) -> set[str]:
        """Names bound here by sites outside ``body``, whose own walk
        is ``block``."""
        if not body or id(body[0]) not in self.visited:
            return self.bound()
        return (self.names - block.names).keys() \
            - (self.globals - block.globals).keys()

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self.names.update(_target_names(target))
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.names.update(_target_names(node.target))
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.names.update(_target_names(node.target))
        if node.value is not None:
            self.visit(node.value)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self.names.update(_target_names(node.target))
        self.visit(node.value)

    def visit_For(self, node: ast.For) -> None:
        self.names.update(_target_names(node.target))
        self.visit(node.iter)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.names.update(_target_names(item.optional_vars))
        # The bodies of region-creating directives (parallel/task) move
        # into generated inner functions, so their bindings are never
        # bindings of *this* scope.  Worksharing blocks (for/sections/
        # single/...) stay in this scope and are visited normally.
        if _moves_to_inner_function(node):
            return
        for stmt in node.body:
            self.visit(stmt)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name is not None:
            self.names[node.name] += 1
        for stmt in node.body:
            self.visit(stmt)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.names[alias.asname or alias.name.split(".")[0]] += 1

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            self.names[alias.asname or alias.name] += 1

    def visit_Global(self, node: ast.Global) -> None:
        self.globals.update(node.names)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.names[node.name] += 1  # binding; body is a nested scope

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.names[node.name] += 1

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass  # nested scope

    def visit_ListComp(self, node) -> None:
        # Comprehension targets live in their own scope; only the first
        # iterable is evaluated in the enclosing scope.
        if node.generators:
            self.visit(node.generators[0].iter)

    visit_SetComp = visit_ListComp
    visit_DictComp = visit_ListComp
    visit_GeneratorExp = visit_ListComp


def bindings(stmts: Iterable[ast.stmt]) -> _AssignedVisitor:
    """Walk the statements once; the result holds what they bind."""
    visitor = _AssignedVisitor()
    for stmt in stmts:
        visitor.visit(stmt)
    return visitor


def assigned_names(stmts: Iterable[ast.stmt]) -> set[str]:
    """Names bound by the statements in their own scope."""
    return bindings(stmts).bound()


def _moves_to_inner_function(node: ast.With) -> bool:
    """Is this a ``with omp("parallel ...")`` / ``with omp("task ...")``
    block, whose body the transformer relocates into an inner function?
    """
    text = with_directive(node)
    if text is None:
        return False
    name = directive_name(text)
    return name is not None and name.split()[0] in ("parallel", "task",
                                                    "taskloop")


class _ReadVisitor(ast.NodeVisitor):
    """Collects every Name read, including inside nested scopes (a
    closure read of an outer variable still 'uses' it)."""

    def __init__(self):
        self.names: set[str] = set()

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.id)


def read_names(stmts: Iterable[ast.stmt]) -> set[str]:
    visitor = _ReadVisitor()
    for stmt in stmts:
        visitor.visit(stmt)
    return visitor.names


def function_params(node: ast.FunctionDef) -> set[str]:
    params = {arg.arg for arg in (
        node.args.posonlyargs + node.args.args + node.args.kwonlyargs)}
    if node.args.vararg is not None:
        params.add(node.args.vararg.arg)
    if node.args.kwarg is not None:
        params.add(node.args.kwarg.arg)
    return params
