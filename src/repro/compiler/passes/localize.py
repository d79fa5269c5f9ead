"""Localization of globals, builtins, and runtime methods.

Unannotated Cython still wins over CPython by short-circuiting dynamic
lookups; the bytecode analogue is replacing repeated ``LOAD_GLOBAL`` +
``LOAD_ATTR`` sequences with local variables.  Two rewrites, applied per
function scope:

* hot builtins (``range``, ``len``, ``abs``, ...) read but never bound
  in the scope are aliased to locals at function entry;
* every ``__omp__.method`` reference is bound once
  (``__omp_m = __omp__.method``) so chunk loops call a local.

The usual caveat applies (and is exactly Cython's): rebinding a builtin
or the runtime handle *mid-call* is not observed.
"""

from __future__ import annotations

import ast

from repro.transform import scope as scope_analysis

_HOT_BUILTINS = ("range", "len", "abs", "min", "max", "divmod", "sum",
                 "enumerate", "zip", "int", "float", "isinstance")


class _ScopeRewriter(ast.NodeTransformer):
    """Applies a Name/Attribute mapping without entering nested scopes."""

    def __init__(self, name_map: dict[str, str], rt_name: str,
                 attr_map: dict[str, str]):
        self.name_map = name_map
        self.rt_name = rt_name
        self.attr_map = attr_map

    def visit_FunctionDef(self, node):
        return node  # nested scopes are processed independently

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    def visit_Attribute(self, node: ast.Attribute):
        if isinstance(node.value, ast.Name) \
                and node.value.id == self.rt_name \
                and isinstance(node.ctx, ast.Load):
            alias = self.attr_map.get(node.attr)
            if alias is not None:
                return ast.copy_location(
                    ast.Name(id=alias, ctx=ast.Load()), node)
        self.generic_visit(node)
        return node

    def visit_Name(self, node: ast.Name):
        if isinstance(node.ctx, ast.Load):
            alias = self.name_map.get(node.id)
            if alias is not None:
                return ast.copy_location(
                    ast.Name(id=alias, ctx=ast.Load()), node)
        return node


class LocalizeGlobals:
    """Per-function localization driver."""

    def __init__(self, ctx):
        self.rt_name = ctx.rt_name
        self.symbols = ctx.symbols

    def run(self, node: ast.stmt) -> ast.stmt:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._process_function(node)
        else:
            self._process_container(node)
        return node

    def _process_container(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._process_function(child)
            elif not isinstance(child, ast.expr):  # defs are statements
                self._process_container(child)

    def _process_function(self, fn: ast.FunctionDef) -> None:
        # Innermost first so nested functions alias in their own scope.
        for stmt in fn.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._process_function(stmt)
            else:
                self._process_container(stmt)

        bound = scope_analysis.function_bound_names(fn)
        used_names, used_rt_attrs = _collect_uses(fn, self.rt_name)

        name_map = {
            name: self.symbols.fresh(f"b_{name}")
            for name in _HOT_BUILTINS
            if name in used_names and name not in bound
        }
        attr_map = {
            attr: self.symbols.fresh(f"rt_{attr}")
            for attr in sorted(used_rt_attrs)
        }
        if not name_map and not attr_map:
            return

        rewriter = _ScopeRewriter(name_map, self.rt_name, attr_map)
        fn.body = [rewriter.visit(stmt) for stmt in fn.body]

        prologue: list[ast.stmt] = []
        for original, alias in name_map.items():
            prologue.append(ast.Assign(
                targets=[ast.Name(id=alias, ctx=ast.Store())],
                value=ast.Name(id=original, ctx=ast.Load())))
        for attr, alias in attr_map.items():
            prologue.append(ast.Assign(
                targets=[ast.Name(id=alias, ctx=ast.Store())],
                value=ast.Attribute(
                    value=ast.Name(id=self.rt_name, ctx=ast.Load()),
                    attr=attr, ctx=ast.Load())))
        for stmt in prologue:  # every other node here is located already
            ast.fix_missing_locations(ast.copy_location(stmt, fn))
        fn.body[:0] = _after_declarations(fn.body, prologue)


def _collect_uses(fn: ast.FunctionDef,
                  rt_name: str) -> tuple[set[str], set[str]]:
    """Names and ``__omp__`` attributes read in this scope only."""
    names: set[str] = set()
    attrs: set[str] = set()

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Attribute) \
                    and isinstance(child.value, ast.Name) \
                    and child.value.id == rt_name:
                attrs.add(child.attr)
                continue
            if isinstance(child, ast.Name) and isinstance(
                    child.ctx, ast.Load):
                names.add(child.id)
            walk(child)

    for stmt in fn.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue  # a nested scope: its uses are its own
        walk(stmt)
    return names, attrs


def _after_declarations(body: list[ast.stmt],
                        prologue: list[ast.stmt]) -> list[ast.stmt]:
    """Nothing may precede nonlocal/global declarations or a docstring;
    splice the prologue right after them (the caller prepends)."""
    index = 0
    while index < len(body) and isinstance(
            body[index], (ast.Nonlocal, ast.Global)):
        index += 1
    if index == 0 and body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        index = 1
    # Move the declarations/docstring in front of the prologue by
    # rotating: caller does body[:0] = result, so return decls + prologue
    # and drop them from their old position.
    head = body[:index]
    del body[:index]
    return head + prologue
