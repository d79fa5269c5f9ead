"""Lowering of ``parallel`` and the combined parallel worksharing forms.

Follows the paper's Fig. 2: the block body moves into an inner function;
shared assigned variables become ``nonlocal``; reduction variables are
replaced by private accumulators merged under the team mutex; the region
is launched with ``__omp__.parallel_run``.
"""

from __future__ import annotations

import ast

from repro.directives.model import Clause, Directive
from repro.errors import OmpSyntaxError
from repro.transform import astutil, datasharing
from repro.transform.context import TransformContext

#: Clauses that belong to the ``parallel`` half of a combined directive.
_PARALLEL_CLAUSES = frozenset(
    {"if", "num_threads", "default", "private", "firstprivate", "shared",
     "copyin", "reduction"})


def handle_parallel(node: ast.With, directive: Directive,
                    ctx: TransformContext) -> list[ast.stmt]:
    body = node.body
    astutil.check_no_escape(body, directive.source)
    ds = datasharing.classify(body, directive, ctx)

    fn_name = ctx.symbols.fresh("parallel")
    generated_locals = (set(ds.privates) | set(ds.firstprivates)
                        | {acc for _op, _var, acc in ds.reductions})
    ctx.push_scope(generated_locals, body)
    try:
        with ctx.enter_construct("parallel"):
            new_body = transform_statements(body, ctx)
    finally:
        ctx.pop_scope()
    new_body = astutil.rename_in(new_body, ds.rename_map)

    inner: list[ast.stmt] = []
    inner.extend(datasharing.sharing_declarations(ds))
    inner.extend(datasharing.sentinel_inits(ds, ctx))
    inner.extend(datasharing.reduction_inits(ds, ctx))
    inner.extend(new_body)
    inner.extend(datasharing.reduction_merges(ds, ctx))
    if not inner:
        inner.append(ast.Pass())

    fndef = ast.FunctionDef(
        name=fn_name, args=datasharing.firstprivate_params(ds),
        body=inner, decorator_list=[], returns=None)

    keywords: list[tuple[str, ast.expr]] = []
    if_clause = directive.clause("if")
    if if_clause is not None:
        keywords.append(("if_", astutil.parse_expression(
            if_clause.expr, directive.source)))
    nt_clause = directive.clause("num_threads")
    if nt_clause is not None:
        keywords.append(("num_threads", astutil.parse_expression(
            nt_clause.expr, directive.source)))
    if ds.copyin:
        keys = []
        for name in ds.copyin:
            key = ctx.threadprivate.get(name)
            if key is None:
                raise OmpSyntaxError(
                    f"copyin variable {name!r} is not threadprivate",
                    directive=directive.source)
            keys.append(astutil.constant(key))
        keywords.append(("copyin", ast.Tuple(elts=keys, ctx=ast.Load())))

    launch = astutil.rt_call_stmt(
        ctx.rt_name, "parallel_run", [astutil.name_load(fn_name)], keywords)
    result = [fndef, launch]
    for stmt in result:
        ast.copy_location(stmt, node)
    return result


def _split_combined(directive: Directive, ws_name: str,
                    ws_extra: frozenset[str]) -> tuple[Directive, Directive]:
    """Split a combined directive's clauses between its two halves."""
    parallel_clauses: list[Clause] = []
    ws_clauses: list[Clause] = []
    for clause in directive.clauses:
        if clause.name in _PARALLEL_CLAUSES:
            # Reductions of a combined construct are applied at the
            # region level (Fig. 2's shape): privatized for the whole
            # region, merged once at its end.
            parallel_clauses.append(clause)
        if clause.name in ws_extra:
            ws_clauses.append(clause)
    # The region's join barrier makes the worksharing barrier redundant.
    ws_clauses.append(Clause("nowait"))
    outer = Directive(name="parallel", clauses=tuple(parallel_clauses),
                      source=directive.source)
    inner = Directive(name=ws_name, clauses=tuple(ws_clauses),
                      source=directive.source)
    return outer, inner


def _handle_combined(node: ast.With, directive: Directive,
                     ctx: TransformContext, ws_name: str,
                     ws_extra: frozenset[str]) -> list[ast.stmt]:
    from repro.transform.rewriter import PARSED_ATTR

    outer, inner = _split_combined(directive, ws_name, ws_extra)
    synthetic = ast.With(
        items=[ast.withitem(
            context_expr=ast.Call(
                func=astutil.name_load("omp"),
                args=[astutil.constant(str(inner))], keywords=[]),
            optional_vars=None)],
        body=node.body)
    setattr(synthetic, PARSED_ATTR, inner)
    ast.copy_location(synthetic, node)
    wrapper = ast.With(items=node.items, body=[synthetic])
    ast.copy_location(wrapper, node)
    return handle_parallel(wrapper, outer, ctx)


def handle_parallel_for(node: ast.With, directive: Directive,
                        ctx: TransformContext) -> list[ast.stmt]:
    return _handle_combined(
        node, directive, ctx, "for",
        frozenset({"schedule", "collapse", "ordered", "lastprivate"}))


def handle_parallel_sections(node: ast.With, directive: Directive,
                             ctx: TransformContext) -> list[ast.stmt]:
    return _handle_combined(node, directive, ctx, "sections",
                            frozenset({"lastprivate"}))


def transform_statements(stmts, ctx):
    from repro.transform.rewriter import transform_statements as _impl
    return _impl(stmts, ctx)
