"""Lowering of the ``task`` directive.

Structurally identical to ``parallel`` (paper Section III-E): the task
body moves into an inner function so any team thread can run it, and the
generated call is ``__omp__.task_submit`` instead of ``parallel_run``.
Data sharing follows OMP4Py's rule (variables assigned in the body that
exist outside are shared via ``nonlocal`` — this is what makes the
paper's Fig. 4 Fibonacci work); ``firstprivate`` captures values at task
*creation* time through inner-function argument defaults, which is the
clause to use for loop variables captured by tasks.
"""

from __future__ import annotations

import ast

from repro.directives.model import Directive
from repro.transform import astutil, datasharing
from repro.transform.context import TransformContext


def handle_task(node: ast.With, directive: Directive,
                ctx: TransformContext) -> list[ast.stmt]:
    from repro.transform.rewriter import transform_statements

    body = node.body
    astutil.check_no_escape(body, directive.source)
    ds = datasharing.classify(body, directive, ctx)

    fn_name = ctx.symbols.fresh("task")
    generated_locals = set(ds.privates) | set(ds.firstprivates)
    ctx.push_scope(generated_locals, body)
    try:
        with ctx.enter_construct("task"):
            new_body = transform_statements(body, ctx)
    finally:
        ctx.pop_scope()

    inner: list[ast.stmt] = []
    inner.extend(datasharing.sharing_declarations(ds))
    inner.extend(datasharing.sentinel_inits(ds, ctx))
    inner.extend(new_body)
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
    depends_in: list[str] = []
    depends_out: list[str] = []
    for clause in directive.all_clauses("depend"):
        bucket = depends_in if clause.op == "in" else depends_out
        bucket.extend(clause.vars)
    if depends_in:
        keywords.append(("depends_in", ast.Tuple(
            elts=[astutil.name_load(v) for v in depends_in],
            ctx=ast.Load())))
    if depends_out:
        keywords.append(("depends_out", ast.Tuple(
            elts=[astutil.name_load(v) for v in depends_out],
            ctx=ast.Load())))
    # The untied clause is accepted and ignored: Python threads cannot
    # migrate a suspended frame, so every task is tied (documented).
    submit = astutil.rt_call_stmt(
        ctx.rt_name, "task_submit", [astutil.name_load(fn_name)], keywords)
    result = [fndef, submit]
    for stmt in result:
        ast.copy_location(stmt, node)
    return result
