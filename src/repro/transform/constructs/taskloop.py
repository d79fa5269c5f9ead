"""Lowering of ``taskloop`` (OpenMP 4.5; future-work prototype).

The paper's Section V classifies ``taskloop`` as a straightforward
extension because its semantics compose existing constructs — and the
lowering shows it: the iteration space is cut into grains, each grain's
body becomes a task function (exactly the ``task`` machinery, including
``firstprivate`` capture through argument defaults), and, unless
``nogroup`` is present, a trailing ``task_wait`` provides the implicit
taskgroup join.

Generated shape::

    __omp_total = __omp__.trip_count(start, stop, step)
    __omp_grain = <grainsize | ceil(total/num_tasks) | default>
    for __omp_t in range(0, __omp_total, __omp_grain):
        def __omp_taskloop_k(__omp_lo=__omp_t):
            <data-sharing declarations>
            for i in range(start + __omp_lo * step,
                           start + min(__omp_lo + __omp_grain,
                                       __omp_total) * step, step):
                <body>
        __omp__.task_submit(__omp_taskloop_k, if_=...)
    __omp__.task_wait()      # unless nogroup
"""

from __future__ import annotations

import ast

from repro.directives.model import Directive
from repro.errors import OmpSyntaxError
from repro.transform import astutil, datasharing
from repro.transform.context import TransformContext
from repro.transform.constructs.loops import (_collect_nest,
                                              _hoist_triplets,
                                              _range_triplet)


def handle_taskloop(node: ast.With, directive: Directive,
                    ctx: TransformContext) -> list[ast.stmt]:
    from repro.transform.rewriter import transform_statements

    loop = _collect_nest(node.body, 1, directive)[0]
    astutil.check_loop_body(loop.body, directive.source)
    if not isinstance(loop.target, ast.Name):
        raise OmpSyntaxError("taskloop variable must be a simple name",
                             directive=directive.source)

    ds = datasharing.classify(node.body, directive, ctx)
    # The taskloop iteration variable is private to each task: it must
    # stay a plain local of the task function, never nonlocal/global.
    for bucket in (ds.nonlocal_names, ds.global_names):
        if loop.target.id in bucket:
            bucket.remove(loop.target.id)
    fn_name = ctx.symbols.fresh("taskloop")
    generated_locals = set(ds.privates) | set(ds.firstprivates)
    ctx.push_scope(generated_locals, node.body)
    try:
        with ctx.enter_construct("taskloop"):
            new_body = transform_statements(loop.body, ctx)
    finally:
        ctx.pop_scope()

    hoist, triplet_names = _hoist_triplets(
        [_range_triplet(loop, directive)], ctx)
    start, stop, step = triplet_names[0]

    total_name = ctx.symbols.fresh("total")
    grain_name = ctx.symbols.fresh("grain")
    cursor_name = ctx.symbols.fresh("t")
    lo_param = ctx.symbols.fresh("lo")

    stmts: list[ast.stmt] = list(hoist)
    stmts.append(astutil.assign(total_name, astutil.rt_call(
        ctx.rt_name, "trip_count", [start, stop, step])))
    stmts.append(astutil.assign(grain_name,
                                _grain_expression(directive, ctx,
                                                  total_name)))

    # Inner task function: firstprivate defaults plus the grain cursor.
    arguments = datasharing.firstprivate_params(ds)
    arguments.args.append(ast.arg(arg=lo_param))
    arguments.defaults.append(astutil.name_load(cursor_name))

    grain_end = ast.Call(
        func=astutil.name_load("min"),
        args=[ast.BinOp(left=astutil.name_load(lo_param), op=ast.Add(),
                        right=astutil.name_load(grain_name)),
              astutil.name_load(total_name)],
        keywords=[])
    task_for = ast.For(
        target=ast.Name(id=loop.target.id, ctx=ast.Store()),
        iter=ast.Call(
            func=astutil.name_load("range"),
            args=[
                ast.BinOp(left=start, op=ast.Add(),
                          right=ast.BinOp(
                              left=astutil.name_load(lo_param),
                              op=ast.Mult(), right=step)),
                ast.BinOp(left=start, op=ast.Add(),
                          right=ast.BinOp(left=grain_end, op=ast.Mult(),
                                          right=step)),
                step,
            ],
            keywords=[]),
        body=new_body, orelse=[])

    inner: list[ast.stmt] = []
    inner.extend(datasharing.sharing_declarations(ds))
    inner.extend(datasharing.sentinel_inits(ds, ctx))
    inner.append(task_for)
    fndef = ast.FunctionDef(name=fn_name, args=arguments, body=inner,
                            decorator_list=[], returns=None)

    submit_keywords: list[tuple[str, ast.expr]] = []
    if_clause = directive.clause("if")
    if if_clause is not None:
        submit_keywords.append(("if_", astutil.parse_expression(
            if_clause.expr, directive.source)))
    submit = astutil.rt_call_stmt(ctx.rt_name, "task_submit",
                                  [astutil.name_load(fn_name)],
                                  submit_keywords)
    spawn_loop = ast.For(
        target=astutil.name_store(cursor_name),
        iter=ast.Call(func=astutil.name_load("range"),
                      args=[astutil.constant(0),
                            astutil.name_load(total_name),
                            astutil.name_load(grain_name)],
                      keywords=[]),
        body=[fndef, submit], orelse=[])
    stmts.append(spawn_loop)
    if not directive.has_clause("nogroup"):
        stmts.append(astutil.rt_call_stmt(ctx.rt_name, "task_wait"))
    for stmt in stmts:
        ast.copy_location(stmt, node)
    return stmts


def _grain_expression(directive: Directive, ctx: TransformContext,
                      total_name: str) -> ast.expr:
    grainsize = directive.clause("grainsize")
    if grainsize is not None:
        expr = astutil.parse_expression(grainsize.expr, directive.source)
        return ast.Call(func=astutil.name_load("max"),
                        args=[astutil.constant(1), expr], keywords=[])
    num_tasks = directive.clause("num_tasks")
    if num_tasks is not None:
        expr = astutil.parse_expression(num_tasks.expr, directive.source)
        # ceil(total / num_tasks), floored at 1.
        ceil_div = ast.BinOp(
            left=ast.BinOp(
                left=ast.BinOp(left=astutil.name_load(total_name),
                               op=ast.Add(), right=expr),
                op=ast.Sub(), right=astutil.constant(1)),
            op=ast.FloorDiv(), right=expr)
        return ast.Call(func=astutil.name_load("max"),
                        args=[astutil.constant(1), ceil_div], keywords=[])
    return astutil.rt_call(ctx.rt_name, "taskloop_default_grain",
                           [astutil.name_load(total_name)])
