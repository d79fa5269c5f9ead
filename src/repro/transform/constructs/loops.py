"""Lowering of the ``for`` worksharing directive and ``ordered`` regions.

Follows the paper's Fig. 3: the range triplets feed ``for_bounds``,
``for_init`` binds the schedule, and a ``while __omp__.for_next(b):``
driver wraps the original ``for`` loop, now iterating ``range(b[0],
b[1])`` — preserving the built-in ``range`` for its C-level speed, as
the paper emphasises.  ``collapse`` concatenates the triplets of
perfectly nested loops and recovers the indices with ``divmod``.
"""

from __future__ import annotations

import ast

from repro.directives.model import Directive
from repro.errors import OmpSyntaxError
from repro.transform import astutil, scope
from repro.transform.context import LoopFrame, TransformContext
from repro.transform.datasharing import DataSharing, classify


def handle_for(node: ast.With, directive: Directive,
               ctx: TransformContext) -> list[ast.stmt]:
    collapse = _collapse_count(directive)
    loops = _collect_nest(node.body, collapse, directive)
    user_body = loops[-1].body
    astutil.check_loop_body(user_body, directive.source)

    ds = classify(user_body, directive, ctx, allow_lastprivate=True)
    rename_map, pre, post = _loop_privatization(ds, ctx, directive)

    # The loop variables are always privatized by renaming: OpenMP makes
    # the worksharing loop variable private regardless of its sharing in
    # the enclosing region.
    loop_vars = []
    for loop in loops:
        if not isinstance(loop.target, ast.Name):
            raise OmpSyntaxError(
                "worksharing loop variable must be a simple name",
                directive=directive.source)
        fresh = ctx.symbols.fresh(loop.target.id)
        rename_map[loop.target.id] = fresh
        loop_vars.append(fresh)

    triplets = [_range_triplet(loop, directive) for loop in loops]
    hoist, triplet_names = _hoist_triplets(triplets, ctx)

    bounds_name = ctx.symbols.fresh("bounds")
    ordered = directive.has_clause("ordered")
    nowait = directive.has_clause("nowait")
    kind, chunk_expr = _schedule_of(directive)

    linear_name = (ctx.symbols.fresh("lin") if collapse > 1
                   else loop_vars[0])
    # No scope push: the worksharing loop body stays in the enclosing
    # function; privatization here is by renaming, not by a new scope.
    ctx.loop_stack.append(LoopFrame(
        bounds_name=bounds_name, index_name=linear_name,
        has_ordered=ordered, collapsed=collapse > 1))
    try:
        with ctx.enter_construct("for"):
            new_body = transform_statements(user_body, ctx)
    finally:
        ctx.loop_stack.pop()
    new_body = astutil.rename_in(new_body, rename_map)

    stmts: list[ast.stmt] = list(hoist)
    flat: list[ast.expr] = []
    for start, stop, step in triplet_names:
        flat.extend((start, stop, step))
    stmts.append(astutil.assign(bounds_name, astutil.rt_call(
        ctx.rt_name, "for_bounds",
        [ast.List(elts=flat, ctx=ast.Load())])))
    init_keywords: list[tuple[str, ast.expr]] = [
        ("kind", astutil.constant(kind))]
    if chunk_expr is not None:
        init_keywords.append(("chunk", chunk_expr))
    if ordered:
        init_keywords.append(("ordered", astutil.constant(True)))
    if nowait:
        init_keywords.append(("nowait", astutil.constant(True)))
    stmts.append(astutil.rt_call_stmt(
        ctx.rt_name, "for_init", [astutil.name_load(bounds_name)],
        init_keywords))
    stmts.extend(pre)

    divisors_name = None
    if collapse > 1:
        divisors_name = ctx.symbols.fresh("divs")
        stmts.append(astutil.assign(divisors_name, astutil.rt_call(
            ctx.rt_name, "collapse_divisors",
            [astutil.name_load(bounds_name)])))
    inner_for = _build_driver_loop(
        ctx, bounds_name, loop_vars, linear_name, triplet_names,
        collapse, new_body, divisors_name)
    condition = astutil.rt_call(ctx.rt_name, "for_next",
                                [astutil.name_load(bounds_name)])
    stmts.append(ast.While(test=condition, body=[inner_for], orelse=[]))

    last_writeback = [s for s in post if getattr(s, "_omp_last", False)]
    other_post = [s for s in post if not getattr(s, "_omp_last", False)]
    if last_writeback:
        stmts.append(ast.If(
            test=astutil.rt_call(ctx.rt_name, "for_last",
                                 [astutil.name_load(bounds_name)]),
            body=last_writeback, orelse=[]))
    stmts.extend(other_post)
    stmts.append(astutil.rt_call_stmt(
        ctx.rt_name, "for_end", [astutil.name_load(bounds_name)]))
    for stmt in stmts:
        ast.copy_location(stmt, node)
    return stmts


def _collapse_count(directive: Directive) -> int:
    clause = directive.clause("collapse")
    if clause is None:
        return 1
    expr = astutil.parse_expression(clause.expr, directive.source)
    if not isinstance(expr, ast.Constant) or not isinstance(
            expr.value, int) or expr.value < 1:
        raise OmpSyntaxError(
            "collapse requires a positive integer literal",
            directive=directive.source)
    return expr.value


def _collect_nest(body: list[ast.stmt], collapse: int,
                  directive: Directive) -> list[ast.For]:
    loops: list[ast.For] = []
    current = body
    for level in range(collapse):
        if len(current) != 1 or not isinstance(current[0], ast.For):
            what = ("a single for loop" if level == 0
                    else f"{collapse} perfectly nested for loops")
            raise OmpSyntaxError(f"the for directive requires {what}",
                                 directive=directive.source)
        loop = current[0]
        if loop.orelse:
            raise OmpSyntaxError(
                "worksharing loops may not have an else clause",
                directive=directive.source)
        loops.append(loop)
        current = loop.body
    if collapse > 1:
        _check_rectangular(loops, directive)
    return loops


def _check_rectangular(loops: list[ast.For], directive: Directive) -> None:
    outer_vars: set[str] = set()
    for loop in loops:
        if isinstance(loop.target, ast.Name):
            iter_reads = scope.read_names([ast.Expr(value=loop.iter)])
            overlap = iter_reads & outer_vars
            if overlap:
                raise OmpSyntaxError(
                    f"collapse requires a rectangular iteration space; "
                    f"inner bounds depend on {sorted(overlap)}",
                    directive=directive.source)
            outer_vars.add(loop.target.id)


def _range_triplet(loop: ast.For,
                   directive: Directive) -> tuple[ast.expr, ...]:
    call = loop.iter
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "range" and not call.keywords):
        raise OmpSyntaxError(
            "worksharing loops must iterate over range(...)",
            directive=directive.source)
    args = call.args
    if len(args) == 1:
        return astutil.constant(0), args[0], astutil.constant(1)
    if len(args) == 2:
        return args[0], args[1], astutil.constant(1)
    if len(args) == 3:
        return tuple(args)
    raise OmpSyntaxError("range() takes 1 to 3 arguments",
                         directive=directive.source)


def _hoist_triplets(triplets, ctx: TransformContext):
    """Evaluate non-literal triplet parts once, into temporaries.

    The start/step values are needed twice (``for_bounds`` and the index
    arithmetic), so they must not be re-evaluated.
    """
    hoist: list[ast.stmt] = []
    names = []
    for start, stop, step in triplets:
        named = []
        for part in (start, stop, step):
            if isinstance(part, ast.Constant):
                named.append(part)
            else:
                temp = ctx.symbols.fresh("tri")
                hoist.append(astutil.assign(temp, part))
                named.append(astutil.name_load(temp))
        names.append(tuple(named))
    return hoist, names


def _schedule_of(directive: Directive):
    clause = directive.clause("schedule")
    if clause is None:
        return "static", None
    chunk = (astutil.parse_expression(clause.expr, directive.source)
             if clause.expr else None)
    return clause.op, chunk


def _loop_privatization(ds: DataSharing, ctx: TransformContext,
                        directive: Directive):
    """Privatize by renaming (the loop body stays in the same function).

    Returns ``(rename_map, pre_statements, post_statements)``; post
    statements carrying ``_omp_last`` are lastprivate write-backs that
    the caller guards with ``for_last``.
    """
    rename_map: dict[str, str] = {}
    pre: list[ast.stmt] = []
    post: list[ast.stmt] = []
    for name in ds.privates:
        fresh = ctx.symbols.fresh(name)
        rename_map[name] = fresh
        pre.append(astutil.assign(
            fresh, astutil.rt_attr(ctx.rt_name, "UNDEFINED")))
    for name in ds.firstprivates:
        fresh = ctx.symbols.fresh(name)
        rename_map[name] = fresh
        pre.append(astutil.assign(fresh, astutil.name_load(name)))
    for name in ds.lastprivates:
        fresh = rename_map.get(name)
        if fresh is None:
            fresh = ctx.symbols.fresh(name)
            rename_map[name] = fresh
            pre.append(astutil.assign(
                fresh, astutil.rt_attr(ctx.rt_name, "UNDEFINED")))
        writeback = astutil.assign(name, astutil.name_load(fresh))
        writeback._omp_last = True
        post.append(writeback)
    for op, var, acc in ds.reductions:
        rename_map[var] = acc
        pre.append(astutil.assign(acc, astutil.rt_call(
            ctx.rt_name, "reduction_init", [astutil.constant(op)])))
        merge = astutil.assign(var, astutil.rt_call(
            ctx.rt_name, "reduction_combine",
            [astutil.constant(op), astutil.name_load(var),
             astutil.name_load(acc)]))
        post.append(astutil.rt_call_stmt(ctx.rt_name, "mutex_lock"))
        post.append(astutil.try_finally(
            [merge], [astutil.rt_call_stmt(ctx.rt_name, "mutex_unlock")]))
    return rename_map, pre, post


def _build_driver_loop(ctx: TransformContext, bounds_name: str,
                       loop_vars: list[str], linear_name: str,
                       triplet_names, collapse: int,
                       new_body: list[ast.stmt],
                       divisors_name: str | None = None) -> ast.For:
    bounds = astutil.name_load(bounds_name)
    chunk_lo = ast.Subscript(value=bounds, slice=astutil.constant(0),
                             ctx=ast.Load())
    chunk_hi = ast.Subscript(value=astutil.name_load(bounds_name),
                             slice=astutil.constant(1), ctx=ast.Load())
    if collapse == 1:
        start, _stop, step = triplet_names[0]
        range_args = [chunk_lo, chunk_hi]
        if not (isinstance(step, ast.Constant) and step.value == 1):
            range_args.append(step)
        return ast.For(
            target=astutil.name_store(loop_vars[0]),
            iter=ast.Call(func=astutil.name_load("range"),
                          args=range_args, keywords=[]),
            body=new_body, orelse=[])

    # Collapsed: iterate the linearized space and recover the indices.
    remainder = ctx.symbols.fresh("rem")
    recovery: list[ast.stmt] = [astutil.assign(
        remainder, astutil.name_load(linear_name))]
    for level in range(collapse):
        start, _stop, step = triplet_names[level]
        if level < collapse - 1:
            quotient = ctx.symbols.fresh("q")
            divmod_call = ast.Call(
                func=astutil.name_load("divmod"),
                args=[astutil.name_load(remainder),
                      ast.Subscript(
                          value=astutil.name_load(divisors_name),
                          slice=astutil.constant(level), ctx=ast.Load())],
                keywords=[])
            recovery.append(ast.Assign(
                targets=[ast.Tuple(
                    elts=[astutil.name_store(quotient),
                          astutil.name_store(remainder)],
                    ctx=ast.Store())],
                value=divmod_call))
            index_source = quotient
        else:
            index_source = remainder
        scaled = ast.BinOp(left=astutil.name_load(index_source),
                           op=ast.Mult(), right=step)
        recovery.append(astutil.assign(
            loop_vars[level],
            ast.BinOp(left=start, op=ast.Add(), right=scaled)))
    return ast.For(
        target=astutil.name_store(linear_name),
        iter=ast.Call(func=astutil.name_load("range"),
                      args=[chunk_lo, chunk_hi], keywords=[]),
        body=recovery + new_body, orelse=[])


def handle_ordered(node: ast.With, directive: Directive,
                   ctx: TransformContext) -> list[ast.stmt]:
    if not ctx.loop_stack or not ctx.loop_stack[-1].has_ordered:
        raise OmpSyntaxError(
            "ordered region requires an enclosing for directive with "
            "the ordered clause", directive=directive.source)
    frame = ctx.loop_stack[-1]
    with ctx.enter_construct("ordered"):
        body = transform_statements(node.body, ctx)
    index = astutil.name_load(frame.index_name)
    start = astutil.rt_call_stmt(ctx.rt_name, "ordered_start",
                                 [astutil.name_load(frame.bounds_name),
                                  index])
    end = astutil.rt_call_stmt(ctx.rt_name, "ordered_end",
                               [astutil.name_load(frame.bounds_name),
                                astutil.name_load(frame.index_name)])
    result = [start, astutil.try_finally(body, [end])]
    for stmt in result:
        ast.copy_location(stmt, node)
    return result


def transform_statements(stmts, ctx):
    from repro.transform.rewriter import transform_statements as _impl
    return _impl(stmts, ctx)
