"""Lowering of ``sections``/``section``.

As the paper describes, sections work like a dynamically scheduled loop
over fixed sequence ids: a shared counter hands out ids, and the thread
whose claimed id matches a section executes it — each section exactly
once.
"""

from __future__ import annotations

import ast

from repro.directives.model import Directive
from repro.errors import OmpSyntaxError
from repro.transform import astutil
from repro.transform.context import TransformContext
from repro.transform.datasharing import classify
from repro.transform.constructs.loops import _loop_privatization


def handle_sections(node: ast.With, directive: Directive,
                    ctx: TransformContext) -> list[ast.stmt]:
    from repro.transform.rewriter import (_directive_of_with,
                                          transform_statements)

    section_bodies: list[list[ast.stmt]] = []
    for stmt in node.body:
        inner = None
        if isinstance(stmt, ast.With):
            inner = _directive_of_with(stmt)
        if inner is None or inner.name != "section":
            raise OmpSyntaxError(
                "a sections block may contain only 'with omp(\"section\")' "
                "blocks", directive=directive.source)
        astutil.check_no_escape(stmt.body, directive.source)
        section_bodies.append(stmt.body)
    if not section_bodies:
        raise OmpSyntaxError("sections requires at least one section",
                             directive=directive.source)

    all_stmts = [s for body in section_bodies for s in body]
    ds = classify(all_stmts, directive, ctx, allow_lastprivate=True)
    rename_map, pre, post = _loop_privatization(ds, ctx, directive)

    with ctx.enter_construct("sections"):
        transformed = [transform_statements(body, ctx)
                       for body in section_bodies]
    transformed = [astutil.rename_in(body, rename_map)
                   for body in transformed]

    state_name = ctx.symbols.fresh("sections")
    sid_name = ctx.symbols.fresh("sid")

    stmts: list[ast.stmt] = [astutil.assign(
        state_name, astutil.rt_call(ctx.rt_name, "sections_begin",
                                    [astutil.constant(
                                        len(section_bodies))]))]
    stmts.extend(pre)

    # while True: sid = next(); if sid < 0: break; dispatch on sid.
    dispatch: ast.stmt | None = None
    for index in range(len(transformed) - 1, -1, -1):
        test = ast.Compare(left=astutil.name_load(sid_name),
                           ops=[ast.Eq()],
                           comparators=[astutil.constant(index)])
        dispatch = ast.If(test=test, body=transformed[index],
                          orelse=[dispatch] if dispatch is not None else [])
    loop_body: list[ast.stmt] = [
        astutil.assign(sid_name, astutil.rt_call(
            ctx.rt_name, "sections_next",
            [astutil.name_load(state_name)])),
        ast.If(test=ast.Compare(left=astutil.name_load(sid_name),
                                ops=[ast.Lt()],
                                comparators=[astutil.constant(0)]),
               body=[ast.Break()], orelse=[]),
        dispatch,
    ]
    stmts.append(ast.While(test=astutil.constant(True), body=loop_body,
                           orelse=[]))

    last_writeback = [s for s in post if getattr(s, "_omp_last", False)]
    other_post = [s for s in post if not getattr(s, "_omp_last", False)]
    if last_writeback:
        stmts.append(ast.If(
            test=astutil.rt_call(ctx.rt_name, "sections_last",
                                 [astutil.name_load(state_name)]),
            body=last_writeback, orelse=[]))
    stmts.extend(other_post)
    stmts.append(astutil.rt_call_stmt(
        ctx.rt_name, "sections_end", [astutil.name_load(state_name)],
        [("nowait", astutil.constant(directive.has_clause("nowait")))]))
    for stmt in stmts:
        ast.copy_location(stmt, node)
    return stmts
