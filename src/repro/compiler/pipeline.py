"""Pass manager for the native-compilation simulation."""

from __future__ import annotations

import ast

from repro.transform.context import TransformContext


def optimize(node: ast.stmt, ctx: TransformContext, *, typed: bool,
             options: dict, debug: bool = False) -> ast.stmt:
    """Run the optimization pipeline over a transformed definition."""
    from repro.compiler.passes import fold, localize
    from repro.compiler.vectorize import VectorizePass

    if typed:
        vectorizer = VectorizePass(ctx, options=options, debug=debug)
        node = vectorizer.run(node)
    node = fold.FoldConstants().visit(node)
    return localize.LocalizeGlobals(ctx).run(node)
