"""Pass manager of the *Compiled*/*CompiledDT* tiers."""

from __future__ import annotations

import ast

from repro.transform.context import TransformContext


class NativeBuildFailed(Exception):
    """The C kernels of a definition could not be built.  The tree
    calls them already, so there is nothing to return: the caller
    generates the definition again without ``native_dir``."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def optimize(node: ast.stmt, ctx: TransformContext, *, typed: bool,
             debug: bool = False,
             native_dir: str | None = None) -> ast.stmt:
    """Run the optimization pipeline over a transformed definition.

    ``native_dir`` is where a typed definition's C kernels may be built
    (the directory of its cache entry); ``None`` leaves its loops
    interpreted.  The outcome is left on ``ctx.native``: what the entry
    records about the variant's shared object, ``{"pending": reason}``
    when some loop has a C form but there is no compiler to build it
    with, ``None`` when there was nothing to compile; a build that
    fails raises :class:`NativeBuildFailed`.
    """
    from repro.compiler.passes import fold, localize
    from repro.compiler.vectorize import VectorizePass

    ctx.native = None
    if typed:
        target, reason = None, ""
        if native_dir is not None:
            from repro.compiler.cbackend import NativeTarget
            target, reason = NativeTarget.probe(native_dir)
        if debug and reason:
            print(f"[omp4py:native] unavailable: {reason}")
        vectorizer = VectorizePass(ctx, debug=debug, native=target)
        node = vectorizer.run(node)
        if target is not None and target.sites:
            ctx.native, reason = target.finish()
            if ctx.native is None:
                if debug:
                    print(f"[omp4py:native] unavailable: {reason}")
                raise NativeBuildFailed(reason)
        elif native_dir is not None and vectorizer.pending:
            # Loops with a C form, no way to build them here: the first
            # process that has a compiler upgrades the entry.
            ctx.native = {"pending": reason, "retry": True}
    node = fold.FoldConstants().visit(node)
    return localize.LocalizeGlobals(ctx).run(node)
