"""The *CompiledDT* pipeline (the paper's typed Cython stage).

``optimize`` receives the already-directive-lowered AST of a function or
class and returns it with its typed loops lowered: ``int``/``float``
annotations seed a type inference over worksharing chunk loops, and
every loop that type-checks becomes one C function per site, built with
the system's C compiler into a shared object kept beside the cache entry
and called once per chunk with the GIL released
(:mod:`repro.compiler.cbackend`) — the native loops typed Cython emits.
The loop as written stays behind every kernel call as its guard branch,
and without a compiler or a cache directory it is all there is
(:mod:`repro.compiler.vectorize`).

*Compiled* mode has no pass of its own: it runs *Hybrid*'s generated
code.  Untyped Cython's gain is the interpreter dispatch it removes, and
on CPython 3.11 the specialising interpreter already caches the global
and attribute lookups a bytecode pass could hoist (DESIGN.md §2,
"Compiled ≡ Hybrid").
"""

from repro.compiler.pipeline import NativeBuildFailed, optimize

__all__ = ["NativeBuildFailed", "optimize"]
