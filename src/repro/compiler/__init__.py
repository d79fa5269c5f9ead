"""The *Compiled*/*CompiledDT* pipeline (the paper's Cython stage).

``optimize`` receives the already-directive-lowered AST of a function or
class and returns a faster equivalent:

* untyped (*Compiled*) — AST optimization passes that remove interpreter
  dispatch overhead (builtin/global localization, constant folding,
  runtime-call binding), mirroring what Cython achieves on unannotated
  code;
* typed (*CompiledDT*) — additionally, ``int``/``float`` annotations
  seed a type inference over worksharing chunk loops, and every loop
  that type-checks becomes one C function per site, built with the
  system's C compiler into a shared object kept beside the cache entry
  and called once per chunk with the GIL released
  (:mod:`repro.compiler.cbackend`) — the native loops typed Cython
  emits.  The loop as written stays behind every kernel call as its
  guard branch, and without a compiler or a cache directory it is all
  there is: typed code then runs as *Compiled* code
  (:mod:`repro.compiler.vectorize`).
"""

from repro.compiler.pipeline import NativeBuildFailed, optimize

__all__ = ["NativeBuildFailed", "optimize"]
