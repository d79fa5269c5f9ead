"""Source-to-source transformer: directives to explicitly-threaded code.

The rewriter walks the decorated object's AST, finds ``with omp("...")``
blocks and standalone ``omp("...")`` calls, and lowers each construct to
calls into the bound runtime — following the code shapes of the paper's
Figs. 2 and 3.  The package is organised like a small compiler front
end:

* :mod:`repro.transform.scope` — name-binding analysis,
* :mod:`repro.transform.astutil` — node builders, renaming, checks,
* :mod:`repro.transform.context` — transformation state and symbol gen,
* :mod:`repro.transform.datasharing` — clause-driven privatization,
* :mod:`repro.transform.rewriter` — directive dispatch,
* :mod:`repro.transform.constructs` — one lowering module per construct
  family.

Importing the package loads none of them: :mod:`repro.decorator` asks
for :func:`repro.transform.rewriter.transform_function_def` when it
misses its code cache, and :mod:`repro.api` only needs
:mod:`repro.transform.api_map`.
"""
