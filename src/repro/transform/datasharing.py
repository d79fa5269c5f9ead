"""Clause-driven data-sharing classification and privatization codegen.

Implements the variable rules of the paper's Section III-C: variables
defined before a block are shared by default (assigned ones become
``nonlocal``/``global`` in the generated inner function), variables first
assigned inside are thread-local, ``private`` copies start undefined,
``firstprivate`` copies capture the outer value (via an inner-function
default argument, evaluated at creation time), and ``reduction``
variables are replaced by renamed private accumulators merged under the
team mutex at the end of the region (Fig. 2).
"""

from __future__ import annotations

import ast
import dataclasses

from repro.directives.model import Directive
from repro.errors import OmpSyntaxError
from repro.transform import astutil, scope
from repro.transform.api_map import OMP_API_METHODS
from repro.transform.context import TransformContext

#: Directive machinery, not user variables: the ``omp`` marker (whose
#: calls the transformation removes) and the OpenMP API functions (which
#: are rebound to the runtime handle).
_EXEMPT_NAMES = frozenset({"omp"}) | frozenset(OMP_API_METHODS)


@dataclasses.dataclass
class DataSharing:
    """Resolved data-sharing of one parallel/task/worksharing block."""

    privates: list[str]
    firstprivates: list[str]
    lastprivates: list[str]
    #: (operator, shared variable name, accumulator name) triples.
    reductions: list[tuple[str, str, str]]
    shared: list[str]
    copyin: list[str]
    #: Names needing ``nonlocal`` in the generated inner function.
    nonlocal_names: list[str]
    #: Names needing ``global`` in the generated inner function.
    global_names: list[str]

    @property
    def rename_map(self) -> dict[str, str]:
        return {var: acc for _op, var, acc in self.reductions}


def classify(body: list[ast.stmt], directive: Directive,
             ctx: TransformContext, *,
             allow_lastprivate: bool = False) -> DataSharing:
    """Resolve every variable's sharing for a block-creating construct."""
    privates = list(directive.clause_vars("private"))
    firstprivates = list(directive.clause_vars("firstprivate"))
    lastprivates = (list(directive.clause_vars("lastprivate"))
                    if allow_lastprivate else [])
    shared = list(directive.clause_vars("shared"))
    copyin = list(directive.clause_vars("copyin"))
    reductions: list[tuple[str, str, str]] = []
    for clause in directive.all_clauses("reduction"):
        for var in clause.vars:
            reductions.append(
                (clause.op, var, ctx.symbols.fresh(var)))

    default_clause = directive.clause("default")
    policy = default_clause.op if default_clause is not None else "shared"

    explicit = set(privates) | set(firstprivates) | set(lastprivates) \
        | set(shared) | set(copyin) | {var for _o, var, _a in reductions}

    # One binding analysis per block.  Bindings inside this very block
    # do not make a name "defined before the block": they move into the
    # generated inner function.
    block = scope.bindings(body)
    outer = ctx.enclosing_bound(body, block)

    _check_outer_bindings(directive, ctx, outer, firstprivates,
                          shared, [var for _o, var, _a in reductions],
                          copyin)

    assigned = block.bound()
    used = scope.read_names(body) | assigned

    if policy in ("private", "firstprivate"):
        # Unlisted variables bound in an enclosing function scope become
        # private/firstprivate (restricted to function-scope names; see
        # DESIGN.md on module-level callables).
        for name in sorted(used):
            if name in explicit or name in ctx.threadprivate \
                    or name in _EXEMPT_NAMES:
                continue
            if name in outer:
                if policy == "private":
                    privates.append(name)
                else:
                    firstprivates.append(name)
                explicit.add(name)
    elif policy == "none":
        missing = sorted(
            name for name in used
            if name not in explicit and name not in ctx.threadprivate
            and name not in _EXEMPT_NAMES
            and name in outer)
        if missing:
            raise OmpSyntaxError(
                f"default(none) requires explicit sharing for: "
                f"{', '.join(missing)}", directive=directive.source)

    # Shared variables that the block assigns need a nonlocal/global
    # declaration so rebinding reaches the enclosing scope.
    nonlocal_names: list[str] = []
    global_names: list[str] = []
    reduction_vars = {var for _o, var, _a in reductions}
    for name in sorted(assigned | reduction_vars):
        if name in privates or name in firstprivates \
                or name in lastprivates or name in ctx.threadprivate:
            continue
        if name in outer:
            nonlocal_names.append(name)
        elif name in ctx.module_globals or name in block.globals:
            global_names.append(name)
        # Otherwise the name is new inside the block: a plain local of
        # the generated function, thread-local by construction.

    return DataSharing(privates=privates, firstprivates=firstprivates,
                       lastprivates=lastprivates, reductions=reductions,
                       shared=shared, copyin=copyin,
                       nonlocal_names=nonlocal_names,
                       global_names=global_names)


def _check_outer_bindings(directive: Directive, ctx: TransformContext,
                          outer: set[str],
                          *name_lists: list[str]) -> None:
    for names in name_lists:
        for name in names:
            if name not in outer \
                    and name not in ctx.module_globals \
                    and name not in ctx.threadprivate:
                raise OmpSyntaxError(
                    f"variable {name!r} is not defined in an enclosing "
                    f"scope", directive=directive.source)


def sentinel_inits(ds: DataSharing, ctx: TransformContext) -> list[ast.stmt]:
    """``x = __omp__.UNDEFINED`` for every private variable."""
    return [astutil.assign(name,
                           astutil.rt_attr(ctx.rt_name, "UNDEFINED"))
            for name in ds.privates]


def reduction_inits(ds: DataSharing, ctx: TransformContext) -> list[ast.stmt]:
    """``__omp_x = __omp__.reduction_init('+')`` accumulators."""
    return [astutil.assign(
        acc, astutil.rt_call(ctx.rt_name, "reduction_init",
                             [astutil.constant(op)]))
        for op, _var, acc in ds.reductions]


def reduction_merges(ds: DataSharing, ctx: TransformContext) -> list[ast.stmt]:
    """The Fig. 2 epilogue: merge each accumulator under the team mutex.

    Generates, per reduction variable::

        __omp__.mutex_lock()
        try:
            x = __omp__.reduction_combine('+', x, __omp_x)
        finally:
            __omp__.mutex_unlock()
    """
    stmts: list[ast.stmt] = []
    for op, var, acc in ds.reductions:
        merge = astutil.assign(
            var, astutil.rt_call(ctx.rt_name, "reduction_combine",
                                 [astutil.constant(op),
                                  astutil.name_load(var),
                                  astutil.name_load(acc)]))
        stmts.append(astutil.rt_call_stmt(ctx.rt_name, "mutex_lock"))
        stmts.append(astutil.try_finally(
            [merge], [astutil.rt_call_stmt(ctx.rt_name, "mutex_unlock")]))
    return stmts


def firstprivate_params(ds: DataSharing) -> ast.arguments:
    """Inner-function parameters with defaults capturing outer values."""
    args = [ast.arg(arg=name) for name in ds.firstprivates]
    defaults = [astutil.name_load(name) for name in ds.firstprivates]
    return ast.arguments(posonlyargs=[], args=args, vararg=None,
                         kwonlyargs=[], kw_defaults=[], kwarg=None,
                         defaults=defaults)


def sharing_declarations(ds: DataSharing) -> list[ast.stmt]:
    decls: list[ast.stmt] = []
    if ds.nonlocal_names:
        decls.append(ast.Nonlocal(names=list(ds.nonlocal_names)))
    if ds.global_names:
        decls.append(ast.Global(names=list(ds.global_names)))
    return decls
