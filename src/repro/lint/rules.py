"""The ``omplint`` rule engine: a region-aware walk over one function.

The walker mirrors the transformer's own traversal
(:mod:`repro.transform.rewriter`) but collects findings instead of
rewriting.  Sharing is resolved exactly the way the transformer would
resolve it — by calling :func:`repro.transform.datasharing.classify`
with the same scope frames — so the linter's notion of "shared" cannot
drift from the generated code's.

Region model
------------

Every ``parallel``/``task``/``taskloop`` directive opens a *data
environment*: ``classify`` splits the names its body assigns into
privatized ones (private/firstprivate/lastprivate/reduction), outer
shared ones (the generated ``nonlocal``/``global`` declarations), and
new thread-locals (everything else).  Worksharing directives nested in
a parallel region only *overlay* their own clause lists on that
environment; the worksharing loop index is implicitly private.

A write to an *outer shared* name races unless it happens inside a
``critical``/``atomic``/``master``/``single``/``ordered`` construct or
while an ``omp_set_lock`` lock is held in the same statement list.
"""

from __future__ import annotations

import ast
import dataclasses

from repro.directives import parse_directive
from repro.directives.model import Directive
from repro.directives.spec import DIRECTIVES
from repro.errors import OmpSyntaxError
from repro.lint import dataflow
from repro.lint.findings import Finding
from repro.transform import scope
from repro.transform.astutil import directive_text, with_directive
from repro.transform.context import TransformContext
from repro.transform.datasharing import classify

#: Constructs that open a new data environment (classify applies).
_REGION_KINDS = frozenset({"parallel", "parallel for",
                           "parallel sections", "task", "taskloop"})
#: Constructs whose body only one thread (at a time) executes.
_PROTECTING = frozenset({"critical", "atomic", "master", "single",
                         "ordered"})
#: Worksharing constructs for the close-nesting rules.
_WORKSHARING = frozenset({"for", "sections", "single"})
#: Constructs a worksharing construct or barrier may not be closely
#: nested inside (OpenMP 3.0 §2.10; ``parallel`` resets the check).
_NO_CLOSE_NESTING = _WORKSHARING | frozenset(
    {"section", "master", "critical", "ordered", "task", "taskloop"})


def _compound_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    """Statement lists nested directly under a compound statement."""
    bodies: list[list[ast.stmt]] = []
    for field in ("body", "orelse", "finalbody"):
        value = getattr(stmt, field, None)
        if isinstance(value, list) and value \
                and isinstance(value[0], ast.stmt):
            bodies.append(value)
    for handler in getattr(stmt, "handlers", []):
        bodies.append(handler.body)
    return bodies


@dataclasses.dataclass
class _Region:
    """One entry of the construct stack."""

    kind: str
    #: Does this construct open a data environment?
    is_region: bool = False
    #: Privatized names (private/firstprivate/lastprivate/reduction,
    #: plus worksharing loop indices).
    privatish: set[str] = dataclasses.field(default_factory=set)
    #: Names whose writes reach the enclosing scope — racy unless
    #: synchronized.  Only populated when ``is_region``.
    outer: set[str] = dataclasses.field(default_factory=set)


class FunctionLinter:
    """Collects findings for one directive-bearing function."""

    def __init__(self, funcdef: ast.FunctionDef, *, filename: str,
                 module_globals: set[str]):
        self.funcdef = funcdef
        self.filename = filename
        self.findings: list[Finding] = []
        self.ctx = TransformContext(
            rt_name="__omp_lint__", module_globals=set(module_globals),
            taken_names=set(), filename=filename,
            module_name="<lint>")
        self.stack: list[_Region] = []

    # -- entry point ---------------------------------------------------

    def run(self) -> list[Finding]:
        self.ctx.push_scope(scope.function_params(self.funcdef),
                            self.funcdef.body)
        try:
            self._walk(self.funcdef.body, protected=False)
        finally:
            self.ctx.pop_scope()
        return self.findings

    # -- findings ------------------------------------------------------

    def _report(self, rule: str, message: str, node: ast.AST, *,
                variable: str | None = None,
                directive: Directive | str | None = None) -> None:
        text = directive.source if isinstance(directive, Directive) \
            else directive
        self.findings.append(Finding(
            rule=rule, message=message,
            lineno=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            variable=variable, function=self.funcdef.name,
            filename=self.filename, directive=text))

    # -- statement walk ------------------------------------------------

    def _walk(self, stmts: list[ast.stmt], protected: bool) -> None:
        """Walk one statement list, tracking held runtime locks."""
        lock_depth = 0
        for stmt in stmts:
            api_name = dataflow.api_call_name(stmt)
            if api_name in dataflow.LOCK_ACQUIRE:
                lock_depth += 1
                continue
            if api_name in dataflow.LOCK_RELEASE:
                lock_depth = max(0, lock_depth - 1)
                continue
            shielded = protected or lock_depth > 0
            if isinstance(stmt, ast.With):
                text = with_directive(stmt)
                if text is not None:
                    self._handle_directive_block(stmt, text, shielded)
                    continue
            if isinstance(stmt, ast.Expr):
                text = directive_text(stmt.value)
                if text is not None:
                    self._handle_standalone(stmt, text)
                    continue
            self._visit_plain(stmt, shielded)

    def _visit_plain(self, stmt: ast.stmt, protected: bool) -> None:
        for name, node in dataflow.stored_names(stmt):
            self._check_write(name, node, protected)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scope: no directives, no region writes
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            self._walk(stmt.body, protected)
            self._walk(stmt.orelse, protected)
        elif isinstance(stmt, ast.If):
            self._walk(stmt.body, protected)
            self._walk(stmt.orelse, protected)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._walk(stmt.body, protected)
        elif isinstance(stmt, ast.Try):
            self._walk(stmt.body, protected)
            for handler in stmt.handlers:
                self._walk(handler.body, protected)
            self._walk(stmt.orelse, protected)
            self._walk(stmt.finalbody, protected)

    # -- directive handling --------------------------------------------

    def _parse(self, text: str, node: ast.AST) -> Directive | None:
        try:
            return parse_directive(text)
        except OmpSyntaxError as error:
            self._report("OMP100", str(error), node, directive=text)
            return None

    def _handle_standalone(self, stmt: ast.Expr, text: str) -> None:
        directive = self._parse(text, stmt)
        if directive is None:
            return
        spec = DIRECTIVES.get(directive.name)
        if spec is not None and not spec.standalone:
            self._report(
                "OMP100", f"{directive.name!r} requires a structured "
                f"block; use 'with omp(...)'", stmt, directive=directive)
            return
        if directive.name == "barrier":
            self._check_barrier(stmt, directive)
        elif directive.name == "threadprivate":
            for name in directive.arguments:
                self.ctx.threadprivate.setdefault(name, name)

    def _handle_directive_block(self, node: ast.With, text: str,
                                protected: bool) -> None:
        directive = self._parse(text, node)
        if directive is None:
            # Still look inside the block so one bad directive does not
            # hide findings beneath it.
            self._walk(node.body, protected)
            return
        spec = DIRECTIVES.get(directive.name)
        if spec is not None and spec.standalone:
            self._report(
                "OMP100", f"{directive.name!r} is a standalone "
                f"directive; call it as omp(...) without 'with'",
                node, directive=directive)
            return
        if directive.name in _REGION_KINDS:
            self._enter_data_environment(node, directive, protected)
        elif directive.name in _WORKSHARING:
            self._enter_worksharing(node, directive, protected)
        else:
            # critical / atomic / master / ordered / section: pure
            # nesting + protection context.
            shield = protected or directive.name in _PROTECTING
            self.stack.append(_Region(kind=directive.name))
            try:
                self._walk(node.body, shield)
            finally:
                self.stack.pop()

    # -- data environments ---------------------------------------------

    def _classify(self, body: list[ast.stmt], directive: Directive,
                  node: ast.AST, *,
                  allow_lastprivate: bool) -> _Region | None:
        try:
            ds = classify(body, directive, self.ctx,
                          allow_lastprivate=allow_lastprivate)
        except OmpSyntaxError as error:
            self._report("OMP100", str(error), node, directive=directive)
            return None
        reduction_vars = {var for _op, var, _acc in ds.reductions}
        privatish = (set(ds.privates) | set(ds.firstprivates)
                     | set(ds.lastprivates) | reduction_vars)
        outer = (set(ds.nonlocal_names) | set(ds.global_names)) \
            - reduction_vars
        region = _Region(kind=directive.name, is_region=True,
                         privatish=privatish, outer=outer)
        self._check_clause_usage(body, directive, node,
                                 privates=ds.privates,
                                 firstprivates=ds.firstprivates)
        return region

    def _enter_data_environment(self, node: ast.With, directive: Directive,
                                protected: bool) -> None:
        del protected  # a new team/task: outer locks don't shield it
        loopish = directive.name in ("parallel for", "taskloop")
        region = self._classify(
            node.body, directive, node,
            allow_lastprivate=directive.name in ("parallel for",
                                                 "parallel sections"))
        if region is None:
            region = _Region(kind=directive.name, is_region=True)
        self.stack.append(region)
        self.ctx.push_scope(set(region.privatish), node.body)
        try:
            with self.ctx.enter_construct(directive.name.split()[0]):
                if loopish:
                    # The loop half of the combined construct counts as
                    # worksharing for the nesting/barrier rules.
                    marker = "for" if directive.name == "parallel for" \
                        else "taskloop"
                    self.stack.append(_Region(kind=marker))
                    try:
                        self._walk_worksharing_loop(
                            node, directive, region, False)
                    finally:
                        self.stack.pop()
                else:
                    self._walk(node.body, False)
        finally:
            self.ctx.pop_scope()
            self.stack.pop()

    def _enter_worksharing(self, node: ast.With, directive: Directive,
                           protected: bool) -> None:
        self._check_close_nesting(node, directive)
        in_parallel = any(r.is_region for r in self.stack)
        if in_parallel:
            # Overlay: the enclosing region's classification stands;
            # only this construct's own clause lists privatize further.
            region = _Region(
                kind=directive.name,
                privatish=set(directive.clause_vars("private"))
                | set(directive.clause_vars("firstprivate"))
                | set(directive.clause_vars("lastprivate"))
                | {var for clause in directive.all_clauses("reduction")
                   for var in clause.vars})
            self._check_clause_usage(
                node.body, directive, node,
                privates=directive.clause_vars("private"),
                firstprivates=directive.clause_vars("firstprivate"))
        else:
            # Orphaned worksharing: it may run inside a parallel region
            # of a caller, so classify it as a region of its own.
            region = self._classify(
                node.body, directive, node,
                allow_lastprivate=directive.name in ("for", "sections"))
            if region is None:
                region = _Region(kind=directive.name)
            region.is_region = True
        self.stack.append(region)
        try:
            with self.ctx.enter_construct(directive.name):
                if directive.name == "for":
                    self._walk_worksharing_loop(node, directive, region,
                                                protected)
                elif directive.name == "single":
                    self._walk(node.body, True)
                else:
                    self._walk(node.body, protected)
        finally:
            self.stack.pop()

    # -- worksharing loops ---------------------------------------------

    def _walk_worksharing_loop(self, node: ast.With, directive: Directive,
                               region: _Region, protected: bool) -> None:
        """Handle the loop nest under ``for``/``parallel for``."""
        loops = self._collect_nest(node, directive)
        if loops is None:
            self._walk(node.body, protected)
            return
        indices = {loop.target.id for loop in loops}
        # OpenMP privatizes the worksharing loop variable regardless of
        # its sharing in the enclosing region.
        region.privatish |= indices
        region.outer -= indices
        # For a collapsed nest only the innermost body holds user
        # statements; the outer bodies are just the nested loops.
        body = loops[-1].body
        self._check_lastprivate(body, directive, node)
        for name, site in self._index_writes(body, indices):
            self._report(
                "OMP107", f"worksharing loop index {name!r} is "
                f"modified inside the loop body", site,
                variable=name, directive=directive)
        self._walk(body, protected)

    def _collect_nest(self, node: ast.With,
                      directive: Directive) -> list[ast.For] | None:
        collapse = 1
        clause = directive.clause("collapse")
        if clause is not None:
            try:
                collapse = max(1, int(clause.expr))
            except (TypeError, ValueError):
                collapse = 1
        stmts = node.body
        loops: list[ast.For] = []
        for _level in range(collapse):
            body = [s for s in stmts if not isinstance(s, ast.Pass)]
            if len(body) != 1 or not isinstance(body[0], ast.For) \
                    or not isinstance(body[0].target, ast.Name):
                self._report(
                    "OMP100", "the body of a worksharing 'for' must be "
                    "a (perfectly nested) for loop over a simple index",
                    node, directive=directive)
                return None
            loops.append(body[0])
            stmts = body[0].body
        return loops

    def _index_writes(self, body: list[ast.stmt],
                      indices: set[str]) -> list[tuple[str, ast.AST]]:
        """Stores to any worksharing index, recursing through compound
        statements but not into nested scopes."""
        writes: list[tuple[str, ast.AST]] = []
        for stmt in body:
            for name, site in dataflow.stored_names(stmt):
                if name in indices:
                    writes.append((name, site))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            for child_body in _compound_bodies(stmt):
                writes.extend(self._index_writes(child_body, indices))
        return writes

    # -- individual rules ----------------------------------------------

    def _check_write(self, name: str, node: ast.AST,
                     protected: bool) -> None:
        """Rule OMP101: unsynchronized write to an outer shared name."""
        region = None
        for entry in reversed(self.stack):
            if name in entry.privatish:
                return
            if entry.is_region:
                region = entry
                break
        if region is None or name in self.ctx.threadprivate:
            return
        if name not in region.outer or protected:
            return
        if region.kind in ("task", "taskloop") \
                and not isinstance(node, ast.AugAssign):
            # A plain store in a task body has a single writer per task
            # instance — the paper's Fig. 4 pattern (`fib1 = f(n-1)` +
            # taskwait) is race-free.  Only read-modify-write updates
            # of shared state are flagged inside tasks.
            return
        self._report(
            "OMP101", f"write to shared variable {name!r} inside a "
            f"{region.kind!r} region is not protected by a "
            f"critical/atomic/master/single construct, a reduction, "
            f"or a lock", node, variable=name)

    def _check_clause_usage(self, body: list[ast.stmt],
                            directive: Directive, node: ast.AST, *,
                            privates, firstprivates) -> None:
        """Rules OMP102 and OMP103 at region entry."""
        reads = scope.read_names(body)
        for name in dict.fromkeys(privates):
            if dataflow.first_use(body, name) == "read":
                self._report(
                    "OMP102", f"private variable {name!r} is read "
                    f"before its first assignment in the region (its "
                    f"private copy starts undefined)", node,
                    variable=name, directive=directive)
        for name in dict.fromkeys(firstprivates):
            if name not in reads:
                self._report(
                    "OMP103", f"firstprivate variable {name!r} is "
                    f"never read in the region; plain private(...) "
                    f"would do", node, variable=name, directive=directive)

    def _check_lastprivate(self, loop_body: list[ast.stmt],
                           directive: Directive, node: ast.AST) -> None:
        """Rule OMP104: lastprivate vars must be assigned in the body."""
        assigned = scope.assigned_names(loop_body)
        for name in dict.fromkeys(directive.clause_vars("lastprivate")):
            if name not in assigned:
                self._report(
                    "OMP104", f"lastprivate variable {name!r} is never "
                    f"assigned in the loop body, so no last value is "
                    f"written back", node, variable=name,
                    directive=directive)

    def _check_close_nesting(self, node: ast.AST,
                             directive: Directive) -> None:
        """Rule OMP105: worksharing closely nested in forbidden kinds."""
        for entry in reversed(self.stack):
            if entry.kind in ("parallel", "parallel for",
                              "parallel sections"):
                break
            if entry.kind in _NO_CLOSE_NESTING:
                self._report(
                    "OMP105", f"worksharing construct "
                    f"{directive.name!r} may not be closely nested "
                    f"inside a {entry.kind!r} region", node,
                    directive=directive)
                return

    def _check_barrier(self, node: ast.AST,
                       directive: Directive) -> None:
        """Rule OMP106: barriers where not every thread arrives."""
        for entry in reversed(self.stack):
            if entry.kind in ("parallel", "parallel for",
                              "parallel sections"):
                break
            if entry.kind in _NO_CLOSE_NESTING or entry.kind == "atomic":
                self._report(
                    "OMP106", f"barrier inside a {entry.kind!r} region "
                    f"deadlocks: not every thread of the team reaches "
                    f"it", node, directive=directive)
                return
