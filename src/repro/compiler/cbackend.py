"""C back end of the typed tier: one native function per loop site.

Where typed Cython turns an annotated loop into a register-bound C
loop, this module does it directly: a ``for i in range(...)`` site
whose statements type-check (:class:`SiteCompiler`) becomes one C
function that runs the *whole* chunk, inner loops included, in the
sequential loop's order.  The functions of one definition form one
translation unit (:class:`NativeTarget`), built into a shared object
beside the definition's cache entry and called through
:mod:`repro.cruntime.native`.

C is kept *right* where it is not Python:

* every subscript is bounds-checked with negative wrap-around and an
  out-of-range access makes the kernel return a status the caller
  raises ``IndexError`` from (``O4P_IDX``);
* ``//`` and ``%`` floor like Python's; signed overflow wraps
  (``-fwrapv``) like NumPy's ``int64``;
* a zero divisor of ``/``, ``//`` or ``%`` is what it is in the
  interpreter: between Python numbers a status (``ZeroDivisionError``),
  never ``SIGFPE``; where an operand is a NumPy scalar (an array
  element, or what arithmetic made of one) NumPy's ``inf``/``nan``, or
  ``0`` for integers.  A scalar the caller passes in counts as the
  Python number it is converted to;
* a ``math`` function raises where CPython's does (``ValueError`` out of
  its domain, ``OverflowError`` where ``exp``/``sinh``/``cosh``/``pow``
  overflow, both for ``floor``/``ceil`` of ``nan``/``inf``);
* float arithmetic is IEEE otherwise, with ``-ffp-contract=off`` so no
  fused multiply-add rounds differently from the interpreter.

What a site cannot express raises :class:`Unsupported` and the loop
stays interpreted (``if``/``while``/``break`` statements, slices,
calls other than the ``math``/``abs``/``min``/``max``/``int``/
``float`` forms, complex scalars, shifts by a variable count,
``int ** <non-constant>``, a division whose operand may be a NumPy
scalar in one iteration and a Python number in another).
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import math
import os
import shutil
import subprocess
import sys
import tempfile

from repro.compiler.vectorize import _INTEGRAL_OPS, range_parts
from repro.cruntime import native

INT, DBL = "i", "d"
_CTYPE = {INT: "int64_t", DBL: "double"}
_LABEL_TYPE = {"int": INT, "bool": INT, "float": DBL}

#: What the build runs after the compiler's own argv.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fwrapv",
          "-fno-math-errno")
_BUILD_TIMEOUT_S = 60.0

#: ``math.<name>`` (and the bare name) -> arity and the C form of a call
#: of the C function of that name, the arguments in place of ``{}``,
#: wrapped in the check CPython makes of the result (``O4P_MATH*``,
#: ``O4P_TOINT``) where it makes one.  ``floor``/``ceil`` stay
#: ``double`` like ``np.floor``.
_MATH = {name: (1, f"O4P_MATH1({name}, {{}}, 4)") for name in (
    "sqrt", "sin", "cos", "tan", "log", "log2", "log10", "fabs", "atan",
    "asin", "acos", "tanh")}
_MATH.update({name: (1, f"O4P_MATH1({name}, {{}}, 5)")
              for name in ("exp", "sinh", "cosh")})
_MATH.update({name: (2, f"O4P_MATH2({name}, {{}}, 5)")
              for name in ("atan2", "copysign", "fmod")})
_MATH.update(pow=(2, "O4P_MATH2(pow, {}, x_ == 0.0 ? 4 : 5)"),
             hypot=(2, "hypot({})"), floor=(1, "O4P_TOINT(floor, {})"),
             ceil=(1, "O4P_TOINT(ceil, {})"))

_ARITH = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}
_BITWISE = {ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^"}
_COMPARE = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
            ast.Eq: "==", ast.NotEq: "!="}

PRELUDE = r"""/* omp4py native tier: kernel ABI 1 (see SiteCompiler._assemble) */
#include <stdint.h>
#include <math.h>

/* Status a kernel returns: 0 done, 1 IndexError (err = index, axis,
   size), 2 ZeroDivisionError, 3 ValueError (zero range step),
   4 ValueError (math domain error), 5 OverflowError (math range error).
   Whatever the kernel stored before it returned stays stored. */

#define O4P_IDX(k, n, axis) __extension__ ({ \
    int64_t k0_ = (k), k_ = k0_; \
    if (k_ < 0) k_ += (n); \
    if ((uint64_t)k_ >= (uint64_t)(n)) { \
        err[0] = k0_; err[1] = (axis); err[2] = (n); return 1; } \
    k_; })
/* f(a, b) between Python numbers: a zero divisor raises. */
#define O4P_NONZERO(f, T, a, b) __extension__ ({ \
    T a_ = (a), b_ = (b); if (b_ == 0) return 2; \
    f(a_, b_); })
/* CPython's check of a math function's result: NaN from arguments that
   are not is a domain error, an infinity from finite ones a domain (4)
   or a range (5) error, as the status ``inf`` says (it may read x_). */
#define O4P_MATH1(f, x, inf) __extension__ ({ \
    double x_ = (x), r_ = f(x_); \
    if (isnan(r_) && !isnan(x_)) return 4; \
    if (isinf(r_) && isfinite(x_)) return (inf); \
    r_; })
#define O4P_MATH2(f, x, y, inf) __extension__ ({ \
    double x_ = (x), y_ = (y), r_ = f(x_, y_); \
    if (isnan(r_) && !isnan(x_) && !isnan(y_)) return 4; \
    if (isinf(r_) && isfinite(x_) && isfinite(y_)) return (inf); \
    r_; })
/* math.floor/ceil return an int: NaN cannot be one, infinity neither. */
#define O4P_TOINT(f, x) __extension__ ({ \
    double x_ = (x); if (isnan(x_)) return 4; if (isinf(x_)) return 5; \
    f(x_); })

/* NumPy's integer // and % by zero are 0. */
static inline int64_t o4p_floordiv(int64_t a, int64_t b)
{
    if (b == 0) return 0;
    if (b == -1) return (int64_t)(0 - (uint64_t)a);  /* INT64_MIN / -1 traps */
    int64_t q = a / b;
    return (a % b != 0 && (a < 0) != (b < 0)) ? q - 1 : q;
}
static inline int64_t o4p_mod(int64_t a, int64_t b)
{
    if (b == 0 || b == -1) return 0;
    int64_t r = a % b;
    return (r != 0 && (r < 0) != (b < 0)) ? r + b : r;
}
static inline double o4p_div(double a, double b) { return a / b; }
static inline double o4p_fmod(double a, double b)
{
    double r = fmod(a, b);
    if (b == 0.0) return r;
    if (r != 0.0) { if ((b < 0) != (r < 0)) r += b; }
    else r = copysign(0.0, b);
    return r;
}
static inline double o4p_ffloordiv(double a, double b)
{
    if (b == 0.0) return a / b;
    double mod = fmod(a, b), div = (a - mod) / b;
    if (mod != 0.0 && (b < 0) != (mod < 0)) div -= 1.0;
    if (div == 0.0) return copysign(0.0, a / b);
    double whole = floor(div);
    return div - whole > 0.5 ? whole + 1.0 : whole;
}
static inline int64_t o4p_ipow(int64_t base, int64_t exponent)
{
    int64_t result = 1;
    for (; exponent > 0; exponent >>= 1, base *= base)
        if (exponent & 1) result *= base;
    return result;
}
static inline int64_t o4p_iabs(int64_t a) { return a < 0 ? -a : a; }
static inline int64_t o4p_imin(int64_t a, int64_t b) { return a < b ? a : b; }
static inline int64_t o4p_imax(int64_t a, int64_t b) { return a > b ? a : b; }
/* NaN-propagating, like np.minimum / np.maximum. */
static inline double o4p_fmin(double a, double b) { return (a < b || a != a) ? a : b; }
static inline double o4p_fmax(double a, double b) { return (a > b || a != a) ? a : b; }
"""


class Unsupported(Exception):
    """This loop has no C form; it stays interpreted."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _join(left: str | None, right: str) -> str:
    return DBL if DBL in (left, right) else INT


def _split_subscript(node: ast.Subscript) -> tuple[ast.expr, list[ast.expr]]:
    """``a[i][j, k]`` -> ``(a, [i, j, k])``: chained and tuple
    subscripts of an ndarray address the same element."""
    indices: list[ast.expr] = []
    while isinstance(node, ast.Subscript):
        index = node.slice
        parts = index.elts if isinstance(index, ast.Tuple) else [index]
        indices[:0] = parts
        node = node.value
    return node, indices


def _walk_site(stmts):
    """Every node of the site's statements."""
    for stmt in stmts:
        yield from ast.walk(stmt)


def _check_statement_kinds(stmts: list[ast.stmt]) -> None:
    """Reject at the first statement that has no C form: most loops of
    a program are not sites, and saying so must cost next to nothing."""
    for stmt in stmts:
        if isinstance(stmt, ast.For):
            _check_statement_kinds(stmt.body)
        elif not isinstance(stmt, (ast.Assign, ast.AugAssign,
                                   ast.AnnAssign)):
            raise Unsupported(
                f"unsupported statement {type(stmt).__name__}")


@dataclasses.dataclass
class _Array:
    number: int
    expr: ast.expr
    ndim: int
    elem: str
    stored: bool = False


@dataclasses.dataclass
class Site:
    """One compiled loop: its C text and how to call it."""

    number: int
    ident: str
    ctext: str
    #: Python expressions the generated call passes after the bounds.
    operands: list[ast.expr]
    #: Names the call's result is unpacked into.
    carried: list[str]
    #: What the loader needs: ``(C name, scalar kinds, arrays, carried
    #: kinds)`` with arrays as ``(elem kind, ndim, stored)`` triples.
    spec: tuple

    @property
    def cname(self) -> str:
        return self.spec[0]


class SiteCompiler:
    """Types and translates one ``for`` site.

    A name the body assigns is a C local.  Its type is the join of what
    flows into it (``int`` ⊕ ``float`` → ``double``), found by
    re-emitting the body until the types stop moving.  A local that may
    be read before the body assigns it — a reduction accumulator, a
    recurrence — is *carried*: passed in, passed back, and therefore
    typed by the function's annotations as well.  A local that code
    after the loop reads (``live_out``) goes back to the caller too:
    carried if an iteration may leave it unassigned, otherwise passed
    out only (the caller passes a zero in).  Names the body only
    reads are by-value parameters typed by their annotation; subscript
    bases are arrays (``float64`` unless their elements index another
    array or land in an ``int`` name, then ``int64``); the caller checks
    all of that against the run-time objects before every call.
    """

    def __init__(self, loop: ast.For, env: dict[str, str], number: int,
                 live_out=frozenset()):
        self.loop = loop
        self.env = env
        self.number = number
        self.live_out = frozenset(live_out)
        self.cname = f"omp4py_site_{number}"
        if not isinstance(loop.target, ast.Name):
            raise Unsupported("tuple loop target")
        _check_statement_kinds(loop.body)  # before anything is walked
        self.loop_vars = {loop.target.id}
        self.assigned_names: set[str] = set()
        for node in _walk_site(loop.body):
            if isinstance(node, ast.For):
                if not isinstance(node.target, ast.Name):
                    raise Unsupported("tuple loop target")
                self.loop_vars.add(node.target.id)
            elif isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Store):
                self.assigned_names.add(node.id)
        self.assigned_names -= self.loop_vars
        for name in sorted(self.loop_vars & self.live_out):
            if name != loop.target.id:
                raise Unsupported(
                    f"loop variable {name!r} read after the loop")
        if not all(name.isascii()
                   for name in self.assigned_names | self.loop_vars):
            raise Unsupported("non-ASCII identifier")
        self.int_arrays = self._integer_arrays()
        self.int_names = self._integer_names()
        self.types: dict[str, str] = {}
        #: Per assigned name, whether it holds NumPy scalars (see
        #: :meth:`_numpy`).
        self.origins: dict[str, bool | None] = {}

    # -- public ----------------------------------------------------------

    def compile(self) -> Site:
        for _attempt in range(6):
            self.dirty = False
            self.assigned = {self.loop.target.id}
            self.scalars: dict[str, str] = {}
            self.carried: dict[str, None] = {}
            self.arrays: dict[str, _Array] = {}
            self.counters = 0
            body = self._block(self.loop.body, 3)
            # Read after the loop but maybe not assigned by an iteration:
            # what it held before may survive, so it is carried.
            for name in sorted(self.live_out & self.assigned_names
                               - self.assigned):
                self._name(name)
            if not self.dirty:
                break
        else:  # pragma: no cover - the lattice has two levels
            raise Unsupported("types do not settle")
        if not body:
            raise Unsupported("empty or effect-free body")
        self.outs = [name for name in sorted(self.live_out & self.assigned)
                     if name not in self.carried]
        return self._assemble(body)

    # -- statements --------------------------------------------------------

    def _block(self, stmts: list[ast.stmt], depth: int) -> list[str]:
        lines: list[str] = []
        for stmt in stmts:
            lines.extend(self._statement(stmt, depth))
        return lines

    def _statement(self, stmt: ast.stmt, depth: int) -> list[str]:
        pad = "    " * depth
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None \
                and isinstance(stmt.target, ast.Name):
            target, value = stmt.target, stmt.value
        elif isinstance(stmt, ast.AugAssign):
            target = stmt.target
            load = ast.Name(id=target.id, ctx=ast.Load()) \
                if isinstance(target, ast.Name) else target
            value = ast.BinOp(left=load, op=stmt.op, right=stmt.value)
        elif isinstance(stmt, ast.For):
            return self._nested_loop(stmt, depth)
        else:
            raise Unsupported(
                f"unsupported statement {type(stmt).__name__}")
        if isinstance(target, ast.Name):
            return [pad + self._assign(target.id, value)]
        if isinstance(target, ast.Subscript):
            return [pad + self._store(target, value)]
        raise Unsupported("unsupported assignment target")

    def _assign(self, name: str, value: ast.expr) -> str:
        if name in self.loop_vars:
            raise Unsupported("assignment to a loop variable")
        # The value first: ``s = s + x`` reads the ``s`` of before.
        text, kind = self._expr(value)
        self._note_type(name, kind, self._numpy(value))
        self.assigned.add(name)
        return f"v_{name} = {text};"

    def _store(self, target: ast.Subscript, value: ast.expr) -> str:
        text, kind = self._expr(value)
        element, array = self._element(target)
        array.stored = True
        if array.elem == INT and kind == DBL:
            raise Unsupported("float stored into an integer array")
        return f"{element} = {text};"

    def _nested_loop(self, loop: ast.For, depth: int) -> list[str]:
        parts = range_parts(loop)
        if parts is None:
            raise Unsupported("nested loop is not a plain range()")
        bounds = []
        for part in parts:
            text, kind = self._expr(part)
            if kind != INT:
                raise Unsupported("non-integer range() argument")
            bounds.append(text)
        before = set(self.assigned)
        self.assigned.add(loop.target.id)
        self.counters += 1
        header = self._loop_header(f"c{self.counters}_", bounds, parts[2],
                                   loop.target.id, depth)
        body = self._block(loop.body, depth + 2)
        # The loop may run zero times: what only it assigns is not
        # assigned for the statements after it.
        self.assigned = before
        pad = "    " * depth
        return header + body + [pad + "    }", pad + "}"]

    def _loop_header(self, counter: str, bounds: list[str],
                     step_node: ast.expr, target: str,
                     depth: int) -> list[str]:
        """``{ bounds; for (counter...) { v_target = counter;`` — the
        target is a copy, so it keeps the last iterated value and
        leaves the iteration alone, as in Python."""
        pad = "    " * depth
        lo, hi, step = bounds
        lines = [pad + "{", pad + f"    int64_t {counter}lo = {lo}, "
                 f"{counter}hi = {hi}, {counter}st = {step};"]
        constant = step_node.value if isinstance(
            step_node, ast.Constant) and type(step_node.value) is int \
            else None
        if constant is None or constant == 0:
            lines.append(pad + f"    if ({counter}st == 0) return 3;")
            test = (f"{counter}st > 0 ? {counter} < {counter}hi "
                    f": {counter} > {counter}hi")
        else:
            test = f"{counter} {'<' if constant > 0 else '>'} {counter}hi"
        lines.append(pad + f"    for (int64_t {counter} = {counter}lo; "
                     f"{test}; {counter} += {counter}st) {{")
        lines.append(pad + f"        v_{target} = {counter};")
        return lines

    # -- expressions -------------------------------------------------------

    def _expr(self, node: ast.expr) -> tuple[str, str]:
        if isinstance(node, ast.Constant):
            return self._constant(node.value)
        if isinstance(node, ast.Name):
            return self._name(node.id)
        if isinstance(node, ast.BinOp):
            return self._binop(node)
        if isinstance(node, ast.UnaryOp):
            text, kind = self._expr(node.operand)
            if isinstance(node.op, ast.USub):
                return f"(-{text})", kind
            if isinstance(node.op, ast.UAdd):
                return text, kind
            if isinstance(node.op, ast.Not):
                return f"(!{text})", INT
            raise Unsupported("unsupported unary operator")
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                raise Unsupported("chained comparison")
            op = _COMPARE.get(type(node.ops[0]))
            if op is None:
                raise Unsupported("unsupported comparison")
            left, _lk = self._expr(node.left)
            right, _rk = self._expr(node.comparators[0])
            return f"({left} {op} {right})", INT
        if isinstance(node, ast.BoolOp):
            op = " && " if isinstance(node.op, ast.And) else " || "
            return "(" + op.join(
                self._expr(value)[0] for value in node.values) + ")", INT
        if isinstance(node, ast.IfExp):
            test, _tk = self._expr(node.test)
            then, bk = self._expr(node.body)
            other, ok = self._expr(node.orelse)
            kind = _join(bk, ok)
            if bk != ok:
                then, other = f"(double){then}", f"(double){other}"
            return f"({test} ? {then} : {other})", kind
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Subscript):
            element, array = self._element(node)
            return element, array.elem
        raise Unsupported(f"unsupported expression {type(node).__name__}")

    @staticmethod
    def _constant(value) -> tuple[str, str]:
        if isinstance(value, bool):
            return str(int(value)), INT
        if isinstance(value, int):
            if value >= 2 ** 63:
                raise Unsupported("integer constant beyond int64")
            return f"INT64_C({value})", INT
        if isinstance(value, float):
            if math.isinf(value):
                return "INFINITY", DBL
            if math.isnan(value):  # pragma: no cover - no such literal
                return "NAN", DBL
            return f"({value.hex()})", DBL
        raise Unsupported(f"non-numeric constant {value!r}")

    def _name(self, name: str) -> tuple[str, str]:
        if name in self.loop_vars:
            if name not in self.assigned:
                raise Unsupported(
                    f"loop variable {name!r} read outside its loop")
            return f"v_{name}", INT
        label = self.env.get(name)
        if name in self.assigned_names:
            if name not in self.assigned:
                # Maybe read before the body assigns it: the value
                # comes from (and goes back to) the caller.
                if label not in _LABEL_TYPE:
                    raise Unsupported(f"untyped scalar {name!r}")
                self.carried.setdefault(name)
                self._note_type(name, _LABEL_TYPE[label], False)
            return f"v_{name}", self.types[name]
        if label is None and name in self.int_names:
            label = "int"
        if label not in _LABEL_TYPE:
            raise Unsupported(
                f"complex scalar {name!r}" if label == "complex"
                else f"untyped scalar {name!r}")
        self.scalars[name] = _LABEL_TYPE[label]
        return f"v_{name}", _LABEL_TYPE[label]

    def _note_type(self, name: str, kind: str, numpy: bool | None) -> None:
        joined = _join(self.types.get(name), kind)
        if self.types.get(name) != joined:
            self.types[name] = joined
            self.dirty = True
        origin = numpy if self.origins.get(name, numpy) == numpy else None
        if name not in self.origins or self.origins[name] != origin:
            self.origins[name] = origin
            self.dirty = True

    def _numpy(self, node: ast.expr) -> bool | None:
        """Is the value of ``node`` a NumPy scalar (``True``), a Python
        number (``False``), or one in some iterations and the other in
        others (``None``)?  Array elements are NumPy's and so is what
        arithmetic makes of one; constants, loop variables, the caller's
        scalars and what ``math``, ``int`` and ``float`` return are
        Python's; ``abs``/``min``/``max``, ``if`` expressions and
        ``and``/``or`` give back one of their operands."""
        if isinstance(node, ast.Subscript):
            return True
        if isinstance(node, ast.Name):
            return self.origins.get(node.id, False)
        if isinstance(node, (ast.BinOp, ast.Compare)):
            origins = {self._numpy(operand) for operand in (
                (node.left, node.right) if isinstance(node, ast.BinOp)
                else (node.left, *node.comparators))}
            return True if True in origins else (
                None if None in origins else False)
        if isinstance(node, ast.UnaryOp):
            return not isinstance(node.op, ast.Not) and self._numpy(
                node.operand)
        if isinstance(node, ast.IfExp):
            operands = (node.body, node.orelse)
        elif isinstance(node, ast.BoolOp):
            operands = node.values
        elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Name) and node.func.id in ("abs", "min",
                                                          "max"):
            operands = node.args
        else:
            return False
        origins = {self._numpy(operand) for operand in operands}
        return origins.pop() if len(origins) == 1 else None

    def _binop(self, node: ast.BinOp) -> tuple[str, str]:
        left, lk = self._expr(node.left)
        right, rk = self._expr(node.right)
        kind = _join(lk, rk)
        op = type(node.op)
        if op in _ARITH:
            return f"({left} {_ARITH[op]} {right})", kind
        if op in (ast.Div, ast.FloorDiv, ast.Mod):
            if op is ast.Div:
                kind, func = DBL, "o4p_div"
            elif op is ast.FloorDiv:
                func = "o4p_floordiv" if kind == INT else "o4p_ffloordiv"
            else:
                func = "o4p_mod" if kind == INT else "o4p_fmod"
            numpy = self._numpy(node)
            if numpy is None:
                raise Unsupported("division of what may be a NumPy scalar "
                                  "or a Python number")
            if not numpy:  # between Python numbers
                return (f"O4P_NONZERO({func}, {_CTYPE[kind]}, {left}, "
                        f"{right})"), kind
            return f"{func}({left}, {right})", kind
        if op is ast.Pow:
            exponent = node.right
            if kind == DBL:
                return f"pow({left}, {right})", DBL
            if isinstance(exponent, ast.Constant) and type(
                    exponent.value) is int and 0 <= exponent.value < 64:
                return f"o4p_ipow({left}, {right})", INT
            raise Unsupported("int ** int needs a small constant exponent")
        if kind == DBL:
            raise Unsupported(
                f"operator {op.__name__} needs integer operands")
        if op in _BITWISE:
            return f"({left} {_BITWISE[op]} {right})", INT
        if op in (ast.LShift, ast.RShift):
            count = node.right
            if not (isinstance(count, ast.Constant) and type(
                    count.value) is int and 0 <= count.value < 63):
                raise Unsupported("shift by a non-constant count")
            if op is ast.LShift:
                return f"(int64_t)((uint64_t){left} << {count.value})", INT
            return f"({left} >> {count.value})", INT
        raise Unsupported(f"operator {op.__name__} not supported")

    def _call(self, node: ast.Call) -> tuple[str, str]:
        if node.keywords:
            raise Unsupported("keyword arguments in kernel call")
        func = node.func
        args = [self._expr(arg) for arg in node.args]
        texts = [text for text, _kind in args]
        kinds = [kind for _text, kind in args]
        name = None
        if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name) and func.value.id == "math":
            if func.attr not in _MATH:
                raise Unsupported(f"math.{func.attr} has no C mapping")
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
            if name == "abs" and len(args) == 1:
                return (f"fabs({texts[0]})", DBL) if kinds[0] == DBL \
                    else (f"o4p_iabs({texts[0]})", INT)
            if name in ("min", "max") and len(args) == 2:
                prefix = "o4p_f" if DBL in kinds else "o4p_i"
                return (f"{prefix}{name}({texts[0]}, {texts[1]})",
                        _join(*kinds))
            if name == "int" and len(args) == 1:
                return f"((int64_t){texts[0]})", INT
            if name == "float" and len(args) == 1:
                return f"((double){texts[0]})", DBL
        if name in _MATH:
            arity, form = _MATH[name]
            if len(args) != arity:
                raise Unsupported(f"{name}() takes {arity} argument(s)")
            return form.format(", ".join(
                f"(double){text}" for text in texts)), DBL
        raise Unsupported("call target is not a recognised numeric function")

    # -- arrays ------------------------------------------------------------

    def _element(self, node: ast.Subscript) -> tuple[str, _Array]:
        """The C lvalue of one element and the array it belongs to."""
        base, indices = _split_subscript(node)
        probe = base
        while isinstance(probe, ast.Attribute):
            probe = probe.value
        if not isinstance(probe, ast.Name):
            raise Unsupported("subscript base is not a plain name")
        if probe.id in self.assigned_names or probe.id in self.loop_vars \
                or (base is probe and base.id in self.env):
            raise Unsupported(f"subscript of the scalar {probe.id!r}")
        if any(isinstance(index, ast.Slice) for index in indices):
            raise Unsupported("slice subscript")
        key = ast.dump(base)
        array = self.arrays.get(key)
        if array is None:
            array = self.arrays[key] = _Array(
                number=len(self.arrays), expr=base, ndim=len(indices),
                elem=INT if key in self.int_arrays else DBL)
        if array.ndim != len(indices):
            raise Unsupported("array subscripted with different ranks")
        name = f"a{array.number}"
        offsets = []
        for axis, index in enumerate(indices):
            text, kind = self._expr(index)
            if kind != INT:
                raise Unsupported("non-integer subscript")
            offsets.append(f"O4P_IDX({text}, {name}_n{axis}, {axis}) "
                           f"* {name}_s{axis}")
        return (f"(*({_CTYPE[array.elem]} *)({name} + "
                + " + ".join(offsets) + "))"), array

    def _integer_names(self) -> set[str]:
        """Unannotated names that can only hold integers: those a
        subscript or a nested ``range()`` is computed from through
        integer-preserving operators (anything else there is a
        ``TypeError`` in Python).  Like every typing decision this one
        is checked against the run-time value before each call."""
        found: set[str] = set()

        def visit(expr: ast.expr) -> None:
            if isinstance(expr, ast.Name):
                found.add(expr.id)
            elif isinstance(expr, ast.BinOp) and isinstance(
                    expr.op, _INTEGRAL_OPS):
                visit(expr.left)
                visit(expr.right)
            elif isinstance(expr, ast.UnaryOp) and isinstance(
                    expr.op, (ast.USub, ast.UAdd)):
                visit(expr.operand)

        for node in _walk_site(self.loop.body):
            if isinstance(node, ast.Subscript):
                for index in _split_subscript(node)[1]:
                    visit(index)
            elif isinstance(node, ast.For):
                for part in range_parts(node) or ():
                    visit(part)
        return found

    def _integer_arrays(self) -> set[str]:
        """Bases whose elements must be integers: used as a subscript,
        as a bit-operation operand, or assigned to an ``int`` name."""
        found: set[str] = set()

        def mark(expr: ast.expr) -> None:
            if isinstance(expr, ast.Subscript):
                found.add(ast.dump(_split_subscript(expr)[0]))

        for node in _walk_site(self.loop.body):
            if isinstance(node, ast.Subscript):
                for index in _split_subscript(node)[1]:
                    for inner in ast.walk(index):
                        mark(inner)
            elif isinstance(node, ast.BinOp) and isinstance(
                    node.op, (ast.BitAnd, ast.BitOr, ast.BitXor,
                              ast.LShift, ast.RShift)):
                mark(node.left)
                mark(node.right)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                target = node.targets[0] if isinstance(
                    node, ast.Assign) else node.target
                if isinstance(target, ast.Name) and self.env.get(
                        target.id) in ("int", "bool") \
                        and node.value is not None:
                    mark(node.value)
        return found

    # -- assembly ------------------------------------------------------------

    def _assemble(self, body: list[str]) -> Site:
        """The C function.  Its arguments travel in two vectors the
        loader fills (:class:`repro.cruntime.native.Site`) — ``iv``:
        ``lo, hi, step``, the integer scalars, the integer carried
        values, per array its base address, shape and byte strides,
        three error slots; ``dv``: the float scalars, then the float
        carried values — and the carried and out-only values travel back
        in them."""
        at = {INT: 3, DBL: 0}
        vector = {INT: "iv", DBL: "dv"}

        def take(kind: str) -> str:
            at[kind] += 1
            return f"{vector[kind]}[{at[kind] - 1}]"

        lines = [f"int64_t {self.cname}(int64_t *iv, double *dv)", "{",
                 "    const int64_t lo = iv[0], hi = iv[1], step = iv[2];"]
        for name, kind in self.scalars.items():
            lines.append(f"    const {_CTYPE[kind]} v_{name} = {take(kind)};")
        kinds = {name: self.types.get(name, INT)  # loop variables: INT
                 for name in (*self.carried, *self.outs)}
        slots = {name: take(kind) for name, kind in kinds.items()}
        for array in self.arrays.values():
            name = f"a{array.number}"
            lines.append(f"    char *const {name} = (char *)(intptr_t)"
                         f"{take(INT)};")
            for part in "ns":  # shape, then strides
                lines.append("    const int64_t " + ", ".join(
                    f"{name}_{part}{axis} = {take(INT)}"
                    for axis in range(array.ndim)) + ";")
        lines.append(f"    int64_t *const err = iv + {at[INT]};")
        for name in sorted(self.loop_vars):
            lines.append(f"    int64_t v_{name} = {slots.get(name, '0')};")
        for name in sorted(self.types):
            lines.append(f"    {_CTYPE[self.types[name]]} v_{name} = "
                         f"{slots.get(name, '0')};")
        _lo, _hi, step = range_parts(self.loop)
        lines += self._loop_header("c0_", ["lo", "hi", "step"], step,
                                   self.loop.target.id, 1)
        lines += body
        lines += ["        }", "    }"]
        lines += [f"    {slot} = v_{name};" for name, slot in slots.items()]
        lines += ["    return 0;", "}"]

        operands = [ast.Name(id=name, ctx=ast.Load())
                    for name in (*self.scalars, *self.carried)]
        operands += [ast.Constant(value=0.0 if kinds[name] == DBL else 0)
                     for name in self.outs]
        operands += [array.expr for array in self.arrays.values()]
        spec = (self.cname, "".join(self.scalars.values()),
                tuple((array.elem, array.ndim, array.stored)
                      for array in self.arrays.values()),
                "".join(kinds.values()))
        return Site(number=self.number,
                    ident=f"L{getattr(self.loop, 'lineno', 0)}",
                    ctext="\n".join(lines) + "\n", operands=operands,
                    carried=list(kinds), spec=spec)


class NativeTarget:
    """The translation unit of one definition and where it is built.

    ``probe`` decides the tier once (dipy's ``have_openmp`` idea): a
    compiler must be found and the cache directory must take files, or
    there is no target and every loop stays interpreted.
    """

    def __init__(self, directory: str, compiler: list[str]):
        self.directory = directory
        self.compiler = compiler
        self.sites: list[Site] = []
        #: ``ast.Name`` nodes that stand for the handle the kernels are
        #: bound to; named once the C text (whose digest the name
        #: carries) is complete.
        self._handles: list[ast.Name] = []

    @classmethod
    def probe(cls, directory: str | None):
        """``(target, "")`` or ``(None, why not)``."""
        if directory is None:
            return None, "no cache directory to keep the shared object in"
        compiler, reason = native.find_compiler()
        if compiler is None:
            return None, reason
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError:
            pass
        if not os.access(directory, os.W_OK | os.X_OK):
            return None, f"cache directory {directory!r} is not writable"
        return cls(directory, compiler), ""

    def compile_site(self, loop: ast.For, env: dict[str, str],
                     live_out=frozenset()) -> Site:
        site = SiteCompiler(loop, env, len(self.sites), live_out).compile()
        self.sites.append(site)
        return site

    def handle(self) -> ast.Name:
        node = ast.Name(id="__omp_n__", ctx=ast.Load())
        self._handles.append(node)
        return node

    def ctext(self) -> str:
        return PRELUDE + "".join("\n" + site.ctext for site in self.sites)

    def finish(self) -> tuple[dict | None, str]:
        """Build the shared object and name the handle.

        ``(entry, "")`` — what the cache entry records about the
        variant's native half — or ``(None, reason)`` when the build
        failed and the variant has to be generated again without it.
        """
        ctext = self.ctext()
        name = "__omp_n" + hashlib.sha256(
            ctext.encode()).hexdigest()[:12] + "__"
        for node in self._handles:
            node.id = name
        filename, reason = build(ctext, self.directory, self.compiler)
        if filename is None:
            return None, reason
        return {"handle": name, "so": filename, "c": ctext,
                "sites": [site.spec for site in self.sites],
                "ids": [site.ident for site in self.sites]}, ""


def build(ctext: str, directory: str,
          compiler: list[str]) -> tuple[str | None, str]:
    """Compile ``ctext`` into ``directory``: ``(file name, "")`` or
    ``(None, reason)``.

    The name is the digest of the text, the compiler's identity, the
    flags and the machine, so an identical kernel is built once per
    toolchain whoever asks, and a file in place is reused when it is
    whole (:func:`repro.cruntime.native.is_whole`).
    Everything the build writes — the compiler's temporaries included —
    goes into a directory of its own inside ``directory`` that is
    removed whatever happens; the finished object is moved into place
    with :func:`os.replace`, so readers only ever see it whole.
    """
    identity = native.compiler_identity(tuple(compiler))
    if identity is None:
        return None, f"{compiler[0]} --version failed"
    digest = hashlib.sha256("\0".join((
        ctext, identity, " ".join(compiler[1:] + list(CFLAGS)),
        os.uname().machine, sys.platform,
        str(sys.maxsize))).encode()).hexdigest()[:32]
    filename = digest + ".so"
    final = os.path.join(directory, filename)
    try:
        if native.is_whole(final):
            return filename, ""
    except OSError:
        pass  # not there yet
    try:
        scratch = tempfile.mkdtemp(prefix=".build-", dir=directory)
    except OSError as error:
        return None, f"cache directory not writable ({error})"
    try:
        output = os.path.join(scratch, filename)
        process = subprocess.Popen(
            [*compiler, *CFLAGS, "-x", "c", "-", "-o", output, "-lm"],
            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, start_new_session=True,
            env={**os.environ, "TMPDIR": scratch})
        try:
            _out, errors = process.communicate(
                ctext.encode(), timeout=_BUILD_TIMEOUT_S)
        except BaseException:
            # Timed out or interrupted: the compiler and whatever it
            # started (cc1, as, ld) share the new session's group.
            try:
                os.killpg(process.pid, 9)
            except OSError:
                pass
            process.wait()
            raise
        if process.returncode != 0:
            detail = errors.decode(errors="replace").strip().splitlines()
            return None, "build failed: " + (
                detail[0] if detail else f"exit {process.returncode}")
        with open(output, "rb+") as handle:
            handle.write(native.seal(handle.read()))
        os.replace(output, final)
        return filename, ""
    except subprocess.TimeoutExpired:
        return None, f"build timed out after {_BUILD_TIMEOUT_S:.0f} s"
    except OSError as error:
        return None, f"build failed: {error}"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
