"""Recursive-descent parser for OpenMP directive strings.

Grammar (clause separators — whitespace, commas, or the OpenMP 6.0
semicolon syntax the paper supports — are interchangeable)::

    directive  := name-words [ "(" ident-list ")" ] clause*
    clause     := ident [ "(" clause-argument ")" ]

Combined directive names accept spaces or underscores between words
("parallel for" == "parallel_for"), again per the paper's OpenMP 6.0
syntax support.
"""

from __future__ import annotations

from repro.directives.lexer import TokenKind, TokenStream
from repro.directives.model import Clause, Directive
from repro.directives.spec import (ArgShape, CLAUSES, DIRECTIVES,
                                   REDUCTION_OPERATORS, match_directive)
from repro.env import SCHEDULE_KINDS
from repro.errors import OmpSyntaxError


def parse_directive(text: str) -> Directive:
    """Parse and validate one directive string."""
    stream = TokenStream(text)
    name = _parse_name(stream)
    spec = DIRECTIVES[name]

    arguments: tuple[str, ...] = ()
    clauses: list[Clause] = []
    if name == "declare reduction":
        arguments, combiner = _parse_declare_reduction_head(stream)
        clauses.append(Clause("combiner", expr=combiner))
    elif spec.takes_arguments and stream.current.kind is TokenKind.LPAREN:
        arguments = _parse_ident_list_parens(stream)

    if spec.requires_arguments and not arguments:
        raise OmpSyntaxError(f"{name!r} requires arguments", directive=text)
    if spec.max_arguments is not None and len(arguments) > spec.max_arguments:
        raise OmpSyntaxError(
            f"{name!r} accepts at most {spec.max_arguments} argument(s)",
            directive=text)

    while not stream.at_end():
        if stream.current.kind in (TokenKind.COMMA, TokenKind.SEMICOLON):
            stream.advance()
            continue
        clauses.append(_parse_clause(stream, name))

    _validate(name, clauses, text)
    return Directive(name=name, clauses=tuple(clauses),
                     arguments=arguments, source=text)


def directive_name(text: str) -> str | None:
    """The directive ``text`` names, or ``None`` when it names none —
    for callers that need the construct's kind before (or without)
    validating its clauses."""
    try:
        return _parse_name(TokenStream(text))
    except OmpSyntaxError:
        return None


def _parse_name(stream: TokenStream) -> str:
    if stream.current.kind is not TokenKind.IDENT:
        raise OmpSyntaxError("directive name expected",
                             directive=stream.text)
    words: list[str] = []
    while stream.current.kind is TokenKind.IDENT:
        candidate = words + stream.current.text.lower().split("_")
        if not _prefixes_some_directive(candidate):
            break
        words = candidate
        stream.advance()
    name = match_directive(words)
    if name is None or len(name.split()) != len(words):
        raise OmpSyntaxError(
            f"unknown directive {' '.join(words) or stream.current.text!r}",
            directive=stream.text)
    return name


def _prefixes_some_directive(words: list[str]) -> bool:
    return any(name.split()[: len(words)] == words for name in DIRECTIVES)


def _parse_ident_list_parens(stream: TokenStream) -> tuple[str, ...]:
    stream.expect(TokenKind.LPAREN, "'('")
    names: list[str] = []
    while stream.current.kind is not TokenKind.RPAREN:
        token = stream.expect(TokenKind.IDENT, "identifier")
        names.append(token.text)
        if stream.current.kind is TokenKind.COMMA:
            stream.advance()
    stream.expect(TokenKind.RPAREN, "')'")
    return tuple(names)


def _parse_declare_reduction_head(
        stream: TokenStream) -> tuple[tuple[str, ...], str]:
    """Parse ``(ident : combiner-expression)``.

    The combiner is a Python expression over the special identifiers
    ``omp_out`` and ``omp_in`` (OpenMP 4.0 spelling, kept verbatim).
    """
    stream.expect(TokenKind.LPAREN, "'('")
    ident = stream.expect(TokenKind.IDENT, "reduction identifier").text
    stream.expect(TokenKind.COLON, "':'")
    combiner = stream.raw_until_balanced_rparen().strip()
    if not combiner:
        raise OmpSyntaxError("empty combiner expression",
                             directive=stream.text)
    return (ident,), combiner


def _parse_clause(stream: TokenStream, directive_name: str) -> Clause:
    token = stream.expect(TokenKind.IDENT, "clause name")
    clause_name = token.text.lower()
    spec = CLAUSES.get(clause_name)
    if spec is None or clause_name not in DIRECTIVES[directive_name].clauses:
        raise OmpSyntaxError(
            f"clause {clause_name!r} is not valid on {directive_name!r}",
            directive=stream.text)

    shape = spec.shape
    if shape is ArgShape.NONE:
        return Clause(clause_name)
    if shape is ArgShape.OPT_EXPR:
        if stream.current.kind is TokenKind.LPAREN:
            stream.advance()
            expr = stream.raw_until_balanced_rparen().strip()
            return Clause(clause_name, expr=expr)
        return Clause(clause_name)

    stream.expect(TokenKind.LPAREN, f"'(' after {clause_name!r}")
    if shape is ArgShape.VARLIST:
        names: list[str] = []
        while stream.current.kind is not TokenKind.RPAREN:
            names.append(stream.expect(TokenKind.IDENT, "identifier").text)
            if stream.current.kind is TokenKind.COMMA:
                stream.advance()
        stream.expect(TokenKind.RPAREN, "')'")
        if not names:
            raise OmpSyntaxError(f"empty list in {clause_name!r}",
                                 directive=stream.text)
        return Clause(clause_name, vars=tuple(names))
    if shape is ArgShape.EXPR:
        expr = stream.raw_until_balanced_rparen().strip()
        if not expr:
            raise OmpSyntaxError(f"empty expression in {clause_name!r}",
                                 directive=stream.text)
        return Clause(clause_name, expr=expr)
    if shape is ArgShape.REDUCTION:
        return _parse_reduction_argument(stream, clause_name)
    if shape is ArgShape.DEPEND:
        clause = _parse_reduction_argument(stream, clause_name)
        if clause.op not in ("in", "out", "inout"):
            raise OmpSyntaxError(
                f"depend type must be in/out/inout, got {clause.op!r}",
                directive=stream.text)
        return clause
    if shape is ArgShape.SCHEDULE:
        return _parse_schedule_argument(stream)
    if shape is ArgShape.DEFAULT:
        policy = stream.expect(TokenKind.IDENT, "default policy").text
        stream.expect(TokenKind.RPAREN, "')'")
        if policy not in ("shared", "none", "private", "firstprivate"):
            raise OmpSyntaxError(f"invalid default policy {policy!r}",
                                 directive=stream.text)
        return Clause("default", op=policy)
    raise AssertionError(f"unhandled clause shape {shape}")


def _parse_reduction_argument(stream: TokenStream, name: str) -> Clause:
    token = stream.advance()
    op = token.text
    if token.kind is TokenKind.OPERATOR:
        # "&&" / "||" arrive as single operator tokens already.
        pass
    elif token.kind is TokenKind.IDENT:
        # Built-in word operators or a user identifier registered with
        # `declare reduction`.
        pass
    else:
        raise OmpSyntaxError(f"invalid reduction operator {op!r}",
                             directive=stream.text)
    stream.expect(TokenKind.COLON, "':' after reduction operator")
    names: list[str] = []
    while stream.current.kind is not TokenKind.RPAREN:
        names.append(stream.expect(TokenKind.IDENT, "identifier").text)
        if stream.current.kind is TokenKind.COMMA:
            stream.advance()
    stream.expect(TokenKind.RPAREN, "')'")
    if not names:
        raise OmpSyntaxError("empty reduction variable list",
                             directive=stream.text)
    return Clause(name, op=op, vars=tuple(names))


def _parse_schedule_argument(stream: TokenStream) -> Clause:
    kind = stream.expect(TokenKind.IDENT, "schedule kind").text.lower()
    if kind not in SCHEDULE_KINDS:
        raise OmpSyntaxError(f"invalid schedule kind {kind!r}",
                             directive=stream.text)
    chunk: str | None = None
    if stream.current.kind is TokenKind.COMMA:
        stream.advance()
        chunk = stream.raw_until_balanced_rparen().strip()
        if not chunk:
            raise OmpSyntaxError("empty schedule chunk expression",
                                 directive=stream.text)
    else:
        stream.expect(TokenKind.RPAREN, "')'")
    if kind in ("auto", "runtime") and chunk is not None:
        raise OmpSyntaxError(
            f"schedule({kind}) does not accept a chunk size",
            directive=stream.text)
    return Clause("schedule", op=kind, expr=chunk)


def _validate(name: str, clauses: list[Clause], text: str) -> None:
    spec = DIRECTIVES[name]
    seen: dict[str, int] = {}
    for clause in clauses:
        if clause.name == "combiner":
            continue
        seen[clause.name] = seen.get(clause.name, 0) + 1
    for clause_name, count in seen.items():
        if count > 1 and not CLAUSES[clause_name].repeatable:
            raise OmpSyntaxError(
                f"clause {clause_name!r} may appear at most once",
                directive=text)
    for left, right in spec.exclusive:
        if left in seen and right in seen:
            raise OmpSyntaxError(
                f"clauses {left!r} and {right!r} are mutually exclusive",
                directive=text)
    _validate_no_duplicate_vars(clauses, text)
    _validate_reduction_ops(clauses, text)


def _validate_no_duplicate_vars(clauses: list[Clause], text: str) -> None:
    """A variable may appear in at most one data-sharing clause."""
    sharing = ("private", "firstprivate", "lastprivate", "shared",
               "reduction", "copyin")
    owner: dict[str, str] = {}
    for clause in clauses:
        if clause.name not in sharing:
            continue
        for var in clause.vars:
            previous = owner.get(var)
            # firstprivate+lastprivate on the same variable is the one
            # combination OpenMP allows.
            allowed = {previous, clause.name} == {"firstprivate",
                                                  "lastprivate"}
            if previous is not None and not allowed:
                raise OmpSyntaxError(
                    f"variable {var!r} appears in both {previous!r} and "
                    f"{clause.name!r}", directive=text)
            owner[var] = clause.name


def _validate_reduction_ops(clauses: list[Clause], text: str) -> None:
    for clause in clauses:
        if clause.name != "reduction":
            continue
        op = clause.op or ""
        if op not in REDUCTION_OPERATORS and not op.isidentifier():
            raise OmpSyntaxError(f"invalid reduction operator {op!r}",
                                 directive=text)
