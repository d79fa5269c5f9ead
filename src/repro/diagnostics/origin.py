"""Generated-code → user-source origin mapping.

The ``@omp`` decorator compiles the transformed AST under a synthetic
filename (``<omp4py:module.qualname>``) whose line numbers are relative
to the *dedented* original source (the transformer preserves locations through
``copy_location``/``fix_missing_locations``).  This registry records,
per synthetic filename, the real file and the first line of the
original source, so diagnostics can translate any frame inside
generated code back to the user's editor coordinates.

The table is append-only and tiny (one entry per transformed function),
so lookups are plain dict reads with no locking.
"""

from __future__ import annotations

#: synthetic filename -> (original file, line number of the source's
#: first line — usually the decorator line).
_origins: dict[str, tuple[str, int]] = {}


def register_origin(generated_filename: str, source_file: str,
                    first_line: int) -> None:
    """Record where the source compiled under ``generated_filename``
    really lives (idempotent; last registration wins)."""
    _origins[generated_filename] = (source_file, first_line)


def resolve(filename: str, lineno: int) -> tuple[str, int]:
    """Map a frame location to user coordinates.

    Locations in unregistered files (user scripts calling the runtime
    API directly) pass through unchanged.
    """
    entry = _origins.get(filename)
    if entry is None:
        return filename, lineno
    source_file, first_line = entry
    return source_file, first_line + lineno - 1


def format_location(filename: str, lineno: int) -> str:
    """``file:line`` with the origin mapping applied."""
    resolved_file, resolved_line = resolve(filename, lineno)
    return f"{resolved_file}:{resolved_line}"
