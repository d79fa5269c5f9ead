"""Repo-root pytest bootstrap: make ``src/`` importable when the
package is not pip-installed (e.g. offline checkouts), and keep the
suite's ``@omp`` code cache in a directory of its own, so that a test
run neither reads what another run or the user's programs left in
``~/.cache/omp4py`` nor writes there (subprocesses inherit it)."""

import atexit
import os
import pathlib
import shutil
import sys
import tempfile

_SRC = pathlib.Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

os.environ["OMP4PY_CACHE"] = tempfile.mkdtemp(prefix="omp4py-test-cache-")
atexit.register(shutil.rmtree, os.environ["OMP4PY_CACHE"],
                ignore_errors=True)
