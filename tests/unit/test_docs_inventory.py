"""DESIGN.md §3 names the files that exist."""

import itertools
import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parent.parent.parent


def _expand(spelling: str) -> list[str]:
    """``a/{b,c/d}.py`` -> ``a/b.py``, ``a/c/d.py``."""
    parts = re.split(r"\{([^}]*)\}", spelling)
    choices = [part.split(",") if index % 2 else [part]
               for index, part in enumerate(parts)]
    return ["".join(choice) for choice in itertools.product(*choices)]


def test_every_python_path_in_the_inventory_exists():
    design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("\n## 3. ")[1].split("\n## ")[0]
    named = [path for spelling in re.findall(r"`([^`\s]+\.py)`", section)
             for path in _expand(spelling)]
    assert "runtime/lowlevel.py" in named  # the pattern still bites
    missing = [path for path in named
               if not (REPO / path).exists()
               and not (REPO / "src" / "repro" / path).exists()]
    assert missing == []
