"""The transformer's binding analysis is linear in the function size.

A count, not a timing: with N sibling ``parallel for`` blocks the
enclosing function must be walked once, not once per block (and once
per *name* per block, as it used to be), so the number of
``_AssignedVisitor.visit`` calls may grow at most linearly with N.
"""

from repro import Mode
from repro.transform import scope


def _kernel_source(blocks: int) -> str:
    lines = ["def kernel(n, a):", "    total = 0"]
    for index in range(blocks):
        lines += [
            f"    part{index} = 0",
            f'    with omp("parallel for reduction(+:part{index})"):',
            "        for i in range(n):",
            f"            scaled = a[i] * {index + 1}",
            f"            part{index} += scaled",
            f"    total += part{index}",
        ]
    lines.append("    return total")
    return "\n".join(lines) + "\n"


def _visits(omp_compile, monkeypatch, blocks: int) -> int:
    calls = 0
    original = scope._AssignedVisitor.visit

    def counting_visit(self, node):
        nonlocal calls
        calls += 1
        return original(self, node)

    with monkeypatch.context() as patch:
        patch.setattr(scope._AssignedVisitor, "visit", counting_visit)
        kernel = omp_compile(_kernel_source(blocks), "kernel", Mode.HYBRID)
    assert kernel(4, [1, 2, 3, 4]) == 10 * blocks * (blocks + 1) // 2
    return calls


def test_binding_walks_grow_linearly_with_sibling_blocks(omp_compile,
                                                         monkeypatch):
    small = _visits(omp_compile, monkeypatch, 4)
    large = _visits(omp_compile, monkeypatch, 32)
    assert small > 0
    # Linear growth with a non-negative constant term stays below the
    # ratio of the block counts; the per-name re-walk was at 43x here.
    assert large <= 8 * small
