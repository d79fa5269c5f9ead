"""The repository's end-to-end benchmark (see README.md in this directory).

``run.py`` is the one command; ``compare.py`` the A/A and
parent-vs-change tool.  The other modules are its parts: workload
definitions, the finegrain kernels, the per-mode and serving
measurement loops, the outside-in layer ledger and the span recorder.
"""
