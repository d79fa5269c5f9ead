"""Per-thread OpenMP contexts, implemented as task stacks.

Following the paper (Section III-C): the context of each thread is a
stack whose first entry is the enclosing parallel region's implicit task;
further entries are pushed as the thread processes directives (explicit
tasks) and popped as they complete.  The stack is stored per thread in
``threading.local`` — the pure runtime's analogue of the ``thread_local``
C variable used by the cruntime.

Threads created outside OMP4Py (including the initial thread) are lazily
given a context whose team is a single-thread implicit team, making them
independent initial threads, as the paper specifies.
"""

from __future__ import annotations


class TaskFrame:
    """One entry of a thread's context stack.

    ``kind`` is ``"implicit"`` for the per-thread task of a parallel
    region (or of the serial implicit region) and ``"task"`` for an
    explicit task being executed.
    """

    __slots__ = ("team", "thread_num", "parent", "kind", "nthreads_var",
                 "ws_counter", "children", "depend_map", "depend_refs",
                 "task_id", "forked")

    def __init__(self, team, thread_num: int, parent: "TaskFrame | None",
                 kind: str, nthreads_var: int):
        self.team = team
        self.thread_num = thread_num
        self.parent = parent
        self.kind = kind
        #: ``id(TaskNode)`` when this frame executes an explicit task,
        #: else 0 — the parent link recorded by ``task_submit`` and
        #: ``taskwait`` trace events (see :mod:`repro.explain.dag`).
        self.task_id = 0
        #: The team this task forked and has not joined yet, else
        #: ``None``: how a tool's ``parallel_begin``/``parallel_end``
        #: callback, which fires on the encountering thread, learns
        #: the region id.
        self.forked = None
        #: ICV controlling the size of the next team this task forks.
        self.nthreads_var = nthreads_var
        #: Count of worksharing regions this thread has encountered in
        #: the current region; used to key shared worksharing slots
        #: (every team member meets the same constructs in the same
        #: order, an OpenMP conformance requirement).
        self.ws_counter = 0
        #: Direct child task nodes, awaited by ``taskwait``.
        self.children = []
        #: Dependence state of the tasks this frame generates:
        #: id(object) -> (last writer TaskNode | None, readers since).
        #: Keys follow the paper's Section V sketch — object identity —
        #: and ``depend_refs`` pins the objects so ids stay unique.
        self.depend_map: dict = {}
        self.depend_refs: dict = {}
