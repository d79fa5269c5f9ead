"""Wait-for graph construction and cycle detection.

Nodes are ``("thread", ident)``, ``("barrier", id)``, ``("lock", key)``,
``("task", id)`` and ``("ordered", id)`` tuples; edges mean *cannot
proceed until*:

* a sleeping thread → the resource its innermost block record names;
* a lock → the thread that currently owns it; an ordered region → the
  team member inside it (``LoopSlot.ordered_holder``);
* a barrier → every team member that has not arrived (threads that
  already left the region make the barrier *unsatisfiable* — recorded
  separately, and treated as fatal as a cycle) and every incomplete
  task of the team (the barrier release predicate requires a drained
  task pool);
* a taskwait thread → each incomplete child; a task → the thread
  executing it, or — while deferred on dependences — its unfinished
  predecessor tasks.  Unclaimed runnable tasks get no out-edge: any
  waiter at a scheduling point can still pick them up, so no deadlock
  can pass through them.

The builder draws thread out-edges only from records whose ``sleeping``
flag is set.  A thread that is awake — executing a stolen task inside a
barrier, or claiming its own children inside a taskwait — contributes
no edges, which structurally rules out the false cycles a naive
"thread is inside barrier()" interpretation would produce.

A cycle (or an unsatisfiable barrier) is a *deadlock*: under the
progress precondition the watchdog enforces, every participant is
asleep waiting on another participant, and nothing outside the cycle
can release any of them.  No cycle means *stall*: something is slow or
imbalanced, but at least one exit path exists.
"""

from __future__ import annotations

from repro.diagnostics.origin import format_location
from repro.diagnostics.state import MUTEX_KINDS

#: Node kinds that represent waitable resources (vs. threads).
RESOURCE_KINDS = ("barrier", "lock", "task", "ordered", "copyprivate")


class WaitGraph:
    """The built graph plus node metadata and the analysis verdicts."""

    def __init__(self):
        self.edges: dict[tuple, list] = {}
        self.meta: dict[tuple, dict] = {}
        #: ``(thread_node, barrier_node, reason)`` for barriers that can
        #: never be released (a non-arrived member left the region).
        self.unsatisfiable: list[tuple] = []

    def add_node(self, node: tuple, **meta) -> tuple:
        self.edges.setdefault(node, [])
        if meta:
            self.meta.setdefault(node, {}).update(meta)
        return node

    def add_edge(self, src: tuple, dst: tuple) -> None:
        self.add_node(src)
        self.add_node(dst)
        if dst not in self.edges[src]:
            self.edges[src].append(dst)

    # -- analysis --------------------------------------------------------

    def find_cycles(self) -> list[list[tuple]]:
        """Every distinct cycle reachable in the graph (iterative DFS;
        cycles deduplicated by node set)."""
        cycles: list[list[tuple]] = []
        seen_sets: list[frozenset] = []
        done: set[tuple] = set()
        for root in self.edges:
            if root in done:
                continue
            stack = [(root, iter(self.edges[root]))]
            path = [root]
            on_path = {root}
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    if child in on_path:
                        cycle = path[path.index(child):]
                        key = frozenset(cycle)
                        if key not in seen_sets:
                            seen_sets.append(key)
                            cycles.append(list(cycle))
                        continue
                    if child in done:
                        continue
                    stack.append((child, iter(self.edges.get(child, ()))))
                    path.append(child)
                    on_path.add(child)
                    advanced = True
                    break
                if not advanced:
                    stack.pop()
                    path.pop()
                    on_path.discard(node)
                    done.add(node)
        return cycles

    def verdict(self) -> str:
        """``"deadlock"`` or ``"stall"``."""
        if self.unsatisfiable or self.find_cycles():
            return "deadlock"
        return "stall"

    def describe_node(self, node: tuple) -> str:
        kind, key = node
        meta = self.meta.get(node, {})
        if kind == "thread":
            name = meta.get("name", "?")
            parts = [f"thread {name} (ident {key}"]
            if meta.get("thread_num", -1) >= 0:
                parts.append(f", team thread {meta['thread_num']}")
            parts.append(")")
            wait = meta.get("wait")
            if wait:
                parts.append(f" waiting in {wait}")
            source = meta.get("source")
            if source:
                parts.append(f" at {source}")
            return "".join(parts)
        if kind == "barrier":
            arrived = meta.get("arrived")
            size = meta.get("size")
            text = f"barrier 0x{key:x}"
            if arrived is not None and size is not None:
                text += f" ({arrived}/{size} arrived)"
            return text
        if kind == "lock":
            label = meta.get("label") or (
                key if isinstance(key, str) else
                f"0x{key:x}" if isinstance(key, int) else repr(key))
            owner = meta.get("owner")
            text = f"{meta.get('mutex_kind', 'lock')} {label}"
            if owner is not None:
                text += f" held by ident {owner}"
            return text
        if kind == "task":
            state = meta.get("state", "?")
            source = meta.get("source")
            text = f"task 0x{key:x} [{state}]"
            if source:
                text += f" from {source}"
            return text
        return f"{kind} {key}"  # ordered / copyprivate


def build_wait_graph(snapshot) -> WaitGraph:
    """Assemble the wait-for graph from a
    :class:`~repro.diagnostics.state.StateSnapshot`."""
    graph = WaitGraph()

    # Threads blocked at a barrier (any record in the stack counts as
    # "arrived"), keyed by barrier resource id.
    arrivals: dict[int, set[int]] = {}
    for ident, records in snapshot.blocked.items():
        for record in records:
            if record.kind == "barrier":
                arrivals.setdefault(record.resource, set()).add(ident)

    for ident, records in snapshot.blocked.items():
        innermost = records[-1]
        thread_node = graph.add_node(
            ("thread", ident),
            name=snapshot.thread_names.get(ident, "?"),
            thread_num=innermost.thread_num,
            wait=innermost.kind,
            source=(format_location(*innermost.location)
                    if innermost.location else None),
            wait_age_s=snapshot.taken_at - innermost.since,
        )
        if not innermost.sleeping:
            # Awake between sleeps (helping with tasks, re-checking a
            # predicate): not a wait-for participant this tick.
            continue
        _thread_edges(graph, snapshot, thread_node, innermost, arrivals)

    return graph


def _thread_edges(graph: WaitGraph, snapshot, thread_node, record,
                  arrivals) -> None:
    kind = record.kind
    if kind == "barrier":
        barrier_node = _barrier_node(graph, snapshot, record, arrivals)
        graph.add_edge(thread_node, barrier_node)
    elif kind in MUTEX_KINDS:
        lock_node = graph.add_node(("lock", record.resource),
                                   mutex_kind=kind,
                                   label=record.detail)
        graph.add_edge(thread_node, lock_node)
        owner = snapshot.owners.get(record.resource)
        if owner is not None:
            graph.meta.setdefault(lock_node, {})["owner"] = owner
            graph.add_edge(lock_node, _plain_thread(graph, snapshot,
                                                    owner))
    elif kind == "taskwait":
        children = record.detail or ()
        for child in children:
            if child.done:
                continue
            # A child this thread is itself executing is progress, not
            # a wait (it reaches here only on torn snapshots).
            running = snapshot.task_running.get(id(child))
            if running is not None and running[1] == record.ident:
                continue
            graph.add_edge(thread_node,
                           _task_node(graph, snapshot, id(child)))
    elif kind == "dependence":
        predecessor = record.detail
        if predecessor is not None and not predecessor.done:
            graph.add_edge(thread_node,
                           _task_node(graph, snapshot, id(predecessor)))
    elif kind == "ordered":
        ordered_node = graph.add_node(("ordered", record.resource))
        graph.add_edge(thread_node, ordered_node)
        slot = record.detail
        team_info = snapshot.teams.get(record.team_id)
        if slot is not None and team_info is not None:
            holder = team_info.members.get(slot.ordered_holder)
            if holder is not None and holder != record.ident:
                graph.add_edge(ordered_node,
                               _plain_thread(graph, snapshot, holder))
    elif kind == "copyprivate":
        graph.add_edge(thread_node,
                       graph.add_node(("copyprivate", record.resource)))


def _plain_thread(graph: WaitGraph, snapshot, ident: int) -> tuple:
    return graph.add_node(("thread", ident),
                          name=snapshot.thread_names.get(ident, "?"))


def _barrier_node(graph: WaitGraph, snapshot, record, arrivals) -> tuple:
    barrier_node = ("barrier", record.resource)
    if barrier_node in graph.meta:
        return barrier_node
    team_info = snapshot.teams.get(record.team_id)
    arrived = arrivals.get(record.resource, set())
    graph.add_node(barrier_node,
                   team=record.team_id,
                   size=team_info.size if team_info else None,
                   arrived=len(arrived))
    if team_info is None:
        return barrier_node
    for thread_num, member_ident in team_info.members.items():
        if member_ident in arrived:
            continue
        member_node = _plain_thread(graph, snapshot, member_ident)
        graph.meta[member_node].setdefault("thread_num", thread_num)
        if thread_num in team_info.departed:
            graph.meta[member_node]["departed"] = True
            graph.unsatisfiable.append(
                (barrier_node, member_node,
                 f"team thread {thread_num} already left the region; "
                 f"the barrier can never be released"))
            graph.add_edge(barrier_node, member_node)
        else:
            graph.add_edge(barrier_node, member_node)
    # The release predicate also requires every team task to be done.
    for table in (snapshot.task_running, snapshot.task_waiting):
        for task_id, (team_id, _) in table.items():
            if team_id == record.team_id:
                graph.add_edge(barrier_node,
                               _task_node(graph, snapshot, task_id))
    return barrier_node


def _task_node(graph: WaitGraph, snapshot, task_id: int) -> tuple:
    task_node = ("task", task_id)
    if task_node in graph.meta:
        return task_node
    running = snapshot.task_running.get(task_id)
    # Predecessors a deferred task still waits for (none left: it was
    # released and sits unclaimed in a deque).
    pending = [predecessor for predecessor
               in snapshot.task_waiting.get(task_id, (None, ()))[1]
               if not predecessor.done]
    state = ("running" if running else
             "deferred" if pending else "runnable")
    graph.add_node(task_node, state=state)
    if running is not None:
        graph.add_edge(task_node,
                       _plain_thread(graph, snapshot, running[1]))
    for predecessor in pending:
        graph.add_edge(task_node,
                       _task_node(graph, snapshot, id(predecessor)))
    return task_node
