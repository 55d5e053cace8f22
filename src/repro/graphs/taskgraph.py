"""Task-graph substrate.

A :class:`TaskGraph` is a directed acyclic graph whose nodes are *tasks* and
whose edges are *data dependencies*.  Every task carries the four parameters
used by the platform model of Wilhelm et al. [5] (the cost model the paper
builds on):

``complexity``
    Number of operations per data point (dimensionless work factor).
``parallelizability``
    Fraction ``p in [0, 1]`` of the task that can be parallelized; the
    achievable speedup on a device with ``c`` lanes follows Amdahl's law,
    ``1 / ((1 - p) + p / c)``.
``streamability``
    Dataflow pipelining factor (> 0) describing how well the task maps to an
    FPGA pipeline; it scales the effective FPGA throughput.
``area``
    FPGA area requirement (arbitrary units, proportional to complexity in the
    paper's augmentation).

Edges carry ``data_mb``, the amount of data (in MB) transferred from producer
to consumer (the paper assumes a constant 100 MB between tasks).

The class is a thin, deterministic adjacency structure optimised for the
access patterns of the mapping algorithms (topological sweeps, predecessor
iteration, subgraph extraction).  Conversion to/from :mod:`networkx` is
provided for interoperability; networkx is an optional dependency,
imported only by those two conversions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["TaskParams", "TaskGraph", "GraphError", "DEFAULT_DATA_MB"]

#: Default per-edge data volume in MB (Sec. IV-B of the paper).
DEFAULT_DATA_MB = 100.0


class GraphError(ValueError):
    """Raised for structurally invalid graph operations (cycles, dangling ids)."""


@dataclass
class TaskParams:
    """Per-task model parameters (see module docstring)."""

    complexity: float = 1.0
    parallelizability: float = 0.0
    streamability: float = 1.0
    area: float = 0.0

    def copy(self) -> "TaskParams":
        return TaskParams(
            self.complexity, self.parallelizability, self.streamability, self.area
        )


@dataclass
class _Node:
    params: TaskParams = field(default_factory=TaskParams)
    succ: List[int] = field(default_factory=list)
    pred: List[int] = field(default_factory=list)


class TaskGraph:
    """A directed acyclic task graph with model parameters.

    Nodes are integer ids.  Insertion order of nodes and edges is preserved,
    which keeps every algorithm in the library deterministic for a fixed
    input.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, _Node] = {}
        self._edges: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_task(
        self,
        tid: int,
        *,
        complexity: float = 1.0,
        parallelizability: float = 0.0,
        streamability: float = 1.0,
        area: float = 0.0,
    ) -> int:
        """Add a task.  Re-adding an existing id updates its parameters."""
        params = TaskParams(complexity, parallelizability, streamability, area)
        if tid in self._nodes:
            self._nodes[tid].params = params
        else:
            self._nodes[tid] = _Node(params=params)
        return tid

    def add_edge(self, u: int, v: int, *, data_mb: float = DEFAULT_DATA_MB) -> None:
        """Add a dependency edge ``u -> v``.

        Both endpoints are created with default parameters if absent.
        Parallel edges are collapsed: re-adding an edge overwrites its data
        volume.  Self-loops are rejected.
        """
        if u == v:
            raise GraphError(f"self-loop on task {u}")
        for t in (u, v):
            if t not in self._nodes:
                self._nodes[t] = _Node()
        if (u, v) not in self._edges:
            self._nodes[u].succ.append(v)
            self._nodes[v].pred.append(u)
        self._edges[(u, v)] = float(data_mb)

    def remove_edge(self, u: int, v: int) -> None:
        if (u, v) not in self._edges:
            raise GraphError(f"no edge {u} -> {v}")
        del self._edges[(u, v)]
        self._nodes[u].succ.remove(v)
        self._nodes[v].pred.remove(u)

    def remove_task(self, tid: int) -> None:
        if tid not in self._nodes:
            raise GraphError(f"no task {tid}")
        for v in list(self._nodes[tid].succ):
            self.remove_edge(tid, v)
        for u in list(self._nodes[tid].pred):
            self.remove_edge(u, tid)
        del self._nodes[tid]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def tasks(self) -> List[int]:
        """Task ids in insertion order."""
        return list(self._nodes)

    def edges(self) -> List[Tuple[int, int]]:
        """Edges in insertion order."""
        return list(self._edges)

    def has_task(self, tid: int) -> bool:
        return tid in self._nodes

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edges

    def params(self, tid: int) -> TaskParams:
        return self._nodes[tid].params

    def data_mb(self, u: int, v: int) -> float:
        return self._edges[(u, v)]

    def set_data_mb(self, u: int, v: int, data_mb: float) -> None:
        if (u, v) not in self._edges:
            raise GraphError(f"no edge {u} -> {v}")
        self._edges[(u, v)] = float(data_mb)

    def successors(self, tid: int) -> List[int]:
        return list(self._nodes[tid].succ)

    def predecessors(self, tid: int) -> List[int]:
        return list(self._nodes[tid].pred)

    def out_degree(self, tid: int) -> int:
        return len(self._nodes[tid].succ)

    def in_degree(self, tid: int) -> int:
        return len(self._nodes[tid].pred)

    def sources(self) -> List[int]:
        return [t for t, n in self._nodes.items() if not n.pred]

    def sinks(self) -> List[int]:
        return [t for t, n in self._nodes.items() if not n.succ]

    def input_mb(self, tid: int, *, source_default: float = DEFAULT_DATA_MB) -> float:
        """Total input data volume of a task.

        Source tasks (no predecessors) are assumed to read ``source_default``
        MB from main memory, so they carry non-trivial work as well.
        """
        preds = self._nodes[tid].pred
        if not preds:
            return source_default
        return sum(self._edges[(p, tid)] for p in preds)

    # ------------------------------------------------------------------
    # orders and structure
    # ------------------------------------------------------------------
    def topological_order(self) -> List[int]:
        """Kahn topological order with insertion-order tie breaking."""
        indeg = {t: len(n.pred) for t, n in self._nodes.items()}
        queue = [t for t in self._nodes if indeg[t] == 0]
        order: List[int] = []
        head = 0
        while head < len(queue):
            t = queue[head]
            head += 1
            order.append(t)
            for s in self._nodes[t].succ:
                indeg[s] -= 1
                if indeg[s] == 0:
                    queue.append(s)
        if len(order) != len(self._nodes):
            raise GraphError("graph contains a cycle")
        return order

    def bfs_levels(self) -> List[List[int]]:
        """Breadth-first levels: level of a task = longest path from a source."""
        level = {t: 0 for t in self._nodes}
        for t in self.topological_order():
            for s in self._nodes[t].succ:
                level[s] = max(level[s], level[t] + 1)
        n_levels = max(level.values(), default=-1) + 1
        out: List[List[int]] = [[] for _ in range(n_levels)]
        for t in self._nodes:  # insertion order within level
            out[level[t]].append(t)
        return out

    def bfs_order(self) -> List[int]:
        """Breadth-first schedule order (level by level)."""
        return [t for lvl in self.bfs_levels() for t in lvl]

    def is_dag(self) -> bool:
        try:
            self.topological_order()
            return True
        except GraphError:
            return False

    def validate(self) -> None:
        """Raise :class:`GraphError` if the graph is not a well-formed DAG."""
        if not self._nodes:
            raise GraphError("empty graph")
        self.topological_order()
        for (u, v), d in self._edges.items():
            if d < 0:
                raise GraphError(f"negative data volume on edge {u} -> {v}")
        for t, n in self._nodes.items():
            p = n.params
            if (p.complexity < 0 or p.streamability <= 0
                    or not 0 <= p.area < math.inf):
                raise GraphError(f"invalid parameters on task {t}")
            if not 0.0 <= p.parallelizability <= 1.0:
                raise GraphError(f"parallelizability out of range on task {t}")

    def longest_path_length(self) -> int:
        """Number of edges on the longest path (graph depth)."""
        dist = {t: 0 for t in self._nodes}
        for t in self.topological_order():
            for s in self._nodes[t].succ:
                dist[s] = max(dist[s], dist[t] + 1)
        return max(dist.values(), default=0)

    def descendants(self, tid: int) -> set:
        seen = set()
        stack = list(self._nodes[tid].succ)
        while stack:
            t = stack.pop()
            if t not in seen:
                seen.add(t)
                stack.extend(self._nodes[t].succ)
        return seen

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------
    def copy(self) -> "TaskGraph":
        # Adjacency lists are copied as-is: every mutator keeps each
        # node's succ/pred order equal to its edges' order in ``_edges``,
        # so this is what re-adding every task and edge would build.
        g = TaskGraph()
        g._nodes = {
            t: _Node(n.params.copy(), list(n.succ), list(n.pred))
            for t, n in self._nodes.items()
        }
        g._edges = dict(self._edges)
        return g

    def subgraph(self, nodes: Iterable[int]) -> "TaskGraph":
        """Node-induced subgraph (parameters and edge data preserved)."""
        keep = set(nodes)
        g = TaskGraph()
        for t in self._nodes:
            if t in keep:
                p = self._nodes[t].params
                g.add_task(
                    t,
                    complexity=p.complexity,
                    parallelizability=p.parallelizability,
                    streamability=p.streamability,
                    area=p.area,
                )
        for (u, v), d in self._edges.items():
            if u in keep and v in keep:
                g.add_edge(u, v, data_mb=d)
        return g

    def normalized(
        self, *, source_id: Optional[int] = None, sink_id: Optional[int] = None
    ) -> Tuple["TaskGraph", int, int]:
        """Return ``(graph, source, sink)`` with a single source and sink.

        If the graph already has a unique source/sink those are returned on a
        copy.  Otherwise virtual zero-work tasks are inserted, connected with
        zero-data edges (Sec. III-C: "we may just insert new start and end
        nodes").  Fresh ids default to ``max(id) + 1`` and ``+ 2``.
        """
        g = self.copy()
        sources = g.sources()
        sinks = g.sinks()
        next_id = max(self._nodes) + 1 if self._nodes else 0
        if len(sources) == 1:
            src = sources[0]
        else:
            src = source_id if source_id is not None else next_id
            next_id = max(next_id, src + 1)
            g.add_task(src, complexity=0.0, streamability=1.0)
            for s in sources:
                g.add_edge(src, s, data_mb=0.0)
        if len(sinks) == 1:
            snk = sinks[0]
        else:
            snk = sink_id if sink_id is not None else next_id
            g.add_task(snk, complexity=0.0, streamability=1.0)
            for t in sinks:
                g.add_edge(t, snk, data_mb=0.0)
        return g, src, snk

    def transitive_reduction(self) -> "TaskGraph":
        """Copy with all transitive (redundant) edges removed.

        An edge ``u -> v`` is redundant iff ``v`` is also reachable from
        another successor of ``u``.  Reachability sets are built once in
        reverse Kahn order, each the union of its successors' sets.
        """
        reach: Dict[int, Set[int]] = {}
        for t in reversed(self.topological_order()):
            r: Set[int] = set()
            for s in self._nodes[t].succ:
                r.add(s)
                r |= reach[s]
            reach[t] = r
        g = self.copy()
        for u, v in self._edges:
            if any(v in reach[w] for w in self._nodes[u].succ if w != v):
                g.remove_edge(u, v)
        return g

    def relabeled(self) -> Tuple["TaskGraph", Dict[int, int]]:
        """Copy with ids renumbered 0..n-1 in topological order.

        Returns the new graph and the old-id -> new-id map.
        """
        order = self.topological_order()
        remap = {old: new for new, old in enumerate(order)}
        g = TaskGraph()
        for old in order:
            p = self._nodes[old].params
            g.add_task(
                remap[old],
                complexity=p.complexity,
                parallelizability=p.parallelizability,
                streamability=p.streamability,
                area=p.area,
            )
        for (u, v), d in self._edges.items():
            g.add_edge(remap[u], remap[v], data_mb=d)
        return g, remap

    # ------------------------------------------------------------------
    # interoperability
    # ------------------------------------------------------------------
    def to_networkx(self) -> "nx.DiGraph":
        import networkx as nx

        g = nx.DiGraph()
        for t, n in self._nodes.items():
            p = n.params
            g.add_node(
                t,
                complexity=p.complexity,
                parallelizability=p.parallelizability,
                streamability=p.streamability,
                area=p.area,
            )
        for (u, v), d in self._edges.items():
            g.add_edge(u, v, data_mb=d)
        return g

    @classmethod
    def from_networkx(cls, g: "nx.DiGraph") -> "TaskGraph":
        tg = cls()
        for t, attrs in g.nodes(data=True):
            tg.add_task(
                int(t),
                complexity=attrs.get("complexity", 1.0),
                parallelizability=attrs.get("parallelizability", 0.0),
                streamability=attrs.get("streamability", 1.0),
                area=attrs.get("area", 0.0),
            )
        for u, v, attrs in g.edges(data=True):
            tg.add_edge(int(u), int(v), data_mb=attrs.get("data_mb", DEFAULT_DATA_MB))
        return tg

    @classmethod
    def from_edges(
        cls, edges: Sequence[Tuple[int, int]], *, data_mb: float = DEFAULT_DATA_MB
    ) -> "TaskGraph":
        """Build a graph from an edge list with uniform data volumes."""
        tg = cls()
        for u, v in edges:
            tg.add_edge(u, v, data_mb=data_mb)
        return tg

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __contains__(self, tid: int) -> bool:
        return tid in self._nodes

    def __iter__(self) -> Iterator[int]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return f"TaskGraph(n_tasks={self.n_tasks}, n_edges={self.n_edges})"
