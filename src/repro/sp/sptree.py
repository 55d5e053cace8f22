"""Series-parallel decomposition trees (paper Sec. II-C, Fig. 1).

A decomposition tree describes how a two-terminal series-parallel DAG is
composed from single edges:

- a **leaf** represents one edge of the original graph,
- a **series** node represents the sequential composition of its children
  (child ``i``'s sink equals child ``i+1``'s source) — drawn rectangular in
  the paper's figures,
- a **parallel** node represents the parallel composition of its children
  (all children share the same source and sink) — drawn round.

Series and parallel nodes are kept *n-ary and maximal* (a series chain
``a - b - c`` is one series node with three children), matching the paper's
Fig. 1 and the subgraph-extraction rules of Sec. III-C.

Every tree knows the two terminals ``source``/``sink`` of the subgraph it
represents and its ``outsize`` — the number of its edges whose endpoint is
the sink (needed by Algorithm 1's growth condition).
"""

from __future__ import annotations

from typing import Hashable, Iterator, List, Sequence, Set, Tuple

__all__ = ["SPTree", "SPLeaf", "SPSeries", "SPParallel", "series", "parallel"]

Node = Hashable


class SPTree:
    """Base class for decomposition-tree nodes."""

    source: Node
    sink: Node

    @property
    def outsize(self) -> int:
        """Number of edges in this tree whose endpoint is :attr:`sink`."""
        raise NotImplementedError

    def leaf_edges(self) -> Iterator[Tuple[Node, Node]]:
        """All original-graph edges represented by this tree, in order.

        One explicit pre-order stack for the whole tree rather than a
        ``yield from`` generator chain per tree level.
        """
        stack: List[SPTree] = [self]
        while stack:
            t = stack.pop()
            if isinstance(t, SPLeaf):
                yield (t.source, t.sink)
            else:
                stack.extend(reversed(t.children))

    def nodes(self) -> Set[Node]:
        """All graph nodes covered by this tree (terminals included)."""
        out: Set[Node] = set()
        for u, v in self.leaf_edges():
            out.add(u)
            out.add(v)
        return out

    def inner_nodes(self) -> Iterator["SPTree"]:
        """All non-leaf descendants including ``self`` (pre-order)."""
        raise NotImplementedError

    @property
    def n_edges(self) -> int:
        return sum(1 for _ in self.leaf_edges())

    # -- pretty printing ------------------------------------------------
    def pretty(self, indent: int = 0) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.pretty()


class SPLeaf(SPTree):
    """A single edge ``(u, v)`` — the paper's ``[u, v]`` notation."""

    __slots__ = ("source", "sink")

    def __init__(self, u: Node, v: Node) -> None:
        self.source = u
        self.sink = v

    @property
    def outsize(self) -> int:
        return 1

    def leaf_edges(self) -> Iterator[Tuple[Node, Node]]:
        yield (self.source, self.sink)

    def inner_nodes(self) -> Iterator[SPTree]:
        return iter(())

    def pretty(self, indent: int = 0) -> str:
        return " " * indent + f"[{self.source} - {self.sink}]"

    def __repr__(self) -> str:
        return f"SPLeaf({self.source!r}, {self.sink!r})"


class SPSeries(SPTree):
    """Sequential composition; terminals are first child's source, last child's sink."""

    __slots__ = ("children", "source", "sink")

    def __init__(self, children: Sequence[SPTree]) -> None:
        if len(children) < 2:
            raise ValueError("series node needs at least 2 children")
        for a, b in zip(children, children[1:]):
            if a.sink != b.source:
                raise ValueError(
                    f"series children do not chain: {a.sink!r} != {b.source!r}"
                )
        self.children: List[SPTree] = list(children)
        self.source = children[0].source
        self.sink = children[-1].sink

    @property
    def outsize(self) -> int:
        return self.children[-1].outsize

    def inner_nodes(self) -> Iterator[SPTree]:
        yield self
        for c in self.children:
            yield from c.inner_nodes()

    def pretty(self, indent: int = 0) -> str:
        head = " " * indent + f"S[{self.source} - {self.sink}]"
        return "\n".join([head] + [c.pretty(indent + 2) for c in self.children])

    def __repr__(self) -> str:
        return f"SPSeries({self.source!r} -> {self.sink!r}, {len(self.children)} children)"


class SPParallel(SPTree):
    """Parallel composition; all children share the same terminals."""

    __slots__ = ("children", "source", "sink")

    def __init__(self, children: Sequence[SPTree]) -> None:
        if len(children) < 2:
            raise ValueError("parallel node needs at least 2 children")
        src, snk = children[0].source, children[0].sink
        for c in children[1:]:
            if c.source != src or c.sink != snk:
                raise ValueError("parallel children must share terminals")
        self.children: List[SPTree] = list(children)
        self.source = src
        self.sink = snk

    @property
    def outsize(self) -> int:
        return sum(c.outsize for c in self.children)

    def inner_nodes(self) -> Iterator[SPTree]:
        yield self
        for c in self.children:
            yield from c.inner_nodes()

    def pretty(self, indent: int = 0) -> str:
        head = " " * indent + f"P({self.source} - {self.sink})"
        return "\n".join([head] + [c.pretty(indent + 2) for c in self.children])

    def __repr__(self) -> str:
        return f"SPParallel({self.source!r} -> {self.sink!r}, {len(self.children)} children)"


def series(left: SPTree, right: SPTree) -> SPTree:
    """Sequential composition keeping series nodes maximal (flattening)."""
    if left.sink != right.source:
        raise ValueError(f"cannot chain {left!r} and {right!r}")
    parts: List[SPTree] = []
    for t in (left, right):
        if isinstance(t, SPSeries):
            parts.extend(t.children)
        else:
            parts.append(t)
    return SPSeries(parts)


def parallel(trees: Sequence[SPTree]) -> SPTree:
    """Parallel composition keeping parallel nodes maximal (flattening)."""
    if len(trees) == 1:
        return trees[0]
    parts: List[SPTree] = []
    for t in trees:
        if isinstance(t, SPParallel):
            parts.extend(t.children)
        else:
            parts.append(t)
    return SPParallel(parts)
