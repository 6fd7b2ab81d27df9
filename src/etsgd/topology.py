"""Undirected peer graphs and neighbor queries."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


class TopologyError(ValueError):
    """Raised for malformed graphs or out-of-range node ids."""


@dataclass(frozen=True)
class Topology:
    """Simple undirected graph on nodes 0..n-1; edges stored as (u, v) with u < v."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise TopologyError(f"need at least one node, got n={self.n}")
        for u, v in self.edges:
            if u == v:
                raise TopologyError(f"self-loop on node {u}")
            if not (0 <= u < v < self.n):
                raise TopologyError(f"edge ({u}, {v}) out of range for n={self.n}")


def from_edges(n: int, pairs) -> Topology:
    """Build a topology from an iterable of (u, v) pairs; order and duplicates are ignored."""
    edges = set()
    for u, v in pairs:
        u, v = int(u), int(v)
        if u == v:
            raise TopologyError(f"self-loop on node {u}")
        edges.add((min(u, v), max(u, v)))
    return Topology(n, frozenset(edges))


def ring(n: int) -> Topology:
    """Cycle over n nodes; ring(2) is a single edge, ring(1) has none."""
    if n < 1:
        raise TopologyError(f"need at least one node, got n={n}")
    if n == 1:
        return Topology(1, frozenset())
    if n == 2:
        return Topology(2, frozenset({(0, 1)}))
    return from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def line(n: int) -> Topology:
    """Path over n nodes."""
    if n < 1:
        raise TopologyError(f"need at least one node, got n={n}")
    return Topology(n, frozenset((i, i + 1) for i in range(n - 1)))


def complete(n: int) -> Topology:
    """All pairs connected."""
    if n < 1:
        raise TopologyError(f"need at least one node, got n={n}")
    return Topology(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def neighbors(topo: Topology, node: int) -> list[int]:
    """Sorted neighbor ids of a node."""
    if not (0 <= node < topo.n):
        raise TopologyError(f"node {node} out of range for n={topo.n}")
    out = set()
    for u, v in topo.edges:
        if u == node:
            out.add(v)
        elif v == node:
            out.add(u)
    return sorted(out)


def is_connected(topo: Topology) -> bool:
    """True when every node is reachable from node 0 (single node counts)."""
    if topo.n == 1:
        return True
    adj: dict[int, list[int]] = {i: [] for i in range(topo.n)}
    for u, v in topo.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == topo.n


def load_edge_list(path: str | Path, n: int) -> Topology:
    """Read a topology from text: one 'u v' pair per line, '#' starts a comment."""
    pairs = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 2:
            raise TopologyError(f"{path}:{lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise TopologyError(f"{path}:{lineno}: expected integers, got {raw!r}") from None
        if u == v:
            raise TopologyError(f"{path}:{lineno}: self-loop on node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise TopologyError(f"{path}:{lineno}: edge ({u}, {v}) out of range for n={n}")
        pairs.append((u, v))
    return from_edges(n, pairs)
