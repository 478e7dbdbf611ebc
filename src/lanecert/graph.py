"""Immutable graphs, degeneracy orientation, pathwidth oracle, label transform."""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .encoding import BitReader, Bits, BitWriter, DecodeError

Edge = Tuple[int, int]


class GraphError(ValueError):
    """Raised for malformed graph inputs."""


def edge_key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph with vertex ids 0..n-1, immutable after build."""

    __slots__ = ("n", "edges", "vertex_inputs", "edge_inputs", "_adj", "_eset")

    def __init__(
        self,
        n: int,
        edges: Sequence[Edge],
        vertex_inputs: Dict[int, int],
        edge_inputs: Dict[Edge, int],
    ):
        self.n = n
        self.edges: Tuple[Edge, ...] = tuple(edges)
        self.vertex_inputs = dict(vertex_inputs)
        self.edge_inputs = dict(edge_inputs)
        adj: List[List[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = [tuple(sorted(a)) for a in adj]
        self._eset = frozenset(self.edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    def adj(self, v: int) -> Tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def edge_set(self) -> frozenset:
        return self._eset

    def vertex_tag(self, v: int) -> int:
        return self.vertex_inputs.get(v, 0)

    def edge_tag(self, u: int, v: int) -> int:
        return self.edge_inputs.get(edge_key(u, v), 0)


def build_graph(
    n: int,
    edges: Iterable[Tuple[int, int]],
    vertex_inputs: Optional[Dict[int, int]] = None,
    edge_inputs: Optional[Dict[Tuple[int, int], int]] = None,
) -> Graph:
    if n < 0:
        raise GraphError("negative vertex count")
    seen: Set[Edge] = set()
    norm: List[Edge] = []
    for u, v in edges:
        if u == v:
            raise GraphError("self-loop at %d" % u)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError("endpoint out of range: (%d, %d)" % (u, v))
        e = edge_key(u, v)
        if e in seen:
            raise GraphError("duplicate edge %s" % (e,))
        seen.add(e)
        norm.append(e)
    norm.sort()
    vin = dict(vertex_inputs or {})
    ein = {}
    for (u, v), tag in (edge_inputs or {}).items():
        e = edge_key(u, v)
        if e not in seen:
            raise GraphError("edge input on missing edge %s" % (e,))
        ein[e] = tag
    for v in vin:
        if not 0 <= v < n:
            raise GraphError("vertex input on missing vertex %d" % v)
    return Graph(n, norm, vin, ein)


def connected_components(g: Graph) -> List[List[int]]:
    """Components as sorted id lists, ordered by minimum contained id."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in g.adj(v):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def bfs_parents(
    adj, source: int, vertices: Optional[Set[int]] = None
) -> Tuple[Dict[int, int], Dict[int, Optional[int]]]:
    """BFS over adj (callable v -> iterable); returns (dist, parent) maps.

    If vertices is given the search is restricted to that set.
    """
    dist = {source: 0}
    parent: Dict[int, Optional[int]] = {source: None}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj(v):
            if vertices is not None and w not in vertices:
                continue
            if w not in dist:
                dist[w] = dist[v] + 1
                parent[w] = v
                queue.append(w)
    return dist, parent


def bfs_path(g: Graph, s: int, t: int, vertices: Optional[Set[int]] = None) -> List[int]:
    """Shortest s-t path as a vertex list, restricted to vertices if given."""
    if s == t:
        return [s]
    dist, parent = bfs_parents(g.adj, s, vertices)
    if t not in dist:
        raise GraphError("no path from %d to %d" % (s, t))
    path = [t]
    while path[-1] != s:
        path.append(parent[path[-1]])
    path.reverse()
    return path


@dataclass(frozen=True)
class Orientation:
    """Acyclic orientation: each edge mapped to (tail, head); outdegree ≤ d."""

    direction: Dict[Edge, Tuple[int, int]]
    d: int


def degeneracy_orientation(g: Graph) -> Orientation:
    """Repeated minimum-degree peeling; d equals the graph's degeneracy.

    Each edge is oriented out of the endpoint peeled first, so outdegrees are
    bounded by the degree at removal time and the orientation is acyclic.
    The next vertex peeled is the least by (current degree, id), taken from
    a heap with lazy deletion: O(m log n).
    """
    deg = [g.degree(v) for v in range(g.n)]
    removed = [False] * g.n
    heap = [(deg[v], v) for v in range(g.n)]
    heapq.heapify(heap)
    order: List[int] = []
    d = 0
    while heap:
        dv, v = heapq.heappop(heap)
        if removed[v] or dv != deg[v]:
            continue  # a stale entry: v was peeled or lost a neighbour since
        d = max(d, dv)
        removed[v] = True
        order.append(v)
        for w in g.adj(v):
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    rank = {v: i for i, v in enumerate(order)}
    direction = {}
    for u, v in g.edges:
        direction[(u, v)] = (u, v) if rank[u] < rank[v] else (v, u)
    return Orientation(direction, d)


EXACT_PATHWIDTH_MAX_N = 16


def exact_pathwidth(g: Graph) -> Tuple[int, List[List[int]]]:
    """Exact pathwidth via the vertex-separation subset DP, with witness bags.

    f(S) = min over v in S of max(f(S \\ v), active(S)) where active(S) counts
    vertices of S with a neighbor outside S.  Exponential in n; guarded.
    """
    n = g.n
    if n > EXACT_PATHWIDTH_MAX_N:
        raise GraphError(
            "graph too large for exact pathwidth (n=%d > %d)" % (n, EXACT_PATHWIDTH_MAX_N)
        )
    if n == 0:
        return 0, []
    masks = [0] * n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    full = (1 << n) - 1

    def active(s: int) -> int:
        count = 0
        rest = s
        outside = full & ~s
        while rest:
            b = rest & -rest
            v = b.bit_length() - 1
            if masks[v] & outside:
                count += 1
            rest ^= b
        return count

    f = bytearray(1 << n)
    choice = bytearray(1 << n)
    for s in range(1, 1 << n):
        a = active(s)
        best = 255
        bestv = 0
        rest = s
        while rest:
            b = rest & -rest
            v = b.bit_length() - 1
            val = max(f[s ^ b], a)
            if val < best:
                best = val
                bestv = v
            rest ^= b
        f[s] = best
        choice[s] = bestv

    # Reconstruct an elimination order (last removed first) and build bags.
    order = []
    s = full
    while s:
        v = choice[s]
        order.append(v)
        s ^= 1 << v
    order.reverse()
    pos = {v: i for i, v in enumerate(order)}
    bags: List[List[int]] = []
    for i, v in enumerate(order):
        bag = [v]
        for u in order[:i]:
            if any(pos[w] >= i for w in g.adj(u)):
                bag.append(u)
        bags.append(sorted(bag))
    width = max(len(b) for b in bags) - 1
    if width != f[full]:
        raise GraphError("witness bags have width %d, not the optimum %d" % (width, f[full]))
    return width, bags


# --- edge-label / vertex-label transform -----------------------------------


def id_bits(n: int) -> int:
    """Bits needed to encode an id in 0..n-1."""
    return max(1, (n - 1).bit_length())


def edge_labels_to_vertex_labels(
    g: Graph, o: Orientation, edge_labels: Dict[Edge, Bits]
) -> Dict[int, Bits]:
    """Move each edge's label to its tail vertex, tagged with both endpoints.

    Vertex label layout: varint count, then per stored edge: tail id, head id
    (fixed-width ids), varint label bit-length, label bits.
    """
    idb = id_bits(g.n)
    per_vertex: Dict[int, List[Tuple[int, int, Bits]]] = {v: [] for v in range(g.n)}
    for e, label in edge_labels.items():
        tail, head = o.direction[edge_key(*e)]
        per_vertex[tail].append((tail, head, label))
    out = {}
    for v in range(g.n):
        entries = sorted(per_vertex[v], key=lambda t: (t[0], t[1]))
        w = BitWriter()
        w.write_varint(len(entries))
        for tail, head, label in entries:
            w.write_uint(tail, idb)
            w.write_uint(head, idb)
            w.write_varint(label.nbits)
            w.write_bits(label)
        out[v] = w.getvalue()
    return out


def decode_vertex_label(label: Bits, n: int) -> List[Tuple[int, int, Bits]]:
    """Inverse of the per-vertex packing: list of (tail, head, edge label)."""
    idb = id_bits(n)
    r = BitReader(label)
    count = r.read_varint()
    out = []
    for _ in range(count):
        tail = r.read_uint(idb)
        head = r.read_uint(idb)
        nbits = r.read_varint()
        out.append((tail, head, r.read_bits(nbits)))
    if r.remaining():
        raise DecodeError("trailing bits in vertex label")
    return out


def vertex_labels_to_edge_labels(
    g: Graph, vertex_labels: Dict[int, Bits]
) -> Dict[Edge, Bits]:
    """Reconstruct the per-edge labeling from vertex labels plus endpoint tags."""
    out: Dict[Edge, Bits] = {}
    for v, label in vertex_labels.items():
        for tail, head, bits in decode_vertex_label(label, g.n):
            out[edge_key(tail, head)] = bits
    return out


# --- graph file format ------------------------------------------------------


def write_graph_file(g: Graph) -> str:
    lines = ["%d %d" % (g.n, g.m)]
    lines.extend("%d %d" % e for e in g.edges)
    for v in sorted(g.vertex_inputs):
        lines.append("#input %d %d" % (v, g.vertex_inputs[v]))
    for (u, v) in sorted(g.edge_inputs):
        lines.append("#einput %d %d %d" % (u, v, g.edge_inputs[(u, v)]))
    return "\n".join(lines) + "\n"


def parse_ints(tokens: Sequence[str], error: type, line: str) -> List[int]:
    """tokens as integers; raises error naming line when one is not."""
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise error("non-integer token in line %r" % line) from None


def read_graph_file(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError("bad header: %r" % lines[0])
    n, m = parse_ints(head, GraphError, lines[0])
    edges = []
    vin: Dict[int, int] = {}
    ein: Dict[Edge, int] = {}
    body = lines[1:]
    for ln in body:
        parts = ln.split()
        if parts[0] == "#input":
            if len(parts) != 3:
                raise GraphError("bad #input line: %r" % ln)
            v, tag = parse_ints(parts[1:], GraphError, ln)
            vin[v] = tag
        elif parts[0] == "#einput":
            if len(parts) != 4:
                raise GraphError("bad #einput line: %r" % ln)
            u, v, tag = parse_ints(parts[1:], GraphError, ln)
            ein[(u, v)] = tag
        else:
            if len(parts) != 2:
                raise GraphError("bad edge line: %r" % ln)
            u, v = parse_ints(parts, GraphError, ln)
            edges.append((u, v))
    if len(edges) != m:
        raise GraphError("edge count mismatch: header %d, got %d" % (m, len(edges)))
    return build_graph(n, edges, vin, ein)
