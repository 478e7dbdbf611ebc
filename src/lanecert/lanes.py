"""Lane partitions, completions, and the recursive low-congestion embedding."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .graph import (
    Edge,
    Graph,
    GraphError,
    bfs_path,
    edge_key,
    is_connected,
)
from .intervals import (
    Interval,
    IntervalRepresentation,
    greedy_lane_split,
    validate,
)


class LaneError(ValueError):
    """Raised for invalid lane partitions or construction preconditions."""


def lane_bounds(k: int) -> Tuple[int, int, int]:
    """(f(k), g(k), h(k)): lane count / weak congestion / full congestion caps."""
    if k < 1:
        raise LaneError("k must be >= 1")
    f, g = 1, 0
    for i in range(2, k + 1):
        f, g = 2 + 2 * (i - 1) * f, 2 + g + 2 * i * f
    return f, g, g + f - 1


class LanePartition:
    """Vertex sequences (lanes); within a lane intervals strictly precede."""

    __slots__ = ("lanes", "lane_of")

    def __init__(self, lanes: Sequence[Sequence[int]]):
        self.lanes: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(lane) for lane in lanes if len(lane) > 0
        )
        self.lane_of: Dict[int, Tuple[int, int]] = {}
        for i, lane in enumerate(self.lanes):
            for p, v in enumerate(lane):
                if v in self.lane_of:
                    raise LaneError("vertex %d in two lanes" % v)
                self.lane_of[v] = (i, p)

    @property
    def k(self) -> int:
        return len(self.lanes)

    def heads(self) -> List[int]:
        return [lane[0] for lane in self.lanes]


def validate_lane_partition(
    g: Graph, ir: IntervalRepresentation, lp: LanePartition
) -> Optional[str]:
    """None if lp partitions V(g) into strict interval chains, else a reason."""
    if len(lp.lane_of) != g.n:
        return "lanes cover %d of %d vertices" % (len(lp.lane_of), g.n)
    for i, lane in enumerate(lp.lanes):
        for a, b in zip(lane, lane[1:]):
            if not ir[a].precedes(ir[b]):
                return "lane %d not interval-ordered at (%d, %d)" % (i, a, b)
    return None


@dataclass(frozen=True)
class Completion:
    """E1 = intra-lane successor edges, E2 = lane-head chain edges."""

    e1: Tuple[Edge, ...]
    e2: Tuple[Edge, ...]
    edges: frozenset  # E ∪ E1 ∪ E2


def completion(g: Graph, ir: IntervalRepresentation, lp: LanePartition) -> Completion:
    err = validate_lane_partition(g, ir, lp)
    if err:
        raise LaneError(err)
    e1 = []
    for lane in lp.lanes:
        for a, b in zip(lane, lane[1:]):
            e1.append(edge_key(a, b))
    e2 = []
    heads = lp.heads()
    for a, b in zip(heads, heads[1:]):
        e2.append(edge_key(a, b))
    return Completion(tuple(e1), tuple(e2), g.edge_set() | set(e1) | set(e2))


@dataclass
class Embedding:
    """Routes for virtual completion edges; kind 'weak' (E1) or 'head' (E2)."""

    routes: Dict[Edge, List[int]] = field(default_factory=dict)
    kinds: Dict[Edge, str] = field(default_factory=dict)

    def add(self, e: Edge, path: List[int], kind: str) -> None:
        if edge_key(path[0], path[-1]) != e:
            raise LaneError("route %s does not join the endpoints of %s" % (path, e))
        self.routes[e] = path
        self.kinds[e] = kind

    def congestion_map(self, weak_only: bool = False) -> Dict[Edge, int]:
        counts: Dict[Edge, int] = {}
        for e, path in self.routes.items():
            if weak_only and self.kinds.get(e) != "weak":
                continue
            for he in {edge_key(a, b) for a, b in zip(path, path[1:])}:
                counts[he] = counts.get(he, 0) + 1
        return counts


def measure_congestion(e: Embedding, weak_only: bool = False) -> int:
    counts = e.congestion_map(weak_only)
    return max(counts.values(), default=0)


def build_lane_partition(
    g: Graph, ir: IntervalRepresentation
) -> Tuple[LanePartition, Embedding]:
    """The inductive lane construction with its low-congestion embedding.

    Returns a lane partition with at most f(k) lanes (k = interval width) and
    an embedding whose weak part (E1 routes) has congestion at most g(k); with
    the head-chain routes the full congestion is at most h(k).
    """
    if not is_connected(g):
        raise GraphError("graph must be connected")
    bad = validate(g, ir)
    if bad:
        raise LaneError("invalid interval representation: %s" % (bad,))
    emb = Embedding()
    lanes = _partition(g, ir, set(range(g.n)), emb)
    lp = LanePartition(lanes)
    # Head-chain routes (the E2 edges of the full completion).
    heads = lp.heads()
    for a, b in zip(heads, heads[1:]):
        e = edge_key(a, b)
        if e in g.edge_set() or e in emb.routes:
            continue
        emb.add(e, bfs_path(g, e[0], e[1]), "head")
    return lp, emb


def _attachment_edge(g: Graph, comp: Set[int], targets: Set[int]) -> Tuple[int, int]:
    """Lexicographically smallest (u in comp, v in targets) edge."""
    best = None
    for u in sorted(comp):
        for v in g.adj(u):
            if v in targets and (best is None or (u, v) < best):
                best = (u, v)
        if best is not None and best[0] == u:
            break
    if best is None:
        raise LaneError("component has no attachment edge")
    return best


def _partition(
    g: Graph, ir: IntervalRepresentation, vs: Set[int], emb: Embedding
) -> List[List[int]]:
    """Recursive step: lanes for the induced instance on vs; routes into emb."""
    if len(vs) == 1:
        return [[next(iter(vs))]]

    v_st = min(vs, key=lambda v: (ir.lo(v), v))
    v_ed = max(vs, key=lambda v: (ir.hi(v), -v))
    path = bfs_path(g, v_st, v_ed, vs)
    pos = {v: i for i, v in enumerate(path)}

    # Greedy dominating sequence along the path: from s, jump to the vertex
    # after s on the path whose interval meets I_s and whose R is maximal
    # (ties: earliest position).
    by_lo = sorted(path, key=lambda v: ir.lo(v))
    cand: List[Tuple[int, int]] = []  # heap of (-R, position)
    ptr = 0
    s = v_st
    seq = [s]
    max_hi = ir.hi(v_ed)
    while ir.hi(s) < max_hi:
        while ptr < len(by_lo) and ir.lo(by_lo[ptr]) <= ir.hi(s):
            v = by_lo[ptr]
            heapq.heappush(cand, (-ir.hi(v), pos[v]))
            ptr += 1
        while cand and cand[0][1] <= pos[s]:
            heapq.heappop(cand)
        if not cand:
            raise LaneError("dominating sequence stuck before reaching max R")
        hi, p = heapq.heappop(cand)
        nxt = path[p]
        if ir.hi(nxt) <= ir.hi(s):
            raise LaneError("R must strictly increase along the sequence")
        if not ir[nxt].intersects(ir[s]):
            raise LaneError("consecutive sequence intervals must intersect")
        seq.append(nxt)
        s = nxt
    if not all(ir[a].precedes(ir[b]) for a, b in zip(seq, seq[2:])):
        raise LaneError("odd/even subsequences must be interval chains")
    if ir.lo(seq[0]) != min(ir.lo(v) for v in vs):
        raise LaneError("sequence must start at the minimum L")
    if ir.hi(seq[-1]) != max(ir.hi(v) for v in vs):
        raise LaneError("sequence must end at the maximum R")

    s_set = set(seq)
    s1, s2 = seq[0::2], seq[1::2]

    # Components of the induced graph on vs minus the sequence.
    rest = vs - s_set
    comps: List[Set[int]] = []
    unseen = set(rest)
    while unseen:
        start = min(unseen)
        comp = {start}
        stack = [start]
        unseen.discard(start)
        while stack:
            v = stack.pop()
            for w in g.adj(v):
                if w in unseen:
                    unseen.discard(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    comps.sort(key=lambda c: (min(ir.lo(v) for v in c), max(ir.hi(v) for v in c), min(c)))

    comp_iv = [
        Interval(min(ir.lo(v) for v in c), max(ir.hi(v) for v in c)) for c in comps
    ]
    comp_class = greedy_lane_split(comp_iv)

    # Side: 1 if the component has an edge into the odd subsequence, else 2.
    s1_set, s2_set = set(s1), set(s2)
    comp_side = []
    for c in comps:
        if any(w in s1_set for v in c for w in g.adj(v)):
            comp_side.append(1)
        else:
            if not any(w in s2_set for v in c for w in g.adj(v)):
                raise LaneError("component must attach to the dominating sequence")
            comp_side.append(2)

    comp_lanes = [_partition(g, ir, c, emb) for c in comps]

    # Routes for consecutive pairs inside the two sequence lanes (subpaths of
    # the main path).
    for lane in (s1, s2):
        for a, b in zip(lane, lane[1:]):
            e = edge_key(a, b)
            if e in g.edge_set() or e in emb.routes:
                continue
            lo_p, hi_p = sorted((pos[a], pos[b]))
            sub = path[lo_p : hi_p + 1]
            if sub[0] != a:
                sub = sub[::-1]
            emb.add(e, sub, "weak")

    # Merge: for each (class, side, sublane) collect member components in
    # interval order and concatenate their sublanes; route crossing pairs via
    # attachment edges and the main path.
    out: List[List[int]] = [s1]
    if s2:
        out.append(s2)
    n_classes = max(comp_class, default=-1) + 1
    for cls in range(n_classes):
        for side in (1, 2):
            members = [
                idx
                for idx in range(len(comps))
                if comp_class[idx] == cls and comp_side[idx] == side
            ]
            if not members:
                continue
            max_sub = max(len(comp_lanes[idx]) for idx in members)
            targets = s1_set if side == 1 else s2_set
            attach = {
                idx: _attachment_edge(g, comps[idx], targets) for idx in members
            }
            for sub in range(max_sub):
                merged: List[int] = []
                prev_idx = None
                for idx in members:
                    if sub >= len(comp_lanes[idx]):
                        continue
                    part = comp_lanes[idx][sub]
                    if merged:
                        x, y = merged[-1], part[0]
                        e = edge_key(x, y)
                        if e not in g.edge_set() and e not in emb.routes:
                            emb.add(e, _crossing_route(
                                g, ir, comps[prev_idx], comps[idx],
                                attach[prev_idx], attach[idx], path, pos, x, y
                            ), "weak")
                    merged.extend(part)
                    prev_idx = idx
                if merged:
                    out.append(merged)
    return out


def _crossing_route(
    g: Graph,
    ir: IntervalRepresentation,
    comp_a: Set[int],
    comp_b: Set[int],
    attach_a: Tuple[int, int],
    attach_b: Tuple[int, int],
    path: List[int],
    pos: Dict[int, int],
    x: int,
    y: int,
) -> List[int]:
    """Walk x → attachment of comp_a → along the main path → attachment of
    comp_b → y, for a crossing lane edge between two components."""
    ua, va = attach_a
    ub, vb = attach_b
    first = bfs_path(g, x, ua, comp_a)
    lo_p, hi_p = sorted((pos[va], pos[vb]))
    mid = path[lo_p : hi_p + 1]
    if mid[0] != va:
        mid = mid[::-1]
    last = bfs_path(g, ub, y, comp_b)
    route = list(first)
    route.extend(mid)
    route.extend(last)
    # Collapse immediate repeats at the junctions (attachment edge endpoints).
    clean = [route[0]]
    for v in route[1:]:
        if v != clean[-1]:
            clean.append(v)
    return clean


# --- file formats -----------------------------------------------------------


def write_lane_file(lp: LanePartition) -> str:
    return "".join(" ".join(str(v) for v in lane) + "\n" for lane in lp.lanes)
