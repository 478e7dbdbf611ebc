"""Interval representations, width, path-decomposition conversion, lane split."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .graph import Graph, parse_ints


class IntervalError(ValueError):
    """Raised for malformed interval or decomposition inputs."""


@dataclass(frozen=True, order=True)
class Interval:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise IntervalError("empty interval [%d, %d]" % (self.lo, self.hi))

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def precedes(self, other: "Interval") -> bool:
        """Strict precedence: [a,b] before [c,d] iff b < c."""
        return self.hi < other.lo


class IntervalRepresentation:
    """Per-vertex intervals over a graph's vertex set."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Sequence[Interval]):
        self.intervals = tuple(intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __getitem__(self, v: int) -> Interval:
        return self.intervals[v]

    def lo(self, v: int) -> int:
        return self.intervals[v].lo

    def hi(self, v: int) -> int:
        return self.intervals[v].hi


@dataclass(frozen=True)
class Violation:
    edge: Tuple[int, int]
    reason: str


def validate(g: Graph, ir: IntervalRepresentation) -> Optional[Violation]:
    """None if every edge's endpoint intervals intersect, else first violation."""
    if len(ir) != g.n:
        return Violation((-1, -1), "interval count %d != n %d" % (len(ir), g.n))
    for u, v in g.edges:
        if not ir[u].intersects(ir[v]):
            return Violation((u, v), "disjoint intervals on edge")
    return None


def width(ir: IntervalRepresentation) -> int:
    """Maximum number of intervals covering a single point (endpoint sweep)."""
    if not ir.intervals:
        return 0
    events = []
    for iv in ir.intervals:
        events.append((iv.lo, 1))
        events.append((iv.hi + 1, -1))
    events.sort()
    best = cur = 0
    for _, delta in events:
        cur += delta
        best = max(best, cur)
    return best


class PathDecomposition:
    """Ordered bags of vertices; P1 (edge coverage) / P2 (contiguity)."""

    __slots__ = ("bags",)

    def __init__(self, bags: Sequence[Sequence[int]]):
        self.bags = tuple(tuple(sorted(b)) for b in bags)


def validate_decomposition(g: Graph, pd: PathDecomposition) -> Optional[str]:
    """None if pd is a valid path decomposition of g, else a reason string."""
    seen: Dict[int, Tuple[int, int]] = {}
    for i, bag in enumerate(pd.bags):
        for v in bag:
            if not 0 <= v < g.n:
                return "bag vertex %d out of range" % v
            if v in seen:
                first, last = seen[v]
                if i != last + 1:
                    return "vertex %d membership not contiguous" % v
                seen[v] = (first, i)
            else:
                seen[v] = (i, i)
    for v in range(g.n):
        if v not in seen:
            return "vertex %d missing from all bags" % v
    for u, v in g.edges:
        fu, lu = seen[u]
        fv, lv = seen[v]
        if max(fu, fv) > min(lu, lv):
            return "edge (%d, %d) not covered by any bag" % (u, v)
    return None


def decomposition_to_intervals(g: Graph, pd: PathDecomposition) -> IntervalRepresentation:
    """I_v = [first bag index, last bag index], 1-based bag positions."""
    err = validate_decomposition(g, pd)
    if err:
        raise IntervalError(err)
    first: Dict[int, int] = {}
    last: Dict[int, int] = {}
    for i, bag in enumerate(pd.bags, start=1):
        for v in bag:
            first.setdefault(v, i)
            last[v] = i
    return IntervalRepresentation([Interval(first[v], last[v]) for v in range(g.n)])


def greedy_lane_split(intervals: Sequence[Interval]) -> List[int]:
    """First-fit lane per interval, sweeping by (lo, hi, input index).

    Within each lane the assigned intervals are pairwise disjoint, and the
    number of lanes equals the width of the family (clique number).
    """
    order = sorted(range(len(intervals)), key=lambda i: (intervals[i].lo, intervals[i].hi, i))
    lane_of = [0] * len(intervals)
    free: List[int] = []  # heap of free lane indices
    busy: List[Tuple[int, int]] = []  # heap of (hi, lane)
    lanes = 0
    for i in order:
        iv = intervals[i]
        while busy and busy[0][0] < iv.lo:
            _, lane = heapq.heappop(busy)
            heapq.heappush(free, lane)
        if free:
            lane = heapq.heappop(free)
        else:
            lane = lanes
            lanes += 1
        lane_of[i] = lane
        heapq.heappush(busy, (iv.hi, lane))
    return lane_of


# --- file formats -----------------------------------------------------------


def write_interval_file(ir: IntervalRepresentation) -> str:
    return "".join(
        "%d %d %d\n" % (v, iv.lo, iv.hi) for v, iv in enumerate(ir.intervals)
    )


def read_interval_file(text: str, n: int) -> IntervalRepresentation:
    """Parse `v lo hi` lines, one per vertex 0 .. n - 1; IntervalError names
    the first malformed one, or one of a vertex out of range or seen
    before."""
    found: Dict[int, Interval] = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        parts = ln.split()
        if len(parts) != 3:
            raise IntervalError("bad interval line: %r" % ln)
        v, lo, hi = parse_ints(parts, IntervalError, ln)
        if not 0 <= v < n:
            raise IntervalError("interval line of a vertex out of range: %r" % ln)
        if v in found:
            raise IntervalError("second interval line of vertex %d: %r" % (v, ln))
        found[v] = Interval(lo, hi)
    missing = [v for v in range(n) if v not in found]
    if missing:
        raise IntervalError("missing intervals for vertices %s" % missing[:5])
    return IntervalRepresentation([found[v] for v in range(n)])
