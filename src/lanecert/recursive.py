"""Lane op sequences, k-lane graphs, and hierarchical decompositions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from .graph import Edge, Graph, edge_key
from .intervals import Interval, IntervalRepresentation
from .lanes import LanePartition, completion as make_completion


class OpError(ValueError):
    """Raised for malformed op sequences or invalid merges."""


@dataclass(frozen=True)
class VInsert:
    lane: int
    vertex: int


@dataclass(frozen=True)
class EInsert:
    i: int
    j: int


Op = Union[VInsert, EInsert]


@dataclass(frozen=True)
class OpSequence:
    """Build recipe: start from a k-vertex path, then apply ops in order.

    VInsert(i, v) adds v with an edge to the lane-i designated vertex and
    makes v designated; EInsert(i, j) adds an edge between the designated
    vertices of lanes i and j.  Lanes are 1-based.
    """

    k: int
    initial: Tuple[int, ...]
    ops: Tuple[Op, ...]


@dataclass(frozen=True)
class AppliedGraph:
    vertices: Tuple[int, ...]
    edges: FrozenSet[Edge]
    designated: Tuple[int, ...]


def apply_op_sequence(s: OpSequence) -> AppliedGraph:
    if s.k < 1 or len(s.initial) != s.k:
        raise OpError("initial path must have exactly k vertices")
    if len(set(s.initial)) != s.k:
        raise OpError("initial path vertices must be distinct")
    vertices = list(s.initial)
    vset = set(vertices)
    edges: Set[Edge] = {
        edge_key(a, b) for a, b in zip(s.initial, s.initial[1:])
    }
    tau = list(s.initial)
    for op in s.ops:
        if isinstance(op, VInsert):
            if not 1 <= op.lane <= s.k:
                raise OpError("lane out of range: %r" % (op,))
            if op.vertex in vset:
                raise OpError("vertex %d is not fresh" % op.vertex)
            vset.add(op.vertex)
            vertices.append(op.vertex)
            edges.add(edge_key(tau[op.lane - 1], op.vertex))
            tau[op.lane - 1] = op.vertex
        elif isinstance(op, EInsert):
            if not (1 <= op.i <= s.k and 1 <= op.j <= s.k) or op.i == op.j:
                raise OpError("bad edge insert: %r" % (op,))
            e = edge_key(tau[op.i - 1], tau[op.j - 1])
            if e in edges:
                raise OpError("edge %s inserted twice" % (e,))
            edges.add(e)
        else:
            raise OpError("unknown op %r" % (op,))
    return AppliedGraph(tuple(vertices), frozenset(edges), tuple(tau))


def op_sequence_to_completion(
    s: OpSequence,
) -> Tuple[FrozenSet[Edge], Dict[int, Interval], List[List[int]]]:
    """Designation time-spans: the applied graph is the completion of the
    EInsert-edge graph under these intervals and lanes.

    Returns (G' edges = EInsert edges, per-vertex intervals, lanes).
    """
    apply_op_sequence(s)  # validation
    total = len(s.ops)
    lanes: List[List[int]] = [[v] for v in s.initial]
    created = {v: 0 for v in s.initial}
    displaced: Dict[int, int] = {}
    gprime: Set[Edge] = set()
    tau = list(s.initial)
    for step, op in enumerate(s.ops, start=1):
        if isinstance(op, VInsert):
            displaced[tau[op.lane - 1]] = step
            tau[op.lane - 1] = op.vertex
            created[op.vertex] = step
            lanes[op.lane - 1].append(op.vertex)
        else:
            gprime.add(edge_key(tau[op.i - 1], tau[op.j - 1]))
    intervals = {
        v: Interval(created[v], displaced.get(v, total + 1) - 1)
        for v in created
    }
    return frozenset(gprime), intervals, lanes


def completion_to_op_sequence(
    g: Graph, ir: IntervalRepresentation, lp: LanePartition
) -> OpSequence:
    """Inverse direction: sort lane vertices (key L_v) and the host edges not
    covered by completion edges (key max endpoint L) together, vertices first
    on ties, and emit V-inserts / E-inserts accordingly."""
    comp = make_completion(g, ir, lp, weak=False)
    cover = set(comp.e1) | set(comp.e2)
    heads = lp.heads()
    k = lp.k
    lane_of = {v: i + 1 for i, lane in enumerate(lp.lanes) for v in lane}

    events: List[Tuple[int, int, Tuple, Op]] = []
    for i, lane in enumerate(lp.lanes):
        for v in lane[1:]:
            events.append((ir.lo(v), 0, (v,), VInsert(i + 1, v)))
    for e in g.edges:
        if e in cover:
            continue
        u, v = e
        li, lj = lane_of[u], lane_of[v]
        if li == lj:
            raise OpError("host edge %s joins two vertices of one lane" % (e,))
        key = max(ir.lo(u), ir.lo(v))
        events.append((key, 1, e, EInsert(li, lj)))
    events.sort(key=lambda t: (t[0], t[1], t[2]))
    ops = tuple(ev[3] for ev in events)
    s = OpSequence(k, tuple(heads), ops)
    applied = apply_op_sequence(s)
    if applied.edges != comp.edges:
        raise OpError("op sequence does not reproduce the completion graph")
    return s


# --- k-lane graphs ----------------------------------------------------------


@dataclass(frozen=True)
class KLaneGraph:
    """Graph fragment with a lane set and injective in/out terminal maps."""

    lanes: FrozenSet[int]
    t_in: Dict[int, int]
    t_out: Dict[int, int]
    vertices: FrozenSet[int]
    edges: FrozenSet[Edge]

    def __post_init__(self):
        if not self.lanes:
            raise OpError("lane set must be non-empty")
        for m in (self.t_in, self.t_out):
            if set(m) != set(self.lanes):
                raise OpError("terminal map keys must equal the lane set")
            if len(set(m.values())) != len(m):
                raise OpError("terminal map must be injective")
            if not set(m.values()) <= self.vertices:
                raise OpError("terminals must be fragment vertices")


# --- hierarchical decompositions -------------------------------------------


@dataclass
class VLeaf:
    lane: int
    vertex: int

    @property
    def klane(self) -> KLaneGraph:
        return KLaneGraph(
            frozenset({self.lane}),
            {self.lane: self.vertex},
            {self.lane: self.vertex},
            frozenset({self.vertex}),
            frozenset(),
        )


@dataclass
class ENodeData:
    lane: int
    vin: int
    vout: int


@dataclass
class PNodeData:
    vids: Tuple[int, ...]


@dataclass
class BNodeData:
    i: int
    j: int
    bridge: Edge
    left: Union[VLeaf, "TNode"]
    right: Union[VLeaf, "TNode"]


@dataclass
class Element:
    """A node of a T-node's merge tree: an E, P, or B fragment.

    klane_own is the element's own fragment (for B: bridge plus both child
    fragments).  sub_in/sub_out are the terminal maps of the subtree-merge
    rooted here; the full subtree fragment is only materialized per T-node.
    """

    kind: str  # 'E' | 'P' | 'B'
    eid: int
    payload: Union[ENodeData, PNodeData, BNodeData]
    children: List["Element"] = field(default_factory=list)
    klane_own: Optional[KLaneGraph] = None
    sub_in: Dict[int, int] = field(default_factory=dict)
    sub_out: Dict[int, int] = field(default_factory=dict)

    @property
    def lanes(self) -> FrozenSet[int]:
        return self.klane_own.lanes


class TNode:
    """A merge tree of elements, realized by folding parent merges."""

    __slots__ = ("root_element", "_klane")

    def __init__(self, root_element: Element):
        self.root_element = root_element
        self._klane: Optional[KLaneGraph] = None

    @property
    def klane(self) -> KLaneGraph:
        if self._klane is None:
            verts: Set[int] = set()
            edges: Set[Edge] = set()
            for el in self.elements():
                verts |= el.klane_own.vertices
                edges |= el.klane_own.edges
            r = self.root_element
            self._klane = KLaneGraph(
                r.lanes,
                dict(r.sub_in),
                dict(r.sub_out),
                frozenset(verts),
                frozenset(edges),
            )
        return self._klane

    def elements(self):
        stack = [self.root_element]
        while stack:
            el = stack.pop()
            yield el
            stack.extend(el.children)


@dataclass
class HierarchicalDecomposition:
    k: int
    root: TNode

    def realized(self) -> KLaneGraph:
        return self.root.klane

    def depth_stats(self) -> Tuple[int, int]:
        """(max nodes on a root-to-leaf path, max B-nodes on such a path).

        Path nodes are: T-node, one element of its merge tree, and for B
        elements, recursively the B child fragments.
        """
        best = [0, 0]

        def walk_t(t: TNode, nodes: int, bs: int):
            for el in t.elements():
                walk_el(el, nodes + 1, bs)

        def walk_el(el: Element, nodes: int, bs: int):
            if el.kind == "B":
                data = el.payload
                for child in (data.left, data.right):
                    if isinstance(child, VLeaf):
                        best[0] = max(best[0], nodes + 2)
                        best[1] = max(best[1], bs + 1)
                    else:
                        walk_t(child, nodes + 1, bs + 1)
            else:
                best[0] = max(best[0], nodes + 1)
                best[1] = max(best[1], bs)

        walk_t(self.root, 0, 0)
        return best[0], best[1]


class _MT:
    """Mutable merge-tree element used during online construction."""

    __slots__ = (
        "kind",
        "payload",
        "parent",
        "children",
        "depth",
        "absorbed_into",
        "lanes",
        "t_in",
        "t_out",
    )

    def __init__(self, kind, payload, parent, depth, lanes, t_in, t_out):
        self.kind = kind
        self.payload = payload
        self.parent = parent
        self.children: List[_MT] = []
        self.depth = depth
        self.absorbed_into: Optional[_MT] = None
        self.lanes = frozenset(lanes)
        self.t_in = dict(t_in)
        self.t_out = dict(t_out)


def _resolve(m: _MT) -> _MT:
    seen = []
    while m.absorbed_into is not None:
        seen.append(m)
        m = m.absorbed_into
    for s in seen:
        s.absorbed_into = m
    return m


def _subtree_out(m: _MT) -> Dict[int, int]:
    """Out-terminals of the subtree-merge rooted at m (iterative post-order)."""
    done: Dict[int, Dict[int, int]] = {}
    stack: List[Tuple[_MT, bool]] = [(m, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            out = dict(node.t_out)
            for c in node.children:
                out.update(done[id(c)])
            done[id(node)] = out
        else:
            stack.append((node, True))
            for c in node.children:
                stack.append((c, False))
    return done[id(m)]


def _freeze_subtree(m: _MT, into: _MT) -> None:
    stack = [m]
    while stack:
        node = stack.pop()
        node.absorbed_into = into
        stack.extend(node.children)


def build_hierarchical_decomposition(s: OpSequence) -> HierarchicalDecomposition:
    """Online construction of the bounded-depth decomposition for s.

    V-inserts hang a new E element below the lowest element containing the
    displaced designated vertex; E-inserts build a B element at the LCA of
    the two designated vertices' lowest elements, wrapping the subtrees that
    hold them into fresh T-node children when they sit strictly below it.
    """
    apply_op_sequence(s)  # validation
    k = s.k
    heads = s.initial
    root = _MT(
        "P",
        PNodeData(tuple(heads)),
        None,
        0,
        range(1, k + 1),
        {i + 1: v for i, v in enumerate(heads)},
        {i + 1: v for i, v in enumerate(heads)},
    )
    lowest: Dict[int, _MT] = {v: root for v in heads}
    tau = list(heads)

    def attach(parent: _MT, child: _MT) -> None:
        assert child.lanes <= parent.lanes
        for sib in parent.children:
            assert not sib.lanes & child.lanes, "siblings must be lane-disjoint"
        parent.children.append(child)

    for op in s.ops:
        if isinstance(op, VInsert):
            i, v = op.lane, op.vertex
            u = tau[i - 1]
            m = _resolve(lowest[u])
            assert i in m.lanes and m.t_out[i] == u, (
                "lowest element must expose the designated vertex as out-terminal"
            )
            enode = _MT(
                "E", ENodeData(i, u, v), m, m.depth + 1, {i}, {i: u}, {i: v}
            )
            attach(m, enode)
            lowest[u] = enode
            lowest[v] = enode
            tau[i - 1] = v
        else:
            i, j = op.i, op.j
            a, b = tau[i - 1], tau[j - 1]
            gi = _resolve(lowest[a])
            gj = _resolve(lowest[b])
            x, y = gi, gj
            while x.depth > y.depth:
                x = x.parent
            while y.depth > x.depth:
                y = y.parent
            while x is not y:
                x = x.parent
                y = y.parent
            lca = x

            def side(g: _MT, lane: int, term: int):
                """(B child spec, lanes, t_in, t_out) for one bridge side."""
                if g is lca:
                    leaf = VLeaf(lane, term)
                    return ("V", leaf), frozenset({lane}), {lane: term}, {lane: term}
                c = g
                while c.parent is not lca:
                    c = c.parent
                lca.children.remove(c)
                sub_out = _subtree_out(c)
                assert sub_out.get(lane) == term
                return ("T", c), c.lanes, dict(c.t_in), sub_out

            left_spec, llanes, lin, lout = side(gi, i, a)
            right_spec, rlanes, rin, rout = side(gj, j, b)
            assert not llanes & rlanes, "bridge sides must be lane-disjoint"
            bnode = _MT(
                "B",
                (i, j, edge_key(a, b), left_spec, right_spec),
                lca,
                lca.depth + 1,
                llanes | rlanes,
                {**lin, **rin},
                {**lout, **rout},
            )
            for spec in (left_spec, right_spec):
                if spec[0] == "T":
                    _freeze_subtree(spec[1], bnode)
            assert all(lca.t_out.get(l) == bnode.t_in[l] for l in bnode.lanes), (
                "bridge element must glue onto the LCA's out-terminals"
            )
            attach(lca, bnode)
            lowest[a] = bnode
            lowest[b] = bnode

    # Convert the mutable structure to the public one.  Iterative post-order
    # over the whole element forest (merge children plus B-side subtrees),
    # because merge chains can be as deep as the op sequence is long.
    def traversal_children(m: _MT) -> List[_MT]:
        kids = list(m.children)
        if m.kind == "B":
            for spec in (m.payload[3], m.payload[4]):
                if spec[0] == "T":
                    kids.append(spec[1])
        return kids

    order: List[_MT] = []
    stack = [root]
    while stack:
        m = stack.pop()
        order.append(m)
        stack.extend(traversal_children(m))

    el_of: Dict[int, Element] = {}
    for eid, m in enumerate(reversed(order)):
        if m.kind == "E":
            data: Union[ENodeData, PNodeData, BNodeData] = m.payload
            own = KLaneGraph(
                m.lanes,
                dict(m.t_in),
                dict(m.t_out),
                frozenset({data.vin, data.vout}),
                frozenset({edge_key(data.vin, data.vout)}),
            )
        elif m.kind == "P":
            data = m.payload
            own = KLaneGraph(
                m.lanes,
                dict(m.t_in),
                dict(m.t_out),
                frozenset(data.vids),
                frozenset(edge_key(x, y) for x, y in zip(data.vids, data.vids[1:])),
            )
        else:
            i, j, bridge, left_spec, right_spec = m.payload

            def conv_child(spec):
                if spec[0] == "V":
                    return spec[1]
                return TNode(el_of[id(spec[1])])

            left = conv_child(left_spec)
            right = conv_child(right_spec)
            data = BNodeData(i, j, bridge, left, right)
            own = KLaneGraph(
                m.lanes,
                dict(m.t_in),
                dict(m.t_out),
                left.klane.vertices | right.klane.vertices,
                left.klane.edges | right.klane.edges | {bridge},
            )
        el = Element(m.kind, eid, data)
        el.klane_own = own
        el.children = [el_of[id(c)] for c in m.children]
        el.sub_in = dict(m.t_in)
        sub_out = dict(m.t_out)
        for c in el.children:
            sub_out.update(c.sub_out)
        el.sub_out = sub_out
        el_of[id(m)] = el

    return HierarchicalDecomposition(k, TNode(el_of[id(root)]))


# --- file formats and dumps -------------------------------------------------


def write_op_file(s: OpSequence) -> str:
    lines = [str(s.k)]
    if tuple(s.initial) != tuple(range(s.k)):
        lines.append("#initial " + " ".join(str(v) for v in s.initial))
    for op in s.ops:
        if isinstance(op, VInsert):
            lines.append("V %d %d" % (op.lane, op.vertex))
        else:
            lines.append("E %d %d" % (op.i, op.j))
    return "\n".join(lines) + "\n"


def read_op_file(text: str) -> OpSequence:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise OpError("empty op file")
    k = int(lines[0])
    initial = tuple(range(k))
    ops: List[Op] = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "#initial":
            initial = tuple(int(x) for x in parts[1:])
        elif parts[0] == "V" and len(parts) == 3:
            ops.append(VInsert(int(parts[1]), int(parts[2])))
        elif parts[0] == "E" and len(parts) == 3:
            ops.append(EInsert(int(parts[1]), int(parts[2])))
        else:
            raise OpError("bad op line: %r" % ln)
    return OpSequence(k, initial, tuple(ops))


def dump_decomposition(hd: HierarchicalDecomposition) -> str:
    out: List[str] = []

    def fmt_klane(kl: KLaneGraph) -> str:
        lanes = ",".join(str(l) for l in sorted(kl.lanes))
        terms = " ".join(
            "%d:%d/%d" % (l, kl.t_in[l], kl.t_out[l]) for l in sorted(kl.lanes)
        )
        return "lanes={%s} terms=[%s]" % (lanes, terms)

    stack: List[Tuple[str, object, int]] = [("T", hd.root, 0)]
    while stack:
        tag, node, ind = stack.pop()
        pad = "  " * ind
        if tag == "T":
            out.append(pad + "TNode %s" % fmt_klane(node.klane))
            stack.append(("el", node.root_element, ind + 1))
        elif tag == "V":
            out.append(pad + "VNode lane=%d vertex=%d" % (node.lane, node.vertex))
        else:
            el = node
            below: List[Tuple[str, object, int]] = []
            if el.kind == "E":
                d = el.payload
                out.append(pad + "ENode lane=%d edge=(%d,%d)" % (d.lane, d.vin, d.vout))
            elif el.kind == "P":
                d = el.payload
                out.append(pad + "PNode vids=(%s)" % ",".join(str(v) for v in d.vids))
            else:
                d = el.payload
                out.append(
                    pad + "BNode i=%d j=%d bridge=(%d,%d)" % (d.i, d.j, *d.bridge)
                )
                for child in (d.left, d.right):
                    kind = "V" if isinstance(child, VLeaf) else "T"
                    below.append((kind, child, ind + 1))
            for c in el.children:
                below.append(("el", c, ind + 1))
            stack.extend(reversed(below))
    return "\n".join(out) + "\n"
