"""Lane op sequences and the hierarchical decomposition built from them.

The decomposition is a forest of elements (E, P and B fragments) grouped into
T-nodes by their merge trees; the prover folds it and emits its labels in the
order the builder numbers it.
"""

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
    return AppliedGraph(tuple(vertices), frozenset(edges))


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
    comp = make_completion(g, ir, lp)
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


# --- hierarchical decompositions -------------------------------------------


@dataclass
class VLeaf:
    lane: int
    vertex: int


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

    edges is the element's own fragment (for B: the bridge plus both side
    fragments); parent_eid is its merge parent, None for a T-node root.
    """

    kind: str  # 'E' | 'P' | 'B'
    eid: int
    payload: Union[ENodeData, PNodeData, BNodeData]
    edges: FrozenSet[Edge]
    children: List["Element"] = field(default_factory=list)
    parent_eid: Optional[int] = None


@dataclass(eq=False)
class TNode:
    """A merge tree of elements: its root, the terminal maps of the whole
    merge, and the union of its elements' edges."""

    root_element: Element
    t_in: Dict[int, int]
    t_out: Dict[int, int]
    edges: FrozenSet[Edge] = field(init=False)

    def __post_init__(self):
        edges: Set[Edge] = set()
        for el in self.elements():
            edges |= el.edges
        self.edges = frozenset(edges)

    def elements(self):
        stack = [self.root_element]
        while stack:
            el = stack.pop()
            yield el
            stack.extend(el.children)


@dataclass
class HierarchicalDecomposition:
    """elements is indexed by eid, every element after everything it
    contains; nodes lists the T-nodes, nested ones before the nodes that
    contain them, so the root T-node comes last."""

    k: int
    elements: List[Element]
    nodes: List[TNode]

    @property
    def root(self) -> TNode:
        return self.nodes[-1]

    def depth_stats(self) -> Tuple[int, int]:
        """(max nodes on a root-to-leaf path, max B-nodes on such a path).

        Path nodes are: T-node, one element of its merge tree, and for B
        elements, recursively the B child fragments.  Folded over the nodes,
        nested ones first; a V-leaf side counts as a path of one node.
        """
        best: Dict[int, Tuple[int, int]] = {}
        for t in self.nodes:
            depth = bs = 0
            for el in t.elements():
                if el.kind != "B":
                    depth = max(depth, 2)
                    continue
                for side in (el.payload.left, el.payload.right):
                    sd, sb = (1, 0) if isinstance(side, VLeaf) else best[id(side)]
                    depth = max(depth, 2 + sd)
                    bs = max(bs, 1 + sb)
            best[id(t)] = (depth, bs)
        return best[id(self.root)]


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
        if not child.lanes <= parent.lanes:
            raise OpError("child lanes must lie within the parent's")
        for sib in parent.children:
            if sib.lanes & child.lanes:
                raise OpError("siblings must be lane-disjoint")
        parent.children.append(child)

    for op in s.ops:
        if isinstance(op, VInsert):
            i, v = op.lane, op.vertex
            u = tau[i - 1]
            m = _resolve(lowest[u])
            if i not in m.lanes or m.t_out[i] != u:
                raise OpError(
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
                t_out = _subtree_out(c)
                if t_out.get(lane) != term:
                    raise OpError("wrapped side must expose the bridge endpoint")
                return ("T", c, t_out), c.lanes, dict(c.t_in), t_out

            left_spec, llanes, lin, lout = side(gi, i, a)
            right_spec, rlanes, rin, rout = side(gj, j, b)
            if llanes & rlanes:
                raise OpError("bridge sides must be lane-disjoint")
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
            if any(lca.t_out.get(l) != bnode.t_in[l] for l in bnode.lanes):
                raise OpError("bridge element must glue onto the LCA's out-terminals")
            attach(lca, bnode)
            lowest[a] = bnode
            lowest[b] = bnode

    # Convert the mutable structure to the public one, numbering elements in
    # reversed preorder over the whole element forest (merge children plus
    # B-side subtrees), so every element comes after everything it contains.
    # Iterative, because merge chains can be as deep as the op sequence is long.
    order: List[_MT] = []
    stack = [root]
    while stack:
        m = stack.pop()
        order.append(m)
        stack.extend(m.children)
        if m.kind == "B":
            stack.extend(spec[1] for spec in m.payload[3:] if spec[0] == "T")

    elements: List[Element] = []
    nodes: List[TNode] = []
    el_of: Dict[int, Element] = {}

    def new_node(m: _MT, t_out: Dict[int, int]) -> TNode:
        nodes.append(TNode(el_of[id(m)], dict(m.t_in), t_out))
        return nodes[-1]

    for eid, m in enumerate(reversed(order)):
        if m.kind == "E":
            data: Union[ENodeData, PNodeData, BNodeData] = m.payload
            edges = frozenset({edge_key(data.vin, data.vout)})
        elif m.kind == "P":
            data = m.payload
            edges = frozenset(edge_key(x, y) for x, y in zip(data.vids, data.vids[1:]))
        else:
            i, j, bridge, *specs = m.payload
            left, right = (
                spec[1] if spec[0] == "V" else new_node(spec[1], spec[2])
                for spec in specs
            )
            data = BNodeData(i, j, bridge, left, right)
            # Set iteration order is part of the labels (it breaks BFS ties in
            # the prover's pointer fields), so keep this union's order.
            edges = _side_edges(left) | _side_edges(right) | {bridge}
        el = Element(m.kind, eid, data, edges)
        el.children = [el_of[id(c)] for c in m.children]
        for c in el.children:
            c.parent_eid = eid
        elements.append(el)
        el_of[id(m)] = el
    new_node(root, _subtree_out(root))
    # The merge tree is garbage now, and its links make cycles: parent
    # against children, and absorbed_into against the B payloads that hold
    # side subtrees.  Cut them all, so refcounting frees each element on its
    # own, however deep the tree, and the cyclic collector, which certify
    # pauses while it proves, has nothing to find.
    for m in order:
        m.parent = m.children = m.absorbed_into = m.payload = None
    return HierarchicalDecomposition(k, elements, nodes)


def _side_edges(side: Union[VLeaf, TNode]) -> FrozenSet[Edge]:
    return frozenset() if isinstance(side, VLeaf) else side.edges


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


def dump_decomposition(hd: HierarchicalDecomposition) -> str:
    out: List[str] = []

    def fmt_terms(node: TNode) -> str:
        lanes = sorted(node.t_in)
        terms = " ".join("%d:%d/%d" % (l, node.t_in[l], node.t_out[l]) for l in lanes)
        return "lanes={%s} terms=[%s]" % (",".join(str(l) for l in lanes), terms)

    stack: List[Tuple[str, object, int]] = [("T", hd.root, 0)]
    while stack:
        tag, node, ind = stack.pop()
        pad = "  " * ind
        if tag == "T":
            out.append(pad + "TNode %s" % fmt_terms(node))
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
