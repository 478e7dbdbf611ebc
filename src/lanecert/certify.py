"""Prover and local verifier for the edge-label certification scheme.

The prover runs the whole pipeline (intervals, lane partition, completion,
hierarchical decomposition, class evaluation) and flattens the result into
per-edge bitstring labels.  The verifier is a pure function of one vertex's
local view: its id, its input tags, and the labels of incident edges.  If
every vertex accepts, the graph satisfies the property and admits a lane
structure within the width bound; a single reject refutes the certificate.

Prover and verifier share one class fold, ``_recompute_sub``: the prover
runs it over the element records it emits (``annotate_classes``), and the
verifier over the records the vertices see.  Work that depends only on bits
or values is done once per run (one ``annotate_classes``, one
``verify_all``, one ``any_reject`` without a cache, one fuzz campaign, or
one ``verify_vertex`` call without a cache).  The fold's class operations
and the root-class check are memoized by value, so a class that repeats
across elements, vertices and labelings is composed once.  The verifier
decodes each distinct element record once and folds it once
(``_fold_record``), so the glue checks inside ``_recompute_sub`` run once
per distinct record per run.  The checks against a vertex's own view
(``_verify_vertex``, ``_check_pointer``, ``_check_elements``) still run at
every vertex.  A failing fold or operation is not stored, so it runs again
wherever it recurs.  Plugins themselves stay stateless.

Label layout: a list of self-delimiting sections.  Every label starts with a
header (n and the lane count), followed by one T-node section per
decomposition node containing the edge (the chain, root first), followed by
one route section per virtual edge whose route runs over the edge.

The root section carries its node's eid and BasicInfo, the edge's pointer
fields and the record of the element holding the edge.  Below the root a
node is one side of the B record one section up, so a nested section
carries one side bit (left or right) in place of the eid and BasicInfo;
``decode_label`` takes both from that side, as the same object, and fails
when the record above is not a B record or the side is a vertex leaf.  No
section carries a root flag: the root is chain position 0.  A nested
BasicInfo other than its side's, or a root flag off position 0, cannot be
written, so the verifier has no check (and no reject reason) for either.
With a memo, a payload's raw fields are shared per n and chain position,
and a nested section is resolved per label.  A route section carries its
endpoints and ranks, then the relayed label, header included, as the rest
of the section.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .encoding import (
    BitReader,
    Bits,
    BitWriter,
    DecodeError,
    read_sections,
    read_term,
    write_section,
    write_term,
)
from .graph import (
    Edge,
    Graph,
    GraphError,
    bfs_parents,
    edge_key,
    exact_pathwidth,
    id_bits,
    is_connected,
)
from .intervals import (
    IntervalRepresentation,
    PathDecomposition,
    decomposition_to_intervals,
    validate,
    width,
)
from .lanes import Embedding, build_lane_partition, lane_bounds
from .properties import HomClass, PropertyError, PropertyPlugin, get_plugin
from .recursive import (
    BNodeData,
    ENodeData,
    HierarchicalDecomposition,
    PNodeData,
    VLeaf,
    build_hierarchical_decomposition,
    completion_to_op_sequence,
)

SEC_HEADER = 1
SEC_TNODE = 2
SEC_ROUTE = 3

SECTION_NAMES = {SEC_HEADER: "header", SEC_TNODE: "tnode", SEC_ROUTE: "route"}


class CertifyError(Exception):
    pass


# --- wire structures ---------------------------------------------------------


@dataclass
class BasicInfo:
    """Terminal maps plus the homomorphism class of a fragment."""

    t_in: Dict[int, int]
    t_out: Dict[int, int]
    cls: HomClass

    def lanes(self):
        return sorted(self.t_in)

    def terminal_ids(self):
        return set(self.t_in.values()) | set(self.t_out.values())


# topology tuples:
#   ("E", lane, vin, vout, mark)
#   ("P", vids, marks)
#   ("B", i, j, bridge, bmark, left, right)   side: ("V", lane, vertex)
#                                                or ("T", node_eid, BasicInfo)
@dataclass
class ElementRecord:
    eid: int
    parent_eid: Optional[int]
    topo: tuple
    children: Tuple[Tuple[int, BasicInfo], ...]

    @property
    def kind(self) -> str:
        return self.topo[0]


@dataclass
class TSec:
    node_eid: int
    is_root: bool
    basic: BasicInfo
    dist: int
    is_tree: bool
    parent_min: bool
    elem: ElementRecord


@dataclass
class RSec:
    u: int
    v: int
    fwd: int
    bwd: int
    payload: Bits


@dataclass
class DecodedLabel:
    n: int
    w: int
    tnodes: List[TSec]
    routes: List[RSec]


# --- encoding ----------------------------------------------------------------


def _enc_basic(w: BitWriter, bi: BasicInfo, b: int, memo=None) -> None:
    """Write bi.  memo, if given, maps id(bi) to (bi, its bits) within one
    prove call, so each BasicInfo object is encoded once."""
    if memo is not None:
        hit = memo.get(id(bi))
        if hit is None:
            bw = BitWriter()
            _enc_basic(bw, bi, b)
            hit = memo[id(bi)] = (bi, bw.getvalue())
        w.write_bits(hit[1])
        return
    lanes = bi.lanes()
    w.write_varint(len(lanes))
    for lane in lanes:
        w.write_varint(lane)
        w.write_uint(bi.t_in[lane], b)
        w.write_uint(bi.t_out[lane], b)
    write_term(w, bi.cls.term)


def _dec_basic(r: BitReader, b: int, n: int, memo=None) -> BasicInfo:
    """Decode terminal maps and a class; with a memo, equal fields decode to
    one shared BasicInfo, validated when first seen."""
    count = r.read_varint()
    if not 1 <= count <= n:
        raise DecodeError("bad lane count")
    raw = tuple((r.read_varint(), r.read_uint(b), r.read_uint(b)) for _ in range(count))
    term = read_term(r)
    key = ("basic", n, raw, term)
    if memo is not None and key in memo:
        return memo[key]
    t_in: Dict[int, int] = {}
    t_out: Dict[int, int] = {}
    prev = 0
    for lane, vin, vout in raw:
        if lane <= prev:
            raise DecodeError("lanes must be increasing and positive")
        prev = lane
        if vin >= n or vout >= n:
            raise DecodeError("terminal id out of range")
        t_in[lane] = vin
        t_out[lane] = vout
    if len(set(t_in.values())) != count or len(set(t_out.values())) != count:
        raise DecodeError("terminal maps must be injective")
    atoms = []
    for lane in t_in:
        if t_in[lane] == t_out[lane]:
            atoms.append((lane, 0))
        else:
            atoms.append((lane, 1))
            atoms.append((lane, 2))
    basic = BasicInfo(t_in, t_out, HomClass(tuple(sorted(atoms)), term))
    if memo is not None:
        memo[key] = basic
    return basic


def _enc_side(w: BitWriter, side: tuple, b: int, memo) -> None:
    if side[0] == "V":
        w.write_bit(0)
        w.write_varint(side[1])
        w.write_uint(side[2], b)
    else:
        w.write_bit(1)
        w.write_varint(side[1])
        _enc_basic(w, side[2], b, memo)


def _dec_side(r: BitReader, b: int, n: int, memo) -> tuple:
    if r.read_bit() == 0:
        lane = r.read_varint()
        vertex = r.read_uint(b)
        if lane < 1 or vertex >= n:
            raise DecodeError("bad leaf side")
        return ("V", lane, vertex)
    node_eid = r.read_varint()
    return ("T", node_eid, _dec_basic(r, b, n, memo))


_KINDS = ("E", "P", "B")


def _enc_elem(w: BitWriter, rec: ElementRecord, b: int, memo) -> None:
    w.write_varint(rec.eid)
    w.write_bit(rec.parent_eid is not None)
    if rec.parent_eid is not None:
        w.write_varint(rec.parent_eid)
    w.write_uint(_KINDS.index(rec.kind), 2)
    t = rec.topo
    if t[0] == "E":
        w.write_varint(t[1])
        w.write_uint(t[2], b)
        w.write_uint(t[3], b)
        w.write_bit(t[4])
    elif t[0] == "P":
        vids, marks = t[1], t[2]
        w.write_varint(len(vids))
        for v in vids:
            w.write_uint(v, b)
        for m in marks:
            w.write_bit(m)
    else:
        _, i, j, bridge, bmark, left, right = t
        w.write_varint(i)
        w.write_varint(j)
        w.write_uint(bridge[0], b)
        w.write_uint(bridge[1], b)
        w.write_bit(bmark)
        _enc_side(w, left, b, memo)
        _enc_side(w, right, b, memo)
    w.write_varint(len(rec.children))
    for ceid, csub in rec.children:
        w.write_varint(ceid)
        _enc_basic(w, csub, b, memo)


def _dec_elem(r: BitReader, b: int, n: int, memo) -> ElementRecord:
    eid = r.read_varint()
    parent = r.read_varint() if r.read_bit() else None
    kidx = r.read_uint(2)
    if kidx > 2:
        raise DecodeError("bad element kind")
    kind = _KINDS[kidx]
    if kind == "E":
        lane = r.read_varint()
        vin = r.read_uint(b)
        vout = r.read_uint(b)
        mark = r.read_bit()
        if lane < 1 or vin >= n or vout >= n or vin == vout:
            raise DecodeError("bad edge element")
        topo = ("E", lane, vin, vout, mark)
    elif kind == "P":
        wp = r.read_varint()
        if not 1 <= wp <= n:
            raise DecodeError("bad path width")
        vids = tuple(r.read_uint(b) for _ in range(wp))
        if len(set(vids)) != wp or any(v >= n for v in vids):
            raise DecodeError("bad path vertices")
        marks = tuple(r.read_bit() for _ in range(wp - 1))
        topo = ("P", vids, marks)
    else:
        i = r.read_varint()
        j = r.read_varint()
        bu = r.read_uint(b)
        bv = r.read_uint(b)
        bmark = r.read_bit()
        left = _dec_side(r, b, n, memo)
        right = _dec_side(r, b, n, memo)
        if not bu < bv < n:
            raise DecodeError("bad bridge edge")
        topo = ("B", i, j, (bu, bv), bmark, left, right)
    nc = r.read_varint()
    if nc > n:
        raise DecodeError("bad child count")
    children = []
    for _ in range(nc):
        ceid = r.read_varint()
        children.append((ceid, _dec_basic(r, b, n, memo)))
    if len({c for c, _ in children}) != nc:
        raise DecodeError("duplicate child eids")
    return ElementRecord(eid, parent, topo, tuple(children))


def _side_bit(above: ElementRecord, node_eid: int, basic: BasicInfo) -> int:
    """Which side (0 left, 1 right) of the B record above is the T-node
    node_eid with an equal BasicInfo; CertifyError if neither is, since the
    wire cannot carry a nested section that differs from that side."""
    if above.kind == "B":
        for bit, side in enumerate(above.topo[5:7]):
            if side[0] == "T" and side[1] == node_eid and (
                side[2] is basic or side[2] == basic
            ):
                return bit
    raise CertifyError(
        "T-node %d is not a side of the record above it in the chain" % node_eid
    )


def _enc_tnode(sec: TSec, side: Optional[int], b: int, memo=None) -> Bits:
    """The payload of one T-node section: the root's (side None) with its
    node eid and BasicInfo, a nested one's with its side bit.  memo as in
    _enc_basic."""
    sw = BitWriter()
    if side is None:
        sw.write_varint(sec.node_eid)
        _enc_basic(sw, sec.basic, b, memo)
    else:
        sw.write_bit(side)
    sw.write_varint(sec.dist)
    sw.write_bit(sec.is_tree)
    sw.write_bit(sec.parent_min)
    _enc_elem(sw, sec.elem, b, memo)
    return sw.getvalue()


def frame_label(n: int, w_lanes: int, tnodes: List[Bits], routes: List[RSec]) -> Bits:
    """A label from its header fields, its T-node section payloads and its
    route sections."""
    b = id_bits(n)
    out = BitWriter()
    hw = BitWriter()
    hw.write_varint(n)
    hw.write_varint(w_lanes)
    write_section(out, SEC_HEADER, hw.getvalue())
    for payload in tnodes:
        write_section(out, SEC_TNODE, payload)
    for rs in routes:
        rw = BitWriter()
        rw.write_uint(rs.u, b)
        rw.write_uint(rs.v, b)
        rw.write_varint(rs.fwd)
        rw.write_varint(rs.bwd)
        rw.write_bits(rs.payload)
        write_section(out, SEC_ROUTE, rw.getvalue())
    return out.getvalue()


def encode_label(n: int, w_lanes: int, tnodes: List[TSec], routes: List[RSec]) -> Bits:
    """The label of a decoded form.  CertifyError when the chain has a field
    the wire cannot carry: a root flag off position 0, or a nested section
    that is not a T side of the record above it."""
    b = id_bits(n)
    payloads = []
    for pos, sec in enumerate(tnodes):
        if sec.is_root != (pos == 0):
            raise CertifyError("only the first T-node section is the root")
        side = None
        if pos:
            side = _side_bit(tnodes[pos - 1].elem, sec.node_eid, sec.basic)
        payloads.append(_enc_tnode(sec, side, b))
    return frame_label(n, w_lanes, payloads, routes)


def _dec_tnode(payload: Bits, b: int, n: int, nested: bool, memo) -> tuple:
    """The fields of one T-node section payload: (head, dist, is_tree,
    parent_min, element record), where head is the side bit of a nested
    section and (node eid, BasicInfo) of the root's.  The element record is
    the rest of the payload, the same for every edge of the element, so with
    a memo each distinct record (per n) is decoded once and shared."""
    r = BitReader(payload)
    if nested:
        head = r.read_bit()
    else:
        node_eid = r.read_varint()
        head = (node_eid, _dec_basic(r, b, n, memo))
    dist = r.read_varint()
    is_tree = bool(r.read_bit())
    parent_min = bool(r.read_bit())
    tail = r.read_bits(r.remaining())
    key = ("elem", n, tail)
    elem = memo.get(key) if memo is not None else None
    if elem is None:
        elem = _dec_elem(BitReader(tail), b, n, memo)
        if memo is not None:
            memo[key] = elem
    return head, dist, is_tree, parent_min, elem


def decode_label(bits: Bits, memo: Optional[dict] = None) -> DecodedLabel:
    """Decode one label.  Without a memo every structure returned is new,
    except that a nested section's BasicInfo is the side object of the
    record above it.  With one (the verifier's per-run cache) equal T-node
    payloads, equal element records and equal BasicInfos decode to shared
    objects, which the caller must not mutate."""
    secs = read_sections(bits)
    if not secs or secs[0][0] != SEC_HEADER:
        raise DecodeError("label must start with a header section")
    hr = BitReader(secs[0][1])
    n = hr.read_varint()
    w = hr.read_varint()
    if n < 1 or w < 1:
        raise DecodeError("bad header")
    b = id_bits(n)
    tnodes: List[TSec] = []
    routes: List[RSec] = []
    for stype, payload in secs[1:]:
        if stype == SEC_TNODE:
            nested = bool(tnodes)
            # n is part of the key: it sets the id width and the range
            # checks.  The entry leaves out the record above, so a nested
            # section's side is resolved here, per label.
            key = ("tnode", n, nested, payload)
            raw = memo.get(key) if memo is not None else None
            if raw is None:
                raw = _dec_tnode(payload, b, n, nested, memo)
                if memo is not None:
                    memo[key] = raw
            head, dist, is_tree, parent_min, elem = raw
            if nested:
                above = tnodes[-1].elem
                if above.kind != "B":
                    raise DecodeError("a nested T-node section must follow a B record")
                side = above.topo[5 + head]
                if side[0] != "T":
                    raise DecodeError("a nested T-node section must name a T-node side")
                head = side[1:]  # (node eid, BasicInfo)
            node_eid, basic = head
            tnodes.append(TSec(node_eid, not nested, basic, dist, is_tree, parent_min, elem))
        elif stype == SEC_ROUTE:
            r = BitReader(payload)
            u = r.read_uint(b)
            v = r.read_uint(b)
            fwd = r.read_varint()
            bwd = r.read_varint()
            if u >= n or v >= n or u == v or fwd < 1 or bwd < 1:
                raise DecodeError("bad route section")
            routes.append(RSec(u, v, fwd, bwd, r.read_bits(r.remaining())))
        elif stype == SEC_HEADER:
            raise DecodeError("duplicate header")
        else:
            raise DecodeError("unknown section type %d" % stype)
    return DecodedLabel(n, w, tnodes, routes)


# --- prover ------------------------------------------------------------------


def resolve_property(name: str) -> Tuple[str, bool, PropertyPlugin]:
    """(base name, user asked for the marked variant, internal marked plugin).

    Certification always evaluates the marked variant internally: real edges
    are the marked subset of the completed graph.
    """
    marked = name.startswith("marked-")
    base = name[len("marked-"):] if marked else name
    get_plugin(base)  # existence check with a helpful error
    return base, marked, get_plugin("marked-" + base)


def _pointer_fields(edges, target: int) -> Dict[Edge, Tuple[int, bool, bool]]:
    """(dist, is_tree, parent_min) per fragment edge, rooted at target."""
    adj: Dict[int, List[int]] = {target: []}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    dist, parent = bfs_parents(adj.__getitem__, target)
    if len(dist) != len(adj):
        raise CertifyError("T-node fragment is not connected")
    out = {}
    for e in edges:
        u, v = e
        if parent.get(u) == v:
            out[e] = (dist[v], True, v == min(e))
        elif parent.get(v) == u:
            out[e] = (dist[u], True, u == min(e))
        else:
            out[e] = (0, False, False)
    return out


def check_witness(
    g: Graph, k: int, ir: Optional[IntervalRepresentation]
) -> IntervalRepresentation:
    """The interval witness for width bound k: ir after checking it, or, when
    ir is None, one from the exact pathwidth search.  Raises CertifyError."""
    if ir is None:
        try:
            pw, bags = exact_pathwidth(g)
        except GraphError as exc:
            raise CertifyError(
                "no interval witness given and exact search failed: %s" % exc
            )
        if pw > k:
            raise CertifyError("pathwidth %d exceeds bound %d" % (pw, k))
        return decomposition_to_intervals(g, PathDecomposition(bags))
    bad = validate(g, ir)
    if bad is not None:
        raise CertifyError("invalid interval witness: %s" % (bad,))
    if width(ir) > k + 1:
        raise CertifyError("witness width %d exceeds %d" % (width(ir), k + 1))
    return ir


def prove(
    g: Graph,
    prop_name: str,
    k: int,
    ir: Optional[IntervalRepresentation] = None,
    force: bool = False,
) -> Dict[Edge, Bits]:
    """Produce the per-edge labels certifying prop_name and width bound k.

    Refuses (raises CertifyError) when the statement is false, unless force
    is set, in which case the honest-but-rejecting labels are still emitted
    (useful for adversarial testing).
    """
    if not is_connected(g):
        raise CertifyError("graph must be connected")
    if k < 0:
        raise CertifyError("width bound must be non-negative")
    base, marked_user, plugin = resolve_property(prop_name)
    ir = check_witness(g, k, ir)
    lp, emb = build_lane_partition(g, ir)
    f_bound = lane_bounds(k + 1)[0]
    if lp.k > f_bound:
        raise CertifyError("%d lanes exceed the bound f = %d" % (lp.k, f_bound))
    s = completion_to_op_sequence(g, ir, lp)
    hd = build_hierarchical_decomposition(s)
    emarks: Dict[Edge, int] = {}
    for e in g.edges:
        relevant = g.edge_tag(*e) != 0 if marked_user else True
        emarks[e] = 1 if relevant else 0
    ann = annotate_classes(hd, plugin, emarks)
    if not ann.accepted and not force:
        raise CertifyError("property %r does not hold" % prop_name)
    return _emit_labels(g, k, hd, ann, emb, lp)


def _simplify_path(path: List[int]) -> List[int]:
    """Cut the loops out of a walk; the verifier needs each route to visit
    every host edge at most once."""
    out: List[int] = []
    pos: Dict[int, int] = {}
    for v in path:
        if v in pos:
            while len(out) > pos[v] + 1:
                del pos[out.pop()]
        else:
            pos[v] = len(out)
            out.append(v)
    return out


def _emit_labels(g, k, hd, ann, emb: Embedding, lp) -> Dict[Edge, Bits]:
    n = g.n
    b = id_bits(n)
    w_lanes = lp.k
    real = g.edge_set()
    # Each edge's chain of T-node section payloads.  A payload depends only
    # on its node, its side bit, its element and the edge's pointer fields,
    # so equal ones are encoded once, and so is each BasicInfo they contain.
    payloads: Dict[tuple, Bits] = {}
    basics: dict = {}
    chains: Dict[Edge, List[Bits]] = {}
    above: Dict[Edge, ElementRecord] = {}  # the record of each chain's last section
    # Containing T-nodes first, so every chain starts at the root.
    for node in reversed(hd.nodes):
        node_eid = node.root_element.eid
        basic = ann.sub[node_eid]
        ptr = _pointer_fields(node.edges, node.t_in[min(node.t_in)])
        for el in node.elements():
            rec = ann.records[el.eid]
            for e in el.edges:
                side = None if node is hd.root else _side_bit(above[e], node_eid, basic)
                key = (node_eid, side, el.eid) + ptr[e]
                payload = payloads.get(key)
                if payload is None:
                    sec = TSec(node_eid, side is None, basic, *ptr[e], rec)
                    payload = payloads[key] = _enc_tnode(sec, side, b, basics)
                chains.setdefault(e, []).append(payload)
                above[e] = rec
    bound = 2 * max(1, w_lanes)
    for e, chain in chains.items():
        if len(chain) > bound:
            raise CertifyError(
                "edge %s lies in %d T-nodes, above 2w = %d" % (e, len(chain), bound)
            )
    routes: Dict[Edge, List[RSec]] = {e: [] for e in real}
    for ve in sorted(set(chains) - real):
        vbits = frame_label(n, w_lanes, chains[ve], [])
        path = _simplify_path(emb.routes[ve])
        m = len(path) - 1
        for pos in range(m):
            e = edge_key(path[pos], path[pos + 1])
            routes[e].append(RSec(path[0], path[-1], pos + 1, m - pos, vbits))
    h_bound = lane_bounds(k + 1)[2]
    out: Dict[Edge, Bits] = {}
    for e in real:
        if len(routes[e]) > h_bound:
            raise CertifyError(
                "edge %s carries %d routes, above h = %d" % (e, len(routes[e]), h_bound)
            )
        out[e] = frame_label(n, w_lanes, chains[e], routes[e])
    return out


def _make_record(el, sub, emarks) -> ElementRecord:
    markf = lambda e: 1 if emarks.get(e, 0) else 0
    if el.kind == "E":
        d: ENodeData = el.payload
        e = edge_key(d.vin, d.vout)
        topo = ("E", d.lane, d.vin, d.vout, markf(e))
    elif el.kind == "P":
        d: PNodeData = el.payload
        marks = tuple(markf(edge_key(x, y)) for x, y in zip(d.vids, d.vids[1:]))
        topo = ("P", tuple(d.vids), marks)
    else:
        d: BNodeData = el.payload

        def side(child):
            if isinstance(child, VLeaf):
                return ("V", child.lane, child.vertex)
            return ("T", child.root_element.eid, sub[child.root_element.eid])

        topo = ("B", d.i, d.j, d.bridge, markf(d.bridge), side(d.left), side(d.right))
    children = tuple((c.eid, sub[c.eid]) for c in sorted(el.children, key=lambda c: c.eid))
    return ElementRecord(el.eid, el.parent_eid, topo, children)


@dataclass
class Annotation:
    """Every element's record and subtree info, and the whole graph's info."""

    records: Dict[int, ElementRecord]
    sub: Dict[int, BasicInfo]
    root: BasicInfo
    accepted: bool


def annotate_classes(
    hd: HierarchicalDecomposition, plugin: PropertyPlugin, emarks: Dict[Edge, int]
) -> Annotation:
    """Fold the decomposition with the verifier's own _recompute_sub, so the
    prover emits exactly the subtree infos each vertex will recompute.  The
    builder's eid order puts every element after everything it contains.
    One memo serves the whole fold, so each distinct class operation is
    computed once.

    emarks gives each edge's mark; an edge missing from it is unmarked.
    """
    records: Dict[int, ElementRecord] = {}
    sub: Dict[int, BasicInfo] = {}
    memo: dict = {}
    for el in hd.elements:
        rec = _make_record(el, sub, emarks)
        try:
            sub[el.eid] = _recompute_sub(rec, plugin, memo)
        except _Reject as rj:
            raise CertifyError("element %d fails its own check: %s" % (el.eid, rj.code))
        records[el.eid] = rec
    root = sub[hd.root.root_element.eid]
    return Annotation(records, sub, root, plugin.accepts(root.cls))


# --- verifier ----------------------------------------------------------------


@dataclass
class LocalView:
    """Everything a vertex may use: its id and tag, plus incident edge
    labels and incident edge input tags."""

    vid: int
    vtag: int
    labels: Dict[Edge, Bits]
    etags: Dict[Edge, int]


@dataclass(frozen=True)
class Verdict:
    vid: int
    accept: bool
    reason: str = "-"


class _Reject(Exception):
    def __init__(self, code):
        super().__init__(code)
        self.code = code


def _fold(memo: dict, plugin: PropertyPlugin, op: str, *args):
    """plugin.<op>(*args), computed once per distinct call in one run; memo
    is the run's dict.  The method is looked up on every miss, and a call
    that raises is not stored, so a malformed class is checked again
    wherever it recurs."""
    key = (op, plugin.name) + args
    out = memo.get(key)
    if out is None:
        out = memo[key] = getattr(plugin, op)(*args)
    return out


def _own_terms(rec: ElementRecord, plugin: PropertyPlugin, memo: dict):
    """(t_in, t_out, own class) of an element record's own fragment."""
    t = rec.topo
    if t[0] == "E":
        _, lane, vin, vout, mark = t
        return {lane: vin}, {lane: vout}, _fold(memo, plugin, "base_edge", lane, mark)
    if t[0] == "P":
        _, vids, marks = t
        tm = {i + 1: v for i, v in enumerate(vids)}
        return tm, dict(tm), _fold(memo, plugin, "base_path", len(vids), marks)
    _, i, j, bridge, bmark, left, right = t

    def side_maps(side):
        if side[0] == "V":
            return ({side[1]: side[2]}, {side[1]: side[2]},
                    _fold(memo, plugin, "base_vleaf", side[1]))
        basic = side[2]
        return dict(basic.t_in), dict(basic.t_out), basic.cls

    lin, lout, lcls = side_maps(left)
    rin, rout, rcls = side_maps(right)
    if set(lin) & set(rin):
        raise _Reject("bridge-lanes")
    if i not in lout or j not in rout:
        raise _Reject("bridge-lanes")
    if edge_key(lout[i], rout[j]) != bridge:
        raise _Reject("bridge-endpoints")
    cls = _fold(memo, plugin, "compose_bridge", lcls, rcls, i, j, bmark)
    return {**lin, **rin}, {**lout, **rout}, cls


def _recompute_sub(rec: ElementRecord, plugin: PropertyPlugin, memo: dict) -> BasicInfo:
    """Fold the claimed child subtree infos onto the element's own fragment,
    checking the glue conditions the terminal ids impose.  memo is the run's
    dict (see _fold): the class operations are computed once per distinct
    argument tuple, and the glue checks run on every call."""
    t_in, t_out, cls = _own_terms(rec, plugin, memo)
    lanes = set(t_in)
    seen_lanes: set = set()
    cur_out = dict(t_out)
    for _, csub in rec.children:
        clanes = set(csub.t_in)
        if not clanes <= lanes:
            raise _Reject("child-lanes")
        if clanes & seen_lanes:
            raise _Reject("sibling-lanes")
        seen_lanes |= clanes
        for lane in clanes:
            if csub.t_in[lane] != cur_out[lane]:
                raise _Reject("glue")
        cls = _fold(memo, plugin, "compose_parent", csub.cls, cls)
        for lane in clanes:
            cur_out[lane] = csub.t_out[lane]
    return BasicInfo(t_in, cur_out, cls)


def _fold_record(rec: ElementRecord, plugin: PropertyPlugin, memo: dict) -> BasicInfo:
    """_recompute_sub(rec, plugin, memo), computed once per record object and
    plugin in one run.  decode_label interns equal records in the run's
    memo, so each distinct record is folded once.  The entry keeps rec alive,
    so its id is not reused, and a failing fold is not stored."""
    key = ("sub", plugin.name, id(rec))
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (rec, _recompute_sub(rec, plugin, memo))
    return hit[1]


def _topo_edges(rec: ElementRecord) -> List[Tuple[Edge, int]]:
    """(edge, mark) pairs of the record's directly listed topology edges."""
    t = rec.topo
    if t[0] == "E":
        return [(edge_key(t[2], t[3]), t[4])]
    if t[0] == "P":
        vids, marks = t[1], t[2]
        return [
            (edge_key(x, y), m) for (x, y), m in zip(zip(vids, vids[1:]), marks)
        ]
    return [(t[3], t[4])]


def verify_vertex(
    view: LocalView,
    prop_name: str,
    k: int,
    cache: Optional[dict] = None,
) -> Verdict:
    """Run all local checks at one vertex; total on arbitrary labels.  cache,
    if given, is a memo shared by the vertices of one run over one labeling
    (see verify_all): decoded structures and class fold results in it are
    shared, never mutated.  Without one, the fold memo lasts for this call."""
    base, marked_user, plugin = resolve_property(prop_name)
    try:
        _verify_vertex(view, marked_user, plugin, k, cache)
    except _Reject as rj:
        return Verdict(view.vid, False, rj.code)
    except (DecodeError, PropertyError):
        return Verdict(view.vid, False, "malformed")
    return Verdict(view.vid, True)


def _decode_cached(bits: Bits, cache) -> DecodedLabel:
    """decode_label once per distinct label in a run; cache is that run's
    memo (labels by their bits, plus decode_label's own entries), or None."""
    if cache is None:
        return decode_label(bits)
    hit = cache.get(bits)
    if hit is None:
        try:
            hit = decode_label(bits, cache)
        except DecodeError as exc:
            hit = exc
        cache[bits] = hit
    if isinstance(hit, DecodeError):
        raise hit.with_traceback(None)
    return hit


def _verify_vertex(view, marked_user, plugin, k, cache) -> None:
    vid = view.vid
    memo = cache if cache is not None else {}
    if not view.labels:
        # No incident edges: the vertex is the whole (connected) graph.
        if not _fold(memo, plugin, "accepts", _fold(memo, plugin, "base_path", 1, ())):
            raise _Reject("root-class")
        return
    decoded: Dict[Edge, DecodedLabel] = {}
    for e, bits in view.labels.items():
        try:
            decoded[e] = _decode_cached(bits, cache)
        except DecodeError:
            raise _Reject("decode")
    headers = {(lab.n, lab.w) for lab in decoded.values()}
    if len(headers) != 1:
        raise _Reject("header")
    n, w_lanes = headers.pop()
    if vid >= n or w_lanes > lane_bounds(k + 1)[0]:
        raise _Reject("header")

    # Routes: group by (u, v), one virtual edge each, check rank structure,
    # extract the labels of virtual edges incident to this vertex.
    groups: Dict[tuple, List[Tuple[Edge, RSec]]] = {}
    for e, lab in decoded.items():
        seen_here = set()
        for rs in lab.routes:
            key = (rs.u, rs.v)
            if key in seen_here:
                raise _Reject("route-dup")
            seen_here.add(key)
            groups.setdefault(key, []).append((e, rs))
    virtuals: Dict[Edge, DecodedLabel] = {}
    for (u, v), entries in groups.items():
        if len({(rs.payload.value, rs.payload.nbits) for _, rs in entries}) != 1:
            raise _Reject("route-payload")
        if len({rs.fwd + rs.bwd for _, rs in entries}) != 1:
            raise _Reject("route-rank")
        if len(entries) > 2:
            raise _Reject("route-degree")
        if len(entries) == 2:
            if vid in (u, v):
                raise _Reject("route-endpoint")
            f1, f2 = sorted(rs.fwd for _, rs in entries)
            if f2 != f1 + 1:
                raise _Reject("route-rank")
        else:
            (_, rs) = entries[0]
            if vid == u:
                if rs.fwd != 1:
                    raise _Reject("route-rank")
            elif vid == v:
                if rs.bwd != 1:
                    raise _Reject("route-rank")
            else:
                raise _Reject("route-endpoint")
        if vid in (u, v):
            ve = edge_key(u, v)
            if ve in decoded:
                raise _Reject("route-real")
            payload = entries[0][1].payload
            try:
                vlab = _decode_cached(payload, cache)
            except DecodeError:
                raise _Reject("decode")
            if vlab.routes:
                raise _Reject("nested-route")
            if (vlab.n, vlab.w) != (n, w_lanes):
                raise _Reject("header")
            if ve in virtuals:
                raise _Reject("route-dup")
            virtuals[ve] = vlab

    # The vertex's view of the completed graph: real incident edges plus
    # virtual edges whose routes end here.
    gedges: Dict[Edge, Tuple[DecodedLabel, bool]] = {
        e: (lab, True) for e, lab in decoded.items()
    }
    for e, lab in virtuals.items():
        gedges[e] = (lab, False)

    node_entries: Dict[int, List[Tuple[Edge, TSec]]] = {}
    for e, (lab, real) in gedges.items():
        if vid not in e:
            raise _Reject("edge-endpoint")
        chain = lab.tnodes
        if not chain:
            raise _Reject("chain-empty")
        if len({sec.node_eid for sec in chain}) != len(chain):
            raise _Reject("chain-dup")
        for pos, sec in enumerate(chain):
            last = pos == len(chain) - 1
            topo = [(te, m) for te, m in _topo_edges(sec.elem)]
            here = [(te, m) for te, m in topo if te == e]
            if last:
                if not here:
                    raise _Reject("chain-leaf")
                mark = here[0][1]
                if real:
                    tag = view.etags.get(e, 0)
                    expect = (tag != 0) if marked_user else True
                    if mark != (1 if expect else 0):
                        raise _Reject("mark")
                elif mark != 0:
                    raise _Reject("mark")
            elif here:
                # decode_label made the next section a T side of this B
                # record; the edge must lie in that side, not on the bridge.
                raise _Reject("chain-link")
            node_entries.setdefault(sec.node_eid, []).append((e, sec))

    # Every chain starts at a root section, and a root node must hold every
    # edge here (root-cover) with one root flag (node-shared), so all the
    # chains share one root node.
    all_edges = set(gedges)
    root_basic = None
    for node_eid, entries in node_entries.items():
        first = entries[0][1]
        for _, sec in entries[1:]:
            if sec.is_root != first.is_root or (
                sec.basic is not first.basic and sec.basic != first.basic
            ):
                raise _Reject("node-shared")
        basic = first.basic
        if first.is_root:
            root_basic = basic
            if len(basic.t_in) != w_lanes:
                raise _Reject("header")
            if {e for e, _ in entries} != all_edges:
                raise _Reject("root-cover")
        else:
            if {e for e, _ in entries} != all_edges:
                if vid not in basic.terminal_ids():
                    raise _Reject("boundary")
        _check_pointer(vid, basic, entries)
        _check_elements(vid, node_eid, basic, entries, gedges, w_lanes, plugin, memo)
    if not _fold(memo, plugin, "accepts", root_basic.cls):
        raise _Reject("root-class")


def _check_pointer(vid, basic: BasicInfo, entries) -> None:
    target = basic.t_in[min(basic.t_in)]

    def parent_end(e, sec):
        return min(e) if sec.parent_min else max(e)

    if vid == target:
        for e, sec in entries:
            if not sec.is_tree or parent_end(e, sec) != vid or sec.dist != 0:
                raise _Reject("pointer-root")
        return
    up = [
        (e, sec)
        for e, sec in entries
        if sec.is_tree and parent_end(e, sec) != vid
    ]
    if len(up) != 1:
        raise _Reject("pointer")
    d = up[0][1].dist
    for e, sec in entries:
        if sec.is_tree and parent_end(e, sec) == vid and sec.dist != d + 1:
            raise _Reject("pointer")


def _check_elements(vid, node_eid, node_basic, entries, gedges, w_lanes, plugin, memo):
    # The memo interns decoded records and BasicInfos, so most compares
    # below are of one object with itself; `is` skips the dataclass's
    # field-by-field compare for those.
    recs: Dict[int, ElementRecord] = {}
    for _, sec in entries:
        rec = recs.get(sec.elem.eid)
        if rec is None:
            recs[sec.elem.eid] = sec.elem
        elif rec is not sec.elem and rec != sec.elem:
            raise _Reject("elem-shared")

    def sub_of(eid):
        return _fold_record(recs[eid], plugin, memo)

    for rec in recs.values():
        own = sub_of(rec.eid)
        t_in = own.t_in
        # Listed topology edges at this vertex must actually be present and
        # owned by this element in this node.
        for te, _mark in _topo_edges(rec):
            if vid not in te:
                continue
            hit = gedges.get(te)
            if hit is None:
                raise _Reject("edge-missing")
            owner = [s for s in hit[0].tnodes if s.node_eid == node_eid]
            if not owner or owner[0].elem.eid != rec.eid:
                raise _Reject("edge-owner")
        # Downward: children glued at this vertex must be visible and agree.
        for ceid, csub in rec.children:
            if vid in csub.t_in.values():
                crec = recs.get(ceid)
                if crec is None:
                    raise _Reject("child-missing")
                if crec.parent_eid != rec.eid:
                    raise _Reject("parent-link")
                got = sub_of(ceid)
                if got is not csub and got != csub:
                    raise _Reject("child-basic")
        # Upward: this element's parent must be visible where it glues on.
        if rec.parent_eid is not None and vid in t_in.values():
            prec = recs.get(rec.parent_eid)
            if prec is None:
                if not (
                    rec.parent_eid == node_eid
                    and w_lanes == 1
                    and len(node_basic.t_in) == 1
                    and vid == next(iter(node_basic.t_in.values()))
                ):
                    raise _Reject("parent-missing")
            else:
                listed = [cs for ce, cs in prec.children if ce == rec.eid]
                if not listed or (listed[0] is not own and listed[0] != own):
                    raise _Reject("not-listed")
        if rec.eid == node_eid:
            if rec.parent_eid is not None:
                raise _Reject("parent-link")
            if own is not node_basic and own != node_basic:
                raise _Reject("node-basic")
    # Edgeless single-lane root element: its merge is recomputed from the
    # children visible at its only terminal.
    if (
        node_eid not in recs
        and len(node_basic.t_in) == 1
        and vid == next(iter(node_basic.t_in.values()))
    ):
        lane = next(iter(node_basic.t_in))
        if lane != 1:
            raise _Reject("node-basic")
        kids = sorted(
            (rec for rec in recs.values() if rec.parent_eid == node_eid),
            key=lambda rec: rec.eid,
        )
        synth = ElementRecord(
            node_eid,
            None,
            ("P", (vid,), ()),
            tuple((rec.eid, sub_of(rec.eid)) for rec in kids),
        )
        if _recompute_sub(synth, plugin, memo) != node_basic:
            raise _Reject("node-basic")


def local_views(g: Graph, labels: Dict[Edge, Bits]):
    """Every vertex's LocalView, in vertex order; a missing label is empty."""
    for v in range(g.n):
        incident = [edge_key(v, u) for u in g.adj(v)]
        yield LocalView(
            v,
            g.vertex_tag(v),
            {e: labels.get(e, Bits()) for e in incident},
            {e: g.edge_tag(*e) for e in incident},
        )


def verify_all(
    g: Graph, labels: Dict[Edge, Bits], prop_name: str, k: int
) -> Dict[int, Verdict]:
    """Verify every vertex's local view independently.  The vertices share
    one memo, so each distinct label and section is decoded once and each
    distinct class operation of the fold is computed once."""
    cache: dict = {}
    return {
        view.vid: verify_vertex(view, prop_name, k, cache)
        for view in local_views(g, labels)
    }


def all_accept(verdicts: Dict[int, Verdict]) -> bool:
    return all(v.accept for v in verdicts.values())


def any_reject(
    g: Graph,
    labels: Dict[Edge, Bits],
    prop_name: str,
    k: int,
    cache: Optional[dict] = None,
) -> Optional[Verdict]:
    """The first rejecting vertex's Verdict, in vertex order, or None when
    every vertex accepts: verify_all that stops at the first reject.  cache,
    if given, is a memo the caller keeps across labelings of g (a fuzz
    campaign keeps one for all its trials); its entries are keyed by label
    bits and by class values, so sharing it changes no verdict.  Without one,
    the memo lasts for this call."""
    if cache is None:
        cache = {}
    for view in local_views(g, labels):
        verdict = verify_vertex(view, prop_name, k, cache)
        if not verdict.accept:
            return verdict
    return None


# --- size accounting and file formats ---------------------------------------


@dataclass
class LabelStats:
    count: int
    max_bits: int
    mean_bits: float
    total_bits: int
    per_section: Dict[str, int] = field(default_factory=dict)


def label_size_stats(labels: Dict[Edge, Bits]) -> LabelStats:
    per: Dict[str, int] = {}
    total = 0
    worst = 0
    for bits in labels.values():
        total += bits.nbits
        worst = max(worst, bits.nbits)
        try:
            secs = read_sections(bits)
        except DecodeError:
            per["opaque"] = per.get("opaque", 0) + bits.nbits
            continue
        framed = 0
        for stype, payload in secs:
            name = SECTION_NAMES.get(stype, "other")
            per[name] = per.get(name, 0) + payload.nbits
            framed += payload.nbits
        per["framing"] = per.get("framing", 0) + bits.nbits - framed
    mean = total / len(labels) if labels else 0.0
    return LabelStats(len(labels), worst, mean, total, per)


def write_label_file(labels: Dict[Edge, Bits]) -> str:
    lines = []
    for (u, v) in sorted(labels):
        lines.append("%d %d %s" % (u, v, labels[(u, v)].to_hex()))
    return "\n".join(lines) + "\n" if lines else ""


def read_label_file(text: str) -> Dict[Edge, Bits]:
    """Parse `u v hex` lines; DecodeError names the first malformed one."""
    out: Dict[Edge, Bits] = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        parts = ln.split()
        try:
            if len(parts) != 3:
                raise DecodeError("expected 'u v hex'")
            u, v = int(parts[0]), int(parts[1])
            bits = Bits.from_hex(parts[2])
        except ValueError as exc:  # DecodeError is a ValueError
            raise DecodeError("bad label line %r: %s" % (ln, exc)) from None
        out[edge_key(u, v)] = bits
    return out


def write_verdict_file(verdicts: Dict[int, Verdict]) -> str:
    lines = []
    for vid in sorted(verdicts):
        vd = verdicts[vid]
        state = "accept" if vd.accept else "reject"
        lines.append("%d %s %s" % (vid, state, vd.reason))
    return "\n".join(lines) + "\n" if lines else ""
