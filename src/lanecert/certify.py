"""Prover and local verifier for the edge-label certification scheme.

The prover runs the whole pipeline (intervals, lane partition, completion,
hierarchical decomposition, class evaluation) and flattens the result into
per-edge bitstring labels.  The verifier is a pure function of one vertex's
local view: its id, its input tags, and the labels of incident edges.  If
every vertex accepts, the graph satisfies the property and admits a lane
structure within the width bound; a single reject refutes the certificate.

Prover and verifier share one class fold, ``_recompute_sub``: the prover
runs it over the element records it emits (``annotate_classes``), and the
verifier over the records the vertices see.  Every call has a memo; a run
shares one.  Work that depends only on bits or values is done once per
memo: one ``annotate_classes``, one ``verify_all``, one ``any_reject``
without a cache, one fuzz campaign, or one ``verify_vertex`` or
``decode_label`` call given none.  The fold's class operations and the
root-class check are memoized by value, so a class that repeats
across elements, vertices and labelings is composed once.  The verifier
decodes each distinct element record once and folds it once
(``_fold_record``), so the glue checks inside ``_recompute_sub`` run once
per distinct record per run; a fold's result is the equal table entry when
there is one, so comparing it with the labels' claims is an identity test.
The checks against a vertex's own view
(``_verify_vertex``, ``_check_pointer``, ``_check_elements``) run at every
vertex of one labeling; across the labelings of a fuzz campaign they run
once per distinct view, since ``any_reject`` keeps a verdict table in the
campaign's memo and a verdict, reason included, depends on the view's
contents alone (its labels are checked in edge order).  A failing fold or
operation is not stored, so it runs again wherever it recurs.  Plugins
themselves stay stateless.

One encoder writes every label.  The prover builds each real edge's
decoded form (``_forms``) of the objects ``annotate_classes`` shares and
hands it to ``encode_label`` with one memo for the run.  The memo keeps,
per label header, a tree of section states (``_SecState``): a state is a
section with every section above it, with its raw fields, the slot order
and completion records down to it and its payloads by pointer fields and
slot width; entries, groups and relayed chains are kept per header.  It
changes no label.

Label layout: a list of self-delimiting sections.  Every label starts with a
header (n and the lane count w) and a basic section (the label's BasicInfo
table), followed by one T-node section per decomposition node containing
the edge (the chain, root first), followed by one route section per
virtual edge whose route runs over the edge.  ``read_layout`` and
``write_layout`` are the only code that frames a label or packs a prefix's
pointer fields: they map its bits to and from a ``Layout`` of the fields'
values (a route's frames as a list of payloads, its prefix's pointer fields
as (dist, is_tree, parent_min) triples), which ``encode_label`` fills and
``decode_label`` checks.  (``label_size_stats`` and fuzz's section edits
see bare sections only.)  A section's type is 2 bits, one of the four
SEC_* types, and every integer field is one of ``encoding``'s codes.  The
header's n - 1 and w - 1, the table's slot count m, small counts, ranks
less 1, lanes less 1 and dist are gamma codes; the table's group lengths,
like every bit length, are Exp-Golomb codes of order LENGTH_ORDER; the
eids a record names (its parent, T sides' nodes and children) are signed
gamma codes relative to its own eid, as parent - eid - 1 and eid - 1 - x,
so a nested payload decodes without the record above it; a record's own
eid and the root section's node eid are Exp-Golomb codes of order b - 1,
b the id width.

The table writes each distinct BasicInfo of the label once, in one of three
forms.  In full it is a w-bit lane mask, both terminal maps in one field and
the class term (an int, or a tuple of ints as one packed field; see
``encoding``); a partial entry leaves out the in-terminal map, and a derived
entry is its class term alone (both below).  Everywhere else a
BasicInfo is a slot, numbered by first use within its chain, so a chain's
payloads are the same bits in every label that carries it.  The table lists
the own chain's m entries (m opens the section), then each relayed chain's
new ones in route order, in groups with their bit lengths: one per section
or route that names entries first.  The root section carries its node's eid
and slot, the edge's pointer fields and the record of the element holding
the edge.  Below the root a node is one side of the B record one section
up, so a nested section carries one side bit (left or right) in place of
the eid and BasicInfo; ``decode_label`` takes both from that side, as the
same object, and fails when the record above is not a B record or the side
is a vertex leaf.  No section, and no TSec, carries a root flag: the root
is chain position 0.

An entry that a record of the label names as a child is partial, unless a
chain's root section names it (the whole graph's entry, which a vertex
checks as the label writes it) or a record that names a child or derives
an entry names it as a T side: a child glues on where its parent's
running out-terminals on its lanes are, earlier siblings glued first
(``_glue``, the structural half of the class fold), so its in-terminal map
is the naming record's glue.  Else a nested section whose record is its
node's root element derives that node's BasicInfo (``_derivation``): the
entry is derived, and its lanes and terminal maps are the record's fragment
with its children glued on.  ``decode_label`` completes both kinds in one
step (``_complete``): each record that names a partial entry or derives an
entry glues its children on over the BasicInfos it names, deepest first,
once its T sides' entries are complete.  A T side is never partial, and a
derived one has fewer lanes than the record that waits for it, so on
honest labels no completion waits for itself.  It refuses a completion that
needs its own entry, fails a glue check or names a lane above w, two
records that complete one entry differently, and a table that repeats an
entry once completed; ``encode_label`` refuses a decoded form whose
partial entries' in-terminal maps or derived entries differ from what their
records give.  Which entries are partial and derived follows from the raw
chains, and one function decides it for both (``_sources``), so the table
is read after the route sections' maps; a completed entry is the same
object as the decoded entry of its value, so a derived one is
``_fold_record``'s twin.

A route section carries its endpoints and ranks, then a base: the own
chain or the relayed chain of an earlier route of the label.  A relayed
chain usually runs down the same nodes and elements as its base for several
levels, where the sections differ only in their pointer fields, so the
route writes the length q of the prefix it shares with the base (the same
node eid, BasicInfo and record at each position) and the q sections'
pointer fields.  The map into
the table follows, for the slots after the prefix's (the prefix names the
base's first slots), its length m and then m indices wide enough for the
entries earlier chains of the label name and m more, then T-node frames
for sections q onward only; those
payloads keep the chain's slot numbering, so they are the same bits in
every label that writes them.  The prefix is the longest one any earlier
chain of the label shares, and the base the first chain that shares it
(``_bases``).  Each decoded label has one wire form, so ``decode_label``
refuses anything out of range or out of first-use order, unused and
repeated entries, empty groups, and a base or prefix other than that one.
Payloads, records, entry groups and derivations are decoded once per memo
(per n and slot width); a relayed chain's frame is resolved once per memo
and distinct sections above it, raw fields and slots' entries, and each
distinct relayed chain is built once per memo, whichever carrier writes
which of its frames.  Equal records,
and equal relayed chains, are one object per memo.
"""

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .encoding import (
    LENGTH_ORDER,
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

SEC_HEADER = 0
SEC_TNODE = 1
SEC_ROUTE = 2
SEC_BASIC = 3

SECTION_NAMES = {
    SEC_HEADER: "header",
    SEC_BASIC: "basic",
    SEC_TNODE: "tnode",
    SEC_ROUTE: "route",
}


class CertifyError(Exception):
    pass


# --- wire structures ---------------------------------------------------------


@dataclass
class BasicInfo:
    """Terminal maps plus the homomorphism class of a fragment."""

    t_in: Dict[int, int]
    t_out: Dict[int, int]
    cls: HomClass

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

    @cached_property
    def edge_marks(self) -> Dict[Edge, int]:
        """The mark of each of the record's directly listed topology edges,
        in topology order (an edge listed twice keeps its first mark),
        worked out once per record object (decoded records are shared)."""
        t = self.topo
        if t[0] == "E":
            return {edge_key(t[2], t[3]): t[4]}
        if t[0] == "P":
            out: Dict[Edge, int] = {}
            for x, y, m in zip(t[1], t[1][1:], t[2]):
                out.setdefault(edge_key(x, y), m)
            return out
        return {t[3]: t[4]}


@dataclass(slots=True)
class TSec:
    node_eid: int
    basic: BasicInfo
    dist: int
    is_tree: bool
    parent_min: bool
    elem: ElementRecord


@dataclass(slots=True)
class RSec:
    """A route section: the virtual edge's endpoints, this host edge's ranks
    along its route, and the relayed chain (the virtual edge's T-node
    sections)."""

    u: int
    v: int
    fwd: int
    bwd: int
    tnodes: List[TSec]


@dataclass
class DecodedLabel:
    n: int
    w: int
    tnodes: List[TSec]
    routes: List[RSec]


# --- the wire layout: the only code that frames a label ----------------------


@dataclass(slots=True)
class RouteLayout:
    """A route section's fields as the wire has them: endpoints, ranks,
    base, the prefix's pointer fields (dist, is_tree, parent_min) per
    section, the map's indices and their width iw, and the payloads of the
    T-node sections after the prefix."""

    u: int
    v: int
    fwd: int
    bwd: int
    base: int
    pointers: List[Tuple[int, bool, bool]]
    idx: List[int]
    iw: int
    frames: List[Bits]

    @property
    def q(self) -> int:
        """The length of the prefix the route shares with its base."""
        return len(self.pointers)


@dataclass(slots=True)
class Layout:
    """A label's fields as the wire has them: the header's n and w, the own
    chain's slot count m, the table's groups, the own chain's payloads and
    the route sections."""

    n: int
    w: int
    m: int
    groups: List[Bits]
    tnodes: List[Bits]
    routes: List[RouteLayout]


def read_layout(bits: Bits) -> Layout:
    """The fields of a label, framing only: DecodeError on bad framing, and
    decode_label checks what the fields say.  A route's map width follows
    from the entries that the own chain and earlier maps name."""
    secs = read_sections(bits)
    if len(secs) < 2 or secs[0][0] != SEC_HEADER or secs[1][0] != SEC_BASIC:
        raise DecodeError("label must start with a header and a basic section")
    r = BitReader(secs[0][1])
    n, w = r.read_gamma() + 1, r.read_gamma() + 1
    if r.remaining():
        raise DecodeError("bad header")
    b = id_bits(n)
    tnodes = [payload for stype, payload in secs[2:] if stype == SEC_TNODE]
    rest = secs[2 + len(tnodes):]
    if any(stype != SEC_ROUTE for stype, _ in rest):
        raise DecodeError("T-node sections, then route sections, are all a label may hold")
    r = BitReader(secs[1][1])
    lay = Layout(n, w, r.read_gamma(), [], tnodes, [])
    while r.remaining():
        lay.groups.append(r.read_bits(r.read_expgolomb(LENGTH_ORDER)))
    named = lay.m  # entries 0 .. named - 1 are named by some slot so far
    for j, (_, payload) in enumerate(rest):
        r = BitReader(payload)
        uv = r.read_uint(2 * b)
        head = (uv >> b, uv & ((1 << b) - 1), r.read_gamma() + 1, r.read_gamma() + 1, r.read_uint(j.bit_length()))
        q = r.read_gamma()
        packed, low = r.read_uint(q * (b + 2)), (1 << (b + 2)) - 1
        fields = [packed >> ((b + 2) * i) & low for i in range(q - 1, -1, -1)]
        m = r.read_gamma()
        iw = _index_bits(named + m)
        packed, low = r.read_uint(m * iw), (1 << iw) - 1
        idx = [packed >> (iw * i) & low for i in range(m - 1, -1, -1)]
        named = max(named, max(idx, default=-1) + 1)
        frames = []
        for stype, frame in read_sections(r.read_bits(r.remaining())):
            if stype != SEC_TNODE:
                raise DecodeError("a route relays T-node sections only")
            frames.append(frame)
        lay.routes.append(RouteLayout(*head, [(f >> 2, bool(f & 2), bool(f & 1)) for f in fields], idx, iw, frames))
    return lay


def write_layout(lay: Layout) -> Bits:
    """The label of lay: the inverse of read_layout."""
    b = id_bits(lay.n)
    hw, tw, out = BitWriter(), BitWriter(), BitWriter()
    hw.write_gamma(lay.n - 1)
    hw.write_gamma(lay.w - 1)
    write_section(out, SEC_HEADER, hw.getvalue())
    tw.write_gamma(lay.m)
    for group in lay.groups:
        tw.write_expgolomb(group.nbits, LENGTH_ORDER)
        tw.write_bits(group)
    write_section(out, SEC_BASIC, tw.getvalue())
    for payload in lay.tnodes:
        write_section(out, SEC_TNODE, payload)
    for j, rl in enumerate(lay.routes):
        rw = BitWriter()
        rw.write_uint(rl.u, b)
        rw.write_uint(rl.v, b)
        rw.write_gamma(rl.fwd - 1)
        rw.write_gamma(rl.bwd - 1)
        rw.write_uint(rl.base, j.bit_length())
        packed = 0  # the prefix's pointer fields, b + 2 bits each
        for dist, is_tree, parent_min in rl.pointers:
            packed = packed << (b + 2) | dist << 2 | is_tree << 1 | parent_min
        rw.write_gamma(len(rl.pointers))
        rw.write_uint(packed, len(rl.pointers) * (b + 2))
        rw.write_gamma(len(rl.idx))
        for i in rl.idx:
            rw.write_uint(i, rl.iw)
        for payload in rl.frames:
            write_section(rw, SEC_TNODE, payload)
        write_section(out, SEC_ROUTE, rw.getvalue())
    return out.getvalue()


# --- encoding ----------------------------------------------------------------


def _index_bits(count: int) -> int:
    """The width of an index below count: ceil(log2 count) bits."""
    return max(count - 1, 0).bit_length()


def _maps_key(t_in: Dict[int, int], t_out: Dict[int, int], b: int) -> Tuple[int, int]:
    """(lane mask, terminal maps) of a table entry: lane l is bit l - 1 of
    the mask; the maps are t_in then t_out over the lanes in increasing
    order, b bits per id, as one int."""
    lanes = sorted(t_in)
    mask = maps = 0
    for lane in lanes:
        mask |= 1 << (lane - 1)
        maps = (maps << b) | t_in[lane]
    for lane in lanes:
        maps = (maps << b) | t_out[lane]
    return mask, maps


def _basic_key(bi: BasicInfo, b: int) -> tuple:
    """The fields of bi's table entry: (lane mask, terminal maps, class
    term), as _maps_key gives the first two."""
    return (*_maps_key(bi.t_in, bi.t_out, b), bi.cls.term)


# The forms a table entry is written in (_enc_entry): in full, derived (see
# _derivation) or partial (an entry a record of the label names as a child),
# and their names.
_FULL, _DERIVED, _PARTIAL = 0, 1, 2
ENTRY_FORMS = ("full", "derived", "partial")


def _enc_entry(key: tuple, b: int, w_lanes: int, form: int = _FULL) -> Bits:
    """One table entry: the lane set as a w-bit mask, both terminal maps in
    one 2bc-bit field (c lanes), the class term; a partial entry leaves out
    its in-terminal map, and a derived entry is its class term alone."""
    mask, maps, term = key
    bw = BitWriter()
    if form != _DERIVED:
        c = bin(mask).count("1")
        bw.write_uint(mask, w_lanes)
        if form == _FULL:
            bw.write_uint(maps, 2 * b * c)
        else:
            bw.write_uint(maps & ((1 << b * c) - 1), b * c)  # t_out: the low bc bits
    write_term(bw, term)
    return bw.getvalue()


def _lanes_of(mask: int) -> List[int]:
    """The lanes of a w-bit lane mask, in increasing order; DecodeError when
    it is empty."""
    lanes = [lane for lane in range(1, mask.bit_length() + 1) if mask >> (lane - 1) & 1]
    if not lanes:
        raise DecodeError("empty lane set")
    return lanes


def _ids_of(maps: int, count: int, b: int, n: int) -> List[int]:
    """count b-bit vertex ids packed in maps, first id in the high bits;
    DecodeError for one out of range."""
    low = (1 << b) - 1
    ids = [maps >> (b * i) & low for i in range(count - 1, -1, -1)]
    if max(ids) >= n:
        raise DecodeError("terminal id out of range")
    return ids


def _basic_of(mask: int, maps: int, term, b: int, n: int) -> BasicInfo:
    """The BasicInfo of one table entry's fields."""
    lanes = _lanes_of(mask)
    c = len(lanes)
    ids = _ids_of(maps, 2 * c, b, n)
    return _basic(lanes, ids[:c], ids[c:], term)


def _basic(lanes: List[int], ins: List[int], outs: List[int], term) -> BasicInfo:
    """The BasicInfo of lanes, in increasing order, with in- and
    out-terminals ins and outs, in lane order, and class term term;
    DecodeError unless both maps are injective."""
    c = len(lanes)
    if len(set(ins)) != c or len(set(outs)) != c:
        raise DecodeError("terminal maps must be injective")
    t_in = dict(zip(lanes, ins))
    t_out = dict(zip(lanes, outs))
    atoms = []
    for lane in lanes:
        if t_in[lane] == t_out[lane]:
            atoms.append((lane, 0))
        else:
            atoms.append((lane, 1))
            atoms.append((lane, 2))
    return BasicInfo(t_in, t_out, HomClass(tuple(atoms), term))


def _enc_side(w: BitWriter, side: tuple, eid: int, b: int, slot, sw: int) -> None:
    """One side of the B record eid: a vertex leaf's lane - 1 in gamma and
    its vertex in b bits, or a T side's eid - 1 - node eid in signed gamma
    and its BasicInfo's slot in sw bits, after a side bit."""
    if side[0] == "V":
        w.write_bit(0)
        w.write_gamma(side[1] - 1)
        w.write_uint(side[2], b)
    else:
        w.write_bit(1)
        w.write_signed(eid - 1 - side[1])
        w.write_uint(slot(side[2]), sw)


def _dec_side(r: BitReader, eid: int, b: int, n: int, sw: int, slots: list) -> tuple:
    """One side of the B record eid without its BasicInfo: ("V", lane,
    vertex) or ("T", node eid); a T side's sw-bit slot is appended to
    slots."""
    if r.read_bit() == 0:
        lane = r.read_gamma() + 1
        vertex = r.read_uint(b)
        if vertex >= n:
            raise DecodeError("bad leaf side")
        return ("V", lane, vertex)
    node_eid = eid - 1 - r.read_signed()
    if node_eid < 0:
        raise DecodeError("a T side's node eid is below 0")
    slots.append(r.read_uint(sw))
    return ("T", node_eid)


_KINDS = ("E", "P", "B")


def _elem_uses(rec: ElementRecord):
    """The BasicInfos rec's wire form names, in the order it names them."""
    if rec.kind == "B":
        for side in rec.topo[5:7]:
            if side[0] == "T":
                yield side[2]
    for _, csub in rec.children:
        yield csub


def _enc_elem(rec: ElementRecord, b: int, slot, sw: int) -> Bits:
    """The bits of rec; slot maps each BasicInfo it holds to its sw-bit
    slot.  Its eid is written in Exp-Golomb of order b - 1, and the eids it
    names relative to it in signed gamma: its parent's as parent - eid - 1,
    its T sides' and children's as eid - 1 - x.  Lanes, the path width and
    the child count are small and written in gamma (a lane and the width
    less 1)."""
    w = BitWriter()
    eid = rec.eid
    w.write_expgolomb(eid, b - 1)
    w.write_bit(rec.parent_eid is not None)
    if rec.parent_eid is not None:
        w.write_signed(rec.parent_eid - eid - 1)
    w.write_uint(_KINDS.index(rec.kind), 2)
    t = rec.topo
    if t[0] == "E":
        w.write_gamma(t[1] - 1)
        w.write_uint(t[2], b)
        w.write_uint(t[3], b)
        w.write_bit(t[4])
    elif t[0] == "P":
        vids, marks = t[1], t[2]
        w.write_gamma(len(vids) - 1)
        for v in vids:
            w.write_uint(v, b)
        for m in marks:
            w.write_bit(m)
    else:
        _, i, j, bridge, bmark, left, right = t
        w.write_gamma(i - 1)
        w.write_gamma(j - 1)
        w.write_uint(bridge[0], b)
        w.write_uint(bridge[1], b)
        w.write_bit(bmark)
        _enc_side(w, left, eid, b, slot, sw)
        _enc_side(w, right, eid, b, slot, sw)
    w.write_gamma(len(rec.children))
    for ceid, csub in rec.children:
        w.write_signed(eid - 1 - ceid)
        w.write_uint(slot(csub), sw)
    return w.getvalue()


def _dec_elem(r: BitReader, b: int, n: int, sw: int) -> Tuple[tuple, tuple]:
    """(an element record's fields without its BasicInfos, as _rec_fields
    gives them, and its sw-bit slots in the order _elem_uses lists its
    BasicInfos); _resolve_elem makes the record of them.  The fields do not
    depend on the slot width, so equal records are equal fields."""
    eid = r.read_expgolomb(b - 1)
    parent = None
    if r.read_bit():
        parent = eid + 1 + r.read_signed()
        if parent < 0:
            raise DecodeError("a parent eid below 0")
    kidx = r.read_uint(2)
    if kidx > 2:
        raise DecodeError("bad element kind")
    kind = _KINDS[kidx]
    slots: List[int] = []
    if kind == "E":
        lane = r.read_gamma() + 1
        vin = r.read_uint(b)
        vout = r.read_uint(b)
        mark = r.read_bit()
        if vin >= n or vout >= n or vin == vout:
            raise DecodeError("bad edge element")
        topo = ("E", lane, vin, vout, mark)
    elif kind == "P":
        wp = r.read_gamma() + 1
        if wp > n:
            raise DecodeError("bad path width")
        vids = tuple(r.read_uint(b) for _ in range(wp))
        if len(set(vids)) != wp or any(v >= n for v in vids):
            raise DecodeError("bad path vertices")
        marks = tuple(r.read_bit() for _ in range(wp - 1))
        topo = ("P", vids, marks)
    else:
        i = r.read_gamma() + 1
        j = r.read_gamma() + 1
        bu = r.read_uint(b)
        bv = r.read_uint(b)
        bmark = r.read_bit()
        left = _dec_side(r, eid, b, n, sw, slots)
        right = _dec_side(r, eid, b, n, sw, slots)
        if not bu < bv < n:
            raise DecodeError("bad bridge edge")
        topo = ("B", i, j, (bu, bv), bmark, left, right)
    nc = r.read_gamma()
    if nc > n:
        raise DecodeError("bad child count")
    eids = []
    for _ in range(nc):
        ceid = eid - 1 - r.read_signed()
        if ceid < 0:
            raise DecodeError("a child eid below 0")
        eids.append(ceid)
        slots.append(r.read_uint(sw))
    if len(set(eids)) != nc:
        raise DecodeError("duplicate child eids")
    if r.remaining():
        raise DecodeError("trailing bits after an element record")
    return (eid, parent, topo, *eids), tuple(slots)


def _rec_fields(rec: ElementRecord) -> tuple:
    """rec's fields without its BasicInfos: its eid, parent eid, topology
    with each T side's node eid only, and child eids.  With its BasicInfos
    in the order _elem_uses lists them, they make up the record's value."""
    t = rec.topo
    if t[0] == "B":
        left, right = t[5:]
        t = t[:5] + (left if left[0] == "V" else left[:2], right if right[0] == "V" else right[:2])
    return (rec.eid, rec.parent_eid, t, *map(itemgetter(0), rec.children))


def _sided(topo: tuple, bis) -> tuple:
    """A topology as _dec_elem reads it with the BasicInfo of each T side,
    in order, from bis."""
    if topo[0] != "B":
        return topo
    it = iter(bis)
    return topo[:5] + tuple(("T", side[1], next(it)) if side[0] == "T" else side for side in topo[5:])


def _resolve_elem(fields: tuple, slots: tuple, basics: List[BasicInfo]) -> ElementRecord:
    """The record of fields (from _dec_elem) with basics[s] for each of its
    slots s."""
    bis = [basics[s] for s in slots]
    k = len(bis) + 3 - len(fields)  # a record's slots list its T sides first
    return ElementRecord(fields[0], fields[1], _sided(fields[2], bis), tuple(zip(fields[3:], bis[k:])))


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


def _enc_tnode(sec: TSec, side: Optional[int], b: int, slot, sw: int, tail: Bits) -> Bits:
    """The payload of one T-node section: the root's (side None) with its
    node eid in Exp-Golomb of order b - 1 and its BasicInfo's slot, a
    nested one's with its side bit, then the pointer fields (dist in gamma)
    and tail, the element record's bits.  slot maps each BasicInfo to its
    sw-bit slot in the chain."""
    pw = BitWriter()
    if side is None:
        pw.write_expgolomb(sec.node_eid, b - 1)
        pw.write_uint(slot(sec.basic), sw)
    else:
        pw.write_bit(side)
    pw.write_gamma(sec.dist)
    pw.write_uint(sec.is_tree << 1 | sec.parent_min, 2)
    pw.write_bits(tail)
    return pw.getvalue()


def _table_and_maps(own: List, relayed: List[List]) -> Tuple[List, List[List[int]], List[int], Dict]:
    """The label's table, in order of first use (the own chain's entries,
    then each relayed chain's new ones in route order), each relayed chain's
    map into it, how many entries each map names first, and each entry's
    index in the table.  Entries are hashable keys, equal when the entries
    are."""
    table = list(own)
    index = dict(zip(table, range(len(table))))
    maps = []
    fresh = []
    for keys in relayed:
        before = len(table)
        idx = list(map(index.get, keys))
        if None in idx:
            for j, i in enumerate(idx):
                if i is None:
                    idx[j] = index[keys[j]] = len(table)
                    table.append(keys[j])
        maps.append(idx)
        fresh.append(len(table) - before)
    return table, maps, fresh, index


def _bases(chains: List[list]) -> List[Tuple[int, int]]:
    """(base, q) of each chain after the first, a chain given as one token
    per section that stands for the section and every section above it:
    two chains share their first i + 1 sections exactly when their tokens
    at i are equal, so the tokens of a chain that an earlier chain holds
    are a prefix of it.  q is the length of the longest prefix the chain
    shares with a chain before it, and base the first of those chains (0
    when q is 0).  decode_label checks this rule on the routes it reads."""
    first = dict.fromkeys(chains[0], 0)  # token -> the first chain that holds it
    out = []
    for j in range(1, len(chains)):
        tokens = chains[j]
        q = len(tokens)
        while q and tokens[q - 1] not in first:
            q -= 1
        out.append((first[tokens[q - 1]] if q else 0, q))
        for token in tokens[q:]:
            first[token] = j
    return out


def _join(parts: List[Bits]) -> Bits:
    jw = BitWriter()
    for part in parts:
        jw.write_bits(part)
    return jw.getvalue()


class _SecState:
    """A chain section with every section above it, in labels of one n and
    w: what encode_label needs of it besides its pointer fields.  raw is
    the section as _raw_chain reads it, with entry tokens (_Header.entry)
    for slots: (its side bit, None at the root; its record's _rec_fields;
    the record's entry tokens).  order holds the tokens of the chain's
    slots down to it, new those it names first.  records holds the
    completion records of the sections down to it, as _sources takes them,
    and faults (entry, form, reason) for each entry one of those records
    completes otherwise than the sections have it (_faults).  below maps
    each section below it, by its node eid, BasicInfo and record objects,
    to (its state, the section), and equal lists them by node and record
    eid, so equal sections below equal ones are one state, a share token
    for _bases.  bits holds the payloads by pointer fields and slot width,
    and the record's bits by slot width."""

    __slots__ = ("raw", "order", "new", "records", "faults", "below", "equal", "bits")

    def __init__(self, up, raw, named):
        self.raw = raw
        order = up.order if up else ()
        self.new = tuple(dict.fromkeys(t for t in named if t not in order))
        self.order = order + self.new
        self.records, self.faults = (up.records, up.faults) if up else ((), ())
        self.below, self.equal, self.bits = {}, {}, {}


class _Header(_SecState):
    """The state above each chain's root section in labels of n vertices
    and w lanes, with what those labels share: each BasicInfo's entry, the
    groups by entries and forms, and relayed chains by object id."""

    __slots__ = ("b", "w", "entries", "values", "groups", "relayed")

    def __init__(self, n: int, w_lanes: int):
        super().__init__(None, None, ())
        self.b, self.w = id_bits(n), w_lanes
        self.entries, self.values, self.groups, self.relayed = {}, {}, {}, {}

    def entry(self, bi: BasicInfo) -> int:
        """The token of bi's table entry: the id of the first BasicInfo of
        its value, so equal entries have one; entries[token] is (that
        BasicInfo, token, _basic_key)."""
        hit = self.entries.get(id(bi))
        if hit is None:
            key = _basic_key(bi, self.b)
            hit = self.entries[id(bi)] = (bi, id(self.values.setdefault(key, bi)), key)
        return hit[1]

    def entry_bits(self, token: int, form: int) -> Bits:
        """_enc_entry of token's entry in form, once per header (in bits,
        which the header, a state without payloads, has free)."""
        bits = self.bits.get((token, form))
        if bits is None:
            bits = self.bits[(token, form)] = _enc_entry(self.entries[token][2], self.b, self.w, form)
        return bits


def _enc_chain(tnodes: List[TSec], head: _Header) -> List[_SecState]:
    """The states of a chain's sections, each made once per header;
    CertifyError for a nested section the wire cannot carry, one that is
    not a T side of the record above it."""
    states: List[_SecState] = []
    up = head
    for pos, sec in enumerate(tnodes):
        key = (sec.node_eid, id(sec.basic), id(sec.elem))
        hit = up.below.get(key)
        if hit is None:
            rec = sec.elem
            uses = tuple([head.entry(bi) for bi in _elem_uses(rec)])
            basic = head.entry(sec.basic)
            fields = _rec_fields(rec)
            # Equal sections have equal node and record eids.
            same = up.equal.setdefault((sec.node_eid, rec.eid), [])
            for st, other in same:
                if (basic, uses, fields) == (head.entry(other.basic), st.raw[2], st.raw[1]):
                    break
            else:
                if pos == 0:
                    st = _SecState(up, (None, fields, uses), (basic,) + uses)
                    got = None
                else:
                    side = _side_bit(tnodes[pos - 1].elem, sec.node_eid, sec.basic)
                    st = _SecState(up, (side, fields, uses), uses)
                    got = _derivation(up.raw, st.raw)
                if rec.children or got is not None:
                    k = len(uses) - len(rec.children)  # a record's T sides come first
                    st.records += ((got, fields, uses[:k], uses[k:]),)
                    st.faults += _faults(sec, got, uses[k:], head.w)
                same.append((st, sec))
            hit = up.below[key] = (st, sec)  # keeps the objects of key alive
        up = hit[0]
        states.append(up)
    return states


def _payloads(tnodes: List[TSec], states: List[_SecState], head: _Header, start: int = 0) -> List[Bits]:
    """The payloads of a chain's sections from start on, slots numbered by
    first use, each encoded once per header."""
    order = states[-1].order if states else ()
    sw = _index_bits(len(order))
    slots = None
    payloads = []
    for sec, st in zip(tnodes[start:], states[start:]) if start else zip(tnodes, states):
        key = (sec.dist, sec.is_tree, sec.parent_min, sw)
        payload = st.bits.get(key)
        if payload is None:
            if slots is None:
                slots = dict(zip(order, range(len(order))))
            slot = lambda bi: slots[head.entry(bi)]
            tail = st.bits.get(sw)
            if tail is None:
                tail = st.bits[sw] = _enc_elem(sec.elem, head.b, slot, sw)
            payload = st.bits[key] = _enc_tnode(sec, st.raw[0], head.b, slot, sw, tail)
        payloads.append(payload)
    return payloads


# --- derived and partial table entries ---------------------------------------


def _derivation(above: tuple, below: tuple) -> Optional[int]:
    """The rule that decides which section derives which table entry, on
    two consecutive sections of a chain, each given as (head, record
    fields, slots): the head as the wire has it (a nested section's side
    bit), the fields as _rec_fields gives them (of which it reads the eid
    and the T sides' node eids), and the slots of the BasicInfos the record
    names, in _elem_uses order (of which it reads above's).  The decoder's
    raw sections are so, and the encoder's section states hold one
    (_SecState.raw) with entry tokens as slots.
    When below's record is the root element of its node, which is the T
    side of above's record that below names, below's section derives that
    node's BasicInfo: the result is that BasicInfo's slot, else None.  A
    derived entry is written as its class term alone, unless a record of
    the label names it as a child (_sources); _complete computes the rest
    from the record."""
    topo = above[1][2]
    if topo[0] == "B":
        head = below[0]
        side = topo[5 + head]
        if side[0] == "T" and side[1] == below[1][0]:
            # A record's slots list its T sides first.
            return above[2][head and topo[5][0] == "T"]
    return None


def _sources(records: list, roots: set) -> Tuple[list, set, set]:
    """The one rule for the forms of a label's table entries, which
    encode_label and decode_label both run: (the label's completion
    sources, its derived entries, its partial entries).  records holds a
    completion record per section the label writes (a route's after its
    shared prefix) whose record names a child or that derives an entry, in
    chain order: (the entry the section derives (_derivation) or None, the
    record's fields, the entries it names as T sides, those it names as
    children); roots holds the entries the chains' root sections name.
    The decoder gives entries as table indices, the encoder as entry
    tokens.  An entry that a record names as a child is partial, unless it
    is a root entry (the whole graph's, which a vertex checks as the label
    has it) or a T side of a record; else one that a section derives is
    derived; the rest are written in full.  So a completion waits only for
    derived T sides, which have fewer lanes than the record that waits, and
    on honest labels every completion runs.  A source is (the record's
    fields, its T sides' entries, its children's entries followed by the
    entry it derives if any), one per record that names a partial entry or
    derives an entry."""
    kids = set().union(*[rec[3] for rec in records])
    partial = kids - roots - set().union(*[rec[2] for rec in records])
    derived = set()
    sources = []
    for got, fields, sides, named in records:
        if got is not None and got not in kids:
            derived.add(got)
            named += (got,)
        elif partial.isdisjoint(named):
            continue
        sources.append((fields, sides, named))
    return sources, derived, partial


def _complete(sources: list, derived: set, partial: set, table: list, b: int, n: int, w_lanes: int, memo) -> None:
    """Put in table each derived entry, which it holds as its class term,
    and each partial entry, which it holds as a _Partial: sources, derived
    and partial are as _sources gives them.  A source's record glues its
    children on (_glue) over its T sides' entries and its children's lanes
    and out-terminal maps: each child's in-terminal map is then the running
    out-terminals on its lanes (earlier siblings glued first), and the
    record's fragment with its children glued on is the lanes and terminal
    maps of the entry it derives, so a derived entry is _fold_record's
    twin.  Each completed entry is the decoded entry of its value
    (_entry).  A source runs once its T sides' entries are complete,
    the deepest sections first.
    DecodeError when that never happens (a completion that needs its own
    entry), when a record fails a glue check or a derived entry names a
    lane above w or maps that are not injective, and when two sources
    complete one entry differently.  Each distinct record, slots' entries
    and term is completed once per memo: the entries as the wire has them
    (a _Partial, a class term or, for a child written in full, a
    BasicInfo) are interned, so their ids key it."""
    written = table[:]
    pending = derived | partial  # the entries not complete yet
    done = memo.setdefault(("complete", n, w_lanes), {})
    todo = sources[::-1]
    while todo:
        later = []
        for src in todo:
            fields, sides, named = src
            if not pending.isdisjoint(sides):
                later.append(src)
                continue
            objs = [*map(table.__getitem__, sides), *map(written.__getitem__, named)]
            key = (id(fields), *map(id, objs))
            got = done.get(key)
            if got is None:
                ins: list = []
                k = len(sides)
                try:
                    t_in, t_out = _glue(_sided(fields[2], objs), zip(fields[3:], objs[k:]), ins)
                except _Reject as rj:
                    raise DecodeError("a record that completes a table entry fails its glue: %s" % rj.code)
                got = [_entry(*_maps_key(cin, kid.t_out, b), kid.term, b, n, memo, (cin, kid.t_out))
                       if type(kid) is _Partial else None for cin, kid in zip(ins, objs[k:])]
                if len(named) > len(ins):
                    if max(t_in, default=0) > w_lanes:
                        raise DecodeError("a derived entry has a lane above w")
                    got.append(_entry(*_maps_key(t_in, t_out, b), objs[-1], b, n, memo, (t_in, t_out)))
                done[key] = got
            for t, basic in zip(named, got):
                if basic is None:
                    continue
                if t in pending:
                    table[t] = basic
                    pending.discard(t)
                elif table[t] is not basic:
                    raise DecodeError(
                        "two records complete one partial entry differently" if t in partial
                        else "two derivations of one entry differ"
                    )
        if len(later) == len(todo):
            raise DecodeError("a table entry's completion needs that entry")
        todo = later


def _faults(sec: TSec, got: Optional[int], kids: tuple, w_lanes: int) -> tuple:
    """(entry, form, reason) for each entry that sec's record completes
    otherwise than sec has it, from one glue of the record as _complete
    glues it: got is the entry sec derives (None if none), in form
    _DERIVED, and kids the entries of the record's children, in form
    _PARTIAL.  The record fails its glue; a derived entry has a lane above
    w or other terminal maps than the record's fragment with its children
    glued on; a partial child's in-terminal map is not where the glue puts
    it.  Whether an entry is in that form is the label's to say
    (_check_completed)."""
    rec = sec.elem
    ins: list = []
    try:
        t_in, t_out = _glue(rec.topo, rec.children, ins)
    except _Reject as rj:
        named = [(kid, _PARTIAL) for kid in kids] + ([(got, _DERIVED)] if got is not None else [])
        return tuple((t, form, "a record that completes a table entry fails its glue: %s" % rj.code)
                     for t, form in named)
    faults = tuple(
        (kid, _PARTIAL, "a partial entry's in-terminals differ from its record's glue")
        for kid, (_, csub), cin in zip(kids, rec.children, ins) if csub.t_in != cin
    )
    if got is not None:
        if max(t_in, default=0) > w_lanes:
            faults += ((got, _DERIVED, "a derived entry has a lane above w"),)
        elif t_in != sec.basic.t_in or t_out != sec.basic.t_out:
            faults += ((got, _DERIVED, "a derived entry differs from the one its record derives"),)
    return faults


def _check_completed(derived: set, partial: set, lasts: List[_SecState]) -> None:
    """CertifyError unless each derived and each partial entry of a label,
    as _sources gives them, is what its records complete it to (lasts: the
    last states of the label's chains, whose faults list where they do
    not).  Then decode_label completes each as the label has it
    (_complete)."""
    for st in lasts:
        for token, form, reason in st.faults:
            if token in (derived if form == _DERIVED else partial):
                raise CertifyError(reason)


def encode_label(
    n: int, w_lanes: int, tnodes: List[TSec], routes: List[RSec], memo: Optional[dict] = None
) -> Bits:
    """The label of a decoded form; CertifyError for a form the wire cannot
    carry (_enc_chain): one whose derived entry its record does not derive,
    or whose partial entry does not glue on where its record puts it
    (_check_completed).  Every encode runs with a memo, a fresh one when none
    is given.  The memo holds a _Header per n and w, which changes no label
    and keeps alive every object whose id it keys, so forms encoded under
    one memo must not be mutated."""
    if memo is None:
        memo = {}
    head = memo.get((n, w_lanes))
    if head is None:
        head = memo[(n, w_lanes)] = _Header(n, w_lanes)
    b = head.b
    own = _enc_chain(tnodes, head)
    relayed = []
    for rs in routes:
        hit = head.relayed.get(id(rs.tnodes))
        if hit is None:  # the carriers of a route share its chain
            hit = head.relayed[id(rs.tnodes)] = (rs.tnodes, _enc_chain(rs.tnodes, head), {})
        relayed.append(hit)
    chains = [own] + [hit[1] for hit in relayed]
    bases = _bases(chains)
    # The completion records of the sections the label writes: a route
    # writes its chain's after the prefix it shares.
    records = list(own[-1].records) if own else []
    for states, (_, q) in zip(chains[1:], bases):
        if states:
            records += states[-1].records[len(states[q - 1].records) if q else 0:]
    _, derived, partial = _sources(records, {states[0].order[0] for states in chains if states})
    _check_completed(derived, partial, [states[-1] for states in chains if states])
    # A prefix's slots name entries its base named before, so only the
    # slots after it are mapped.
    own_order = own[-1].order if own else ()
    table, maps, fresh, index = _table_and_maps(own_order, [
        states[-1].order[len(states[q - 1].order) if q else 0:] if states else ()
        for states, (_, q) in zip(chains[1:], bases)
    ])
    # Bit t: entry t is derived, or partial.
    dflags = sum(1 << index[token] for token in derived)
    pflags = sum(1 << index[token] for token in partial)
    # The table's groups, one per section and route that names entries first.
    groups = []
    start = 0
    for count in [len(st.new) for st in own] + fresh:
        if count:
            low = (1 << count) - 1
            key = (tuple(table[start:start + count]), dflags >> start & low, pflags >> start & low)
            group = head.groups.get(key)
            if group is None:
                tokens, d, p = key
                group = head.groups[key] = _join([
                    head.entry_bits(t, _DERIVED if d >> i & 1 else _PARTIAL if p >> i & 1 else _FULL)
                    for i, t in enumerate(tokens)
                ])
            groups.append(group)
        start += count
    # The route sections, laid out as the module docstring says; a map's
    # indices are wide enough for the entries earlier chains name and as
    # many more.
    named = len(own_order)
    layouts = []
    for rs, (_, states, prefixes), (base, q), idx, count in zip(routes, relayed, bases, maps, fresh):
        # The prefix's pointer fields and the payloads after it, which are
        # all of the chain that the route writes.
        prefix = prefixes.get(q)
        if prefix is None:
            for sec in rs.tnodes[:q]:
                if sec.dist >> b:
                    raise CertifyError("a relayed dist of %d does not fit in %d bits" % (sec.dist, b))
            pointers = [(sec.dist, sec.is_tree, sec.parent_min) for sec in rs.tnodes[:q]]
            prefix = prefixes[q] = (pointers, _payloads(rs.tnodes, states, head, q))
        iw = _index_bits(named + len(idx))
        layouts.append(RouteLayout(rs.u, rs.v, rs.fwd, rs.bwd, base, prefix[0], idx, iw, prefix[1]))
        named += count
    return write_layout(Layout(n, w_lanes, len(own_order), groups, _payloads(tnodes, own, head), layouts))


# --- decoding ----------------------------------------------------------------


def _dec_tnode(payload: Bits, b: int, n: int, sw: int, nested: bool, memo) -> tuple:
    """The fields of one T-node section payload with sw-bit slots: (head,
    the element record's fields, its slots, dist, is_tree, parent_min),
    where head is the side bit of a nested section and (node eid, slot) of
    the root's, and the record is as _dec_elem reads it; its fields are one
    object per memo, whatever the slot width.
    The element record is the rest of the payload, the same for every edge
    of the element, so each distinct record (per n and slot width) is
    decoded once per memo and shared."""
    r = BitReader(payload)
    if nested:
        head = r.read_bit()
    else:
        head = (r.read_expgolomb(b - 1), r.read_uint(sw))
    dist = r.read_gamma()
    is_tree = bool(r.read_bit())
    parent_min = bool(r.read_bit())
    tail = r.read_bits(r.remaining())
    key = ("elem", n, sw, tail.value, tail.nbits)
    hit = memo.get(key)
    if hit is None:
        fields, slots = _dec_elem(BitReader(tail), b, n, sw)
        hit = memo[key] = (memo.setdefault(("fields", fields), fields), slots)
    return (head, *hit, dist, is_tree, parent_min)


def _raw_chain(
    payloads: List[Bits], b: int, n: int, sw: int, memo, above: Optional[tuple] = None,
    count: int = 0,
) -> tuple:
    """(the raw T-node sections, the number of slots each names first, the
    completion records of its sections, as _sources takes them with slots
    for entries) of one chain's payloads; DecodeError unless its slots are
    numbered by first use.  above and count are for payloads that follow a
    route's shared prefix: the raw section above the first payload, which
    is then nested, and the number of slots the prefix names."""
    raws = []
    news = []
    found = []
    for payload in payloads:
        nested = above is not None
        # n and the slot width set the field widths and the range checks.
        # The entry leaves out the record above and the slots' BasicInfos,
        # which are resolved per chain.
        key = ("tnode", n, sw, nested, payload.value, payload.nbits)
        raw = memo.get(key)
        if raw is None:
            raw = memo[key] = _dec_tnode(payload, b, n, sw, nested, memo)
        before = count
        for s in raw[2] if nested else (raw[0][1],) + raw[2]:
            if s == count:
                count += 1
            elif s > count:
                raise DecodeError("slots must be numbered by first use")
        slot = _derivation(above, raw) if nested else None
        if slot is not None or len(raw[1]) > 3:  # the fields after the third are child eids
            k = len(raw[2]) + 3 - len(raw[1])  # a record's slots list its T sides first
            found.append((slot, raw[1], raw[2][:k], raw[2][k:]))
        raws.append(raw)
        news.append(count - before)
        above = raw
    return raws, news, found


def _record(fields: tuple, slots, basics: List[BasicInfo], memo) -> ElementRecord:
    """The record of fields (from _dec_elem) with basics[s] for each of its
    slots s.  Equal records are one object per memo, whatever slot width
    they were written at."""
    key = ("record", id(fields), *map(id, map(basics.__getitem__, slots)))
    rec = memo.get(key)
    if rec is None:
        rec = memo[key] = _resolve_elem(fields, slots, basics)
    return rec


def _resolve_section(raw: tuple, above: Optional[TSec], basics: List[BasicInfo], memo) -> TSec:
    """The T-node section of raw (from _dec_tnode) with basics[s] for each
    slot s, below the section above (None at the root).  A nested section
    takes its node eid and BasicInfo from its side of the record above, as
    the same object; DecodeError when that record is not a B record or that
    side is a vertex leaf."""
    head, fields, uses, dist, is_tree, parent_min = raw
    rec = _record(fields, uses, basics, memo)
    if above is None:
        return TSec(head[0], basics[head[1]], dist, is_tree, parent_min, rec)
    if above.elem.kind != "B":
        raise DecodeError("a nested T-node section must follow a B record")
    side = above.elem.topo[5 + head]
    if side[0] != "T":
        raise DecodeError("a nested T-node section must name a T-node side")
    return TSec(side[1], side[2], dist, is_tree, parent_min, rec)


def _share_token(sec: TSec, token: Optional[int], memo) -> int:
    """The share token of sec below a section whose token is given (None at
    the root).  Two sections share when their node eids, BasicInfos and
    records are the same (the latter two are interned, so the same object),
    and two chains share their first i + 1 sections exactly when their
    tokens at i are equal.  A token is the id of an interned key, which the
    memo keeps alive."""
    key = ("share", token, sec.node_eid, id(sec.basic), id(sec.elem))
    return id(memo.setdefault(key, key))


def _resolve(raws: list, above: Optional[TSec], token: Optional[int], basics: List[BasicInfo], memo) -> tuple:
    """(the sections of raws, their share tokens), below the section above
    whose token is given (both None for a chain's root section), with
    basics[s] for each slot s.  A section is fixed by its raw fields, its
    slots' BasicInfos and the sections above it, which one share token
    stands for, so each distinct one is resolved once per memo, whichever
    label or carrier writes it."""
    secs: List[TSec] = []
    tokens = []
    for raw in raws:
        slots = raw[2] if token is not None else (raw[0][1],) + raw[2]
        key = ("sec", token, id(raw), *map(id, map(basics.__getitem__, slots)))
        hit = memo.get(key)
        if hit is None:
            sec = _resolve_section(raw, above, basics, memo)
            hit = memo[key] = (sec, _share_token(sec, token, memo))
        above, token = hit
        secs.append(above)
        tokens.append(token)
    return secs, tokens


def _relayed_sections(prefix: List[TSec], pointers: list, rest: List[TSec]) -> List[TSec]:
    """A relayed chain: the sections of prefix with the pointer fields the
    route writes for them, then rest."""
    return [TSec(sec.node_eid, sec.basic, *f, sec.elem) for sec, f in zip(prefix, pointers)] + rest


def _relayed_chain(raws: list, base: tuple, pointers: list, basics: List[BasicInfo], memo) -> tuple:
    """(the chain a route section relays, its share tokens), given the same
    two of its base as base.  The chain's first q sections are the base's
    with the route's q pointer fields; the rest are its T-node frames, raws,
    with basics as the chain's slots' BasicInfos.  The chain's value is its
    last token and every section's pointer fields, so equal chains are one
    object, built once per memo, though their carriers share prefixes of
    different lengths."""
    bsecs, btokens = base
    q = len(pointers)
    above = btokens[q - 1] if q else None
    rest, tokens = _resolve(raws, bsecs[q - 1] if q else None, above, basics, memo)
    key = ("chain", tokens[-1] if tokens else above, *pointers, *[raw[3:] for raw in raws])
    chain = memo.get(key)
    if chain is None:
        chain = memo[key] = _relayed_sections(bsecs[:q], pointers, rest)
    return chain, btokens[:q] + tokens


def _entry(mask: int, maps: int, term, b: int, n: int, memo, glued: Optional[tuple] = None) -> BasicInfo:
    """The BasicInfo of one table entry's fields (of labels with n
    vertices), built and validated once per memo: equal entries, written or
    derived, are one object.  An entry _complete computes gives its terminal
    maps as glued, (t_in, t_out) with ids below n, so a miss builds it from
    them and does not unpack maps."""
    key = ("basic", n, mask, maps, term)
    basic = memo.get(key)
    if basic is None:
        if glued is None:
            basic = _basic_of(mask, maps, term, b, n)
        else:
            t_in, t_out = glued
            lanes = sorted(t_in)
            basic = _basic(lanes, [t_in[lane] for lane in lanes], [t_out[lane] for lane in lanes], term)
        memo[key] = basic
    return basic


class _Partial:
    """A partial table entry as the wire has it, until _complete puts the
    entry in its place: its out-terminal map (lane to vertex id) and class
    term."""

    __slots__ = ("t_out", "term")

    def __init__(self, t_out: Dict[int, int], term):
        self.t_out, self.term = t_out, term


def _partial(mask: int, outs: int, term, b: int, n: int, memo) -> _Partial:
    """The _Partial of one partial entry's fields (of labels with n
    vertices), built and validated once per memo: equal ones are one
    object."""
    key = ("partial", n, mask, outs, term)
    part = memo.get(key)
    if part is None:
        lanes = _lanes_of(mask)
        ids = _ids_of(outs, len(lanes), b, n)
        if len(set(ids)) != len(ids):
            raise DecodeError("terminal maps must be injective")
        part = memo[key] = _Partial(dict(zip(lanes, ids)), term)
    return part


def _dec_entries(bits: Bits, derived: int, partial: int, b: int, n: int, w_lanes: int, memo) -> list:
    """The table entries that make up bits: entry i is derived when bit i of
    derived is set, and is then its class term alone, which stands in the
    list for the entry, and partial when bit i of partial is set, and is
    then its _Partial.  Equal entries decode to one shared object."""
    r = BitReader(bits)
    out = []
    while r.remaining():
        i = len(out)
        if derived >> i & 1:
            term = read_term(r)
            out.append(memo.setdefault(("term", term), term))
            continue
        mask = r.read_uint(w_lanes)
        c = bin(mask).count("1")
        if partial >> i & 1:
            outs = r.read_uint(b * c)
            out.append(_partial(mask, outs, read_term(r), b, n, memo))
        else:
            maps = r.read_uint(2 * b * c)
            out.append(_entry(mask, maps, read_term(r), b, n, memo))
    return out


def _dec_table(groups: List[Bits], counts: list, derived: set, partial: set, b: int, n: int, w_lanes: int,
               memo) -> list:
    """The table of a label's groups: counts holds, per group, the entries
    it must hold, in table order; an entry whose index is in derived or
    partial is its class term or _Partial until _complete puts the entry in
    its place.  Each distinct group is decoded once per memo, as one shared
    list."""
    if len(groups) != len(counts):
        raise DecodeError("a table entry that no slot names" if len(groups) > len(counts) else "a missing table group")
    table: list = []
    dmarks = pmarks = 0  # bit t: entry t is derived, or partial
    for t in derived:
        dmarks |= 1 << t
    for t in partial:
        pmarks |= 1 << t
    for count, group in zip(counts, groups):
        low = (1 << count) - 1
        dflags, pflags = dmarks >> len(table) & low, pmarks >> len(table) & low  # the group's
        key = ("group", n, w_lanes, dflags, pflags, group.value, group.nbits)
        got = memo.get(key)
        if got is None:
            got = memo[key] = _dec_entries(group, dflags, pflags, b, n, w_lanes, memo)
        if len(got) != count:
            raise DecodeError("a group must hold the entries its section or route names first")
        table.extend(got)
    return table


def decode_label(bits: Bits, memo: Optional[dict] = None) -> DecodedLabel:
    """Decode one label.  Every decode runs with a memo; without one given,
    a fresh one lasts for this call, so nothing returned is shared with any
    other call.  Within the memo equal T-node payloads, equal element
    records, equal BasicInfos and equal relayed chains decode to shared
    objects: each table entry is one BasicInfo, shared by every slot naming
    it, and a nested section's BasicInfo is the side object of the record
    above it.  With a run's memo (the verifier's cache) the objects are
    shared across the run, and the caller must not mutate them.
    The label's layout (read_layout) is read in two passes: first every
    chain's raw sections and slots' table indices (_read_chains), and the
    table's groups; then the partial and derived entries (_complete) and
    the sections."""
    if memo is None:
        memo = {}
    lay = read_layout(bits)
    n, w = lay.n, lay.w
    b = id_bits(n)
    chains, counts, sources, derived, partial = _read_chains(lay, b, memo)
    table = _dec_table(lay.groups, counts, derived, partial, b, n, w, memo)
    _complete(sources, derived, partial, table, b, n, w, memo)
    # Equal entries are one object, so ids tell them apart.
    if len(set(map(id, table))) != len(table):
        raise DecodeError("repeated table entry")
    resolved = [_resolve(chains[0][0], None, None, table, memo)]  # each chain and its share tokens
    routes: List[RSec] = []
    for rl, (craws, _, idx) in zip(lay.routes, chains[1:]):
        chain, tokens = _relayed_chain(
            craws[rl.q:], resolved[rl.base], rl.pointers, list(map(table.__getitem__, idx)), memo
        )
        resolved.append((chain, tokens))
        routes.append(RSec(rl.u, rl.v, rl.fwd, rl.bwd, chain))
    # Each prefix must be the longest one shared with an earlier chain, and
    # its base the first chain that holds it.
    if lay.routes and _bases([tokens for _, tokens in resolved]) != [(rl.base, rl.q) for rl in lay.routes]:
        raise DecodeError("a route must share the longest prefix it can, with the first chain")
    return DecodedLabel(n, w, resolved[0][0], routes)


def _read_chains(lay: Layout, b: int, memo) -> tuple:
    """The first pass of decode_label over a label's layout: (each chain,
    the own chain first, as its raw sections, the number of slots its first
    i sections name for each i, and its slots' table indices; the number of
    entries each table group must hold; the label's completion sources,
    derived entries and partial entries, as _sources gives them)."""
    n, m_own = lay.n, lay.m
    # The own chain's slots are its table indices, so its completion
    # records need no map.
    raws, news, records = _raw_chain(lay.tnodes, b, n, _index_bits(m_own), memo)
    if sum(news) != m_own:
        raise DecodeError("the table must open with exactly the chain's slots")
    chains = [(raws, [0, *accumulate(news)], list(range(m_own)))]  # each chain so far
    roots = {raws[0][0][1]} if raws else set()  # the table indices the root sections name
    counts = [count for count in news if count]  # each group's entries
    named = m_own  # entries 0 .. named - 1 are named by some slot so far
    for j, rl in enumerate(lay.routes):
        if rl.u >= n or rl.v >= n or rl.u == rl.v:
            raise DecodeError("bad route section")
        base, q = rl.base, rl.q
        if base > j or q > len(chains[base][0]):
            raise DecodeError("a route's base must be an earlier chain that holds its prefix")
        braws, bcounts, bidx = chains[base]
        s = bcounts[q]  # the slots the prefix names
        m = len(rl.idx)
        # An index names an entry earlier chains name or one of the next m.
        idx = bidx[:s] + rl.idx
        if len(set(idx)) != s + m:
            raise DecodeError("a map names a table entry twice")
        # The entries no map names before this one must come in order, and
        # they make up the next route group.
        fresh = [i for i in rl.idx if i >= named]
        if fresh:
            if fresh != list(range(named, named + len(fresh))):
                raise DecodeError("table entries must be in order of first use")
            counts.append(len(fresh))
            named += len(fresh)
        fraws, fnews, found = _raw_chain(
            rl.frames, b, n, _index_bits(s + m), memo, braws[q - 1] if q else None, s
        )
        if sum(fnews) != m:
            raise DecodeError("the map must name exactly the chain's slots")
        if not q and fraws:
            roots.add(idx[fraws[0][0][1]])
        chains.append((braws[:q] + fraws, bcounts[:q] + list(accumulate(fnews, initial=s)), idx))
        at = idx.__getitem__
        records += [(slot if slot is None else at(slot), fields, tuple(map(at, sides)), tuple(map(at, kids)))
                    for slot, fields, sides, kids in found]
    return (chains, counts, *_sources(records, roots))


# --- prover ------------------------------------------------------------------


def resolve_property(name: str) -> Tuple[bool, PropertyPlugin]:
    """(the name asks for the marked variant, the property's plugin).  The
    plugin counts the marked edges: every real edge, or for a marked- name
    those with a nonzero tag, so real edges are the marked subset of the
    completed graph either way."""
    marked = name.startswith("marked-")
    return marked, get_plugin(name[len("marked-"):] if marked else name)


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
    with _no_cyclic_gc():
        lp, emb, hd, ann = _annotate(g, prop_name, k, ir)
        if not ann.accepted and not force:
            raise CertifyError("property %r does not hold" % prop_name)
        labels = _emit(g, k, lp, emb, hd, ann)
        del lp, emb, hd, ann  # inside the pause: see _no_cyclic_gc
    return labels


def prove_forced(
    g: Graph, prop_name: str, k: int, ir: Optional[IntervalRepresentation] = None
) -> Tuple[Dict[Edge, Bits], bool]:
    """The labels ``prove(..., force=True)`` emits, and whether the statement
    holds (the class annotation's verdict, not the verifier's), from one run
    of the pipeline."""
    with _no_cyclic_gc():
        lp, emb, hd, ann = _annotate(g, prop_name, k, ir)
        labels, holds = _emit(g, k, lp, emb, hd, ann), ann.accepted
        del lp, emb, hd, ann  # inside the pause: see _no_cyclic_gc
    return labels, holds


@contextmanager
def _no_cyclic_gc():
    """Run the body with the cyclic garbage collector disabled, and enable
    it afterwards only if it was enabled before.

    prove, prove_forced and verify_all allocate many containers, so the
    collector would run often and find nothing, as long as they make no
    reference cycles (build_hierarchical_decomposition cuts its merge
    tree's links for this).  test_memo's test_pipeline_makes_no_reference_cycles
    guards that: a cycle made here would outlive the call until the
    collector next runs.  The body deletes the locals that hold large
    structures (a run's memo, the prover's decomposition) before the pause
    ends: the collector's first pass after the pause walks every container
    made during it that is still alive, and locals live until their
    function returns."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _annotate(g, prop_name, k, ir):
    """The prover's pipeline up to the class annotation: (lane partition,
    embedding, hierarchical decomposition, annotation)."""
    if not is_connected(g):
        raise CertifyError("graph must be connected")
    if k < 0:
        raise CertifyError("width bound must be non-negative")
    marked_user, plugin = resolve_property(prop_name)
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
    return lp, emb, hd, annotate_classes(hd, plugin, emarks)


def _emit(g, k, lp, emb, hd, ann) -> Dict[Edge, Bits]:
    """Each real edge's label: its decoded form (_forms), written by
    encode_label under one memo for the run."""
    memo: dict = {}
    return {
        e: encode_label(g.n, lp.k, tnodes, routes, memo)
        for e, (tnodes, routes) in _forms(g, k, hd, ann, emb, lp.k).items()
    }


def _forms(g, k, hd, ann, emb: Embedding, w_lanes: int) -> Dict[Edge, Tuple[List[TSec], List[RSec]]]:
    """Each real edge's decoded form, its chain and route sections, of the
    objects annotate_classes shares: a TSec per element and pointer fields,
    a chain list per edge, which every carrier of a virtual edge's route
    shares.  CertifyError when an element lies below two records, an edge
    in more than 2w T-nodes, or a real edge carries more than h routes."""
    real = g.edge_set()
    chains: Dict[Edge, List[TSec]] = {}
    for node in reversed(hd.nodes):  # each node before the nodes it holds
        node_eid = node.root_element.eid
        basic = ann.sub[node_eid]
        at_root = node is hd.root
        ptr = _pointer_fields(node.edges, node.t_in[min(node.t_in)])
        for el in node.elements():
            rec = ann.records[el.eid]
            if not at_root and len(el.edges) > 1:
                up = chains[next(iter(el.edges))][-1].elem
                if any(chains[e][-1].elem is not up for e in el.edges):
                    raise CertifyError("element %d lies below two records" % el.eid)
            secs: Dict[tuple, TSec] = {}  # the element's sections by pointer fields
            for e in el.edges:
                pf = ptr[e]
                sec = secs.get(pf)
                if sec is None:
                    sec = secs[pf] = TSec(node_eid, basic, *pf, rec)
                if at_root:
                    chains[e] = [sec]
                else:
                    chains[e].append(sec)
    bound = 2 * max(1, w_lanes)
    for e, chain in chains.items():
        if len(chain) > bound:
            raise CertifyError(
                "edge %s lies in %d T-nodes, above 2w = %d" % (e, len(chain), bound)
            )
    forms = {e: (chains[e], []) for e in real}
    for ve in sorted(set(chains) - real):
        path = emb.routes[ve]
        m = len(path) - 1
        for pos in range(m):
            forms[edge_key(path[pos], path[pos + 1])][1].append(
                RSec(path[0], path[-1], pos + 1, m - pos, chains[ve])
            )
    h_bound = lane_bounds(k + 1)[2]
    for e, (_, routes) in forms.items():
        if len(routes) > h_bound:
            raise CertifyError(
                "edge %s carries %d routes, above h = %d" % (e, len(routes), h_bound)
            )
    return forms


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


def _side_maps(side: tuple) -> Tuple[Dict[int, int], Dict[int, int]]:
    """(t_in, t_out) of one side of a B record."""
    if side[0] == "V":
        return {side[1]: side[2]}, {side[1]: side[2]}
    return side[2].t_in, side[2].t_out


def _glue(t: tuple, children, ins: Optional[list] = None) -> Tuple[Dict[int, int], Dict[int, int]]:
    """(t_in, t_out) of an element record's fragment, given as its topology
    t and its (eid, BasicInfo) children, with its children glued on,
    checking the glue conditions the terminal ids impose: the structural
    half of _recompute_sub, and all a derived table entry needs besides its
    class term.  A child glues on where the running out-terminals on its
    lanes are (earlier siblings glued first).  When ins is a list, the
    children are read for their lanes and out-terminals alone (a partial
    table entry has no more until _complete fills it in), and ins gets the
    in-terminal map the glue gives each.  The dicts are new ones."""
    if t[0] == "E":
        t_in, t_out = {t[1]: t[2]}, {t[1]: t[3]}
    elif t[0] == "P":
        t_in = {i + 1: v for i, v in enumerate(t[1])}
        t_out = dict(t_in)
    else:
        _, i, j, bridge, _, left, right = t
        lin, lout = _side_maps(left)
        rin, rout = _side_maps(right)
        if lin.keys() & rin.keys() or i not in lout or j not in rout:
            raise _Reject("bridge-lanes")
        if edge_key(lout[i], rout[j]) != bridge:
            raise _Reject("bridge-endpoints")
        t_in, t_out = {**lin, **rin}, {**lout, **rout}
    seen_lanes: set = set()
    for _, csub in children:
        clanes = csub.t_in.keys() if ins is None else csub.t_out.keys()
        if not clanes <= t_in.keys():
            raise _Reject("child-lanes")
        if clanes & seen_lanes:
            raise _Reject("sibling-lanes")
        seen_lanes.update(clanes)
        if ins is not None:
            ins.append({lane: t_out[lane] for lane in clanes})
        else:
            for lane in clanes:
                if csub.t_in[lane] != t_out[lane]:
                    raise _Reject("glue")
        for lane in clanes:
            t_out[lane] = csub.t_out[lane]
    return t_in, t_out


def _recompute_sub(rec: ElementRecord, plugin: PropertyPlugin, memo: dict) -> BasicInfo:
    """Fold the claimed child subtree infos onto the element's own fragment,
    checking the glue conditions the terminal ids impose (_glue).  memo is
    the run's dict (see _fold): the class operations are computed once per
    distinct argument tuple, and the glue checks run on every call."""
    t_in, t_out = _glue(rec.topo, rec.children)
    t = rec.topo
    if t[0] == "E":
        cls = _fold(memo, plugin, "base_edge", t[1], t[4])
    elif t[0] == "P":
        cls = _fold(memo, plugin, "base_path", len(t[1]), t[2])
    else:
        left, right = t[5], t[6]
        lcls = left[2].cls if left[0] == "T" else _fold(memo, plugin, "base_vleaf", left[1])
        rcls = right[2].cls if right[0] == "T" else _fold(memo, plugin, "base_vleaf", right[1])
        cls = _fold(memo, plugin, "compose_bridge", lcls, rcls, t[1], t[2], t[4])
    for _, csub in rec.children:
        cls = _fold(memo, plugin, "compose_parent", csub.cls, cls)
    return BasicInfo(t_in, t_out, cls)


def _fold_record(rec: ElementRecord, plugin: PropertyPlugin, memo: dict, n: int) -> BasicInfo:
    """_recompute_sub(rec, plugin, memo), computed once per record object and
    plugin in one run.  decode_label interns equal records in the run's
    memo, so each distinct record is folded once.  The entry keeps rec alive,
    so its id is not reused, and a failing fold is not stored.  When the
    memo holds a decoded table entry (of labels with n vertices) equal to
    the result, that entry is returned in its place, so the checks compare
    it with the labels' BasicInfos by identity."""
    key = ("sub", plugin.name, id(rec))
    hit = memo.get(key)
    if hit is None:
        sub = _recompute_sub(rec, plugin, memo)
        twin = memo.get(("basic", n, *_basic_key(sub, id_bits(n))))
        hit = memo[key] = (rec, twin if twin is not None and twin == sub else sub)
    return hit[1]


# The memo key of any_reject's verdict table (see verify_vertex).
_VERDICTS = "verdicts"


def verify_vertex(
    view: LocalView,
    prop_name: str,
    k: int,
    cache: Optional[dict] = None,
) -> Verdict:
    """Run all local checks at one vertex; total on arbitrary labels.  Every
    call has a memo for decoding and the class fold; a run shares one.
    cache, if given, is a memo shared by the vertices of one run over one
    labeling (see verify_all): decoded structures and class fold results in
    it are shared, never mutated.  Without one, a fresh memo lasts for this
    call, so labels the view repeats (relayed chains, records, entries) are
    still decoded once.

    A verdict, reason included, is a pure function of the view's contents
    (the labels are checked in edge order), so when cache holds a verdict
    table (any_reject puts one in the memo it is given) the verdict is
    looked up by (prop_name, k, vid, vtag, labels, edge tags), labels and
    tags as the view's items.  A view seen before in the table's life gets
    its stored Verdict; a new one is checked and stored."""
    if cache is None:
        cache = {}
    table = cache.get(_VERDICTS)
    if table is not None:
        key = (prop_name, k, view.vid, view.vtag,
               tuple(view.labels.items()), tuple(view.etags.items()))
        verdict = table.get(key)
        if verdict is not None:
            return verdict
    marked_user, plugin = resolve_property(prop_name)
    try:
        _verify_vertex(view, marked_user, plugin, k, cache)
        verdict = Verdict(view.vid, True)
    except _Reject as rj:
        verdict = Verdict(view.vid, False, rj.code)
    except (DecodeError, PropertyError):
        verdict = Verdict(view.vid, False, "malformed")
    if table is not None:
        table[key] = verdict
    return verdict


def decode_cached(bits: Bits, cache) -> DecodedLabel:
    """decode_label once per distinct label in a run; cache is that run's
    memo (labels by their bits, a failed decode as its message, plus
    decode_label's own entries)."""
    hit = cache.get(bits)
    if hit is None:
        try:
            hit = decode_label(bits, cache)
        except DecodeError as exc:
            hit = str(exc)
        cache[bits] = hit
    if isinstance(hit, str):
        raise DecodeError(hit)
    return hit


def _verify_vertex(view, marked_user, plugin, k, memo) -> None:
    vid = view.vid
    if not view.labels:
        # No incident edges: the vertex is the whole (connected) graph.
        if not _fold(memo, plugin, "accepts", _fold(memo, plugin, "base_path", 1, ())):
            raise _Reject("root-class")
        return
    # Edge order, so the first failing check does not depend on the order
    # in which the view lists its labels.
    decoded: Dict[Edge, DecodedLabel] = {}
    for e, bits in sorted(view.labels.items()):
        try:
            decoded[e] = decode_cached(bits, memo)
        except DecodeError:
            raise _Reject("decode")
    headers = {(lab.n, lab.w) for lab in decoded.values()}
    if len(headers) != 1:
        raise _Reject("header")
    n, w_lanes = headers.pop()
    if vid >= n or w_lanes > lane_bounds(k + 1)[0]:
        raise _Reject("header")

    # Routes: group by (u, v), one virtual edge each, check rank structure,
    # extract the chains of virtual edges incident to this vertex.
    groups: Dict[tuple, List[Tuple[Edge, RSec]]] = {}
    for e, lab in decoded.items():
        seen_here = set()
        for rs in lab.routes:
            key = (rs.u, rs.v)
            if key in seen_here:
                raise _Reject("route-dup")
            seen_here.add(key)
            groups.setdefault(key, []).append((e, rs))
    virtuals: Dict[Edge, List[TSec]] = {}
    for (u, v), entries in groups.items():
        # Carriers agree on the relayed chain in resolved form: a shared memo
        # makes equal chains one object, so most compares are by identity.
        relayed = entries[0][1].tnodes
        for _, rs in entries[1:]:
            if rs.tnodes is not relayed and rs.tnodes != relayed:
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
            if ve in virtuals:
                raise _Reject("route-dup")
            virtuals[ve] = relayed

    # The vertex's view of the completed graph: real incident edges plus
    # virtual edges whose routes end here.
    gedges: Dict[Edge, Tuple[List[TSec], bool]] = {
        e: (lab.tnodes, True) for e, lab in decoded.items()
    }
    for e, chain in virtuals.items():
        gedges[e] = (chain, False)

    node_entries: Dict[int, List[Tuple[Edge, TSec]]] = {}
    roots: Dict[int, int] = {}  # per node, how many chains here start at it
    for e, (chain, real) in gedges.items():
        if vid not in e:
            raise _Reject("edge-endpoint")
        if not chain:
            raise _Reject("chain-empty")
        if len({sec.node_eid for sec in chain}) != len(chain):
            raise _Reject("chain-dup")
        roots[chain[0].node_eid] = roots.get(chain[0].node_eid, 0) + 1
        for pos, sec in enumerate(chain):
            last = pos == len(chain) - 1
            mark = sec.elem.edge_marks.get(e)
            if last:
                if mark is None:
                    raise _Reject("chain-leaf")
                if real:
                    tag = view.etags.get(e, 0)
                    expect = (tag != 0) if marked_user else True
                    if mark != (1 if expect else 0):
                        raise _Reject("mark")
                elif mark != 0:
                    raise _Reject("mark")
            elif mark is not None:
                # decode_label made the next section a T side of this B
                # record; the edge must lie in that side, not on the bridge.
                raise _Reject("chain-link")
            node_entries.setdefault(sec.node_eid, []).append((e, sec))

    # Every chain starts at a root section, and a root node must hold every
    # edge here (root-cover) at chain position 0 in each (node-shared), so
    # all the chains share one root node.  A chain holds a node at most once
    # (chain-dup), so a node's entries name distinct edges here, and it holds
    # every edge here when it has as many entries as there are edges.
    root_basic = None
    for node_eid, entries in node_entries.items():
        first = entries[0][1]
        at_root = roots.get(node_eid, 0)
        if 0 < at_root < len(entries):
            raise _Reject("node-shared")
        for _, sec in entries[1:]:
            if sec.basic is not first.basic and sec.basic != first.basic:
                raise _Reject("node-shared")
        basic = first.basic
        if at_root:
            root_basic = basic
            if len(basic.t_in) != w_lanes:
                raise _Reject("header")
            if len(entries) != len(gedges):
                raise _Reject("root-cover")
        elif len(entries) != len(gedges) and vid not in basic.terminal_ids():
            raise _Reject("boundary")
        _check_pointer(vid, basic, entries)
        _check_elements(vid, node_eid, basic, entries, gedges, n, plugin, memo)
    if not _fold(memo, plugin, "accepts", root_basic.cls):
        raise _Reject("root-class")


def _check_pointer(vid, basic: BasicInfo, entries) -> None:
    # A tree edge's parent end is min(e) when parent_min is set, else max(e).
    if vid == basic.t_in[min(basic.t_in)]:
        for e, sec in entries:
            if not sec.is_tree or sec.dist != 0 or (min(e) if sec.parent_min else max(e)) != vid:
                raise _Reject("pointer-root")
        return
    # One tree edge leads up from here, and every tree edge whose parent end
    # is here lies one step further from the target.
    up: List[int] = []
    down: List[int] = []
    for e, sec in entries:
        if not sec.is_tree:
            continue
        if (min(e) if sec.parent_min else max(e)) == vid:
            down.append(sec.dist)
        else:
            up.append(sec.dist)
    if len(up) != 1 or any(d != up[0] + 1 for d in down):
        raise _Reject("pointer")


def _check_elements(vid, node_eid, node_basic, entries, gedges, n, plugin, memo):
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
        return _fold_record(recs[eid], plugin, memo, n)

    for rec in recs.values():
        own = sub_of(rec.eid)
        t_in = own.t_in
        # Listed topology edges at this vertex must actually be present and
        # owned by this element in this node.
        for te in rec.edge_marks:
            if vid not in te:
                continue
            hit = gedges.get(te)
            if hit is None:
                raise _Reject("edge-missing")
            owner = [s for s in hit[0] if s.node_eid == node_eid]
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
                raise _Reject("parent-missing")
            listed = [cs for ce, cs in prec.children if ce == rec.eid]
            if not listed or (listed[0] is not own and listed[0] != own):
                raise _Reject("not-listed")
        if rec.eid == node_eid:
            if rec.parent_eid is not None:
                raise _Reject("parent-link")
            if own is not node_basic and own != node_basic:
                raise _Reject("node-basic")
    # A one-lane node is rooted at an E element, whose edge touches the
    # node's terminal, so that terminal sees the root element.
    if (
        node_eid not in recs
        and len(node_basic.t_in) == 1
        and vid == next(iter(node_basic.t_in.values()))
    ):
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
    distinct class operation of the fold is computed once.  It runs with
    the cyclic collector paused (_no_cyclic_gc)."""
    with _no_cyclic_gc():
        cache: dict = {}
        verdicts = {
            view.vid: verify_vertex(view, prop_name, k, cache)
            for view in local_views(g, labels)
        }
        del cache  # inside the pause: see _no_cyclic_gc
    return verdicts


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
    the memo lasts for this call.

    A given cache also gets a verdict table (see verify_vertex), so a view
    that an earlier labeling already showed, which is most views of a
    mutant, is not checked again.  verify_vertex is still called once per
    vertex inspected.  verify_all makes no table: within one labeling no
    two views are equal."""
    if cache is None:
        cache = {}
    else:
        cache.setdefault(_VERDICTS, {})
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
            name = SECTION_NAMES[stype]
            per[name] = per.get(name, 0) + payload.nbits
            framed += payload.nbits
        per["framing"] = per.get("framing", 0) + bits.nbits - framed
    mean = total / len(labels) if labels else 0.0
    return LabelStats(len(labels), worst, mean, total, per)


def entry_forms(bits: Bits) -> Dict[str, int]:
    """How many of a label's table entries are written in each form of
    ENTRY_FORMS, as decode_label's first pass (_read_chains) tells them;
    DecodeError where it fails."""
    lay = read_layout(bits)
    _, counts, _, derived, partial = _read_chains(lay, id_bits(lay.n), {})
    return dict(zip(ENTRY_FORMS, (sum(counts) - len(derived) - len(partial), len(derived), len(partial))))


def write_label_file(labels: Dict[Edge, Bits]) -> str:
    lines = []
    for (u, v) in sorted(labels):
        lines.append("%d %d %s" % (u, v, labels[(u, v)].to_hex()))
    return "\n".join(lines) + "\n" if lines else ""


def read_label_file(text: str) -> Dict[Edge, Bits]:
    """Parse `u v hex` lines; DecodeError names the first malformed one, a
    self-pair or negative id, or the second line of an edge."""
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
            if u == v or min(u, v) < 0:
                raise DecodeError("not a pair of distinct vertex ids")
            bits = Bits.from_hex(parts[2])
            if edge_key(u, v) in out:
                raise DecodeError("a second label of edge %d %d" % edge_key(u, v))
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
