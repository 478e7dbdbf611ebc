import hashlib
import random
from collections import Counter
from dataclasses import replace
from itertools import accumulate
from types import SimpleNamespace

import pytest

from lanecert import certify
from lanecert.certify import (
    CertifyError,
    ElementRecord,
    RSec,
    TSec,
    all_accept,
    decode_label,
    encode_label,
    label_size_stats,
    local_views,
    prove,
    read_label_file,
    read_layout,
    verify_all,
    verify_vertex,
    write_label_file,
    write_layout,
    write_verdict_file,
)
from lanecert.encoding import Bits, BitReader, BitWriter, DecodeError, read_sections, write_section, write_sections
from lanecert.generators import GeneratorSpec, generate
from lanecert.graph import build_graph, edge_key, id_bits
from lanecert.intervals import width
from lanecert.lanes import lane_bounds
from lanecert.properties import brute_force_property
from lanecert.recursive import TNode
from tests.test_graph import cycle_graph, path_graph, star_graph
from tests.test_lanes import random_interval_instance


def _reencode(bits, edit):
    lab = decode_label(bits)
    edit(lab)
    return encode_label(lab.n, lab.w, lab.tnodes, lab.routes)


def test_pointer_check_rejects_forged_fields():
    # Forge one tree section's distance or parent end on an honest label: an
    # endpoint of that edge must fail the in-pipeline pointer check.
    for g, prop, k in ((cycle_graph(6), "bipartite", 2), (path_graph(5), "acyclic", 1)):
        labels = prove(g, prop, k)
        forged = 0
        for e, bits in labels.items():
            for pos, sec in enumerate(decode_label(bits).tnodes):
                if not sec.is_tree:
                    continue
                for name, value in (("dist", sec.dist + 1), ("parent_min", not sec.parent_min)):
                    bad = dict(labels)
                    bad[e] = _reencode(bits, lambda lab: setattr(lab.tnodes[pos], name, value))
                    reasons = {
                        verify_vertex(view, prop, k).reason
                        for view in local_views(g, bad)
                        if view.vid in e
                    }
                    assert reasons & {"pointer", "pointer-root"}, (e, pos, name, reasons)
                    forged += 1
        assert forged >= 2 * g.m


@pytest.mark.parametrize("bounds", [(0, 0, 0), (100, 100, 0)])
def test_prove_bound_checks_are_errors(monkeypatch, bounds):
    # Bound violations raise CertifyError, which python -O does not strip.
    monkeypatch.setattr(certify, "lane_bounds", lambda k: bounds)
    with pytest.raises(CertifyError):
        prove(cycle_graph(6), "bipartite", 2)


# The prover's own bound checks: honest instances never reach them, so each
# test below narrows a bound or edits the decomposition.


def _ops40():
    return generate(GeneratorSpec("random-ops", 40, 3, 0.3), 0)


class _OneInDepthBound(int):
    """A lane count w that the prover's chain depth bound, 2 * max(1, w),
    reads as 1: max keeps 1 against it.  Everything else reads w."""

    def __gt__(self, other):
        return False


def test_prove_refuses_a_chain_above_2w(monkeypatch):
    g, ir = _ops40()
    annotate = certify._annotate

    def narrowed(*args):
        lp, emb, hd, ann = annotate(*args)
        return SimpleNamespace(k=_OneInDepthBound(lp.k)), emb, hd, ann

    monkeypatch.setattr(certify, "_annotate", narrowed)
    with pytest.raises(CertifyError, match=r"lies in \d+ T-nodes, above 2w = 2"):
        prove(g, "parity", 3, ir=ir)


def test_prove_refuses_more_routes_than_h(monkeypatch):
    g, ir = _ops40()
    bounds = certify.lane_bounds
    monkeypatch.setattr(certify, "lane_bounds", lambda k: bounds(k)[:2] + (1,))
    with pytest.raises(CertifyError, match=r"carries \d+ routes, above h = 1"):
        prove(g, "parity", 3, ir=ir)


def _edge_moved_off_its_side(hd):
    """hd with one edge of a nested element of two or more edges moved, in
    the node above, from the B element that holds the nested node to
    another element of that node: the nested element then lies below two
    records."""
    for node in hd.nodes:
        for holder in node.elements():
            sides = (holder.payload.left, holder.payload.right) if holder.kind == "B" else ()
            for nested in (side for side in sides if isinstance(side, TNode)):
                el = next((el for el in nested.elements() if len(el.edges) > 1), None)
                other = next((o for o in node.elements() if o is not holder and o.edges), None)
                if el is not None and other is not None:
                    e = next(iter(el.edges))
                    holder.edges = holder.edges - {e}
                    other.edges = other.edges | {e}
                    return hd
    raise AssertionError("no nested element to move an edge of")


def test_prove_refuses_an_element_below_two_records(monkeypatch):
    g, ir = _ops40()
    build = certify.build_hierarchical_decomposition
    monkeypatch.setattr(certify, "build_hierarchical_decomposition", lambda s: _edge_moved_off_its_side(build(s)))
    with pytest.raises(CertifyError, match=r"element \d+ lies below two records"):
        prove(g, "parity", 3, ir=ir)


# The wire, pinned: sha256 of the label file of fixed small instances.  A
# change that moves any label changes a digest.  A deliberate wire change
# updates the digests here and says so in CHANGES.md.
WIRE_DIGESTS = {
    ("cycle", 30, 3, "bipartite"): "a47579bd810254bd75b723a1a7e405f9c6ace23d2b7a93e457520ff61f3b6433",
    ("caterpillar", 30, 3, "acyclic"): "27a0111c2646a887af675a4978bcfe46fac075ec14584fa0a65509542bf17fc1",
    ("random-ops", 40, 3, "parity"): "5bfc77bff94f0cb53fbee7cf4f888a39526e95d62b7bf7c6b15afa1806502754",
    ("cycle", 60, 2, "bipartite"): "999023fe84cdd0a85441d19f145ce80c774a8cf755d2890707e60e163b13964b",
}
# C7 bipartite, a false statement of the acceptance suite, with forced labels.
FORCED_C7_DIGEST = "3ab9cb5664a6d8ebf0ca3f91299fdf2326a995f6ada2fdb1a40f6f1d6dd86bad"


def _wire_digest(labels):
    return hashlib.sha256(write_label_file(labels).encode()).hexdigest()


@pytest.mark.parametrize("family,n,k,prop", sorted(WIRE_DIGESTS))
def test_wire_is_pinned(family, n, k, prop):
    g, ir = generate(GeneratorSpec(family, n, k, 0.3), 0)
    assert _wire_digest(prove(g, prop, k, ir=ir)) == WIRE_DIGESTS[(family, n, k, prop)]


def test_wire_of_forced_labels_is_pinned():
    assert _wire_digest(prove(cycle_graph(7), "bipartite", 2, force=True)) == FORCED_C7_DIGEST


def check_roundtrip(g, prop, k, ir=None):
    labels = prove(g, prop, k, ir=ir)
    verdicts = verify_all(g, labels, prop, k)
    assert all_accept(verdicts), [v for v in verdicts.values() if not v.accept][:3]
    return labels


def test_prove_two_path_bipartite():
    labels = check_roundtrip(path_graph(2), "bipartite", 1)
    assert set(labels) == {(0, 1)}


def test_prove_c6_bipartite():
    labels = check_roundtrip(cycle_graph(6), "bipartite", 2)
    stats = label_size_stats(labels)
    assert stats.max_bits > 0 and stats.count == 6


def test_prove_refuses_false():
    with pytest.raises(CertifyError):
        prove(cycle_graph(5), "bipartite", 2)
    with pytest.raises(CertifyError):
        prove(path_graph(3), "matching", 1)
    # Honest-but-false labels must be rejected somewhere.
    labels = prove(cycle_graph(5), "bipartite", 2, force=True)
    assert not all_accept(verify_all(cycle_graph(5), labels, "bipartite", 2))


def test_prove_refuses_bad_bounds():
    with pytest.raises(CertifyError):
        prove(cycle_graph(6), "bipartite", 1)  # pathwidth 2 > 1
    with pytest.raises(CertifyError):
        prove(build_graph(4, [(0, 1), (2, 3)]), "bipartite", 1)  # disconnected
    from lanecert.properties import PropertyError

    with pytest.raises(PropertyError):
        prove(path_graph(3), "no-such-property", 1)


def test_single_vertex():
    g1 = build_graph(1, [])
    assert prove(g1, "bipartite", 0) == {}
    assert all_accept(verify_all(g1, {}, "bipartite", 0))
    assert not all_accept(verify_all(g1, {}, "matching", 0))


def test_prove_marked_variant():
    # A 6-cycle whose marked subgraph drops one edge: acyclic as marked.
    g = build_graph(
        6,
        [(i, (i + 1) % 6) for i in range(6)],
        {},
        {edge_key(i, (i + 1) % 6): 1 for i in range(5)},
    )
    check_roundtrip(g, "marked-acyclic", 2)
    with pytest.raises(CertifyError):
        prove(g, "acyclic", 2)


ALL_PROPS = [
    "parity",
    "bipartite",
    "acyclic",
    "matching",
    "marked-parity",
    "marked-bipartite",
    "marked-acyclic",
    "marked-matching",
]


def test_completeness_and_honest_refusal_random():
    rng = random.Random(52)
    seen_true = 0
    for _ in range(40):
        g, ir = random_interval_instance(rng, max_n=9, max_width=3)
        tagged = build_graph(
            g.n, g.edges, {}, {e: rng.randrange(0, 2) for e in g.edges}
        )
        k = width(ir) - 1
        for prop in ALL_PROPS:
            holds = brute_force_property(tagged, prop)
            if holds:
                seen_true += 1
                check_roundtrip(tagged, prop, k, ir=ir)
            else:
                with pytest.raises(CertifyError):
                    prove(tagged, prop, k, ir=ir)
                labels = prove(tagged, prop, k, ir=ir, force=True)
                assert not all_accept(verify_all(tagged, labels, prop, k))
    assert seen_true > 30


def test_paths_and_cycles_all_props():
    for n in (2, 3, 4, 5, 6, 7):
        g = path_graph(n)
        for prop in ("parity", "bipartite", "acyclic", "matching"):
            holds = brute_force_property(g, prop)
            if holds:
                check_roundtrip(g, prop, 1)
            else:
                with pytest.raises(CertifyError):
                    prove(g, prop, 1)
    for n in (3, 4, 5, 6, 8):
        g = cycle_graph(n)
        for prop in ("parity", "bipartite", "acyclic", "matching"):
            holds = brute_force_property(g, prop)
            if holds:
                check_roundtrip(g, prop, 2)
            else:
                with pytest.raises(CertifyError):
                    prove(g, prop, 2)


def test_star_graph():
    g = star_graph(6)
    check_roundtrip(g, "parity", 1)
    check_roundtrip(g, "acyclic", 1)


def test_truncation_totality():
    g = cycle_graph(6)
    labels = prove(g, "bipartite", 2)
    for e in labels:
        for cut in (0, 1, 7, 16):
            mangled = dict(labels)
            bits = mangled[e]
            keep = min(cut, bits.nbits)
            mangled[e] = Bits(bits.value >> (bits.nbits - keep), keep)
            verdicts = verify_all(g, mangled, "bipartite", 2)
            assert all(isinstance(v.accept, bool) for v in verdicts.values())
            assert not all_accept(verdicts)  # a missing section is noticed


def _non_minimal_forgeries(bits):
    """bits re-framed with one varint written in a second, non-minimal
    form (a last 8-bit group of 0): the header's n, then each section's
    payload length."""
    secs = read_sections(bits)
    assert secs[0][0] == certify.SEC_HEADER
    hr = BitReader(secs[0][1])
    n, w = hr.read_varint(), hr.read_varint()
    assert n < 0x80 and hr.remaining() == 0
    hw = BitWriter()
    hw.write_uint(0x80 | n, 8)
    hw.write_uint(0, 8)
    hw.write_varint(w)
    yield _frame([(certify.SEC_HEADER, hw.getvalue())] + secs[1:])
    for i in range(len(secs)):
        yield _frame(secs, padded=i)


def _frame(secs, padded=None):
    """The label of secs, section padded's payload length written with a
    trailing 0 group."""
    out = BitWriter()
    for j, (stype, payload) in enumerate(secs):
        if j != padded:
            write_section(out, stype, payload)
            continue
        out.write_uint(stype, 8)
        groups, v = [], payload.nbits
        while v >= 0x80:
            groups.append(0x80 | (v & 0x7F))
            v >>= 7
        for byte in groups + [0x80 | v, 0]:
            out.write_uint(byte, 8)
        out.write_bits(payload)
    return out.getvalue()


def test_non_minimal_varints_are_rejected_at_both_endpoints():
    # The same label with one varint in a second wire form: no decode, and
    # both endpoints of the edge reject it, with a shared memo and without.
    g = build_graph(8, [(i, (i + 1) % 8) for i in range(8)])
    labels = prove(g, "bipartite", 2)
    assert all_accept(verify_all(g, labels, "bipartite", 2))
    for e in sorted(labels)[:3]:
        for forged in _non_minimal_forgeries(labels[e]):
            assert forged != labels[e]
            with pytest.raises(DecodeError):
                decode_label(forged)
            bad = dict(labels)
            bad[e] = forged
            verdicts = verify_all(g, bad, "bipartite", 2)
            assert verdicts[e[0]].reason == verdicts[e[1]].reason == "decode"
            for view in local_views(g, bad):
                if view.vid in e:
                    assert verify_vertex(view, "bipartite", 2) == verdicts[view.vid]


def test_wrong_property_or_k_rejected():
    g = cycle_graph(6)
    labels = prove(g, "bipartite", 2)
    # The same labels replayed for a different property claim must fail.
    assert not all_accept(verify_all(g, labels, "acyclic", 2))
    # Under a tighter width bound the lane count is out of range.
    assert not all_accept(verify_all(g, labels, "bipartite", 0))


def test_label_file_roundtrip_and_verdicts():
    g = cycle_graph(6)
    labels = prove(g, "bipartite", 2)
    text = write_label_file(labels)
    back = read_label_file(text)
    assert back == labels
    verdicts = verify_all(g, back, "bipartite", 2)
    report = write_verdict_file(verdicts)
    assert report.splitlines()[0] == "0 accept -"


def test_label_stats_sections():
    g = cycle_graph(6)
    labels = prove(g, "bipartite", 2)
    stats = label_size_stats(labels)
    assert stats.total_bits == sum(b.nbits for b in labels.values())
    assert set(stats.per_section) >= {"header", "basic", "tnode", "framing"}
    assert label_size_stats({}).max_bits == 0


def test_decode_roundtrip_structure():
    g = cycle_graph(6)
    labels = prove(g, "bipartite", 2)
    for e, bits in labels.items():
        lab = decode_label(bits)
        assert lab.n == 6


def test_vertex_label_model_equivalence():
    from lanecert.graph import (
        degeneracy_orientation,
        edge_labels_to_vertex_labels,
        vertex_labels_to_edge_labels,
    )

    rng = random.Random(53)
    for _ in range(10):
        g, ir = random_interval_instance(rng, max_n=9, max_width=3)
        k = width(ir) - 1
        for prop in ("bipartite", "acyclic"):
            if not brute_force_property(g, prop):
                continue
            labels = prove(g, prop, k, ir=ir)
            o = degeneracy_orientation(g)
            vlabels = edge_labels_to_vertex_labels(g, o, labels)
            back = vertex_labels_to_edge_labels(g, vlabels)
            assert back == labels
            assert all_accept(verify_all(g, back, prop, k))


# --- the chain layout: a nested section names a side of the record above ---

LAYOUT_CASES = [
    ("cycle", 30, 2, "bipartite"),
    ("random-ops", 40, 3, "parity"),
    ("caterpillar", 30, 1, "acyclic"),
]


def _layout_instance(family, n, k, prop):
    g, ir = generate(GeneratorSpec(family, n, k, 0.3), 0)
    return g, prove(g, prop, k, ir=ir)


def _chains_all(labels, memo):
    """The decoded labels' chains and the chains their routes relay."""
    out = []
    for bits in labels.values():
        lab = decode_label(bits, memo)
        out.append(lab.tnodes)
        out.extend(rs.tnodes for rs in lab.routes)
    return out


@pytest.mark.parametrize("family,n,k,prop", LAYOUT_CASES)
def test_nested_section_basic_is_the_side_above(family, n, k, prop):
    g, labels = _layout_instance(family, n, k, prop)
    for memo in ({}, None):
        nested = 0
        for chain in _chains_all(labels, memo):
            for above, sec in zip(chain, chain[1:]):
                sides = [s for s in above.elem.topo[5:7] if s[0] == "T" and s[2] is sec.basic]
                assert [s[1] for s in sides] == [sec.node_eid]
                nested += 1
        assert nested > 0


def _relayed_parts(bits):
    """(relayed chain's payloads, relayed chain, prefix length q) of each
    route section of bits.  The payloads are what encoding the decoded
    chain gives; the section's frames are those after the first q."""
    lab = decode_label(bits)
    out = []
    for rs, rl in zip(lab.routes, read_layout(bits).routes):
        head = certify._Header(lab.n, lab.w)
        payloads = certify._payloads(rs.tnodes, certify._enc_chain(rs.tnodes, head), head)
        assert payloads[rl.q:] == rl.frames
        out.append((payloads, rs.tnodes, rl.q))
    return out


def _forged_chain(payloads, chain, nested_payload):
    """(forged payloads, position of the first forged one, kind) for each
    way to lie about a nested section of a chain: its side bit turned to a
    vertex-leaf side of the B record above ("V-side"), or a nested payload
    after a last E or P record ("after-E", "after-P"): the chain's own
    second one, whose slots the chain already numbers, or else
    nested_payload."""
    edits = []
    for pos in range(1, len(payloads)):
        payload = payloads[pos]
        top = 1 << (payload.nbits - 1)  # the side bit
        other = chain[pos - 1].elem.topo[5 if payload.value & top else 6]
        if other[0] == "V":
            edits.append(("V-side", pos, Bits(payload.value ^ top, payload.nbits)))
    last = chain[-1].elem.kind
    if last != "B":
        edits.append(("after-" + last, None, payloads[1] if len(payloads) > 1 else nested_payload))
    for kind, pos, payload in edits:
        bad = list(payloads)
        if pos is None:
            pos = len(bad)
            bad.append(payload)
        else:
            bad[pos] = payload
        yield bad, pos, kind


def _forgeries(labels):
    """(vertices that decode the forged label, forged labels, kind) for the
    forged chains of every real label and of every relayed chain; a relayed
    one is replaced in every route section that carries it and writes the
    forged payload in its frames (a carrier whose shared prefix covers it
    has no such payload)."""
    nested = next(p for bits in labels.values() for p in read_layout(bits).tnodes[1:])
    parts = {e: _relayed_parts(bits) for e, bits in labels.items()}
    relayed = {}
    for routes in parts.values():
        for payloads, chain, _ in routes:
            relayed.setdefault(tuple(payloads), chain)
    for e in sorted(labels):
        lay = read_layout(labels[e])
        for forged, _, kind in _forged_chain(lay.tnodes, decode_label(labels[e]).tnodes, nested):
            yield set(e), {**labels, e: write_layout(replace(lay, tnodes=forged))}, kind
    for payloads, chain in relayed.items():
        for forged, pos, kind in _forged_chain(list(payloads), chain, nested):
            bad, readers = dict(labels), set()
            for e, bits in labels.items():
                lay = read_layout(bits)
                swap = [rl for rl, (ps, _, q) in zip(lay.routes, parts[e]) if tuple(ps) == payloads and q <= pos]
                for rl in swap:
                    rl.frames = forged[rl.q:]
                if swap:
                    bad[e] = write_layout(lay)
                    readers |= set(e)
            if readers:
                yield readers, bad, kind


def test_forged_nested_sections_are_rejected():
    # A nested section that names a vertex-leaf side, or that follows an E
    # or P record, does not decode, and every vertex that decodes its label
    # rejects it.
    kinds = {}
    for case in LAYOUT_CASES:
        family, n, k, prop = case
        g, labels = _layout_instance(family, n, k, prop)
        for readers, bad, kind in _forgeries(labels):
            kinds[kind] = kinds.get(kind, 0) + 1
            memo = {}
            for view in local_views(g, bad):
                if view.vid in readers:
                    verdict = verify_vertex(view, prop, k, memo)
                    assert verdict.reason == "decode", (case, readers, kind)
                    assert verify_vertex(view, prop, k) == verdict
    assert set(kinds) == {"V-side", "after-E", "after-P"}, kinds
    assert min(kinds.values()) >= 5, kinds


def test_route_frames_of_another_type_are_refused():
    # A route relays T-node sections only: with a section of another type
    # framed after its T-node frames, read_layout refuses the label, and
    # each endpoint of its edge rejects it, with or without a memo.
    g, labels = _layout_instance("cycle", 30, 2, "bipartite")
    others = [certify.SEC_HEADER, certify.SEC_BASIC, certify.SEC_ROUTE]
    forged = 0
    for e in sorted(labels):
        secs = read_sections(labels[e])
        if secs[-1][0] != certify.SEC_ROUTE:
            continue
        stray = write_sections([(others[forged % 3], read_layout(labels[e]).tnodes[-1])])
        secs[-1] = (certify.SEC_ROUTE, certify._join([secs[-1][1], stray]))
        bad = {**labels, e: write_sections(secs)}
        with pytest.raises(DecodeError):
            read_layout(bad[e])
        for view in local_views(g, bad):
            if view.vid in e:
                for memo in (None, {}):
                    assert verify_vertex(view, "bipartite", 2, memo).reason == "decode", e
        forged += 1
    assert forged >= 3


def test_encode_label_refuses_a_nested_section_off_the_side_above():
    # The wire carries no nested BasicInfo or node eid, so encode_label
    # refuses to drop one that differs from the side of the record above.
    g, labels = _layout_instance("random-ops", 40, 3, "parity")
    refused = 0
    for bits in labels.values():
        for pos in range(1, len(decode_label(bits).tnodes)):
            for edit in ("eid", "basic"):
                lab = decode_label(bits)
                sec = lab.tnodes[pos]
                if edit == "eid":
                    sec.node_eid += 1000
                else:
                    sec.basic = certify.BasicInfo(dict(sec.basic.t_in), dict(sec.basic.t_out),
                                                  sec.basic.cls)
                    sec.basic.t_out[min(sec.basic.t_out)] += 1
                with pytest.raises(CertifyError):
                    encode_label(lab.n, lab.w, lab.tnodes, lab.routes)
                refused += 1
    assert refused > 0


@pytest.mark.parametrize("family,n,k,prop", [("cycle", 60, 2, "bipartite"),
                                             ("random-ops", 60, 3, "parity")])
def test_moved_root_terminal_is_rejected_at_an_endpoint(family, n, k, prop):
    # The benchmark's corruption gate on every edge: move the root section's
    # terminal on its lowest lane to another vertex and re-encode; the
    # label stays well formed, and an endpoint of the edge must reject.
    g, labels = _layout_instance(family, n, k, prop)
    rng = random.Random(family)
    for e in sorted(labels):
        lab = decode_label(labels[e])
        root = lab.tnodes[0].basic
        lane = min(root.t_in)
        root.t_in[lane] = (root.t_in[lane] + 1 + rng.randrange(g.n - 1)) % g.n
        bad = dict(labels)
        bad[e] = encode_label(lab.n, lab.w, lab.tnodes, lab.routes)
        reasons = [
            verify_vertex(view, prop, k).reason for view in local_views(g, bad) if view.vid in e
        ]
        assert any(r != "-" for r in reasons), (e, reasons)


# --- the BasicInfo table: local lies and one wire form ------------------------

TABLE_CASES = [("cycle", 30, 2, "bipartite"), ("random-ops", 40, 3, "parity")]


def _label_parts(bits):
    """A label's decoded form and what encode_label makes of it: each
    chain's section states and payloads (the own chain's first), the table
    as entry keys, each relayed chain's map into it, the entries each group
    holds, those the own chain and earlier maps name before each route, the
    derived and the partial entries' indices, each entry's written form,
    and each route's (base, q)."""
    lab = decode_label(bits)
    head = certify._Header(lab.n, lab.w)
    chains = [lab.tnodes] + [rs.tnodes for rs in lab.routes]
    states = [certify._enc_chain(chain, head) for chain in chains]
    lasts = [st[-1] for st in states]
    tokens, maps, fresh, index = certify._table_and_maps(lasts[0].order, [st.order for st in lasts[1:]])
    derived, partial = ({index[t] for t in form} for form in certify._enc_forms(states))
    forms = [certify._DERIVED if t in derived else certify._PARTIAL if t in partial else certify._FULL
             for t in range(len(tokens))]
    return {
        "bits": bits, "lab": lab, "b": id_bits(lab.n), "states": states, "maps": maps,
        "payloads": [certify._payloads(chain, st, head) for chain, st in zip(chains, states)],
        "table": [head.entries[t][2] for t in tokens], "derived": derived, "partial": partial, "forms": forms,
        "counts": [c for c in [len(st.new) for st in states[0]] + fresh if c],
        "named": list(accumulate(fresh, initial=len(lasts[0].order))),
        "bases": [(rl.base, rl.q) for rl in read_layout(bits).routes],
    }


def _map_width(parts, j, idx):
    """The width of route j's map when it writes idx: enough for the
    entries earlier chains name and as many new ones, and for idx also
    where a forged prefix leaves fewer to write than they need."""
    return max(certify._index_bits(parts["named"][j] + len(idx)), certify._index_bits(max(idx, default=0) + 1))


def _with_prefix(parts, j, base, q):
    """The label of parts with route j writing base and a prefix of q
    sections: its relayed chain's first q pointer fields, padded with zeros
    past its end, then the map and frames after the slots they name."""
    lay = read_layout(parts["bits"])
    rl, chain = lay.routes[j], parts["lab"].routes[j].tnodes
    rl.base = base
    rl.pointers = [(sec.dist, sec.is_tree, sec.parent_min) for sec in chain[:q]] + [(0, False, False)] * (q - len(chain))
    rl.idx = parts["maps"][j][sum(len(st.new) for st in parts["states"][j + 1][:q]):]
    rl.iw = _map_width(parts, j, rl.idx)
    rl.frames = parts["payloads"][j + 1][q:]
    return write_layout(lay)


def _table_lies(bits):
    """(kind, forged label) for each local lie about bits's table that can
    be written: a slot index >= m, a map index >= T, a map shorter than
    its chain's slots, an entry no slot names, a repeated entry."""
    parts = _label_parts(bits)
    table, b, forms = parts["table"], parts["b"], parts["forms"]
    lay = read_layout(bits)
    m, sw = lay.m, certify._index_bits(lay.m)
    if m < 1 << sw:  # the root section's slot, just past the eid varint
        root = lay.tnodes[0]
        r = BitReader(root)
        r.read_varint()
        shift = root.nbits - r.pos - sw
        lay.tnodes[0] = Bits(root.value & ~(((1 << sw) - 1) << shift) | m << shift, root.nbits)
        yield "slot>=m", write_layout(lay)
    # The first route whose map writes an index (one past the prefix's slots).
    j = next((j for j, rl in enumerate(read_layout(bits).routes) if rl.idx), None)
    if j is not None:
        lay = read_layout(bits)
        rl = lay.routes[j]
        if len(table) < 1 << rl.iw:
            rl.idx[-1] = len(table)
            yield "map>=T", write_layout(lay)
        rl.idx = read_layout(bits).routes[j].idx[:-1]  # one index short of the chain's slots
        rl.iw = _map_width(parts, j, rl.idx)
        yield "map<m", write_layout(lay)
    mask, ids, _ = table[0]
    lay = read_layout(bits)
    lay.groups.append(certify._enc_entry((mask, ids, 99), b, lay.w))
    yield "unused", write_layout(lay)
    # The last entry written in full repeats the first (the root's, which
    # is never derived or partial).
    last = max((t for t in range(1, len(table)) if forms[t] == certify._FULL), default=None)
    if last is not None:
        entries = [certify._enc_entry(key, b, lay.w, form) for key, form in zip(table, forms)]
        entries[last] = entries[0]
        ends = accumulate(parts["counts"])
        lay = read_layout(bits)
        lay.groups = [certify._join(entries[end - count:end]) for count, end in zip(parts["counts"], ends)]
        yield "repeated", write_layout(lay)


@pytest.mark.parametrize("family,n,k,prop", TABLE_CASES)
def test_table_lies_are_rejected_at_an_endpoint(family, n, k, prop):
    g, labels = _layout_instance(family, n, k, prop)
    kinds = {}
    shared = {}
    for e in sorted(labels):
        for kind, forged in _table_lies(labels[e]):
            with pytest.raises(DecodeError):
                decode_label(forged)
            kinds[kind] = kinds.get(kind, 0) + 1
            bad = {**labels, e: forged}
            for view in local_views(g, bad):
                if view.vid in e:
                    for memo in (None, {}, shared):
                        assert verify_vertex(view, prop, k, memo).reason == "decode", (e, kind)
    assert set(kinds) == {"slot>=m", "map>=T", "map<m", "unused", "repeated"}, kinds


def _repointed(parts, j, old, new):
    """The label of parts with route j's map naming table entry new in
    place of entry old, one of the slots it writes: every use of old's
    BasicInfo in the relayed chain's sections after its prefix becomes
    new's.  old drops out of the table if no other slot names it."""
    lab, b = parts["lab"], parts["b"]
    chains = [lab.tnodes] + [rs.tnodes for rs in lab.routes]
    objs = {certify._basic_key(bi, b): bi for chain in chains for sec in chain
            for bi in [sec.basic, *certify._elem_uses(sec.elem)]}
    old_key, by = parts["table"][old], objs[parts["table"][new]]
    swap = lambda bi: by if certify._basic_key(bi, b) == old_key else bi
    rs, q = lab.routes[j], parts["bases"][j][1]
    chain = list(rs.tnodes[:q])
    for sec in rs.tnodes[q:]:
        rec = sec.elem
        topo = rec.topo
        if topo[0] == "B":
            topo = topo[:5] + tuple(side if side[0] == "V" else side[:2] + (swap(side[2]),) for side in topo[5:])
        rec = ElementRecord(rec.eid, rec.parent_eid, topo, tuple((c, swap(bi)) for c, bi in rec.children))
        chain.append(TSec(sec.node_eid, swap(sec.basic), sec.dist, sec.is_tree, sec.parent_min, rec))
    routes = list(lab.routes)
    routes[j] = RSec(rs.u, rs.v, rs.fwd, rs.bwd, chain)
    return encode_label(lab.n, lab.w, lab.tnodes, routes)


@pytest.mark.parametrize("family,n,k,prop", TABLE_CASES)
def test_repointed_route_map_is_rejected_inside_the_route(family, n, k, prop):
    # One carrier lies about the chain it shares with a neighbouring carrier
    # of the route: its map names another entry of the label's earlier
    # chains in place of one of the slots it writes ("map"), or its shared
    # prefix carries another distance ("prefix").  The label still decodes,
    # and the vertex between the two carriers sees two relayed chains that
    # differ.
    g, labels = _layout_instance(family, n, k, prop)
    carriers = {}
    for e, bits in labels.items():
        for j, rs in enumerate(decode_label(bits).routes):
            carriers.setdefault((rs.u, rs.v), {})[rs.fwd] = (e, j)
    kinds = {}
    pairs = [  # consecutive carriers of one route, the forged one first
        ((u, v), *pair)
        for (u, v), by_rank in sorted(carriers.items())
        for f in sorted(by_rank) if f + 1 in by_rank
        for pair in ((by_rank[f], by_rank[f + 1]), (by_rank[f + 1], by_rank[f]))
    ]
    for (u, v), (e, j), (e2, _) in pairs:
        parts = _label_parts(labels[e])
        idx = parts["maps"][j]
        q = parts["bases"][j][1]
        # The entries earlier chains of the label name; the map writes the
        # indices after the slots of the shared prefix.
        named = parts["named"][j]
        s = sum(len(st.new) for st in parts["states"][j + 1][:q])
        spare = [i for i in range(named) if i not in idx]
        forgeries = []
        # The first repointing, from the last slot the map writes back, that
        # the wire can carry: a derived entry must stay what its record
        # derives.
        for old, new in ((old, new) for old in reversed(idx[s:]) for new in spare):
            try:
                forgeries.append(("map", _repointed(parts, j, old, new)))
                break
            except CertifyError:
                pass
        if q:
            lay = read_layout(labels[e])
            dist, is_tree, parent_min = lay.routes[j].pointers[-1]
            lay.routes[j].pointers[-1] = (dist ^ 1, is_tree, parent_min)  # the low bit of the last prefix section's dist
            forgeries.append(("prefix", write_layout(lay)))
        for kind, forged in forgeries:
            bad = {**labels, e: forged}
            decode_label(bad[e])
            (inner,) = set(e) & set(e2)
            view = next(view for view in local_views(g, bad) if view.vid == inner)
            for memo in (None, {}):
                assert verify_vertex(view, prop, k, memo).reason == "route-payload", (u, v, kind)
            kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds.get("map", 0) >= 3 and kinds.get("prefix", 0) >= 3, kinds


@pytest.mark.parametrize("family,n,k,prop", TABLE_CASES)
def test_relayed_chain_under_different_tables_is_accepted(family, n, k, prop):
    # Carriers of one route hold different tables, and so different maps,
    # yet relay equal chains (one object with a memo); every vertex accepts.
    g, labels = _layout_instance(family, n, k, prop)
    memo = {}
    seen = {}
    differing = 0
    for bits in labels.values():
        parts = _label_parts(bits)
        for j, rs in enumerate(decode_label(bits, memo).routes):
            key = (rs.u, rs.v)
            if key in seen:
                maps, table, chain = seen[key]
                if table != parts["table"]:
                    differing += maps != parts["maps"][j]
                assert rs.tnodes is chain
            else:
                seen[key] = (parts["maps"][j], parts["table"], rs.tnodes)
    assert differing > 0
    assert all_accept(verify_all(g, labels, prop, k))


# --- route prefixes: one base and one length per route -----------------------


def _shared(a, b):
    """How many sections chains a and b share from the root: the same node
    eid, BasicInfo and element record, compared by value."""
    q = 0
    for x, y in zip(a, b):
        if (x.node_eid, x.basic, x.elem) != (y.node_eid, y.basic, y.elem):
            break
        q += 1
    return q


def _route_lies(bits):
    """(kind, forged label) for each lie about a route's base or shared
    prefix that can be written: a prefix shorter than the longest any base
    shares ("shorter-base"), a base that is the route itself or a later one
    ("self-base", "later-base"), a prefix longer than its base
    ("past-base"), a prefix whose next section its base still shares
    ("next-shared"), and a tie resolved to a later base ("tie-later")."""
    parts = _label_parts(bits)
    lab = parts["lab"]
    chains = [lab.tnodes] + [rs.tnodes for rs in lab.routes]
    for j, (base, q) in enumerate(parts["bases"]):
        assert _with_prefix(parts, j, base, q) == bits
        shares = [_shared(chains[j + 1], c) for c in chains[:j + 1]]
        # The label writes the longest prefix, from the earliest chain.
        assert (base, q) == (shares.index(max(shares)), max(shares))
        lies = []
        shorter = [o for o, shared in enumerate(shares) if shared < q]
        if shorter:
            lies.append(("shorter-base", shorter[0], shares[shorter[0]]))
        for own_or_later, kind in ((j + 1, "self-base"), (j + 2, "later-base")):
            if own_or_later < 1 << j.bit_length():  # the base field's width
                lies.append((kind, own_or_later, q))
        lies.append(("past-base", base, len(chains[base]) + 1))
        if q:
            lies.append(("next-shared", base, q - 1))
        later = [o for o, shared in enumerate(shares) if o > base and shared == q]
        if later:
            lies.append(("tie-later", later[0], q))
        for kind, forged_base, forged_q in lies:
            yield kind, _with_prefix(parts, j, forged_base, forged_q)


def test_route_prefix_lies_are_rejected_at_an_endpoint():
    # A route section's base and prefix length have one value: the longest
    # prefix its relayed chain shares with an earlier chain of the label,
    # from the earliest such chain.  Any other does not decode, and both
    # endpoints of the edge reject it, with or without a memo.  (A later
    # base needs a label with five routes, which the n = 60 instance has.)
    kinds = {}
    for case in LAYOUT_CASES + [("random-ops", 60, 3, "parity")]:
        family, n, k, prop = case
        g, labels = _layout_instance(family, n, k, prop)
        shared = {}
        for e in sorted(labels):
            for kind, forged in _route_lies(labels[e]):
                with pytest.raises(DecodeError):
                    decode_label(forged)
                kinds[kind] = kinds.get(kind, 0) + 1
                bad = {**labels, e: forged}
                for view in local_views(g, bad):
                    if view.vid in e:
                        for memo in (None, {}, shared):
                            assert verify_vertex(view, prop, k, memo).reason == "decode", (
                                case, e, kind)
    assert set(kinds) == {
        "shorter-base", "self-base", "later-base", "past-base", "next-shared", "tie-later"
    }, kinds


# --- derived table entries: what the decoder derives, and what it refuses ---


def _derives(chain, pos, b):
    """Whether section pos of a decoded chain derives its node's BasicInfo:
    it is nested, its record is the node's root element, and the record
    names no child with that BasicInfo's value."""
    sec = chain[pos]
    key = lambda bi: certify._basic_key(bi, b)
    return pos > 0 and sec.elem.eid == sec.node_eid and key(sec.basic) not in {
        key(csub) for _, csub in sec.elem.children
    }


def _retargeted(rec, n):
    """rec with its own terminal on the lane where its first child glues
    on moved to a vertex that no terminal of rec, its sides or children is
    (a vertex-leaf side's, with the bridge's end on it), or None when a T
    side gives that terminal."""
    lane = min(rec.children[0][1].t_in)
    t = rec.topo
    held = {v for bi in certify._elem_uses(rec) for v in bi.terminal_ids()}
    held |= {v for side in t[5:] if side[0] == "V" for v in side[2:]} if t[0] == "B" else set()
    held |= set(t[1]) if t[0] == "P" else set(t[2:4]) if t[0] == "E" else set(t[3])
    fresh = min(set(range(n)) - held)
    if t[0] == "E" and t[1] == lane:
        return replace(rec, topo=t[:3] + (fresh,) + t[4:])
    if t[0] == "P":
        vids = list(t[1])
        vids[lane - 1] = fresh
        return replace(rec, topo=("P", tuple(vids), t[2]))
    if t[0] == "B":
        for i, side in enumerate(t[5:]):
            if side[:2] == ("V", lane):
                # A vertex-leaf side's one lane is the bridge's lane on that side.
                bridge = edge_key(fresh, sum(t[3]) - side[2])
                sides = t[5:5 + i] + (("V", lane, fresh),) + t[6 + i:]
                return replace(rec, topo=t[:3] + (bridge,) + t[4:5] + sides)
    return None


def _derived_lies(lab):
    """(kind, forged own chain, forged routes) for each lie about a section
    of lab that derives an entry: in the own chain, its record with a
    second child over the first one's lanes ("sibling-lanes"), a child with
    the root's lanes ("child-lanes"), a vertex-leaf side moved to lane w + 1
    ("lane>w"), or a T side named with the derived entry itself ("loop");
    and a relayed chain's deriving section made to derive an entry the own
    chain derives ("differ")."""
    chain, b = lab.tnodes, id_bits(lab.n)
    spare = 10 ** 6  # an element id no record uses
    at = [pos for pos in range(len(chain)) if _derives(chain, pos, b)]
    for pos in at:
        sec = chain[pos]
        rec = sec.elem

        def with_rec(new, pos=pos):
            return chain[:pos] + [replace(chain[pos], elem=new)] + chain[pos + 1:]

        if rec.children:
            yield "sibling-lanes", with_rec(replace(rec, children=rec.children + ((spare, rec.children[0][1]),))), lab.routes
        yield "child-lanes", with_rec(replace(rec, children=rec.children + ((spare, chain[0].basic),))), lab.routes
        for i, side in enumerate(rec.topo[5:] if rec.kind == "B" else ()):
            # A vertex-leaf side, the bridge's end on that side, moved to
            # lane w + 1 where no child glues on its old lane.
            if side[0] == "V" and all(side[1] not in csub.t_in for _, csub in rec.children):
                topo = list(rec.topo)
                topo[1 + i] = lab.w + 1
                topo[5 + i] = ("V", lab.w + 1, side[2])
                yield "lane>w", with_rec(replace(rec, topo=tuple(topo))), lab.routes
        for i, side in enumerate(rec.topo[5:] if rec.kind == "B" else ()):
            if side[0] == "T":
                topo = list(rec.topo)
                topo[5 + i] = side[:2] + (sec.basic,)
                forged = with_rec(replace(rec, topo=tuple(topo)))
                if pos + 1 < len(chain) and chain[pos + 1].node_eid == side[1]:
                    forged[pos + 1] = replace(chain[pos + 1], basic=sec.basic)
                yield "loop", forged, lab.routes
    # A relayed chain's deriving section made to derive an entry of the
    # own chain, from a record of other maps (within one chain, the record
    # above a deeper section would name the upper entry, which its own
    # derivation then needs).
    for j, rs in enumerate(lab.routes):
        relayed = rs.tnodes
        for lower in range(1, len(relayed)):
            if not _derives(relayed, lower, b):
                continue
            for upper in at:
                entry = chain[upper].basic
                key = lambda bi: certify._basic_key(bi, b)
                if key(entry) == key(relayed[lower].basic):
                    continue
                above = relayed[lower - 1].elem
                side = 5 + certify._side_bit(above, relayed[lower].node_eid, relayed[lower].basic)
                topo = list(above.topo)
                topo[side] = topo[side][:2] + (entry,)
                forged = list(relayed)
                forged[lower - 1] = replace(relayed[lower - 1], elem=replace(above, topo=tuple(topo)))
                forged[lower] = replace(relayed[lower], basic=entry)
                routes = list(lab.routes)
                routes[j] = replace(rs, tnodes=forged)
                yield "differ", chain, routes


DERIVED_ERRORS = {
    "sibling-lanes": "sibling-lanes", "child-lanes": "child-lanes",
    "loop": "needs that entry", "differ": "two derivations of one entry differ",
    "lane>w": "lane above w",
}


def test_derived_entry_lies_are_rejected_at_an_endpoint(monkeypatch):
    # A derived entry is written as its class term alone, and the decoder
    # derives the rest from the record of the section that derives it.  A
    # record whose children overlap, stray outside its lanes or do not glue
    # on, one on a lane above w, a derivation that needs its own entry, and
    # two derivations of one entry that differ: each is a DecodeError at
    # decode_label, and both
    # endpoints of the edge reject it as "decode", with memo None, {} and a
    # shared one.  (encode_label refuses such a decoded form, so the
    # forgeries are written with its check of completed entries off.)
    honest = {}
    for case in LAYOUT_CASES + [("random-ops", 60, 3, "parity")]:
        honest[case] = _layout_instance(*case)
    monkeypatch.setattr(certify, "_check_completed", lambda *args: None)
    kinds = {}
    for (family, n, k, prop), (g, labels) in honest.items():
        shared = {}
        for e in sorted(labels):
            lab = decode_label(labels[e])
            for kind, chain, routes in _derived_lies(lab):
                forged = encode_label(lab.n, lab.w, chain, routes)
                try:
                    decode_label(forged)
                except DecodeError as exc:
                    if DERIVED_ERRORS[kind] not in str(exc):
                        continue  # another check caught it first
                else:
                    assert kind == "differ", (family, e, kind)  # equal maps derive alike
                    continue
                kinds[kind] = kinds.get(kind, 0) + 1
                bad = {**labels, e: forged}
                for view in local_views(g, bad):
                    if view.vid in e:
                        for memo in (None, {}, shared):
                            assert verify_vertex(view, prop, k, memo).reason == "decode", (family, e, kind)
    assert set(kinds) == set(DERIVED_ERRORS), kinds
    assert min(kinds.values()) >= 3, kinds


def _partial_lies(lab):
    """(kind, forged own chain, forged routes) for each lie about a partial
    entry of lab that the wire cannot carry: in the own chain, a record
    whose first child is partial (not the root entry) with its own
    terminal on the lane where that child glues on moved ("glue"), its own
    fragment still well formed, so that the child's in-terminal map is no
    longer where the record's glue puts it."""
    chain, b = lab.tnodes, id_bits(lab.n)
    root = certify._basic_key(chain[0].basic, b)
    for pos, sec in enumerate(chain):
        rec = sec.elem
        if rec.children and certify._basic_key(rec.children[0][1], b) != root:
            moved = _retargeted(rec, lab.n)
            if moved is not None:
                yield "glue", chain[:pos] + [replace(sec, elem=moved)] + chain[pos + 1:], lab.routes


def test_encode_label_refuses_a_derived_entry_its_record_does_not_derive():
    # The wire carries a derived entry's class term alone, and a partial
    # entry without its in-terminal map, so encode_label refuses a decoded
    # form whose derived entry differs from what its record derives, or
    # whose derivation fails, and one whose partial entry does not glue on
    # where its record puts it.
    g, labels = _layout_instance("random-ops", 40, 3, "parity")
    refused = {}
    for bits in labels.values():
        lab = decode_label(bits)
        for lies in (_derived_lies(lab), _partial_lies(lab)):
            for kind, chain, routes in lies:
                with pytest.raises(CertifyError):
                    encode_label(lab.n, lab.w, chain, routes)
                refused[kind] = refused.get(kind, 0) + 1
    assert set(refused) == set(DERIVED_ERRORS) | {"glue"}, refused


def test_moved_parent_terminal_is_rejected_at_an_endpoint(monkeypatch):
    # A record's own terminal moved where its partial first child glues on,
    # written with encode_label's check of completed entries off: an
    # endpoint of the edge rejects it, with memo None, {} and a shared one.
    # Where no other record of the label names that child, the label
    # decodes, the child completed at the moved terminal, and a view check
    # rejects it.
    g, labels = _layout_instance("random-ops", 40, 3, "parity")
    monkeypatch.setattr(certify, "_check_completed", lambda *args: None)
    shared = {}
    checked = Counter()
    for e in sorted(labels):
        lab = decode_label(labels[e])
        for _, chain, routes in _partial_lies(lab):
            bad = {**labels, e: encode_label(lab.n, lab.w, chain, routes)}
            for memo in (None, {}, shared):
                reasons = {verify_vertex(view, "parity", 3, memo).reason for view in local_views(g, bad) if view.vid in e}
                assert reasons - {"-"}, e
            checked["decode" if reasons == {"decode"} else "view"] += 1
    assert checked["view"] >= 3, checked


def _partial_in_full(parts):
    """The label of parts with each partial entry written in full, or None
    when it has none."""
    forms = [certify._FULL if form == certify._PARTIAL else form for form in parts["forms"]]
    if forms == parts["forms"]:
        return None
    lay = read_layout(parts["bits"])
    entries = [certify._enc_entry(key, parts["b"], lay.w, form) for key, form in zip(parts["table"], forms)]
    ends = accumulate(parts["counts"])
    lay.groups = [certify._join(entries[end - count:end]) for count, end in zip(parts["counts"], ends)]
    return write_layout(lay)


def _two_completions(lab):
    """(the label of lab with one more route, which relays the own chain
    down to a record that names a partial child, that record's terminal
    moved where the child glues on, so that two records complete the child
    differently), for each such record; written with encode_label's check
    of completed entries off."""
    for _, chain, _ in _partial_lies(lab):
        pos = next(pos for pos, (a, b) in enumerate(zip(chain, lab.tnodes)) if a is not b)
        rs = RSec(0, lab.n - 1, 1, 1, chain[:pos + 1])
        yield encode_label(lab.n, lab.w, lab.tnodes, lab.routes + [rs])


def test_partial_entry_lies_are_rejected_at_both_endpoints(monkeypatch):
    # A label that writes a partial entry in full, and one where two records
    # complete one partial entry differently, do not decode, and both
    # endpoints of the edge reject them, with memo None, {} and a shared
    # one.
    g, labels = _layout_instance("random-ops", 40, 3, "parity")
    kinds = {}
    forgeries = [("in-full", e, _partial_in_full(_label_parts(bits))) for e, bits in sorted(labels.items())]
    monkeypatch.setattr(certify, "_check_completed", lambda *args: None)
    for e, bits in sorted(labels.items()):
        forgeries += [("differ", e, forged) for forged in _two_completions(decode_label(bits))]
    shared = {}
    for kind, e, forged in forgeries:
        if forged is None:
            continue
        with pytest.raises(DecodeError) as exc:
            decode_label(forged)
        if kind == "differ" and "differently" not in str(exc.value):
            continue  # another check caught it first
        bad = {**labels, e: forged}
        for view in local_views(g, bad):
            if view.vid in e:
                for memo in (None, {}, shared):
                    assert verify_vertex(view, "parity", 3, memo).reason == "decode", (e, kind)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) == {"in-full", "differ"} and min(kinds.values()) >= 3, kinds


def _partial_edits(lab, rng):
    """(kind, the label of lab with one partial entry's out-terminal on one
    lane moved to another vertex, or its class term flipped, in every
    section and record of the label that names it) for each partial entry
    of lab whose edit the wire can carry."""
    parts = _label_parts(encode_label(lab.n, lab.w, lab.tnodes, lab.routes))
    for t in sorted(parts["partial"]):
        for kind in ("t_out", "term"):
            copy = decode_label(parts["bits"])
            chains = [copy.tnodes] + [rs.tnodes for rs in copy.routes]
            bi = next(csub for chain in chains for sec in chain for _, csub in sec.elem.children
                      if certify._basic_key(csub, parts["b"]) == parts["table"][t])
            if kind == "t_out":
                lane = rng.choice(sorted(bi.t_out))
                bi.t_out[lane] = rng.choice(sorted(set(range(lab.n)) - set(bi.t_out.values())))
            else:
                bi.cls = replace(bi.cls, term=bi.cls.term ^ 1)
            try:
                yield kind, encode_label(copy.n, copy.w, copy.tnodes, copy.routes)
            except CertifyError:
                pass  # a later sibling, or a derived entry above, would no longer glue on


def test_a_t_side_of_a_completing_record_is_written_in_full():
    # Here some child entries are also T sides of records that name a child
    # or derive an entry.  Encoder and decoder both write those in full, so
    # a completion waits only for derived T sides, which have fewer lanes
    # than the record that waits, and no honest label's completion loops:
    # every vertex accepts.
    g, ir = generate(GeneratorSpec("random-ops", 20, 3, 0.3), 3)
    labels = prove(g, "parity", 3, ir=ir)
    both = 0
    for bits in labels.values():
        parts = _label_parts(bits)
        lasts = [st[-1] for st in parts["states"]]
        kids = set().union(*[st.kids for st in lasts]) - {st[0].order[0] for st in parts["states"]}
        both += len(kids & set().union(*[st.sides for st in lasts]))
        assert certify.entry_forms(bits)["partial"] == len(parts["partial"])
    assert both >= 3
    assert all_accept(verify_all(g, labels, "parity", 3))


def test_partial_entry_edits_are_rejected_at_an_endpoint():
    # A partial entry's out-terminal map and class term are on the wire: one
    # changed in every place the label names it still decodes, and an
    # endpoint of the edge rejects it with a check's reason.
    g, labels = _layout_instance("random-ops", 40, 3, "parity")
    rng = random.Random(23)
    kinds = {}
    for e in sorted(labels):
        for kind, forged in _partial_edits(decode_label(labels[e]), rng):
            bad = {**labels, e: forged}
            decode_label(forged)
            reasons = [verify_vertex(view, "parity", 3).reason for view in local_views(g, bad) if view.vid in e]
            assert set(reasons) - {"-", "decode", "malformed"}, (e, kind, reasons)
            kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) == {"t_out", "term"} and min(kinds.values()) >= 3, kinds


def _view_lies(labels):
    """(reason, edge, forged labelling) for three lies about a view's
    structure, each told by the labels of one edge's endpoints: a label
    that lists one route twice (route-dup), a label whose own chain is
    empty (chain-empty), and every label at either endpoint re-encoded
    with one lane more than its root node has (header)."""
    wider = {}
    for f, bits in labels.items():
        lab = decode_label(bits)
        wider[f] = encode_label(lab.n, lab.w + 1, lab.tnodes, lab.routes)
    for e, bits in sorted(labels.items()):
        lab = decode_label(bits)
        if lab.routes:
            yield "route-dup", e, {**labels, e: encode_label(lab.n, lab.w, lab.tnodes, lab.routes + [lab.routes[0]])}
        yield "chain-empty", e, {**labels, e: encode_label(lab.n, lab.w, [], lab.routes)}
        yield "header", e, {**labels, **{f: wider[f] for f in labels if set(f) & set(e)}}


def test_view_structure_lies_are_rejected_at_both_endpoints():
    g, labels = _layout_instance("random-ops", 40, 3, "parity")
    # One lane more is still within f(k + 1), and every label a forged view
    # holds has it, so only the root node's lane count can refuse it.
    assert decode_label(labels[min(labels)]).w + 1 <= lane_bounds(4)[0]
    shared = {}
    counts = {}
    for reason, e, bad in _view_lies(labels):
        for view in local_views(g, bad):
            if view.vid in e:
                for memo in (None, {}, shared):
                    assert verify_vertex(view, "parity", 3, memo).reason == reason, (reason, e)
                counts[reason] = counts.get(reason, 0) + 1
    routed = sum(1 for bits in labels.values() if decode_label(bits).routes)
    assert counts == {"route-dup": 2 * routed, "chain-empty": 2 * len(labels), "header": 2 * len(labels)}, counts


# --- lies about one edge's chain, caught by the view checks -------------------


def _chain_lies(g, labels):
    """(reason, vertex, forged labelling) for lies that one label tells
    about its chains, each refused at the given endpoint:

    - chain-leaf: e's chain without its last section, so it ends at a
      record that does not list e;
    - chain-link: the chain of an edge whose chain extends e's, so a
      section before the last lists e;
    - root-cover: e's chain without its root section, at an endpoint where
      e is not the first edge, so the root node, checked first there, does
      not hold e;
    - boundary: e's chain turned, below a B record with two T sides, into
      the other side, ending there at e's own record, at an endpoint where
      e is the first of two or more edges: the sides are lane-disjoint, so
      that side has no terminal there and holds none of its other edges;
    - mark: a route whose virtual edge ends at the carrier's endpoint, its
      relayed chain's last record (an E or B record) marking that edge;
    - edge-missing: a route relayed as the root section alone, dropped by
      the carrier at its endpoint, where a real edge's chain also ends at
      that root record: the record lists the virtual edge, which the
      endpoint then does not see."""
    first = {view.vid: min(view.labels) for view in local_views(g, labels) if len(view.labels) > 1}
    chains = {e: decode_label(bits).tnodes for e, bits in labels.items()}

    def ids(chain):
        return [(sec.node_eid, sec.elem.eid) for sec in chain]

    for e, bits in sorted(labels.items()):
        lab = decode_label(bits)
        tnodes, routes = lab.tnodes, lab.routes

        def forged(tnodes, routes):
            return {**labels, e: encode_label(lab.n, lab.w, tnodes, routes)}

        if len(tnodes) > 1:
            for vid in e:
                yield "chain-leaf", vid, forged(tnodes[:-1], routes)
                if first.get(vid, e) != e:
                    yield "root-cover", vid, forged(tnodes[1:], routes)
        longer = [f for f in sorted(chains) if len(chains[f]) > len(tnodes) and ids(chains[f][:len(tnodes)]) == ids(tnodes)]
        if longer:
            for vid in e:
                yield "chain-link", vid, forged(chains[longer[0]], routes)
        for d in range(1, len(tnodes)):
            sec = tnodes[d]
            other = [side for side in tnodes[d - 1].elem.topo[5:7] if side[0] == "T" and side[1] != sec.node_eid]
            if other:
                turned = replace(sec, node_eid=other[0][1], basic=other[0][2], elem=tnodes[-1].elem)
                for vid in e:
                    if first.get(vid) == e:
                        yield "boundary", vid, forged(tnodes[:d] + [turned], routes)
                break
        for i, rs in enumerate(routes):
            last = rs.tnodes[-1]
            for vid in set(e) & {rs.u, rs.v}:
                if last.elem.kind != "P":
                    marked = replace(last, elem=replace(last.elem, topo=last.elem.topo[:4] + (1,) + last.elem.topo[5:]))
                    yield "mark", vid, forged(tnodes, routes[:i] + [replace(rs, tnodes=rs.tnodes[:-1] + [marked])] + routes[i + 1:])
                if len(rs.tnodes) == 1 and any(chains[f][-1].elem == last.elem for f in chains if vid in f):
                    yield "edge-missing", vid, forged(tnodes, routes[:i] + routes[i + 1:])


def test_chain_lies_are_rejected_at_an_endpoint():
    g, labels = _layout_instance("random-ops", 40, 3, "parity")
    shared = {}
    counts = {}
    for reason, vid, bad in _chain_lies(g, labels):
        view = next(view for view in local_views(g, bad) if view.vid == vid)
        for memo in (None, {}, shared):
            assert verify_vertex(view, "parity", 3, memo).reason == reason, (reason, vid)
        counts[reason] = counts.get(reason, 0) + 1
    assert set(counts) == {"chain-leaf", "chain-link", "root-cover", "boundary", "mark", "edge-missing"}, counts


def _relabelled(labels, edit):
    """labels with edit applied to the list of their decoded forms'
    sections, re-encoded.  One memo decodes them all, so an object edited
    is edited wherever a label holds it."""
    memo = {}
    decoded = {e: decode_label(bits, memo) for e, bits in labels.items()}
    edit([sec for lab in decoded.values() for chain in [lab.tnodes] + [rs.tnodes for rs in lab.routes] for sec in chain])
    return {e: encode_label(lab.n, lab.w, lab.tnodes, lab.routes) for e, lab in decoded.items()}


def _rare_view_lies(g, labels):
    """(reason, vertex or None, forged labelling) for lies that reach four
    reject lines the lies above leave alone, each refused at the given
    vertex, or with None at some vertex:

    - route-dup: a label that also carries one of its routes reversed
      (endpoints and ranks swapped), at that route's endpoint, which then
      sees two routes end there for one virtual edge;
    - node-shared: a vertex's first edge with its chain's root section cut
      off, so that the chain starts at a node that another chain here holds
      below the root;
    - parent-link: a node's root element given a parent in every label, so
      that a vertex that sees it off its node's terminals finds a node root
      with a parent;
    - node-basic: a one-lane node renamed in every section and T side, so
      that no record is its root element, at its terminal (the first five
      such nodes, and the first five nodes for parent-link)."""
    spare = 10 ** 6  # an element id no record uses
    for e, bits in sorted(labels.items()):
        lab = decode_label(bits)
        for rs in lab.routes:
            for vid in set(e) & {rs.u, rs.v}:
                reverse = RSec(rs.v, rs.u, rs.bwd, rs.fwd, rs.tnodes)
                yield "route-dup", vid, {**labels, e: encode_label(lab.n, lab.w, lab.tnodes, lab.routes + [reverse])}
    for view in local_views(g, labels):
        first, *rest = sorted(view.labels)
        chain = decode_label(labels[first]).tnodes
        if len(chain) > 1 and any(chain[1].node_eid in {sec.node_eid for sec in decode_label(labels[f]).tnodes[1:]}
                                  for f in rest):
            lab = decode_label(labels[first])
            yield "node-shared", view.vid, {**labels, first: encode_label(lab.n, lab.w, chain[1:], lab.routes)}
    lanes = {}  # each node's lane count
    for bits in labels.values():
        lab = decode_label(bits)
        for sec in lab.tnodes + [sec for rs in lab.routes for sec in rs.tnodes]:
            lanes[sec.node_eid] = len(sec.basic.t_in)

    def with_parent(node):
        def edit(sections):
            for sec in sections:
                if sec.elem.eid == node:
                    sec.elem.parent_eid = spare
        return edit

    def renamed(node):
        def edit(sections):
            for sec in sections:
                if sec.node_eid == node:
                    sec.node_eid = spare
                t = sec.elem.topo
                if t[0] == "B":
                    sec.elem.topo = t[:5] + tuple(side[:1] + (spare,) + side[2:] if side[:2] == ("T", node) else side
                                                  for side in t[5:])
        return edit

    for node in sorted(lanes)[:5]:
        yield "parent-link", None, _relabelled(labels, with_parent(node))
    for node in sorted(node for node in lanes if lanes[node] == 1)[:5]:
        yield "node-basic", None, _relabelled(labels, renamed(node))


def test_rare_view_lies_are_rejected():
    g, labels = _layout_instance("random-ops", 40, 3, "parity")
    shared = {}
    counts = Counter()
    for reason, vid, bad in _rare_view_lies(g, labels):
        if vid is None:
            verdicts = verify_all(g, bad, "parity", 3)
            vid = next((v for v, verdict in verdicts.items() if verdict.reason == reason), None)
            if vid is None:
                continue  # every vertex that sees the lie is refused for another reason first
        view = next(view for view in local_views(g, bad) if view.vid == vid)
        for memo in (None, {}, shared):
            assert verify_vertex(view, "parity", 3, memo).reason == reason, (reason, vid)
        counts[reason] += 1
    assert set(counts) == {"route-dup", "node-shared", "parent-link", "node-basic"}, counts
    assert min(counts.values()) >= 3, counts


def test_flipped_edge_tag_is_rejected_at_both_endpoints():
    # marked-bipartite on an even cycle, every third edge untagged: once
    # one edge's tag flips, the mark its label records no longer matches.
    base, ir = generate(GeneratorSpec("cycle", 30, 2), 0)
    tags = {e: int(i % 3 != 0) for i, e in enumerate(base.edges)}
    g = build_graph(base.n, base.edges, None, tags)
    labels = prove(g, "marked-bipartite", 2, ir=ir)
    shared = {}
    for e in g.edges:
        flipped = build_graph(g.n, g.edges, None, {**tags, e: 1 - tags[e]})
        for view in local_views(flipped, labels):
            if view.vid in e:
                for memo in (None, {}, shared):
                    assert verify_vertex(view, "marked-bipartite", 2, memo).reason == "mark", e
