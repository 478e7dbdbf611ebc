import random

import pytest

from lanecert import certify
from lanecert.certify import (
    SEC_TNODE,
    CertifyError,
    all_accept,
    decode_label,
    encode_label,
    label_size_stats,
    local_views,
    prove,
    read_label_file,
    verify_all,
    verify_vertex,
    write_label_file,
    write_verdict_file,
)
from lanecert.encoding import Bits, BitWriter, read_sections, write_section
from lanecert.generators import GeneratorSpec, generate
from lanecert.graph import build_graph, edge_key
from lanecert.intervals import width
from lanecert.properties import brute_force_property
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
    assert set(stats.per_section) >= {"header", "tnode", "framing"}
    assert label_size_stats({}).max_bits == 0


def test_decode_roundtrip_structure():
    g = cycle_graph(6)
    labels = prove(g, "bipartite", 2)
    for e, bits in labels.items():
        lab = decode_label(bits)
        assert lab.n == 6
        assert lab.tnodes[0].is_root


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


def _decoded_all(labels, memo):
    """The decoded labels and the virtual labels their routes relay."""
    out = []
    todo = list(labels.values())
    while todo:
        lab = decode_label(todo.pop(), memo)
        out.append(lab)
        todo.extend(rs.payload for rs in lab.routes)
    return out


@pytest.mark.parametrize("family,n,k,prop", LAYOUT_CASES)
def test_nested_section_basic_is_the_side_above(family, n, k, prop):
    g, labels = _layout_instance(family, n, k, prop)
    for memo in ({}, None):
        nested = 0
        for lab in _decoded_all(labels, memo):
            assert lab.tnodes[0].is_root
            for above, sec in zip(lab.tnodes, lab.tnodes[1:]):
                assert not sec.is_root
                sides = [s for s in above.elem.topo[5:7] if s[0] == "T" and s[2] is sec.basic]
                assert [s[1] for s in sides] == [sec.node_eid]
                nested += 1
        assert nested > 0


def _tnode_payloads(bits):
    return [p for stype, p in read_sections(bits) if stype == SEC_TNODE]


def _forged_chain(bits, nested_payload):
    """(forged label, kind) for each way to lie about a nested section of
    bits: its side bit turned to a vertex-leaf side of the B record above
    ("V-side"), or nested_payload after a last E or P record ("after-E",
    "after-P")."""
    secs = read_sections(bits)
    lab = decode_label(bits)
    at = [i for i, (stype, _) in enumerate(secs) if stype == SEC_TNODE]
    edits = []
    for pos in range(1, len(at)):
        payload = secs[at[pos]][1]
        top = 1 << (payload.nbits - 1)  # the side bit
        other = lab.tnodes[pos - 1].elem.topo[5 if payload.value & top else 6]
        if other[0] == "V":
            edits.append(("V-side", at[pos], Bits(payload.value ^ top, payload.nbits)))
    last = lab.tnodes[-1].elem.kind
    if last != "B":
        edits.append(("after-" + last, None, nested_payload))
    for kind, i, payload in edits:
        bad = list(secs)
        if i is None:
            bad.insert(at[-1] + 1, (SEC_TNODE, payload))
        else:
            bad[i] = (SEC_TNODE, payload)
        w = BitWriter()
        for stype, part in bad:
            write_section(w, stype, part)
        yield w.getvalue(), kind


def _forgeries(labels):
    """(vertices that decode the forged label, forged labels, kind) for the
    forged chains of every real label and of every relayed virtual label;
    a relayed one is replaced in every route section that carries it."""
    nested = next(p for bits in labels.values() for p in _tnode_payloads(bits)[1:])
    relayed = {}
    for bits in labels.values():
        for rs in decode_label(bits).routes:
            relayed[rs.payload] = (rs.u, rs.v)
    for e in sorted(labels):
        for forged, kind in _forged_chain(labels[e], nested):
            yield set(e), {**labels, e: forged}, kind
    for vbits, ends in sorted(relayed.items(), key=lambda item: item[1]):
        for forged, kind in _forged_chain(vbits, nested):
            bad = {}
            for e, bits in labels.items():
                lab = decode_label(bits)
                for rs in lab.routes:
                    if rs.payload == vbits:
                        rs.payload = forged
                bad[e] = certify.frame_label(lab.n, lab.w, _tnode_payloads(bits), lab.routes)
            yield set(ends), bad, kind


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
        lab = decode_label(bits)
        lab.tnodes[0].is_root = False
        with pytest.raises(CertifyError):
            encode_label(lab.n, lab.w, lab.tnodes, lab.routes)
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
