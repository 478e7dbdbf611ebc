import random

import pytest

from lanecert import certify
from lanecert.certify import (
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
from lanecert.encoding import Bits
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
