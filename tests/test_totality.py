"""Property-based tests: the verifier returns a Verdict on any input, and the
label codec round-trips every label the prover emits."""

import functools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lanecert.certify import (
    SEC_BASIC,
    SEC_HEADER,
    SEC_ROUTE,
    SEC_TNODE,
    LocalView,
    Verdict,
    decode_label,
    encode_label,
    local_views,
    prove,
    verify_all,
    verify_vertex,
)
from lanecert.encoding import Bits, BitWriter, read_sections, write_section
from lanecert.generators import FAMILIES, GeneratorError, GeneratorSpec, generate
from lanecert.graph import edge_key
from lanecert.intervals import width
from lanecert.properties import PLUGINS
from tests.test_graph import cycle_graph

PROPS = ("parity", "bipartite", "acyclic", "matching", "marked-bipartite")


def bitstrings(max_bits=300):
    return st.integers(0, max_bits).flatmap(
        lambda nb: st.integers(0, (1 << nb) - 1).map(lambda v: Bits(v, nb))
    )


def _header(n, w):
    hw = BitWriter()
    hw.write_varint(n)
    hw.write_varint(w)
    return hw.getvalue()


@st.composite
def framed_garbage(draw):
    """Well-framed labels with random sections, often after a valid header,
    so that decoding gets past the framing."""
    secs = []
    if draw(st.booleans()):
        secs.append((SEC_HEADER, _header(draw(st.integers(1, 8)), draw(st.integers(1, 4)))))
    for _ in range(draw(st.integers(0, 4))):
        stype = draw(st.sampled_from((SEC_HEADER, SEC_BASIC, SEC_TNODE, SEC_ROUTE, 0, 9)))
        secs.append((stype, draw(bitstrings(200))))
    w = BitWriter()
    for stype, payload in secs:
        write_section(w, stype, payload)
    return w.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    vid=st.integers(0, 9),
    labels=st.lists(st.one_of(bitstrings(), framed_garbage()), max_size=3),
    prop=st.sampled_from(PROPS),
    k=st.integers(0, 3),
)
def test_verify_vertex_total_on_garbage(vid, labels, prop, k):
    edges = [edge_key(vid, vid + 1 + i) for i in range(len(labels))]
    view = LocalView(vid, 0, dict(zip(edges, labels)), {e: 1 for e in edges})
    assert isinstance(verify_vertex(view, prop, k), Verdict)
    assert isinstance(verify_vertex(view, prop, k, {}), Verdict)


@functools.lru_cache(maxsize=None)
def _honest(name):
    """Honest labels of a small true statement, built once per test run."""
    if name == "C6":
        g, ir, prop, k = cycle_graph(6), None, "bipartite", 2
    else:
        g, ir = generate(GeneratorSpec("random-ops", 16, 3, 0.3), 0)
        prop, k = "parity", 3
    return g, prop, k, prove(g, prop, k, ir=ir)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(("C6", "ops16")))
def test_verify_total_on_replaced_section(data, name):
    g, prop, k, labels = _honest(name)
    e = data.draw(st.sampled_from(sorted(labels)))
    secs = read_sections(labels[e])
    i = data.draw(st.integers(0, len(secs) - 1))
    secs[i] = (secs[i][0], data.draw(bitstrings(secs[i][1].nbits + 16)))
    w = BitWriter()
    for stype, payload in secs:
        write_section(w, stype, payload)
    bad = dict(labels)
    bad[e] = w.getvalue()
    verdicts = verify_all(g, bad, prop, k)
    assert all(isinstance(v, Verdict) for v in verdicts.values())
    for view in local_views(g, bad):
        if view.vid in e:
            assert verify_vertex(view, prop, k) == verdicts[view.vid]


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    n=st.integers(2, 30),
    k=st.integers(1, 3),
    seed=st.integers(0, 10**6),
    prop=st.sampled_from(sorted(PLUGINS)),
)
def test_codec_roundtrips_prover_labels(family, n, k, seed, prop):
    try:
        g, ir = generate(GeneratorSpec(family, n, k, 0.3), seed)
    except GeneratorError:
        assume(False)
    labels = prove(g, prop, width(ir) - 1, ir=ir, force=True)
    for bits in labels.values():
        lab = decode_label(bits)
        again = encode_label(lab.n, lab.w, lab.tnodes, lab.routes)
        assert again == bits
        assert decode_label(again) == lab
