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
    Layout,
    decode_label,
    encode_label,
    local_views,
    prove,
    read_layout,
    verify_all,
    verify_vertex,
    write_layout,
)
from lanecert.encoding import (
    Bits,
    BitReader,
    BitWriter,
    DecodeError,
    read_sections,
    read_term,
    write_sections,
    write_term,
)
from lanecert.generators import FAMILIES, GeneratorError, GeneratorSpec, generate
from lanecert.graph import edge_key
from lanecert.intervals import width
from lanecert.properties import HomClass
from tests.test_certify import ALL_PROPS, _relayed_parts
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
    return write_sections(secs)


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
    elif name == "matching":
        g, ir = generate(GeneratorSpec("random-ops", 12, 3, 0.3), 1)
        prop, k = "matching", width(ir) - 1
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
    bad = dict(labels)
    bad[e] = write_sections(secs)
    verdicts = verify_all(g, bad, prop, k)
    assert all(isinstance(v, Verdict) for v in verdicts.values())
    for view in local_views(g, bad):
        if view.vid in e:
            assert verify_vertex(view, prop, k) == verdicts[view.vid]


@functools.lru_cache(maxsize=None)
def _derived_sites(name):
    """(edge, route, index) of the payloads in _honest(name)'s label layouts
    of T-node sections that derive a table entry: a nested section of the
    own chain whose record is its node's root element (route None, index
    its chain position), or one that a route's frames hold (the route's
    position, index the frame's)."""
    g, prop, k, labels = _honest(name)
    sites = []
    for e, bits in sorted(labels.items()):
        for pos, sec in enumerate(decode_label(bits).tnodes):
            if pos and sec.elem.eid == sec.node_eid:
                sites.append((e, None, pos))
        for j, (_, chain, q) in enumerate(_relayed_parts(bits)):
            for pos in range(max(q, 1), len(chain)):
                if chain[pos].elem.eid == chain[pos].node_eid:
                    sites.append((e, j, pos - q))
    assert sites
    return sites


@settings(max_examples=80, deadline=None)
@given(data=st.data(), name=st.sampled_from(("C6", "ops16")))
def test_verify_total_on_derived_section_edits(data, name):
    # One to three bits flipped inside a section that derives a table entry
    # (its record, in the own chain or a relayed chain's frames): every
    # vertex gives a verdict, and an endpoint's verdict does not depend on
    # the memo.
    g, prop, k, labels = _honest(name)
    e, j, i = data.draw(st.sampled_from(_derived_sites(name)))
    lay = read_layout(labels[e])
    payloads = lay.tnodes if j is None else lay.routes[j].frames
    payload = payloads[i]
    flips = data.draw(st.lists(st.integers(0, payload.nbits - 1), min_size=1, max_size=3))
    value = payload.value
    for pos in flips:
        value ^= 1 << (payload.nbits - 1 - pos)
    payloads[i] = Bits(value, payload.nbits)
    bad = {**labels, e: write_layout(lay)}
    verdicts = verify_all(g, bad, prop, k)
    assert all(isinstance(v, Verdict) for v in verdicts.values())
    for view in local_views(g, bad):
        if view.vid in e:
            assert verify_vertex(view, prop, k) == verdicts[view.vid]
            assert verify_vertex(view, prop, k, {}) == verdicts[view.vid]


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    bits=st.one_of(bitstrings(400), framed_garbage()),
    name=st.sampled_from(("C6", "ops16")),
)
def test_read_layout_is_total(data, bits, name):
    # Arbitrary bitstrings, and honest labels with one to three bits
    # flipped: read_layout returns a layout or raises DecodeError.
    labels = _honest(name)[3]
    honest = labels[data.draw(st.sampled_from(sorted(labels)))]
    flips = data.draw(st.lists(st.integers(0, honest.nbits - 1), min_size=1, max_size=3, unique=True))
    flipped = Bits(honest.value ^ sum(1 << pos for pos in flips), honest.nbits)
    for label in (bits, flipped):
        try:
            assert isinstance(read_layout(label), Layout)
        except DecodeError:
            pass


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    n=st.integers(2, 30),
    k=st.integers(1, 3),
    seed=st.integers(0, 10**6),
    prop=st.sampled_from(sorted(ALL_PROPS)),
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


@st.composite
def packed_terms(draw):
    """Bitstrings that start as a tuple term: tag 1, a count and a width
    (often the width of the field that follows, sometimes not), then
    random bits."""
    count = draw(st.integers(0, 40))
    width = draw(st.integers(0, 20))
    w = BitWriter()
    w.write_bit(1)
    w.write_varint(count)
    w.write_varint(draw(st.sampled_from((width, width + 1, max(width - 1, 0), 1 << 40))))
    w.write_bits(draw(bitstrings(count * width + 8)))
    return w.getvalue()


@settings(max_examples=300, deadline=None)
@given(bits=st.one_of(bitstrings(), packed_terms()))
def test_read_term_total_with_one_wire_form(bits):
    # Any bitstring reads as a term or raises DecodeError; a term read is
    # an int or a flat tuple of ints, and writing it gives back exactly the
    # bits it was read from.
    r = BitReader(bits)
    try:
        t = read_term(r)
    except DecodeError:
        return
    assert isinstance(t, int) or all(isinstance(e, int) and e >= 0 for e in t)
    w = BitWriter()
    write_term(w, t)
    used = bits.nbits - r.remaining()
    assert w.getvalue() == Bits(bits.value >> r.remaining(), used)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(("C6", "matching")),
)
def test_verify_total_on_packed_term_lies(data, name):
    # A table entry's class term replaced by an arbitrary packed term, in
    # every label that carries it: every vertex still gives a verdict, and
    # an endpoint's verdict does not depend on the shared memo.
    g, prop, k, labels = _honest(name)
    e = data.draw(st.sampled_from(sorted(labels)))
    lab = decode_label(labels[e])
    target = data.draw(st.sampled_from(lab.tnodes)).basic
    n_atoms = len(target.cls.atoms)
    term = tuple(data.draw(st.lists(st.integers(0, (1 << (n_atoms + 1)) - 1), max_size=12)))
    bad = {}
    for edge, bits in labels.items():
        lab = decode_label(bits)
        for sec in lab.tnodes:
            if sec.basic == target:
                sec.basic.cls = HomClass(sec.basic.cls.atoms, term)
        bad[edge] = encode_label(lab.n, lab.w, lab.tnodes, lab.routes)
    verdicts = verify_all(g, bad, prop, k)
    assert all(isinstance(v, Verdict) for v in verdicts.values())
    for view in local_views(g, bad):
        if view.vid in e:
            assert verify_vertex(view, prop, k) == verdicts[view.vid]
