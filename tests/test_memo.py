"""The verifier's per-run memo: the same verdicts as an uncached verifier,
and no decoded structure shared with callers of decode_label."""

import random

import pytest

from lanecert.certify import (
    SEC_HEADER,
    SEC_TNODE,
    all_accept,
    decode_label,
    encode_label,
    local_views,
    prove,
    verify_all,
    verify_vertex,
)
from lanecert.encoding import BitWriter, DecodeError, read_sections, write_section
from lanecert.fuzz import MUTATIONS, mutate
from lanecert.generators import GeneratorSpec, generate
from lanecert.graph import build_graph
from tests.test_graph import cycle_graph, path_graph

FALSE_STATEMENTS = {
    "C5-bipartite": (cycle_graph(5), "bipartite", 2),
    "C7-bipartite": (cycle_graph(7), "bipartite", 2),
    "C6-acyclic": (cycle_graph(6), "acyclic", 2),
    "C5-matching": (cycle_graph(5), "matching", 2),
    "chord6-acyclic": (
        build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3)]),
        "acyclic",
        2,
    ),
    "P5-parity": (path_graph(5), "parity", 1),
}


def _true_statements():
    """(graph, witness, property, k) of true statements whose labels carry
    route sections."""
    out = [(cycle_graph(6), None, "bipartite", 2)]
    for family, n, k, prop in (
        ("random-ops", 16, 3, "parity"),
        ("random-ops", 20, 2, "parity"),
        ("caterpillar", 12, 1, "acyclic"),
    ):
        g, ir = generate(GeneratorSpec(family, n, k, 0.3), 0)
        out.append((g, ir, prop, k))
    return out


@pytest.mark.parametrize("name", sorted(FALSE_STATEMENTS))
def test_memo_verdicts_equal_uncached(name):
    g, prop, k = FALSE_STATEMENTS[name]
    base = prove(g, prop, k, force=True)
    rng = random.Random(name)
    for mutation in MUTATIONS:
        for _ in range(4):
            labels = mutate(base, mutation, rng)
            uncached = {
                view.vid: verify_vertex(view, prop, k) for view in local_views(g, labels)
            }
            assert verify_all(g, labels, prop, k) == uncached, mutation


def test_decode_label_results_are_unshared():
    # Mutate everything decode_label returns; the labels themselves, and a
    # fresh run of the verifier over them, must not notice.
    for g, ir, prop, k in _true_statements():
        labels = prove(g, prop, k, ir=ir)
        for bits in labels.values():
            lab = decode_label(bits)
            for sec in lab.tnodes:
                sec.basic.t_in.clear()
                sec.basic.t_out[0] = 0
                sec.dist += 1
                sec.elem.children = ()
            for rs in lab.routes:
                rs.fwd += 1
            lab.tnodes.reverse()
            assert encode_label(lab.n, lab.w, lab.tnodes, lab.routes) != bits
        assert all_accept(verify_all(g, labels, prop, k))


def test_honest_labels_reencode_exactly():
    for g, ir, prop, k in _true_statements():
        memo = {}
        for bits in prove(g, prop, k, ir=ir).values():
            for lab in (decode_label(bits), decode_label(bits, memo)):
                assert encode_label(lab.n, lab.w, lab.tnodes, lab.routes) == bits


def _decodes(bits, memo=None) -> bool:
    try:
        decode_label(bits, memo)
    except DecodeError:
        return False
    return True


def test_memo_keeps_sections_apart_by_n():
    # The T-node sections of honest labels under a header with n = 5 (ids
    # still 3 bits wide): some name a vertex >= 5 and must fail to decode,
    # even from a memo filled under the honest n.
    for g, prop, k in ((cycle_graph(6), "bipartite", 2), (path_graph(8), "acyclic", 1)):
        labels = prove(g, prop, k)
        memo = {}
        for bits in labels.values():
            decode_label(bits, memo)
        failing = 0
        for bits in labels.values():
            hw = BitWriter()
            hw.write_varint(5)
            hw.write_varint(decode_label(bits).w)
            w = BitWriter()
            write_section(w, SEC_HEADER, hw.getvalue())
            for stype, payload in read_sections(bits):
                if stype == SEC_TNODE:
                    write_section(w, stype, payload)
            small = w.getvalue()
            assert _decodes(small, memo) == _decodes(small)
            failing += not _decodes(small)
        assert failing > 0
