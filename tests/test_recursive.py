import random

import pytest

from lanecert.graph import build_graph, edge_key
from lanecert.intervals import Interval, IntervalRepresentation
from lanecert.lanes import LanePartition, completion
from lanecert.recursive import (
    EInsert,
    OpError,
    OpSequence,
    VInsert,
    VLeaf,
    apply_op_sequence,
    build_hierarchical_decomposition,
    completion_to_op_sequence,
    dump_decomposition,
    op_sequence_to_completion,
)


def random_op_sequence(rng, k=None, max_ops=20, density=0.3):
    k = k or rng.randrange(1, 5)
    nxt = k
    ops = []
    tau = list(range(k))
    edges = {edge_key(a, b) for a, b in zip(range(k), range(1, k))}
    for _ in range(rng.randrange(0, max_ops)):
        if k >= 2 and rng.random() < density:
            i, j = rng.sample(range(1, k + 1), 2)
            e = edge_key(tau[i - 1], tau[j - 1])
            if e in edges:
                continue
            edges.add(e)
            ops.append(EInsert(i, j))
        else:
            lane = rng.randrange(1, k + 1)
            ops.append(VInsert(lane, nxt))
            edges.add(edge_key(tau[lane - 1], nxt))
            tau[lane - 1] = nxt
            nxt += 1
    return OpSequence(k, tuple(range(k)), tuple(ops))


def test_apply_examples():
    s = OpSequence(2, (0, 1), ())
    g = apply_op_sequence(s)
    assert g.edges == frozenset({(0, 1)})

    s = OpSequence(2, (0, 1), (VInsert(1, 2),))
    g = apply_op_sequence(s)
    assert g.edges == frozenset({(0, 1), (0, 2)})

    s = OpSequence(2, (0, 1), (VInsert(1, 2), EInsert(1, 2)))
    g = apply_op_sequence(s)
    assert g.edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_apply_rejects():
    with pytest.raises(OpError):
        apply_op_sequence(OpSequence(2, (0, 1), (VInsert(1, 0),)))
    with pytest.raises(OpError):
        apply_op_sequence(OpSequence(2, (0, 1), (EInsert(1, 1),)))
    with pytest.raises(OpError):
        apply_op_sequence(OpSequence(2, (0, 1), (EInsert(1, 2),)))  # duplicate
    with pytest.raises(OpError):
        apply_op_sequence(OpSequence(2, (0, 1), (VInsert(3, 2),)))


def test_op_sequence_to_completion_examples():
    gp, iv, lanes = op_sequence_to_completion(OpSequence(2, (0, 1), ()))
    assert gp == frozenset()
    assert iv[0] == Interval(0, 0) and iv[1] == Interval(0, 0)
    assert lanes == [[0], [1]]

    gp, iv, lanes = op_sequence_to_completion(
        OpSequence(2, (0, 1), (VInsert(1, 2),))
    )
    assert iv[0] == Interval(0, 0)
    assert iv[2] == Interval(1, 1)
    assert iv[1] == Interval(0, 1)


def to_triple(s):
    gp, iv, lanes = op_sequence_to_completion(s)
    n = len(iv)
    g = build_graph(n, gp)
    ir = IntervalRepresentation([iv[v] for v in range(n)])
    return g, ir, LanePartition(lanes)


def test_completion_round_trip():
    rng = random.Random(30)
    for _ in range(500):
        s = random_op_sequence(rng)
        applied = apply_op_sequence(s)
        g, ir, lp = to_triple(s)
        c = completion(g, ir, lp)
        assert c.edges == applied.edges


def test_completion_to_op_sequence_trivial():
    g = build_graph(3, [])
    ir = IntervalRepresentation([Interval(0, 0)] * 3)
    lp = LanePartition([[0], [1], [2]])
    s = completion_to_op_sequence(g, ir, lp)
    assert s.ops == () and s.initial == (0, 1, 2)


def test_op_sequence_inverse():
    rng = random.Random(31)
    for _ in range(200):
        s = random_op_sequence(rng)
        applied = apply_op_sequence(s)
        g, ir, lp = to_triple(s)
        s2 = completion_to_op_sequence(g, ir, lp)
        assert apply_op_sequence(s2).edges == applied.edges


def test_build_decomposition_base():
    hd = build_hierarchical_decomposition(OpSequence(2, (0, 1), ()))
    assert hd.root.root_element.kind == "P"
    assert hd.root.edges == frozenset({(0, 1)})
    assert hd.depth_stats() == (2, 0)


def test_build_decomposition_random():
    rng = random.Random(33)
    for _ in range(300):
        s = random_op_sequence(rng, max_ops=25)
        applied = apply_op_sequence(s)
        hd = build_hierarchical_decomposition(s)
        edges = hd.root.edges
        vertices = {v for e in edges for v in e} | set(s.initial)
        assert edges == applied.edges
        assert vertices == set(applied.vertices)
        depth, bnodes = hd.depth_stats()
        assert depth <= 2 * s.k
        assert bnodes <= max(0, s.k - 1)
        # Realized fragments must be connected.
        adj = {}
        for u, v in edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        seen = {s.initial[0]}
        stack = list(seen)
        while stack:
            v = stack.pop()
            for w in adj.get(v, []):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert seen == vertices
        # Fold order: elements by eid, each after everything it contains;
        # nested T-nodes before the T-nodes that contain them.
        node_pos = {id(t): p for p, t in enumerate(hd.nodes)}
        for i, el in enumerate(hd.elements):
            assert el.eid == i
            for c in el.children:
                assert c.eid < el.eid and c.parent_eid == el.eid
            if el.kind == "B":
                for side in (el.payload.left, el.payload.right):
                    if not isinstance(side, VLeaf):
                        assert side.root_element.eid < el.eid
                        assert side.root_element.parent_eid is None
        for t in hd.nodes:
            for el in t.elements():
                if el.kind == "B":
                    for side in (el.payload.left, el.payload.right):
                        if not isinstance(side, VLeaf):
                            assert node_pos[id(side)] < node_pos[id(t)]
        assert hd.root.root_element.parent_eid is None
        assert hd.root.root_element is hd.elements[-1]


def test_node_edge_sets_disjoint():
    rng = random.Random(34)
    for _ in range(100):
        s = random_op_sequence(rng, max_ops=20)
        hd = build_hierarchical_decomposition(s)
        seen = {}

        def walk_t(t):
            for el in t.elements():
                for e in el.edges if el.kind != "B" else []:
                    assert e not in seen
                    seen[e] = el.eid
                if el.kind == "B":
                    d = el.payload
                    e = d.bridge
                    assert e not in seen
                    seen[e] = el.eid
                    for child in (d.left, d.right):
                        if not isinstance(child, VLeaf):
                            walk_t(child)

        walk_t(hd.root)
        assert set(seen) == set(hd.root.edges)


def test_dump_smoke():
    s = OpSequence(2, (0, 1), (VInsert(1, 2), EInsert(1, 2)))
    text = dump_decomposition(build_hierarchical_decomposition(s))
    assert "TNode" in text and "PNode" in text
