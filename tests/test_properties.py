import dataclasses
import random

import pytest

from lanecert.certify import _recompute_sub, annotate_classes
from lanecert.graph import build_graph, edge_key
from lanecert.properties import (
    PLUGINS,
    HomClass,
    PropertyError,
    brute_force_property,
    get_plugin,
)
from lanecert.recursive import (
    EInsert,
    OpSequence,
    VInsert,
    apply_op_sequence,
    build_hierarchical_decomposition,
)
from tests.test_recursive import random_op_sequence


def hd_of(k, ops):
    return build_hierarchical_decomposition(OpSequence(k, tuple(range(k)), tuple(ops)))


def fold(hd, plugin, marks=None):
    """(root class, accepted); without marks, every edge is marked."""
    if marks is None:
        marks = {e: 1 for e in hd.root.edges}
    ann = annotate_classes(hd, plugin, marks)
    return ann.root.cls, ann.accepted


# Op sequences realizing a 6-cycle and a 5-cycle at k=2.
C6_OPS = [VInsert(2, 2), VInsert(2, 3), VInsert(1, 4), VInsert(1, 5), EInsert(1, 2)]
C5_OPS = [VInsert(2, 2), VInsert(1, 3), VInsert(1, 4), EInsert(1, 2)]


def path_hd(n):
    return hd_of(1, [VInsert(1, v) for v in range(1, n)])


def test_leaf_classes_frozen():
    bip = PLUGINS["bipartite"]
    c = bip.base_edge(3, 1)
    # Exactly the two proper colorings of one edge, as index sets.
    assert c.atoms == ((3, 1), (3, 2))
    assert c.term == ((0,), (1,))
    skipped = PLUGINS["marked-bipartite"].base_edge(3, 0)
    assert skipped.term == ((), (0,), (0, 1), (1,))

    par = PLUGINS["parity"]
    one = par.base_vleaf(1)
    two = par.base_edge(1, 1)
    assert one.term == 1 and two.term == 0
    assert par.compose_bridge(one, par.base_vleaf(2), 1, 2, 1).term == 0

    mat = PLUGINS["matching"]
    p3 = mat.base_path(3, [1, 1])
    # A 3-path: all exposed, or one matched edge leaving one endpoint exposed.
    assert p3.term == ((0,), (0, 1, 2), (2,))

    forest = PLUGINS["acyclic"]
    e = forest.base_edge(2, 1)
    assert e.term == ((0, 1),)


def test_simple_graphs():
    for name, hd, expect in [
        ("bipartite", hd_of(2, C6_OPS), True),
        ("bipartite", hd_of(2, C5_OPS), False),
        ("acyclic", hd_of(2, C6_OPS), False),
        ("acyclic", path_hd(5), True),
        ("matching", path_hd(4), True),
        ("matching", path_hd(3), False),
        ("parity", path_hd(4), True),
        ("parity", path_hd(5), False),
        ("matching", hd_of(2, C6_OPS), True),
        ("matching", hd_of(2, C5_OPS), False),
    ]:
        _, accepted = fold(hd, PLUGINS[name])
        assert accepted == expect, name


def test_marked_variant_ignores_unmarked_edges():
    hd = hd_of(2, C6_OPS)
    g = apply_op_sequence(OpSequence(2, (0, 1), tuple(C6_OPS)))
    marks = {e: 1 for e in g.edges}
    # Drop one cycle edge from the marked subgraph: becomes acyclic.
    marks[edge_key(0, 1)] = 0
    assert fold(hd, PLUGINS["marked-acyclic"], marks)[1]
    assert not fold(hd, PLUGINS["acyclic"], marks)[1]


def test_get_plugin():
    assert get_plugin("marked-matching").marked
    with pytest.raises(PropertyError):
        get_plugin("planarity")


def graph_with_marks(s, marks):
    applied = apply_op_sequence(s)
    n = len(applied.vertices)
    return build_graph(n, applied.edges, {}, marks)


def test_oracle_agreement():
    rng = random.Random(40)
    for _ in range(250):
        s = random_op_sequence(rng, k=rng.randrange(1, 4), max_ops=9)
        applied = apply_op_sequence(s)
        marks = {e: rng.randrange(0, 2) for e in applied.edges}
        g = graph_with_marks(s, marks)
        hd = build_hierarchical_decomposition(s)
        for name, plugin in PLUGINS.items():
            _, accepted = fold(hd, plugin, marks)
            assert accepted == brute_force_property(g, name), (name, s)


def test_fold_order_independent():
    # Folding a record's children in any order gives the same subtree info.
    rng = random.Random(41)
    for _ in range(60):
        s = random_op_sequence(rng, max_ops=15)
        hd = build_hierarchical_decomposition(s)
        marks = {e: rng.randrange(0, 2) for e in apply_op_sequence(s).edges}
        for p in PLUGINS.values():
            ann = annotate_classes(hd, p, marks)
            for rec in ann.records.values():
                for _ in range(3):
                    kids = list(rec.children)
                    rng.shuffle(kids)
                    permuted = dataclasses.replace(rec, children=tuple(kids))
                    assert _recompute_sub(permuted, p, {}) == ann.sub[rec.eid]


def append_suffix(prefix: OpSequence, suffix_ops):
    """Append abstract suffix ops, remapping fresh vertex ids past the prefix."""
    applied = apply_op_sequence(prefix)
    nxt = max(applied.vertices) + 1
    ops = list(prefix.ops)
    for op in suffix_ops:
        if isinstance(op, VInsert):
            ops.append(VInsert(op.lane, nxt))
            nxt += 1
        else:
            ops.append(op)
    return OpSequence(prefix.k, prefix.initial, tuple(ops))


def test_class_congruence():
    # Fragments with equal classes are interchangeable in any context: if two
    # prefixes have the same root class, extending both with the same suffix
    # yields the same acceptance.
    rng = random.Random(42)
    matched = 0
    for _ in range(400):
        k = rng.randrange(2, 4)
        p1 = random_op_sequence(rng, k=k, max_ops=8)
        p2 = random_op_sequence(rng, k=k, max_ops=8)
        suffix = random_op_sequence(rng, k=k, max_ops=6).ops
        try:
            e1 = append_suffix(p1, suffix)
            e2 = append_suffix(p2, suffix)
            g1, g2 = apply_op_sequence(e1), apply_op_sequence(e2)
        except Exception:
            continue  # suffix invalid for one prefix; skip the pair
        h1, h2 = (build_hierarchical_decomposition(p) for p in (p1, p2))
        x1, x2 = (build_hierarchical_decomposition(e) for e in (e1, e2))
        for name, plugin in PLUGINS.items():
            if plugin.marked:
                continue
            if fold(h1, plugin)[0] == fold(h2, plugin)[0]:
                matched += 1
                assert fold(x1, plugin)[1] == fold(x2, plugin)[1], name
    assert matched > 100


def test_annotate_covers_all_elements():
    rng = random.Random(43)
    s = random_op_sequence(rng, k=3, max_ops=20)
    hd = build_hierarchical_decomposition(s)
    ann = annotate_classes(hd, PLUGINS["bipartite"], {e: 1 for e in hd.root.edges})
    eids = set()
    stack = [hd.root]
    while stack:
        t = stack.pop()
        for el in t.elements():
            eids.add(el.eid)
            if el.kind == "B":
                for child in (el.payload.left, el.payload.right):
                    if hasattr(child, "root_element"):
                        stack.append(child)
    assert set(ann.records) == eids and set(ann.sub) == eids
    assert [el.eid for el in hd.elements] == sorted(eids)
    assert ann.root == ann.sub[hd.root.root_element.eid]


def test_validate_class_rejects_garbage():
    bip = PLUGINS["bipartite"]
    with pytest.raises(PropertyError):
        bip.accepts(HomClass(((1, 1),), ((0,),)))  # lone "in" role
    with pytest.raises(PropertyError):
        bip.accepts(HomClass(((1, 0),), ((4,),)))  # index out of range
    with pytest.raises(PropertyError):
        PLUGINS["acyclic"].accepts(HomClass(((1, 0),), ()))  # not a cover
    with pytest.raises(PropertyError):
        PLUGINS["parity"].accepts(HomClass(((1, 0),), 7))
    bip.accepts(bip.base_edge(1, 1))


def test_brute_force_guards():
    g = build_graph(12, [])
    with pytest.raises(PropertyError):
        brute_force_property(g, "parity")
    with pytest.raises(PropertyError):
        brute_force_property(build_graph(2, []), "unknown")
    assert brute_force_property(build_graph(2, [(0, 1)]), "matching")
    assert not brute_force_property(
        build_graph(2, [(0, 1)], {}, {(0, 1): 0}), "marked-matching"
    )
