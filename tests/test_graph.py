import itertools
import random

import pytest

from lanecert.encoding import Bits
from lanecert.graph import (
    GraphError,
    build_graph,
    connected_components,
    degeneracy_orientation,
    edge_labels_to_vertex_labels,
    exact_pathwidth,
    id_bits,
    is_connected,
    read_graph_file,
    vertex_labels_to_edge_labels,
    write_graph_file,
)


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return build_graph(n, list(itertools.combinations(range(n), 2)))


def star_graph(n):
    return build_graph(n, [(0, i) for i in range(1, n)])


def test_build_graph_basic():
    g = path_graph(3)
    assert g.n == 3 and g.edges == ((0, 1), (1, 2))
    g1 = build_graph(1, [])
    assert g1.n == 1 and g1.m == 0
    c6 = cycle_graph(6)
    assert c6.m == 6 and (0, 5) in c6.edge_set()


def test_build_graph_rejects():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        build_graph(3, [(0, 5)])
    with pytest.raises(GraphError):
        build_graph(3, [(0, 1), (1, 0)])


def brute_force_degeneracy(g):
    """Minimum outdegree bound over all acyclic orientations (orderings)."""
    best = g.n
    for order in itertools.permutations(range(g.n)):
        rank = {v: i for i, v in enumerate(order)}
        out = [0] * g.n
        for u, v in g.edges:
            tail = u if rank[u] < rank[v] else v
            out[tail] += 1
        best = min(best, max(out, default=0))
    return best


def test_degeneracy_path():
    assert degeneracy_orientation(path_graph(3)).d == 1


def test_degeneracy_cycle6_matches_bruteforce():
    g = cycle_graph(6)
    o = degeneracy_orientation(g)
    assert o.d == 2
    assert o.d == brute_force_degeneracy(g)


def test_degeneracy_k4():
    assert degeneracy_orientation(complete_graph(4)).d == 3


def test_orientation_acyclic_and_bounded():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(2, 9)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        g = build_graph(n, edges)
        o = degeneracy_orientation(g)
        out = {v: 0 for v in range(n)}
        succ = {v: [] for v in range(n)}
        for (tail, head) in o.direction.values():
            out[tail] += 1
            succ[tail].append(head)
        assert max(out.values(), default=0) <= o.d
        # Topological sort must succeed (acyclicity).
        indeg = {v: 0 for v in range(n)}
        for tail in succ:
            for head in succ[tail]:
                indeg[head] += 1
        queue = [v for v in range(n) if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for w in succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        assert seen == n


def quadratic_degeneracy_orientation(g):
    """The reference peel: scan every live vertex for the least (degree, id)
    at each step."""
    deg = [g.degree(v) for v in range(g.n)]
    removed = [False] * g.n
    order = []
    d = 0
    for _ in range(g.n):
        v = min((x for x in range(g.n) if not removed[x]), key=lambda x: (deg[x], x))
        d = max(d, deg[v])
        removed[v] = True
        order.append(v)
        for w in g.adj(v):
            if not removed[w]:
                deg[w] -= 1
    rank = {v: i for i, v in enumerate(order)}
    return {(u, v): (u, v) if rank[u] < rank[v] else (v, u) for u, v in g.edges}, d


def test_heap_peel_equals_quadratic_peel():
    from lanecert.generators import GeneratorSpec, generate

    rng = random.Random(4)
    graphs = []
    for _ in range(40):
        n = rng.randrange(1, 40)
        p = rng.choice((0.05, 0.2, 0.5))
        graphs.append(build_graph(n, [e for e in itertools.combinations(range(n), 2)
                                      if rng.random() < p]))
    for k in (1, 2, 3):
        for seed in range(5):
            graphs.append(generate(GeneratorSpec("random-ops", 200, k, 0.3), seed)[0])
    for g in graphs:
        o = degeneracy_orientation(g)
        assert (o.direction, o.d) == quadratic_degeneracy_orientation(g)


def test_pathwidth_closed_forms():
    assert exact_pathwidth(path_graph(10))[0] == 1
    assert exact_pathwidth(cycle_graph(6))[0] == 2
    assert exact_pathwidth(complete_graph(5))[0] == 4
    assert exact_pathwidth(star_graph(7))[0] == 1
    for n in range(2, 9):
        assert exact_pathwidth(complete_graph(n))[0] == n - 1


def test_pathwidth_witness_is_valid_decomposition():
    from lanecert.intervals import PathDecomposition, validate_decomposition

    rng = random.Random(4)
    for _ in range(30):
        n = rng.randrange(1, 9)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        g = build_graph(n, edges)
        w, bags = exact_pathwidth(g)
        pd = PathDecomposition(bags)
        assert validate_decomposition(g, pd) is None
        assert max(len(b) for b in pd.bags) - 1 == w


def test_pathwidth_size_guard():
    with pytest.raises(GraphError):
        exact_pathwidth(path_graph(17))


def test_connected_components():
    assert connected_components(path_graph(3)) == [[0, 1, 2]]
    g = build_graph(4, [(0, 1), (2, 3)])
    assert connected_components(g) == [[0, 1], [2, 3]]
    c6_minus = build_graph(6, [(1, 2), (4, 5)])
    assert connected_components(c6_minus) == [[0], [1, 2], [3], [4, 5]]
    assert is_connected(cycle_graph(5))
    assert not is_connected(g)


def test_edge_vertex_label_transform_single_edge():
    g = build_graph(2, [(0, 1)])
    o = degeneracy_orientation(g)
    labels = {(0, 1): Bits(0b101, 3)}
    vlabels = edge_labels_to_vertex_labels(g, o, labels)
    tail, head = o.direction[(0, 1)]
    # The tail holds the tagged label; the head holds an empty list.
    assert vertex_labels_to_edge_labels(g, {tail: vlabels[tail]}) == labels
    assert vertex_labels_to_edge_labels(g, {head: vlabels[head]}) == {}


def test_edge_vertex_label_transform_lossless_and_bounded():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(2, 10)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        g = build_graph(n, edges)
        o = degeneracy_orientation(g)
        labels = {}
        for e in g.edges:
            nbits = rng.randrange(0, 24)
            labels[e] = Bits(rng.getrandbits(nbits) if nbits else 0, nbits)
        vlabels = edge_labels_to_vertex_labels(g, o, labels)
        assert vertex_labels_to_edge_labels(g, vlabels) == labels
        max_edge = max((b.nbits for b in labels.values()), default=0)
        for v in range(n):
            bound = o.d * (max_edge + 2 * id_bits(n) + 10) + 10
            assert vlabels[v].nbits <= bound


def test_graph_file_roundtrip():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)], {1: 2}, {(1, 2): 1})
    g2 = read_graph_file(write_graph_file(g))
    assert g2.n == g.n and g2.edges == g.edges
    assert g2.vertex_inputs == g.vertex_inputs
    assert g2.edge_inputs == g.edge_inputs


def test_graph_file_rejects_bad_count():
    with pytest.raises(GraphError):
        read_graph_file("2 2\n0 1\n")
