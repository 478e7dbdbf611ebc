"""End-to-end acceptance gate: scaled-down empirical checks of the headline
guarantees (lane bounds, decomposition shape, oracle equivalence, scheme
completeness and soundness, logarithmic label size, model transforms)."""

import functools
import random

from lanecert.bench import bench_label_size
from lanecert.certify import (
    all_accept,
    annotate_classes,
    prove,
    verify_all,
)
from lanecert.fuzz import fuzz_soundness
from lanecert.generators import GeneratorSpec, generate, random_ops_sequence
from lanecert.graph import (
    Graph,
    build_graph,
    degeneracy_orientation,
    edge_labels_to_vertex_labels,
    exact_pathwidth,
    id_bits,
    vertex_labels_to_edge_labels,
)
from lanecert.intervals import Interval, IntervalRepresentation, width
from lanecert.lanes import (
    LanePartition,
    build_lane_partition,
    completion,
    lane_bounds,
    measure_congestion,
)
from lanecert.properties import PLUGINS, brute_force_property
from lanecert.recursive import (
    apply_op_sequence,
    build_hierarchical_decomposition,
    op_sequence_to_completion,
)
from tests.test_graph import cycle_graph, path_graph, star_graph
from tests.test_lanes import random_interval_instance
from tests.test_recursive import random_op_sequence


# ---------------------------------------------------------------- criterion 1


def test_lane_and_congestion_bounds():
    rng = random.Random(100)
    seen = set()
    for trial in range(500):
        if trial % 50 == 0:
            # Width-1 coverage: a single vertex is the only connected case.
            g = build_graph(1, [])
            ir = IntervalRepresentation([Interval(0, 0)])
        else:
            g, ir = random_interval_instance(rng, max_n=13, max_width=3)
        k = width(ir)
        assert 1 <= k <= 3
        seen.add(k)
        f, gk, h = lane_bounds(k)
        lp, emb = build_lane_partition(g, ir)
        assert lp.k <= f, (k, lp.k)
        assert measure_congestion(emb, weak_only=True) <= gk
        assert measure_congestion(emb) <= h
    assert seen == {1, 2, 3}


# ---------------------------------------------------------------- criterion 2


def test_decomposition_depth_bounds():
    rng = random.Random(101)
    for trial in range(500):
        k = rng.randrange(1, 5)
        if trial < 5:
            n = 2000
        else:
            n = rng.randrange(k, 60)
        s = random_ops_sequence(rng, max(n, k), k, rng.random() * 0.5)
        hd = build_hierarchical_decomposition(s)
        nodes, bnodes = hd.depth_stats()
        assert nodes <= 2 * k
        assert bnodes <= max(0, k - 1)


# ---------------------------------------------------------------- criterion 3


def test_lanewidth_round_trip():
    rng = random.Random(102)
    for _ in range(500):
        s = random_op_sequence(rng, k=rng.randrange(1, 5), max_ops=25)
        applied = apply_op_sequence(s)
        gp, ivs, lanes = op_sequence_to_completion(s)
        n = len(ivs)
        g = build_graph(n, gp)
        ir = IntervalRepresentation([ivs[v] for v in range(n)])
        c = completion(g, ir, LanePartition(lanes))
        assert c.edges == applied.edges
        hd = build_hierarchical_decomposition(s)
        assert hd.root.edges == applied.edges


# ---------------------------------------------------------------- criterion 4


def test_oracle_equivalence_bulk():
    rng = random.Random(103)
    cases = 0
    while cases < 10_000:
        s = random_op_sequence(rng, k=rng.randrange(1, 4), max_ops=12)
        applied = apply_op_sequence(s)
        if len(applied.vertices) > 10:
            continue
        marks = {e: rng.randrange(0, 2) for e in applied.edges}
        g = build_graph(len(applied.vertices), applied.edges, {}, marks)
        hd = build_hierarchical_decomposition(s)
        for name, plugin in PLUGINS.items():
            # The property of every edge, then of the marked ones.
            for prop, folded in ((name, {e: 1 for e in marks}), ("marked-" + name, marks)):
                accepted = annotate_classes(hd, plugin, folded).accepted
                assert accepted == brute_force_property(g, prop), (prop, s)
                cases += 1
    assert cases >= 10_000


# ------------------------------------------------------------- criteria 5 + 9


def _even(rng, lo, hi):
    return 2 * rng.randrange((lo + 1) // 2, hi // 2 + 1)


def _satisfied_spec(prop, rng):
    """A (GeneratorSpec, k) whose instance satisfies prop by construction."""
    if prop == "parity":
        fam = rng.choice(("path", "cycle", "caterpillar", "random-ops"))
        n = _even(rng, 4, 56)
    elif prop == "bipartite":
        fam = rng.choice(("path", "cycle", "caterpillar", "random-ops"))
        n = _even(rng, 4, 56) if fam == "cycle" else rng.randrange(2, 56)
    elif prop == "acyclic":
        fam = rng.choice(("path", "caterpillar", "random-ops"))
        n = rng.randrange(2, 56)
    elif prop == "matching":
        fam = rng.choice(("path", "cycle", "caterpillar"))
        n = _even(rng, 4, 56)
    else:
        raise AssertionError(prop)
    density = 0.0 if fam == "random-ops" and prop in ("bipartite", "acyclic") else 0.3
    k = {"path": 1, "cycle": 2, "caterpillar": 2}.get(fam, rng.randrange(1, 4))
    return GeneratorSpec(fam, n, k, density), max(k, 2 if fam == "cycle" else k)


@functools.lru_cache(maxsize=1)
def _completeness_instances():
    """200 satisfied instances per property, with honest labels attached."""
    rng = random.Random(104)
    out = []
    for prop in ("parity", "bipartite", "acyclic", "matching"):
        for i in range(200):
            if i < 2:
                # Two large instances per property, n up to 2000.
                n = (1024, 2000)[i]
                fam = "caterpillar" if prop == "matching" else "path"
                spec = GeneratorSpec(fam, n, 2 if fam == "caterpillar" else 1)
                k = 2 if fam == "caterpillar" else 1
            else:
                spec, k = _satisfied_spec(prop, rng)
            g, ir = generate(spec, rng.randrange(10**6))
            labels = prove(g, prop, k, ir=ir)
            out.append((g, ir, prop, k, labels))
    return out


def test_completeness_at_scale():
    fams = set()
    for g, ir, prop, k, labels in _completeness_instances():
        assert all_accept(verify_all(g, labels, prop, k)), (prop, g.n)
    # The pool exercises every generator family used by the suite.
    rng = random.Random(104)
    for prop in ("parity", "bipartite", "acyclic", "matching"):
        for _ in range(200):
            fams.add(_satisfied_spec(prop, rng)[0].family)
    assert fams >= {"path", "cycle", "caterpillar", "random-ops"}


# ------------------------------------------------------------- criteria 6 + 9


def _unsatisfied_instances():
    """21 false statements across four properties."""
    out = []
    for n in (5, 7, 9):
        out.append((cycle_graph(n), "bipartite", 2))  # odd cycle
    for n in (3, 4, 5, 6, 7, 8):
        out.append((cycle_graph(n), "acyclic", 2))  # cyclic
    chord = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3)])
    out.append((chord, "acyclic", 2))
    out.append((chord, "bipartite", 2))
    for n in (3, 5, 7):
        out.append((path_graph(n), "matching", 1))  # odd order
    for n in (3, 5, 7):
        out.append((cycle_graph(n), "matching", 2))
    out.append((star_graph(5), "matching", 1))
    out.append((star_graph(7), "matching", 1))
    out.append((path_graph(5), "parity", 1))  # odd vertex count
    out.append((cycle_graph(7), "parity", 2))
    return out


def test_soundness_fuzz_at_scale():
    instances = _unsatisfied_instances()
    assert len(instances) >= 20
    for i, (g, prop, k) in enumerate(instances):
        assert not brute_force_property(g, prop)
        report = fuzz_soundness(g, prop, k, 10_000, seed=500 + i)
        assert not report.statement_true
        assert report.counterexamples == [], (prop, g.n, report.counterexamples)


# ---------------------------------------------------------------- criterion 7


def test_label_size_scaling():
    # The 3 x m grid keeps its lane count w fixed as n grows, where the
    # O(log n) bound applies; its sizes are smaller to keep the run short.
    for fam, prop, k, sizes in (
        ("cycle", "bipartite", 2, [100, 1000, 10000]),
        ("path", "acyclic", 1, [100, 1000, 10000]),
        ("grid", "bipartite", 3, [100, 300, 1000]),
    ):
        rows = bench_label_size(fam, sizes, prop, k)
        assert len({r.w for r in rows}) == 1, (fam, rows)
        ratios = [r.ratio for r in rows]
        # Empirical O(log n): the normalized size must not grow across the
        # sweep by more than 25% (it shrinks in practice as the additive
        # constant washes out).
        assert ratios[-1] <= 1.25 * ratios[0], (fam, ratios)
        assert max(ratios[1:]) <= 1.25 * ratios[0], (fam, ratios)


# ---------------------------------------------------------------- criterion 8


def test_pathwidth_oracle_sanity():
    for n in range(2, 11):
        assert exact_pathwidth(path_graph(n))[0] == 1
    for n in range(3, 11):
        assert exact_pathwidth(cycle_graph(n))[0] == 2
    import itertools

    for n in range(2, 9):
        kn = build_graph(n, list(itertools.combinations(range(n), 2)))
        assert exact_pathwidth(kn)[0] == n - 1
    for n in (2, 5, 9):
        assert exact_pathwidth(star_graph(n))[0] == 1


# ---------------------------------------------------------------- criterion 9


def _check_transform(g: Graph, prop: str, k: int, labels, expect_accept: bool):
    o = degeneracy_orientation(g)
    vlabels = edge_labels_to_vertex_labels(g, o, labels)
    back = vertex_labels_to_edge_labels(g, vlabels)
    assert back == labels
    assert all_accept(verify_all(g, back, prop, k)) == expect_accept
    if labels:
        max_edge = max(b.nbits for b in labels.values())
        framing = 8 * ((max_edge.bit_length() + 6) // 7)  # varint of the length
        budget = 8 + max(1, o.d) * (max_edge + 2 * id_bits(g.n) + framing)
        assert all(v.nbits <= budget for v in vlabels.values()), (g.n, o.d)


def test_transform_preserves_verdicts():
    for g, ir, prop, k, labels in _completeness_instances():
        if g.n > 300:
            continue  # the large instances are covered once below
        _check_transform(g, prop, k, labels, True)
    big = next(t for t in _completeness_instances() if t[0].n >= 1000)
    _check_transform(big[0], big[2], big[3], big[4], True)
    for g, prop, k in _unsatisfied_instances():
        labels = prove(g, prop, k, force=True)
        assert not all_accept(verify_all(g, labels, prop, k))
        _check_transform(g, prop, k, labels, False)
