import itertools
import random

import pytest

from lanecert.graph import GraphError, build_graph, edge_key
from lanecert.intervals import (
    Interval,
    IntervalRepresentation,
    width,
)
from lanecert.lanes import (
    Embedding,
    LaneError,
    LanePartition,
    build_lane_partition,
    completion,
    lane_bounds,
    measure_congestion,
    validate_lane_partition,
)
from tests.test_graph import cycle_graph, path_graph
from tests.test_intervals import c6_intervals


def test_lane_bounds():
    assert lane_bounds(1) == (1, 0, 0)
    assert lane_bounds(2) == (4, 6, 9)
    assert lane_bounds(3) == (18, 32, 49)
    with pytest.raises(LaneError):
        lane_bounds(0)


def staggered_path_intervals(n):
    return IntervalRepresentation([Interval(i, i + 1) for i in range(n)])


def test_completion_single_lane():
    g = build_graph(4, [])
    ir = IntervalRepresentation([Interval(i, i) for i in range(4)])
    lp = LanePartition([[0, 1, 2, 3]])
    c = completion(g, ir, lp)
    assert c.e1 == ((0, 1), (1, 2), (2, 3))
    assert c.e2 == ()


def test_completion_singleton_lanes():
    g = build_graph(3, [])
    ir = IntervalRepresentation([Interval(0, 0), Interval(0, 0), Interval(0, 0)])
    lp = LanePartition([[0], [1], [2]])
    c = completion(g, ir, lp)
    assert c.e1 == ()
    assert c.e2 == ((0, 1), (1, 2))


def test_completion_weak_flag_and_present():
    g = path_graph(3)
    ir = staggered_path_intervals(3)
    lp = LanePartition([[0, 2], [1]])
    full = completion(g, ir, lp)
    assert full.e2 == ((0, 1),)


def test_completion_rejects_bad_partition():
    g = path_graph(3)
    ir = staggered_path_intervals(3)
    with pytest.raises(LaneError):
        completion(g, ir, LanePartition([[0, 1], [2]]))  # [0,1] not ≺-ordered


def test_build_single_vertex():
    g = build_graph(1, [])
    ir = IntervalRepresentation([Interval(0, 3)])
    lp, emb = build_lane_partition(g, ir)
    assert lp.lanes == ((0,),)
    assert emb.routes == {}
    assert measure_congestion(emb) == 0


def check_instance(g, ir):
    """Run the construction and check every contracted bound."""
    k = width(ir)
    f, gg, h = lane_bounds(k)
    lp, emb = build_lane_partition(g, ir)
    assert validate_lane_partition(g, ir, lp) is None
    assert lp.k <= f
    assert measure_congestion(emb, weak_only=True) <= gg
    assert measure_congestion(emb) <= h
    c = completion(g, ir, lp)
    # Every virtual completion edge is routed between its endpoints in G.
    for e in (set(c.e1) | set(c.e2)) - g.edge_set():
        path = emb.routes[e]
        assert edge_key(path[0], path[-1]) == e
        for a, b in zip(path, path[1:]):
            assert edge_key(a, b) in g.edge_set()
    return lp, emb


def test_build_path_graph():
    for n in (2, 3, 7, 20):
        g = path_graph(n)
        lp, _ = check_instance(g, staggered_path_intervals(n))
        assert lp.k <= 4


def test_build_cycle_fig_intervals():
    check_instance(cycle_graph(6), c6_intervals())


def cycle_intervals(n):
    return IntervalRepresentation(
        [Interval(0, n - 2)] + [Interval(i - 1, i) for i in range(1, n)]
    )


def test_build_cycles():
    for n in (3, 4, 5, 6, 11, 30):
        g = cycle_graph(n)
        check_instance(g, cycle_intervals(n))


def test_build_rejects_disconnected():
    g = build_graph(2, [])
    ir = IntervalRepresentation([Interval(0, 0), Interval(0, 0)])
    with pytest.raises(GraphError):
        build_lane_partition(g, ir)


def test_build_rejects_invalid_intervals():
    g = path_graph(2)
    ir = IntervalRepresentation([Interval(0, 0), Interval(2, 2)])
    with pytest.raises(LaneError):
        build_lane_partition(g, ir)


def random_interval_instance(rng, max_n=14, max_width=3):
    """Random connected graph with a valid interval representation."""
    while True:
        n = rng.randrange(1, max_n)
        ivs = []
        for _ in range(n):
            lo = rng.randrange(0, 3 * n)
            ivs.append(Interval(lo, lo + rng.randrange(0, n)))
        ir = IntervalRepresentation(ivs)
        if width(ir) > max_width:
            continue
        # Use the full intersection graph, keeping only connected instances.
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if ivs[u].intersects(ivs[v])
        ]
        g = build_graph(n, edges)
        from lanecert.graph import is_connected

        if is_connected(g):
            return g, ir


def test_build_random_instances():
    rng = random.Random(20)
    for _ in range(200):
        g, ir = random_interval_instance(rng)
        check_instance(g, ir)


def test_measure_congestion_direct():
    emb = Embedding()
    assert measure_congestion(emb) == 0
    emb.add((0, 2), [0, 1, 2], "weak")
    emb.add((0, 3), [0, 1, 3], "weak")
    assert emb.congestion_map()[(0, 1)] == 2
    assert measure_congestion(emb) == 2
    with pytest.raises(LaneError):
        emb.add((0, 3), [0, 1, 2], "weak")  # route ends at 2, not 3
