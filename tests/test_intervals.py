import itertools
import random

import pytest

from lanecert.graph import build_graph, exact_pathwidth
from lanecert.intervals import (
    Interval,
    IntervalError,
    IntervalRepresentation,
    PathDecomposition,
    decomposition_to_intervals,
    greedy_lane_split,
    read_interval_file,
    validate,
    width,
    write_interval_file,
)
from tests.test_graph import cycle_graph, path_graph


def c6_intervals():
    """A width-3 interval representation of the 6-cycle."""
    return IntervalRepresentation(
        [
            Interval(0, 4),
            Interval(0, 1),
            Interval(1, 2),
            Interval(2, 3),
            Interval(3, 4),
            Interval(4, 4),
        ]
    )


def test_interval_basic():
    with pytest.raises(IntervalError):
        Interval(3, 2)
    assert Interval(1, 3).intersects(Interval(3, 5))
    assert not Interval(1, 2).intersects(Interval(3, 5))
    assert Interval(1, 2).precedes(Interval(3, 5))
    assert not Interval(1, 3).precedes(Interval(3, 5))


def test_validate():
    g = cycle_graph(6)
    assert validate(g, c6_intervals()) is None
    p2 = path_graph(2)
    bad = IntervalRepresentation([Interval(0, 0), Interval(2, 3)])
    v = validate(p2, bad)
    assert v is not None and v.edge == (0, 1)
    single = build_graph(1, [])
    assert validate(single, IntervalRepresentation([Interval(5, 9)])) is None


def test_width():
    assert width(c6_intervals()) == 3
    disjoint = IntervalRepresentation([Interval(2 * i, 2 * i) for i in range(5)])
    assert width(disjoint) == 1
    tri = IntervalRepresentation([Interval(1, 3), Interval(2, 5), Interval(4, 6)])
    assert width(tri) == 2


def test_decomposition_to_intervals_forced():
    g = path_graph(3)
    pd = PathDecomposition([[0, 1], [1, 2]])
    ir = decomposition_to_intervals(g, pd)
    assert ir[0] == Interval(1, 1)
    assert ir[1] == Interval(1, 2)
    assert ir[2] == Interval(2, 2)


def test_decomposition_rejects_p2_violation():
    g = path_graph(3)
    pd = PathDecomposition([[0, 1], [1, 2], [0, 2]])
    with pytest.raises(IntervalError):
        decomposition_to_intervals(g, pd)


def random_valid_decomposition(rng):
    """Random graph with its pathwidth witness decomposition."""
    n = rng.randrange(1, 9)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
    g = build_graph(n, edges)
    w, bags = exact_pathwidth(g)
    return g, PathDecomposition(bags)


def test_round_trip_preserves_width():
    rng = random.Random(10)
    for _ in range(50):
        g, pd = random_valid_decomposition(rng)
        ir = decomposition_to_intervals(g, pd)
        assert validate(g, ir) is None
        assert width(ir) == max(len(b) for b in pd.bags)


def test_pathwidth_matches_min_interval_width():
    # Over all graphs on 5 vertices: pathwidth + 1 equals the width of the
    # interval representation induced by the witness decomposition, and no
    # narrower valid representation exists (spot-checked via the oracle).
    for mask in range(1 << 10):
        edges = [
            e
            for i, e in enumerate(itertools.combinations(range(5), 2))
            if mask >> i & 1
        ]
        if len(edges) > 6:
            continue
        g = build_graph(5, edges)
        w, bags = exact_pathwidth(g)
        ir = decomposition_to_intervals(g, PathDecomposition(bags))
        assert width(ir) == w + 1


def test_greedy_lane_split_examples():
    tri = [Interval(1, 3), Interval(2, 5), Interval(4, 6)]
    lanes = greedy_lane_split(tri)
    assert lanes == [0, 1, 0]
    disjoint = [Interval(2 * i, 2 * i) for i in range(6)]
    assert set(greedy_lane_split(disjoint)) == {0}
    clique = [Interval(-1, 1) for _ in range(4)]
    assert sorted(greedy_lane_split(clique)) == [0, 1, 2, 3]


def test_greedy_lane_split_properties():
    rng = random.Random(11)
    for _ in range(100):
        ivs = []
        for _ in range(rng.randrange(1, 30)):
            lo = rng.randrange(0, 40)
            ivs.append(Interval(lo, lo + rng.randrange(0, 10)))
        lanes = greedy_lane_split(ivs)
        w = width(IntervalRepresentation(ivs))
        assert max(lanes) + 1 == w
        by_lane = {}
        for idx, lane in enumerate(lanes):
            by_lane.setdefault(lane, []).append(ivs[idx])
        for group in by_lane.values():
            group.sort()
            for a, b in zip(group, group[1:]):
                assert a.precedes(b)


def test_interval_file_roundtrip():
    ir = c6_intervals()
    assert read_interval_file(write_interval_file(ir), 6).intervals == ir.intervals


def test_interval_file_refuses_duplicate_and_stray_lines():
    # n = 2: a second line of vertex 0, and lines of vertices 7 and -1,
    # each after two good lines; the error names the line.
    for bad in ("0 1 2", "7 0 0", "-1 3 3"):
        with pytest.raises(IntervalError, match=repr(bad)):
            read_interval_file("0 0 1\n1 1 2\n%s\n" % bad, 2)
