"""Seed-deterministic instance families with free width witnesses.

Every generator returns the graph together with an interval representation,
so the prover never has to search for one.  Random families are built from
random insertion-op sequences, whose witnesses come out of the replay.
"""

import random
from dataclasses import dataclass
from typing import Tuple

from .graph import Graph, build_graph, edge_key
from .intervals import Interval, IntervalRepresentation, validate
from .recursive import (
    EInsert,
    OpSequence,
    VInsert,
    apply_op_sequence,
    op_sequence_to_completion,
)

FAMILIES = ("path", "cycle", "caterpillar", "grid", "random-ops")


class GeneratorError(ValueError):
    pass


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    n: int
    k: int = 2
    density: float = 0.3


def _path(n: int) -> Tuple[Graph, IntervalRepresentation]:
    g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
    ir = IntervalRepresentation([Interval(i, i + 1) for i in range(n)])
    return g, ir


def _cycle(n: int) -> Tuple[Graph, IntervalRepresentation]:
    if n < 3:
        raise GeneratorError("cycles need n >= 3")
    g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    ir = IntervalRepresentation(
        [Interval(0, n - 2)] + [Interval(i - 1, i) for i in range(1, n)]
    )
    return g, ir


def _caterpillar(n: int) -> Tuple[Graph, IntervalRepresentation]:
    """Spine of even-indexed vertices, one leg per spine vertex (odd ids)."""
    edges = []
    ivs: list = [None] * n
    for v in range(n):
        if v % 2 == 0:
            if v >= 2:
                edges.append((v - 2, v))
            ivs[v] = Interval(v, min(v + 2, 2 * (n - 1)))
        else:
            edges.append((v - 1, v))
            ivs[v] = Interval(v, v)
    g = build_graph(n, edges)
    return g, IntervalRepresentation(ivs)


def _grid(n: int, r: int) -> Tuple[Graph, IntervalRepresentation]:
    """r rows filled column by column: vertex v is row v mod r of column
    v div r, joined to the next vertex of its column and to the same row of
    the next column.  Vertex v's interval is [v, min(v + r, n - 1)], so the
    width is at most r + 1 whatever n is; the graph is bipartite."""
    if r < 1:
        raise GeneratorError("grids need k >= 1 rows")
    edges = [(v, v + 1) for v in range(n - 1) if (v + 1) % r] + [(v, v + r) for v in range(n - r)]
    g = build_graph(n, edges)
    return g, IntervalRepresentation([Interval(v, min(v + r, n - 1)) for v in range(n)])


def random_ops_sequence(
    rng: random.Random, n: int, k: int, density: float
) -> OpSequence:
    """Random op sequence over k lanes growing the graph to n vertices."""
    if not 1 <= k <= n:
        raise GeneratorError("need 1 <= k <= n")
    if not 0 <= density < 1:
        # At density 1 every step tries an edge, and once every lane pair
        # is joined no step adds anything.
        raise GeneratorError("density must lie in [0, 1)")
    ops = []
    tau = list(range(k))
    edges = {edge_key(a, b) for a, b in zip(range(k), range(1, k))}
    nxt = k
    while nxt < n or (rng.random() < density and k >= 2):
        if k >= 2 and rng.random() < density:
            i, j = rng.sample(range(1, k + 1), 2)
            e = edge_key(tau[i - 1], tau[j - 1])
            if e in edges:
                if nxt >= n:
                    break
                continue
            edges.add(e)
            ops.append(EInsert(i, j))
        elif nxt < n:
            lane = rng.randrange(1, k + 1)
            ops.append(VInsert(lane, nxt))
            edges.add(edge_key(tau[lane - 1], nxt))
            tau[lane - 1] = nxt
            nxt += 1
        else:
            break
    return OpSequence(k, tuple(range(k)), tuple(ops))


def _from_ops(s: OpSequence) -> Tuple[Graph, IntervalRepresentation]:
    applied = apply_op_sequence(s)
    _, ivs, _ = op_sequence_to_completion(s)
    n = len(applied.vertices)
    g = build_graph(n, applied.edges)
    # Completion intervals stop one step before displacement; the pathwidth
    # witness must cover the displacement step so insertion edges overlap.
    total = len(s.ops)
    wit = [
        Interval(ivs[v].lo, ivs[v].hi if ivs[v].hi == total else ivs[v].hi + 1)
        for v in range(n)
    ]
    return g, IntervalRepresentation(wit)


def generate(
    spec: GeneratorSpec, seed: int
) -> Tuple[Graph, IntervalRepresentation]:
    """Deterministic (graph, witness) for the spec; witness always validates."""
    if spec.n < 1:
        raise GeneratorError("n must be positive")
    if spec.family == "path":
        g, ir = _path(spec.n)
    elif spec.family == "cycle":
        g, ir = _cycle(spec.n)
    elif spec.family == "caterpillar":
        g, ir = _caterpillar(spec.n)
    elif spec.family == "grid":
        g, ir = _grid(spec.n, spec.k)
    elif spec.family == "random-ops":
        rng = random.Random(seed)
        g, ir = _from_ops(random_ops_sequence(rng, spec.n, spec.k, spec.density))
    else:
        raise GeneratorError(
            "unknown family %r (one of %s)" % (spec.family, ", ".join(FAMILIES))
        )
    bad = validate(g, ir)
    if bad is not None:
        raise GeneratorError("generated witness does not validate: %s" % (bad,))
    return g, ir
