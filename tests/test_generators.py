import random

import pytest

from lanecert.generators import (
    FAMILIES,
    GeneratorError,
    GeneratorSpec,
    generate,
)
from lanecert.graph import is_connected
from lanecert.intervals import validate, width
from lanecert.properties import brute_force_property


def test_path_family():
    g, ir = generate(GeneratorSpec("path", 6), 0)
    assert list(g.edges) == [(i, i + 1) for i in range(5)]
    assert width(ir) == 2


def test_cycle_family():
    g, ir = generate(GeneratorSpec("cycle", 5), 0)
    assert len(g.edges) == 5
    assert all(len([e for e in g.edges if v in e]) == 2 for v in range(5))
    assert width(ir) == 3
    with pytest.raises(GeneratorError):
        generate(GeneratorSpec("cycle", 2), 0)


def test_caterpillar_family():
    for n in range(2, 20):
        g, ir = generate(GeneratorSpec("caterpillar", n), 0)
        assert len(g.edges) == n - 1
        assert is_connected(g)
        assert width(ir) <= 3
        assert brute_force_property(g, "acyclic", limit=n)
        if n % 2 == 0 and n <= 10:
            # Legs pair off with their spine vertices: a perfect matching.
            assert brute_force_property(g, "matching")


def test_grid_family():
    # r = k rows filled column by column; the witness keeps width k + 1
    # whatever n is, and the grid is bipartite.
    for k in (1, 2, 3, 4):
        for n in range(1, 3 * k + 5):
            g, ir = generate(GeneratorSpec("grid", n, k), 0)
            cols, last = divmod(n, k)
            assert len(g.edges) == (n - cols - (last > 0)) + max(0, n - k)
            assert is_connected(g)
            assert width(ir) == min(n, k + 1)
            if n <= 10:
                assert brute_force_property(g, "bipartite")
    with pytest.raises(GeneratorError):
        generate(GeneratorSpec("grid", 6, 0), 0)


def test_random_families_connected_and_witnessed():
    rng = random.Random(60)
    for _ in range(60):
        dense = rng.choice((False, True))
        k = rng.randrange(1, 4)
        n = rng.randrange(max(2, k + 1), 30)
        density = rng.choice((0.0, 0.2, 0.5))
        spec = GeneratorSpec("random-ops", n, k, 0.5 if dense else density)
        g, ir = generate(spec, rng.randrange(10**6))
        assert g.n == n
        assert is_connected(g)
        assert validate(g, ir) is None
        assert width(ir) <= k + 1


def test_determinism():
    rng = random.Random(61)
    for _ in range(20):
        spec = GeneratorSpec("random-ops", rng.randrange(3, 25), rng.randrange(1, 4))
        seed = rng.randrange(10**6)
        g1, ir1 = generate(spec, seed)
        g2, ir2 = generate(spec, seed)
        assert g1.edges == g2.edges and ir1.intervals == ir2.intervals


def test_density_zero_is_tree():
    g, ir = generate(GeneratorSpec("random-ops", 40, 3, 0.0), 7)
    assert len(g.edges) == g.n - 1
    assert brute_force_property(g, "acyclic", limit=g.n)


def test_random_ops_density_must_lie_below_one():
    # At density 1 every step tries an edge; once every lane pair is joined
    # the generator would loop for ever, so such densities are refused.
    for density in (1.0, 1.5, float("inf"), float("nan"), -0.1):
        with pytest.raises(GeneratorError):
            generate(GeneratorSpec("random-ops", 5, 3, density), 0)
    for density in (0.0, 0.99):
        g, ir = generate(GeneratorSpec("random-ops", 5, 3, density), 0)
        assert g.n == 5 and validate(g, ir) is None


def test_bad_specs():
    with pytest.raises(GeneratorError):
        generate(GeneratorSpec("moebius", 5), 0)
    with pytest.raises(GeneratorError):
        generate(GeneratorSpec("path", 0), 0)
    with pytest.raises(GeneratorError):
        generate(GeneratorSpec("random-ops", 2, 5), 0)
    assert "path" in FAMILIES
