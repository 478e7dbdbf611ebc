"""Label-size benchmarks across instance sizes.

Measures the maximum per-edge certificate size for a family at increasing n
and reports the ratio against log2(n), which should stay flat when the
scheme meets its logarithmic size target, and the lane count w from the
label header: the bound is O(log n) for a fixed w, so a ratio that grows
with w (as on random-ops, where w climbs toward f) is read against it.
"""

import math
from dataclasses import dataclass
from typing import List, Sequence

from .certify import decode_label, label_size_stats, prove
from .generators import GeneratorSpec, generate


@dataclass(frozen=True)
class BenchRow:
    family: str
    n: int
    w: int  # lanes, as the labels' header gives it (0 without labels)
    edges: int
    max_bits: int
    mean_bits: float
    ratio: float  # max_bits / log2(n)


def bench_label_size(
    family: str,
    sizes: Sequence[int],
    prop_name: str,
    k: int,
    seed: int = 0,
) -> List[BenchRow]:
    rows = []
    for n in sizes:
        g, ir = generate(GeneratorSpec(family, n, k), seed)
        labels = prove(g, prop_name, k, ir=ir)
        stats = label_size_stats(labels)
        ratio = stats.max_bits / math.log2(n) if n > 1 else float(stats.max_bits)
        w = decode_label(next(iter(labels.values()))).w if labels else 0
        rows.append(
            BenchRow(family, n, w, len(labels), stats.max_bits, stats.mean_bits, ratio)
        )
    return rows
