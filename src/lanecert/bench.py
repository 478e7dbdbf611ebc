"""Label-size benchmarks across instance sizes.

Measures the maximum per-edge certificate size for a family at increasing n
and reports the ratio against log2(n), which should stay flat when the
scheme meets its logarithmic size target.
"""

import math
from dataclasses import dataclass
from typing import List, Sequence

from .certify import label_size_stats, prove
from .generators import GeneratorSpec, generate


@dataclass(frozen=True)
class BenchRow:
    family: str
    n: int
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
        rows.append(
            BenchRow(family, n, len(labels), stats.max_bits, stats.mean_bits, ratio)
        )
    return rows
