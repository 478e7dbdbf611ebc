"""Label-size benchmarks across instance sizes.

Measures the maximum per-edge certificate size for a family at increasing n
and reports the ratio against log2(n), which should stay flat when the
scheme meets its logarithmic size target, and the lane count w from the
label header: the bound is O(log n) for a fixed w, so a ratio that grows
with w (as on random-ops, where w climbs toward f) is read against it.
Each row also splits the mean label into its sections (SECTIONS), as
``label_size_stats`` counts them.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from .certify import decode_label, label_size_stats, prove
from .generators import GeneratorSpec, generate


# The parts of a label, in wire order; framing is the section headers.
SECTIONS = ("header", "basic", "tnode", "route", "framing")


@dataclass(frozen=True)
class BenchRow:
    family: str
    n: int
    w: int  # lanes, as the labels' header gives it (0 without labels)
    edges: int
    max_bits: int
    mean_bits: float
    ratio: float  # max_bits / log2(n)
    mean_bits_by_section: Dict[str, float]  # over SECTIONS


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
        by_section = {
            name: stats.per_section.get(name, 0) / max(1, stats.count) for name in SECTIONS
        }
        rows.append(
            BenchRow(family, n, w, len(labels), stats.max_bits, stats.mean_bits, ratio, by_section)
        )
    return rows
