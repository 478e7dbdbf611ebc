"""Soundness fuzzing: try to make every vertex accept a false statement.

The campaign starts from the strongest base available (honest prover output,
forced even when the statement is false) and applies structured mutations:
bit flips, section deletion, section swaps between edges, whole-label swaps,
route-rank perturbation, and fully random labels.  An all-accept verdict on
a false statement is a counterexample and fails the build.

``FuzzReport.reasons`` says which check killed each mutant: for every
mutation, the number of trials per reject reason of the first rejecting
vertex, with ``"all-accept"`` for trials no vertex rejected (on a false
statement, its counterexamples).

A mutant differs from its base in a few labels, so one campaign keeps one
verifier memo for all its trials (see ``certify.any_reject``): the base
labels are decoded and folded once per campaign, not once per trial, and
each distinct vertex view is verified once per campaign, so a trial checks
only the views its mutant changed.  Route edits go through the label's
layout (``certify.read_layout``): one route's head is edited and the layout
written back, every other field as it was read.
"""

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .certify import CertifyError, any_reject, read_layout, write_layout
from .certify import prove_forced as prove  # perfbench traces fuzz.prove
from .encoding import Bits, DecodeError, read_sections, write_sections
from .graph import Edge, Graph
from .intervals import IntervalRepresentation

MUTATIONS = (
    "bitflip",
    "delete-section",
    "swap-section",
    "swap-labels",
    "route-rank",
    "random-labels",
    "replay",
)


@dataclass
class FuzzReport:
    seed: int
    trials: int = 0
    all_accepts: int = 0
    rejects: int = 0
    statement_true: bool = False
    counterexamples: List[int] = field(default_factory=list)
    reasons: Dict[str, Dict[str, int]] = field(default_factory=dict)


def _flip_bits(bits: Bits, rng: random.Random) -> Bits:
    if bits.nbits == 0:
        return Bits(rng.getrandbits(8), 8)
    v = bits.value
    for _ in range(rng.randrange(1, 9)):
        v ^= 1 << rng.randrange(bits.nbits)
    return Bits(v, bits.nbits)


def _sections_of(bits: Bits):
    try:
        return read_sections(bits)
    except DecodeError:
        return None


def _delete_section(bits: Bits, rng: random.Random) -> Bits:
    secs = _sections_of(bits)
    if not secs:
        return _flip_bits(bits, rng)
    del secs[rng.randrange(len(secs))]
    return write_sections(secs)


def _swap_section(a: Bits, b: Bits, rng: random.Random):
    sa, sb = _sections_of(a), _sections_of(b)
    if not sa or not sb:
        return _flip_bits(a, rng), b
    ia = rng.randrange(len(sa))
    ib = rng.randrange(len(sb))
    sa[ia], sb[ib] = sb[ib], sa[ia]
    return write_sections(sa), write_sections(sb)


def _perturb_route(bits: Bits, rng: random.Random) -> Bits:
    """bits with one route section's ranks or endpoints edited in its
    layout; a label that does not frame gets a bit flip instead."""
    try:
        lay = read_layout(bits)
    except DecodeError:
        return _flip_bits(bits, rng)
    if not lay.routes:
        return _flip_bits(bits, rng)
    rs = lay.routes[rng.randrange(len(lay.routes))]
    which = rng.randrange(3)
    if which == 0:
        rs.fwd = max(1, rs.fwd + rng.choice((-1, 1)))
    elif which == 1:
        rs.bwd = max(1, rs.bwd + rng.choice((-1, 1)))
    else:
        rs.u, rs.v = rs.v, rs.u
    return write_layout(lay)


def _random_label(rng: random.Random) -> Bits:
    nb = rng.randrange(0, 160)
    return Bits(rng.getrandbits(nb) if nb else 0, nb)


def mutate(labels: Dict[Edge, Bits], mutation: str, rng: random.Random) -> Dict[Edge, Bits]:
    """A mutant of labels."""
    out = dict(labels)
    edges = sorted(out)
    if not edges:
        return out
    e = rng.choice(edges)
    if mutation == "bitflip":
        for _ in range(rng.randrange(1, 4)):
            e = rng.choice(edges)
            out[e] = _flip_bits(out[e], rng)
    elif mutation == "delete-section":
        out[e] = _delete_section(out[e], rng)
    elif mutation == "swap-section":
        e2 = rng.choice(edges)
        out[e], out[e2] = _swap_section(out[e], out[e2], rng)
    elif mutation == "swap-labels":
        e2 = rng.choice(edges)
        out[e], out[e2] = out[e2], out[e]
    elif mutation == "route-rank":
        out[e] = _perturb_route(out[e], rng)
    elif mutation == "random-labels":
        for e2 in edges:
            if rng.random() < 0.5:
                out[e2] = _random_label(rng)
    elif mutation == "replay":
        pass  # unmutated base labels (honest replay of the forced prover)
    else:
        raise ValueError("unknown mutation %r" % mutation)
    return out


def fuzz_soundness(
    g: Graph,
    prop_name: str,
    k: int,
    trials: int,
    seed: int,
    ir: Optional[IntervalRepresentation] = None,
    donors: Optional[List[Dict[Edge, Bits]]] = None,
) -> FuzzReport:
    """Mutation campaign; counterexamples are all-accept runs on a false
    statement.  donors, if given, are extra base labelings (e.g. honest
    labels of a different instance) thrown into the pool."""
    rng = random.Random(seed)
    report = FuzzReport(seed=seed)
    try:
        # On a true statement the forced labels are the unforced ones.
        base, report.statement_true = prove(g, prop_name, k, ir=ir)
    except CertifyError:
        base = {e: _random_label(rng) for e in g.edges}
    pool = [base] + list(donors or [])
    cache: dict = {}
    for trial in range(trials):
        mutation = MUTATIONS[trial % len(MUTATIONS)]
        labels = mutate(rng.choice(pool), mutation, rng)
        report.trials += 1
        verdict = any_reject(g, labels, prop_name, k, cache)
        reason = "all-accept" if verdict is None else verdict.reason
        counts = report.reasons.setdefault(mutation, {})
        counts[reason] = counts.get(reason, 0) + 1
        if verdict is not None:
            report.rejects += 1
        else:
            report.all_accepts += 1
            if not report.statement_true:
                report.counterexamples.append(trial)
    return report
