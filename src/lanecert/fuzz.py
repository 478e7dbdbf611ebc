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
only the views its mutant changed.  Route edits take the decoded label from
the same memo and edit a copy of the route section they change.
"""

import random
from copy import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .certify import (
    SEC_ROUTE,
    CertifyError,
    any_reject,
    decode_cached,
    reroute,
)
from .certify import prove_forced as prove  # perfbench traces fuzz.prove
from .encoding import Bits, BitWriter, DecodeError, read_sections, write_section
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


def _assemble(secs) -> Bits:
    w = BitWriter()
    for stype, payload in secs:
        write_section(w, stype, payload)
    return w.getvalue()


def _delete_section(bits: Bits, rng: random.Random) -> Bits:
    secs = _sections_of(bits)
    if not secs:
        return _flip_bits(bits, rng)
    del secs[rng.randrange(len(secs))]
    return _assemble(secs)


def _swap_section(a: Bits, b: Bits, rng: random.Random):
    sa, sb = _sections_of(a), _sections_of(b)
    if not sa or not sb:
        return _flip_bits(a, rng), b
    ia = rng.randrange(len(sa))
    ib = rng.randrange(len(sb))
    sa[ia], sb[ib] = sb[ib], sa[ia]
    return _assemble(sa), _assemble(sb)


def _perturb_route(bits: Bits, rng: random.Random, cache: Optional[dict]) -> Bits:
    """bits with one route section's ranks or endpoints edited.  With the
    campaign's cache, the decoded label is the one the verifier decoded (or
    will), shared, so the edit goes to a copy of the chosen route section
    and changes nothing cached; without one, a fresh memo lasts for this
    call.  Every other section, and the edited section's map and relayed
    chain, is framed again as it is, not re-encoded."""
    try:
        lab = decode_cached(bits, {} if cache is None else cache)
    except DecodeError:
        return _flip_bits(bits, rng)
    if not lab.routes:
        return _flip_bits(bits, rng)
    i = rng.randrange(len(lab.routes))
    rs = copy(lab.routes[i])
    which = rng.randrange(3)
    if which == 0:
        rs.fwd = max(1, rs.fwd + rng.choice((-1, 1)))
    elif which == 1:
        rs.bwd = max(1, rs.bwd + rng.choice((-1, 1)))
    else:
        rs.u, rs.v = rs.v, rs.u
    secs = read_sections(bits)
    at = [j for j, (stype, _) in enumerate(secs) if stype == SEC_ROUTE][i]
    secs[at] = (SEC_ROUTE, reroute(secs[at][1], rs, lab.n))
    return _assemble(secs)


def _random_label(rng: random.Random) -> Bits:
    nb = rng.randrange(0, 160)
    return Bits(rng.getrandbits(nb) if nb else 0, nb)


def mutate(
    labels: Dict[Edge, Bits],
    mutation: str,
    rng: random.Random,
    cache: Optional[dict] = None,
) -> Dict[Edge, Bits]:
    """A mutant of labels; cache, if given, is the campaign's verifier memo,
    used to decode routes.  It changes no mutant."""
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
        out[e] = _perturb_route(out[e], rng, cache)
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
        labels = mutate(rng.choice(pool), mutation, rng, cache)
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
