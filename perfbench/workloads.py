"""The lanecert benchmark's workloads, its timed loop and its correctness gates.

Every workload has the same shape.  A *plan* holds a cert set (statements that
are proved and verified) and a pool of false statements (fuzzed by
``fuzz_soundness``).  One *round* proves and verifies the cert set, then runs
one soundness campaign per pool statement.  Rounds repeat until the run's time
is spent; every round does identical work, so per-round counts are exact.

Workloads:

- ``cycle-k2``: cycle n = 1000, k = 2, bipartite.  Small labels (~4.6 kbit),
  few distinct classes composed thousands of times: the fold-memoization and
  decode-once workload.  Its pool is six odd cycles, 105 trials each.
- ``ops-k3-wide``: random-ops n = 1000, k = 3, density 0.3, parity, generator
  seed 0.  18 lanes, labels up to 126 kbit, a trivial fold: the codec and
  route-relay workload, which fold memoization should barely move.  Its
  pool is six random-ops instances of odd order (n = 9 .. 19, k = 3), 105
  trials each.
- ``fuzz-small``: the 21 false statements of the acceptance suite (n <= 9),
  105 trials each per round.  Each trial verifies about one vertex, so it
  measures per-call overhead on the reject path.  Its cert set is the pool
  itself: forced labels on a false statement must be rejected somewhere.

Instances are fixed; ``--seed`` drives the fuzz campaign seeds and the
corrupted edge.  A seed-dependent instance would move label sizes and times
with the seed, and the spread over seeds is what the benchmark's bounds are
checked against.

Sizes are chosen so that a run holds at least two rounds.  On a shared
2-core machine the speed of the same code swings by up to 2x, over seconds
and over minutes, in CPU time as much as in wall time.  Times are therefore
reported at a reference speed, measured by the ``Probe`` below: a fixed
pure-Python loop that calls nothing of lanecert, run from a timer signal
while the operations run, so that a change to lanecert moves the operations
and not the probe.
"""

import gc
import hashlib
import random
import resource
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from lanecert import certify, fuzz
from lanecert.certify import CertifyError, LocalView, label_size_stats
from lanecert.encoding import read_sections
from lanecert.generators import GeneratorSpec, generate
from lanecert.graph import Graph, build_graph, edge_key
from lanecert.intervals import IntervalRepresentation
from lanecert.lanes import build_lane_partition, lane_bounds, measure_congestion
from lanecert.properties import brute_force_property
from lanecert.recursive import build_hierarchical_decomposition, completion_to_op_sequence

from tracer import Tracer

SETUP_REPEATS = 25
clock = time.perf_counter

# The probe's unit time at the reference speed: roughly its median on a
# 2-core Intel Xeon VM under Python 3.11, so that scaled times stay close to
# that machine's seconds.
REFERENCE_UNIT_S = 0.00033
PROBE_PERIOD_S = 0.0015  # one probe unit per period while a round runs
SETUP_PROBE_UNITS = 8  # probe units after each set-up build


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _probe_unit() -> int:
    """One unit of fixed pure-Python work of the kinds lanecert does: tuple
    keys in a dict, integer shifts, small slotted objects, a keyed sort."""
    seen = {}
    acc = 0
    cells = []
    for i in range(250):
        k = (i * 7919) % 1021
        key = (k, i & 15)
        seen[key] = seen.get(key, 0) + 1
        acc ^= (((i << 40) | k) >> 3) & 0xFFFF
        cells.append(_Cell(k, i))
    cells.sort(key=lambda c: c.key)
    return acc + sum(c.value for c in cells[::3]) + len(seen)


class Probe:
    """Samples the machine's speed while timed operations run.

    While armed, a timer signal runs one probe unit every PROBE_PERIOD_S and
    books its time to the phase of the operation that was running
    (``prove``, ``verify``, ``fuzz``; ``between`` outside any).  ``time``
    subtracts the probe's time from the operation's, so each phase's time is
    scaled by the speed seen while that phase ran.  Set-up builds are too
    short to be sampled so; ``after`` runs units right after each one.
    """

    def __init__(self):
        self.units: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self.busy = 0.0  # time spent in the signal handler
        self._phase = "between"
        self._old_handler = None

    def _unit(self, phase: str) -> None:
        # The collector stays off, so that the probe's time does not depend
        # on how many objects lanecert keeps alive.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            _probe_unit()
            t = clock() - t0
        finally:
            if enabled:
                gc.enable()
        self.units[phase] = self.units.get(phase, 0) + 1
        self.seconds[phase] = self.seconds.get(phase, 0.0) + t

    def _on_timer(self, signum, frame) -> None:
        t0 = clock()
        self._unit(self._phase)
        self.busy += clock() - t0

    def arm(self) -> None:
        self._old_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def time(self, phase: str, fn: Callable, *args, **kwargs):
        """Call ``fn``; return (its result, its time without the probe's)."""
        self._phase = phase
        busy = self.busy
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t = clock() - t0 - (self.busy - busy)
            self._phase = "between"
        return result, t

    def after(self, phase: str) -> None:
        for _ in range(SETUP_PROBE_UNITS):
            self._unit(phase)

    def slowdown(self, phase: Optional[str] = None) -> float:
        """Mean unit time (of one phase, or of all phases when it has none)
        over the reference unit time: above 1 on a slow machine."""
        phases = [phase] if self.units.get(phase) else list(self.units)
        seconds = sum(self.seconds[p] for p in phases)
        return seconds / sum(self.units[p] for p in phases) / REFERENCE_UNIT_S


@dataclass
class Statement:
    desc: str
    g: Graph
    ir: Optional[IntervalRepresentation]  # None: prove searches a witness
    prop: str
    k: int
    holds: bool


@dataclass
class Plan:
    cert: List[Statement]
    pool: List[Statement]
    trials: int  # fuzz trials per pool statement per round
    seed: int


def _generated(family, n, k, prop, holds, gen_seed=0) -> Statement:
    g, ir = generate(GeneratorSpec(family, n, k, 0.3), gen_seed)
    return Statement("%s n=%d" % (family, n), g, ir, prop, k, holds)


def _cycle_k2(seed: int, tiny: bool) -> Plan:
    cert = [_generated("cycle", 60 if tiny else 1000, 2, "bipartite", True)]
    pool = [_generated("cycle", n, 2, "bipartite", False) for n in (5, 7, 9, 11, 13, 15)]
    return Plan(cert, pool, 7 if tiny else 105, seed)


def _ops_k3_wide(seed: int, tiny: bool) -> Plan:
    cert = [_generated("random-ops", 60 if tiny else 1000, 3, "parity", True)]
    pool = [_generated("random-ops", n, 3, "parity", False) for n in (9, 11, 13, 15, 17, 19)]
    return Plan(cert, pool, 7 if tiny else 105, seed)


def _cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def _path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def _star(n):
    return build_graph(n, [(0, i) for i in range(1, n)])


def unsatisfied_statements() -> List[Statement]:
    """The acceptance suite's 21 false statements, copied so that the
    benchmark does not import the tests."""
    out = []

    def add(desc, g, prop, k):
        out.append(Statement(desc, g, None, prop, k, False))

    for n in (5, 7, 9):
        add("C%d" % n, _cycle(n), "bipartite", 2)
    for n in (3, 4, 5, 6, 7, 8):
        add("C%d" % n, _cycle(n), "acyclic", 2)
    chord = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3)])
    add("chord6", chord, "acyclic", 2)
    add("chord6", chord, "bipartite", 2)
    for n in (3, 5, 7):
        add("P%d" % n, _path(n), "matching", 1)
    for n in (3, 5, 7):
        add("C%d" % n, _cycle(n), "matching", 2)
    add("S5", _star(5), "matching", 1)
    add("S7", _star(7), "matching", 1)
    add("P5", _path(5), "parity", 1)
    add("C7", _cycle(7), "parity", 2)
    return out


def _fuzz_small(seed: int, tiny: bool) -> Plan:
    pool = unsatisfied_statements()
    if tiny:
        pool = pool[::5]
    return Plan(pool, pool, 7 if tiny else 105, seed)


WORKLOADS: Dict[str, Callable[[int, bool], Plan]] = {
    "cycle-k2": _cycle_k2,
    "ops-k3-wide": _ops_k3_wide,
    "fuzz-small": _fuzz_small,
}


# --- one round ----------------------------------------------------------------


@dataclass
class Round:
    seconds: float
    prove_s: float
    verify_s: float
    fuzz_s: float
    cert_ops: int
    cert_failed: int
    trials: int
    counterexamples: int
    statement_true: int  # campaigns whose statement the prover accepted
    labels: List[Optional[dict]]


def _prove(st: Statement):
    try:
        return certify.prove(st.g, st.prop, st.k, ir=st.ir, force=not st.holds)
    except CertifyError:
        return None


def run_round(plan: Plan, probe: Probe) -> Round:
    """One round.  Its times leave out the probe's, if it is armed."""
    # Calls go through the module attributes so that an installed Tracer
    # sees them.
    start = clock()
    busy = probe.busy
    prove_s = verify_s = fuzz_s = 0.0
    failed = 0
    labels_out = []
    for st in plan.cert:
        labels, t = probe.time("prove", _prove, st)
        prove_s += t
        labels_out.append(labels)
        if labels is None:
            failed += 1
            continue
        verdicts, t = probe.time("verify", certify.verify_all, st.g, labels, st.prop, st.k)
        verify_s += t
        if certify.all_accept(verdicts) != st.holds:
            failed += 1
    trials = cex = stmt_true = 0
    for i, st in enumerate(plan.pool):
        rep, t = probe.time("fuzz", fuzz.fuzz_soundness, st.g, st.prop, st.k, plan.trials,
                            _fuzz_seed(plan, i), ir=st.ir)
        fuzz_s += t
        trials += rep.trials
        cex += len(rep.counterexamples)
        stmt_true += rep.statement_true
    return Round(clock() - start - (probe.busy - busy), prove_s, verify_s, fuzz_s,
                 len(plan.cert), failed, trials, cex, stmt_true, labels_out)


def _fuzz_seed(plan: Plan, i: int) -> int:
    return plan.seed * 1000 + i


# --- gates ----------------------------------------------------------------------


def statement_gate(plan: Plan) -> List[str]:
    """Every statement's truth by the brute-force oracle matches the plan."""
    errors = []
    for st in plan.cert + plan.pool:
        if brute_force_property(st.g, st.prop, limit=st.g.n) != st.holds:
            errors.append("%s %s: oracle disagrees with the plan" % (st.desc, st.prop))
    return errors


def corruption_gate(st: Statement, labels: dict, seed: int) -> dict:
    """Corrupt one label and require a reject at one of its endpoints.

    The corrupted label stays well formed: only the root section's terminal
    on its lowest lane moves to another vertex.  Every other vertex keeps the
    view it accepted, so a reject must come from the edge's endpoints; the
    endpoint with another incident edge sees two different root sections.
    """
    rng = random.Random(seed)
    e = rng.choice(sorted(labels))
    lab = certify.decode_label(labels[e])
    root = lab.tnodes[0].basic
    lane = min(root.t_in)
    root.t_in[lane] = (root.t_in[lane] + 1 + rng.randrange(st.g.n - 1)) % st.g.n
    bad = dict(labels)
    bad[e] = certify.encode_label(lab.n, lab.w, lab.tnodes, lab.routes)
    reasons = {}
    for v in e:
        incident = [edge_key(v, u) for u in st.g.adj(v)]
        view = LocalView(v, st.g.vertex_tag(v), {x: bad[x] for x in incident},
                         {x: st.g.edge_tag(*x) for x in incident})
        reasons[v] = certify.verify_vertex(view, st.prop, st.k).reason
    return {"edge": list(e), "reasons": {str(v): r for v, r in reasons.items()},
            "rejected": any(r != "-" for r in reasons.values())}


# --- records --------------------------------------------------------------------


def label_record(cert: List[Statement], labels: List[Optional[dict]]) -> dict:
    count = total = worst = 0
    per = {}
    sha = hashlib.sha256()
    for st, lab in zip(cert, labels):
        if lab is None:
            continue
        s = label_size_stats(lab)
        count += s.count
        total += s.total_bits
        worst = max(worst, s.max_bits)
        for name, bits in s.per_section.items():
            per[name] = per.get(name, 0) + bits
        sha.update(certify.write_label_file(lab).encode())
    return {
        "max_bits": worst,
        "mean_bits": total / max(1, count),
        "mean_bits_by_section": {k: v / max(1, count) for k, v in sorted(per.items())},
        "sha256": sha.hexdigest(),
    }


def bound_slack(st: Statement, labels: dict) -> dict:
    """How close each paper bound came to breaking on this instance.  f, g
    and h are ``lane_bounds(k + 1)``; the rest are the limits ``prove`` and
    ``depth_stats`` are held to."""
    lp, emb = build_lane_partition(st.g, st.ir)
    f, gk, h = lane_bounds(st.k + 1)
    hd = build_hierarchical_decomposition(completion_to_op_sequence(st.g, st.ir, lp))
    depth, bdepth = hd.depth_stats()
    chain = routes = 0
    for bits in labels.values():
        types = [t for t, _ in read_sections(bits)]
        chain = max(chain, types.count(certify.SEC_TNODE))
        routes = max(routes, types.count(certify.SEC_ROUTE))
    w = lp.k  # lane count: the decomposition's k
    rows = {
        "lanes_vs_f": (w, f),
        "weak_congestion_vs_g": (measure_congestion(emb, weak_only=True), gk),
        "full_congestion_vs_h": (measure_congestion(emb), h),
        "depth_vs_2_lanes": (depth, 2 * w),
        "b_depth_vs_lanes_minus_1": (bdepth, max(0, w - 1)),
        "chain_length_vs_2_lanes": (chain, 2 * max(1, w)),
        "route_sections_per_edge_vs_h": (routes, h),
    }
    return {name: {"value": v, "limit": lim, "slack": lim - v} for name, (v, lim) in rows.items()}


def mutation_table(plan: Plan) -> Dict[str, Dict[str, int]]:
    """Reject reason per mutation over one round's campaigns (untimed)."""
    tracer = Tracer()
    tracer.install()
    try:
        for i, st in enumerate(plan.pool):
            fuzz.fuzz_soundness(st.g, st.prop, st.k, plan.trials, _fuzz_seed(plan, i), ir=st.ir)
    finally:
        tracer.uninstall()
    return {m: dict(sorted(c.items())) for m, c in sorted(tracer.mutation_reasons.items())}


# --- a whole run ------------------------------------------------------------------


def timed_rounds(plan: Plan, seconds: float, tracer: Optional[Tracer], probe: Probe):
    """Run rounds until ``seconds`` have passed.  Returns (untraced rounds,
    traced rounds, rounds whose labels differ from the first round's).

    No round starts that would end after the deadline, judged by the last
    round's length, but at least one runs (one of each kind when traced).  A
    traced run alternates untraced and traced rounds, so that the difference
    of their medians is the tracing overhead.  Only the first round keeps its
    labels."""
    plain: List[Round] = []
    traced: List[Round] = []
    mismatched = 0
    began = clock()
    last = 0.0
    while clock() - began + last <= seconds or not plain or (tracer and not traced):
        gc.collect()  # every round starts from the same collector state
        round_began = clock()
        if tracer and len(traced) < len(plain):
            tracer.install()
            try:
                latest = run_round(plan, probe)
            finally:
                tracer.uninstall()
            traced.append(latest)
        elif tracer:
            latest = run_round(plan, probe)
            plain.append(latest)
        else:
            probe.arm()
            try:
                latest = run_round(plan, probe)
            finally:
                probe.disarm()
            plain.append(latest)
        last = clock() - round_began
        if latest is not plain[0]:
            mismatched += latest.labels != plain[0].labels
            latest.labels = None
    return plain, traced, mismatched


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload.  Returns (metrics, attempted, failed, correct, report,
    tracer); metrics maps name -> (value, unit)."""
    build = WORKLOADS[name]
    probe = Probe()
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = clock()
        plan = build(seed, tiny)
        setups.append(clock() - t0)
        probe.after("setup")
    errors = statement_gate(plan)

    tracer = Tracer() if trace else None
    plain, traced, mismatched = timed_rounds(plan, seconds, tracer, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rounds = plain + traced
    cert_failed = sum(r.cert_failed for r in rounds)
    cex = sum(r.counterexamples for r in rounds)
    if mismatched:
        errors.append("labels differ from the first round's in %d rounds" % mismatched)
    if cert_failed:
        errors.append("%d cert operations failed" % cert_failed)
    if cex:
        errors.append("%d fuzz counterexamples" % cex)
    if any(r.statement_true for r in rounds):
        errors.append("the prover accepted a false pool statement")
    first = plain[0].labels
    corruption = {}
    slack = {}
    for st, lab in zip(plan.cert, first):
        if st.holds and lab is not None:
            corruption[st.desc] = c = corruption_gate(st, lab, seed)
            if not c["rejected"]:
                errors.append("corrupted label accepted on %s" % st.desc)
            slack[st.desc] = bound_slack(st, lab)
    labels = label_record(plan.cert, first)

    med = statistics.median
    trials = sum(r.trials for r in plain)
    unscaled = {
        "setup_s": med(setups),
        "prove_s": statistics.mean(r.prove_s for r in plain),
        "verify_s": statistics.mean(r.verify_s for r in plain),
        "fuzz_trials_per_s": trials / sum(r.fuzz_s for r in plain),
    }
    # Times are means over the run's rounds at the reference speed: each
    # phase's mean is divided by the probe's slowdown while that phase ran.
    # The machine flips between a fast and a slow state every few seconds,
    # so per-round times fall in two clusters and a median of them jumps
    # between runs, while the mean and the probe weigh both states by the
    # time spent in each.  A traced run leaves the probe off and reports no
    # end-to-end metric.
    e2e = {}
    if not trace:
        e2e = {
            "setup_s": (unscaled["setup_s"] / probe.slowdown("setup"), "s"),
            "prove_s": (unscaled["prove_s"] / probe.slowdown("prove"), "s"),
            "verify_s": (unscaled["verify_s"] / probe.slowdown("verify"), "s"),
            "label_max_bits": (labels["max_bits"], "bits"),
            "label_mean_bits": (labels["mean_bits"], "bits"),
            "fuzz_trials_per_s": (unscaled["fuzz_trials_per_s"] * probe.slowdown("fuzz"), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    report = {
        "workload": name,
        "seed": seed,
        "e2e": {k: v for k, (v, _) in e2e.items()},
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "round_s": [r.seconds for r in plain],
        "prove_s_samples": [r.prove_s for r in plain],
        "verify_s_samples": [r.verify_s for r in plain],
        "fuzz_trials_per_s_samples": [r.trials / r.fuzz_s for r in plain],
        "setup_s_samples": setups,
        "unscaled": unscaled,
        "probe": {"units": probe.units,
                  "slowdown": {p: probe.slowdown(p) for p in sorted(probe.units)}},
        "cert_set": [st.desc for st in plan.cert],
        "pool": ["%s %s k=%d" % (st.desc, st.prop, st.k) for st in plan.pool],
        "trials_per_round": plain[0].trials,
        "label_sha256": labels["sha256"],
        "label_mean_bits_by_section": labels["mean_bits_by_section"],
        "corruption_gate": corruption,
        "bound_slack": slack,
        "reject_reason_by_mutation": mutation_table(plan),
        "errors": errors,
    }
    metrics = e2e
    if trace:
        metrics = tracer.summary(len(traced))
        for sec in ("header", "tnode", "route", "framing"):
            metrics["certify.label_bits." + sec] = (labels["mean_bits_by_section"].get(sec, 0.0), "bits")
        u = med(r.seconds for r in plain)
        t = med(r.seconds for r in traced)
        metrics["trace.overhead_s"] = (t - u, "s")
        metrics["trace.overhead_share"] = ((t - u) / u, "ratio")
        report["verify_vertex_reasons"] = {"%s %s" % k: c for k, c in sorted(tracer.reasons.items())}
    attempted = sum(r.cert_ops + r.trials for r in rounds)
    return metrics, attempted, cert_failed + cex, not errors, report, tracer
