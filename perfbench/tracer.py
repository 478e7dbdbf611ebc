"""In-memory span tracer that wraps lanecert entry points from the outside.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` rebinds each
entry point at the name its caller looks up (a module global such as
``lanecert.certify.decode_label``, or a class attribute such as
``PropertyPlugin.compose_bridge``) and ``Tracer.uninstall`` puts the
originals back.  Each call records one span: name, start, end, parent span
and *phase*, the nearest enclosing span whose name is one of ``PHASES``.
Spans are kept in flat arrays and written out once, at the end of the run.
"""

import time
from array import array
from collections import Counter, defaultdict

from lanecert import certify, fuzz
from lanecert.properties import PropertyPlugin

# (owner, attribute, span name).  The attribute is rebound on the owner, so
# only callers that look the name up there are traced: certify.prove is the
# benchmark's own call, fuzz.prove is the call fuzz_soundness makes.
ENTRY_POINTS = (
    (certify, "prove", "certify.prove"),
    (certify, "build_lane_partition", "lanes.build_lane_partition"),
    (certify, "completion_to_op_sequence", "recursive.completion_to_op_sequence"),
    (certify, "build_hierarchical_decomposition", "recursive.build_hierarchical_decomposition"),
    (certify, "annotate_classes", "properties.annotate_classes"),
    (certify, "encode_label", "certify.encode_label"),
    (certify, "verify_all", "certify.verify_all"),
    (certify, "verify_vertex", "certify.verify_vertex"),
    (certify, "decode_label", "certify.decode_label"),
    (certify, "get_plugin", "properties.get_plugin"),
    (PropertyPlugin, "compose_bridge", "properties.compose_bridge"),
    (PropertyPlugin, "compose_parent", "properties.compose_parent"),
    (fuzz, "fuzz_soundness", "fuzz.fuzz_soundness"),
    (fuzz, "prove", "fuzz.prove"),
    (fuzz, "mutate", "fuzz.mutate"),
    (fuzz, "any_reject", "fuzz.any_reject"),
)

PHASES = ("certify.prove", "fuzz.prove", "certify.verify_all", "fuzz.any_reject")

# Spans whose distinct arguments are counted (HomClass is hashable).
DISTINCT_ARGS = ("properties.compose_bridge", "properties.compose_parent", "properties.get_plugin")


class Tracer:
    def __init__(self):
        self.names = [name for _, _, name in ENTRY_POINTS]
        self._id = {name: i for i, name in enumerate(self.names)}
        self._phase_ids = {self._id[p] for p in PHASES}
        self.name = array("i")
        self.phase = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []  # open span indices
        self._saved = []
        self.distinct = defaultdict(set)
        self.bits_out = 0  # sum of encode_label result sizes
        self.edges_verified = 0  # sum of g.m over verify_all calls
        self.reasons = Counter()  # (phase name, Verdict.reason) of verify_vertex
        # Reject reason x mutation: fuzz_soundness runs one any_reject per
        # trial, in trial order, and picks MUTATIONS[trial % len(MUTATIONS)].
        self.mutation_reasons = defaultdict(Counter)
        self._trial = 0
        self._last_verdict = None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in ENTRY_POINTS:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _wrap(self, fn, name):
        nid = self._id[name]
        is_phase = nid in self._phase_ids
        distinct = self.distinct[name] if name in DISTINCT_ARGS else None
        after = {
            "certify.encode_label": self._after_encode_label,
            "certify.verify_all": self._after_verify_all,
            "certify.verify_vertex": self._after_verify_vertex,
            "fuzz.any_reject": self._after_any_reject,
            "fuzz.fuzz_soundness": self._after_fuzz_soundness,
        }.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.name)
            parent = stack[-1] if stack else -1
            self.name.append(nid)
            self.parent.append(parent)
            self.phase.append(nid if is_phase else (self.phase[parent] if parent >= 0 else -1))
            self.end.append(0.0)
            if distinct is not None:
                # A plugin instance is keyed by its name: get_plugin builds
                # fresh instances, and the question is which classes repeat.
                if args and isinstance(args[0], PropertyPlugin):
                    distinct.add((args[0].name,) + args[1:])
                else:
                    distinct.add(args)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- per-call counters ---------------------------------------------------

    def _after_encode_label(self, idx, args, result):
        self.bits_out += result.nbits

    def _after_verify_all(self, idx, args, result):
        self.edges_verified += args[0].m

    def _after_verify_vertex(self, idx, args, result):
        ph = self.phase[idx]
        self.reasons[(self.names[ph] if ph >= 0 else "-", result.reason)] += 1
        self._last_verdict = result

    def _after_any_reject(self, idx, args, result):
        mutation = fuzz.MUTATIONS[self._trial % len(fuzz.MUTATIONS)]
        reason = self._last_verdict.reason if result else "all-accept"
        self.mutation_reasons[mutation][reason] += 1
        self._trial += 1

    def _after_fuzz_soundness(self, idx, args, result):
        self._trial = 0

    # -- analysis ------------------------------------------------------------

    def summary(self, rounds: int):
        """Per-layer metrics, with times and counts per traced round."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        total = Counter()
        calls = Counter()
        self_time = Counter()
        for i, nid in enumerate(self.name):
            total[nid] += dur[i]
            calls[nid] += 1
            self_time[nid] += dur[i] - child[i]
        by_phase = defaultdict(list)  # (name, phase) -> durations
        for i, nid in enumerate(self.name):
            if nid in (self._id["certify.verify_vertex"], self._id["certify.decode_label"],
                       self._id["fuzz.any_reject"]):
                by_phase[(nid, self.phase[i])].append(dur[i])

        def n(name):
            return self._id[name]

        def per_round(x):
            return x / rounds

        out = {}
        for name in (
            "lanes.build_lane_partition",
            "recursive.completion_to_op_sequence",
            "recursive.build_hierarchical_decomposition",
            "properties.annotate_classes",
            "fuzz.mutate",
            "fuzz.prove",
        ):
            out[name + ".s"] = (per_round(total[n(name)]), "s")
        out["certify.emit.self_s"] = (
            per_round(self_time[n("certify.prove")] + self_time[n("fuzz.prove")]), "s")
        for name in ("certify.encode_label", "certify.decode_label"):
            out[name + ".s"] = (per_round(total[n(name)]), "s")
            out[name + ".calls"] = (per_round(calls[n(name)]), "count")
        out["certify.encode_label.bits_out"] = (per_round(self.bits_out), "bits")
        verify_decodes = sum(
            len(v) for (nid, ph), v in by_phase.items()
            if nid == n("certify.decode_label") and ph == n("certify.verify_all")
        )
        out["certify.decode_label.calls_per_edge"] = (
            verify_decodes / max(1, self.edges_verified), "ratio")
        for name in DISTINCT_ARGS:
            out[name + ".calls"] = (per_round(calls[n(name)]), "count")
            out[name + ".distinct_args"] = (len(self.distinct[name]), "count")
            out[name + ".s"] = (per_round(total[n(name)]), "s")
        vv = sorted(by_phase[(n("certify.verify_vertex"), n("certify.verify_all"))])
        out["certify.verify_vertex.calls"] = (per_round(len(vv)), "count")
        vv = vv or [0.0]
        out["certify.verify_vertex.p50_us"] = (1e6 * _pct(vv, 50), "us")
        out["certify.verify_vertex.p99_us"] = (1e6 * _pct(vv, 99), "us")
        out["certify.verify_vertex.max_us"] = (1e6 * vv[-1], "us")
        ar = sorted(by_phase[(n("fuzz.any_reject"), n("fuzz.any_reject"))]) or [0.0]
        out["fuzz.any_reject.p50_us"] = (1e6 * _pct(ar, 50), "us")
        out["fuzz.any_reject.p99_us"] = (1e6 * _pct(ar, 99), "us")
        out["fuzz.any_reject.calls"] = (per_round(calls[n("fuzz.any_reject")]), "count")
        trial_verifies = sum(c for (ph, _), c in self.reasons.items() if ph == "fuzz.any_reject")
        out["fuzz.vertices_per_trial"] = (
            trial_verifies / max(1, calls[n("fuzz.any_reject")]), "ratio")
        return out

    def write(self, path) -> None:
        """Spans as tab-separated text: id, name, phase, parent, start, end."""
        with open(path, "w") as fh:
            fh.write("id\tname\tphase\tparent\tstart_s\tend_s\n")
            for i, nid in enumerate(self.name):
                ph = self.phase[i]
                fh.write("%d\t%s\t%s\t%d\t%.9f\t%.9f\n" % (
                    i, self.names[nid], self.names[ph] if ph >= 0 else "-",
                    self.parent[i], self.start[i], self.end[i]))


def _pct(sorted_values, q):
    """Nearest-rank percentile of a non-empty ascending list."""
    idx = max(0, min(len(sorted_values) - 1, -(-q * len(sorted_values) // 100) - 1))
    return sorted_values[idx]
