"""The per-run memo: the same verdicts as an uncached verifier, no decoded
structure shared with callers of decode_label, each distinct class operation
of the fold computed once per run, no state left on the plugins, and one
memo per fuzz campaign that changes no mutant and no verdict."""

import pickle
import random
from collections import Counter
from dataclasses import replace

import pytest

from lanecert import certify, fuzz
from lanecert.certify import (
    SEC_HEADER,
    SEC_TNODE,
    BasicInfo,
    DecodedLabel,
    _recompute_sub,
    _Reject,
    all_accept,
    decode_label,
    encode_label,
    local_views,
    prove,
    resolve_property,
    verify_all,
    verify_vertex,
)
from lanecert.encoding import BitWriter, DecodeError, read_sections, write_section
from lanecert.fuzz import MUTATIONS, fuzz_soundness, mutate
from lanecert.generators import GeneratorSpec, generate
from lanecert.graph import build_graph
from lanecert.properties import PLUGINS, HomClass, PropertyError, PropertyPlugin
from tests.test_graph import cycle_graph, path_graph

FALSE_STATEMENTS = {
    "C5-bipartite": (cycle_graph(5), "bipartite", 2),
    "C7-bipartite": (cycle_graph(7), "bipartite", 2),
    "C6-acyclic": (cycle_graph(6), "acyclic", 2),
    "C5-matching": (cycle_graph(5), "matching", 2),
    "chord6-acyclic": (
        build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3)]),
        "acyclic",
        2,
    ),
    "P5-parity": (path_graph(5), "parity", 1),
}


def _true_statements():
    """(graph, witness, property, k) of true statements whose labels carry
    route sections."""
    out = [(cycle_graph(6), None, "bipartite", 2)]
    for family, n, k, prop in (
        ("random-ops", 16, 3, "parity"),
        ("random-ops", 20, 2, "parity"),
        ("caterpillar", 12, 1, "acyclic"),
    ):
        g, ir = generate(GeneratorSpec(family, n, k, 0.3), 0)
        out.append((g, ir, prop, k))
    return out


@pytest.mark.parametrize("name", sorted(FALSE_STATEMENTS))
def test_memo_verdicts_equal_uncached(name):
    g, prop, k = FALSE_STATEMENTS[name]
    base = prove(g, prop, k, force=True)
    rng = random.Random(name)
    for mutation in MUTATIONS:
        for _ in range(4):
            labels = mutate(base, mutation, rng)
            uncached = {
                view.vid: verify_vertex(view, prop, k) for view in local_views(g, labels)
            }
            assert verify_all(g, labels, prop, k) == uncached, mutation


def test_decode_label_results_are_unshared():
    # Mutate everything decode_label returns; the labels themselves, and a
    # fresh run of the verifier over them, must not notice.
    for g, ir, prop, k in _true_statements():
        labels = prove(g, prop, k, ir=ir)
        for bits in labels.values():
            lab = decode_label(bits)
            for sec in lab.tnodes:
                sec.basic.t_in.clear()
                sec.basic.t_out[0] = 0
                sec.dist += 1
                sec.elem.children = ()
            for rs in lab.routes:
                rs.fwd += 1
            lab.tnodes.reverse()
            assert encode_label(lab.n, lab.w, lab.tnodes, lab.routes) != bits
        assert all_accept(verify_all(g, labels, prop, k))


def test_honest_labels_reencode_exactly():
    for g, ir, prop, k in _true_statements():
        memo = {}
        for bits in prove(g, prop, k, ir=ir).values():
            for lab in (decode_label(bits), decode_label(bits, memo)):
                assert encode_label(lab.n, lab.w, lab.tnodes, lab.routes) == bits


def _decodes(bits, memo=None) -> bool:
    try:
        decode_label(bits, memo)
    except DecodeError:
        return False
    return True


def test_memo_keeps_sections_apart_by_n():
    # The T-node sections of honest labels under a header with n = 5 (ids
    # still 3 bits wide): some name a vertex >= 5 and must fail to decode,
    # even from a memo filled under the honest n.
    for g, prop, k in ((cycle_graph(6), "bipartite", 2), (path_graph(8), "acyclic", 1)):
        labels = prove(g, prop, k)
        memo = {}
        for bits in labels.values():
            decode_label(bits, memo)
        failing = 0
        for bits in labels.values():
            hw = BitWriter()
            hw.write_varint(5)
            hw.write_varint(decode_label(bits).w)
            w = BitWriter()
            write_section(w, SEC_HEADER, hw.getvalue())
            for stype, payload in read_sections(bits):
                if stype == SEC_TNODE:
                    write_section(w, stype, payload)
            small = w.getvalue()
            assert _decodes(small, memo) == _decodes(small)
            failing += not _decodes(small)
        assert failing > 0


# --- the class fold's memo ---------------------------------------------------

FOLD_OPS = ("base_vleaf", "base_edge", "base_path", "compose_bridge", "compose_parent")


def _count_fold_calls(monkeypatch, calls: Counter, raised: Counter) -> None:
    """Count every plugin fold operation actually run, by its argument tuple;
    raised counts the calls that raise PropertyError."""
    for op in FOLD_OPS:
        orig = getattr(PropertyPlugin, op)

        def counted(self, *args, _orig=orig, _op=op):
            key = (_op, self.name) + args
            calls[key] += 1
            try:
                return _orig(self, *args)
            except PropertyError:
                raised[key] += 1
                raise

        monkeypatch.setattr(PropertyPlugin, op, counted)


def _records(labels):
    """Every element record in the labels and in their route payloads."""
    out = []
    todo = list(labels.values())
    while todo:
        try:
            lab = decode_label(todo.pop())
        except DecodeError:
            continue
        out.extend(sec.elem for sec in lab.tnodes)
        todo.extend(rs.payload for rs in lab.routes)
    return out


def _fold_outcome(rec, plugin, memo):
    try:
        return _recompute_sub(rec, plugin, memo)
    except _Reject as rj:
        return ("reject", rj.code)
    except PropertyError as exc:
        return ("property", str(exc))


def _with_bad_child(rec):
    """rec with its first child's class term replaced by one no plugin
    accepts."""
    (ceid, csub), *rest = rec.children
    bad = BasicInfo(csub.t_in, csub.t_out, HomClass(csub.cls.atoms, 7))
    return replace(rec, children=((ceid, bad), *rest))


@pytest.mark.parametrize("name", sorted(FALSE_STATEMENTS))
def test_fold_memo_equals_unmemoized(name):
    g, prop, k = FALSE_STATEMENTS[name]
    plugin = resolve_property(prop)[2]
    base = prove(g, prop, k, force=True)
    rng = random.Random("fold-" + name)
    kinds = Counter()
    for mutation in MUTATIONS:
        for _ in range(4):
            records = _records(mutate(base, mutation, rng))
            records += [_with_bad_child(rec) for rec in records if rec.children]
            memo = {}
            for _ in range(2):  # the second pass finds every success memoized
                for rec in records:
                    want = _fold_outcome(rec, plugin, {})
                    assert _fold_outcome(rec, plugin, memo) == want, mutation
                    kinds[want[0] if isinstance(want, tuple) else "ok"] += 1
            assert memo or not records
    assert kinds["ok"] > 0 and kinds["property"] > 0


def test_fold_computes_each_distinct_call_once(monkeypatch):
    g, ir = generate(GeneratorSpec("cycle", 60, 2), 0)
    labels = prove(g, "bipartite", 2, ir=ir)
    calls, raised = Counter(), Counter()
    _count_fold_calls(monkeypatch, calls, raised)
    assert all_accept(verify_all(g, labels, "bipartite", 2))
    ops = Counter(key[0] for key in calls)
    assert ops["compose_parent"] > 0 and ops["compose_bridge"] > 0
    assert set(calls.values()) == {1}
    calls.clear()
    assert prove(g, "bipartite", 2, ir=ir) == labels
    assert "compose_parent" in {key[0] for key in calls}
    assert set(calls.values()) == {1}
    assert not raised


def _basics(lab):
    for sec in lab.tnodes:
        yield sec.basic
        if sec.elem.kind == "B":
            yield from (side[2] for side in sec.elem.topo[5:7] if side[0] == "T")
        yield from (csub for _, csub in sec.elem.children)


def _with_term(bits, target, term):
    """bits with every BasicInfo equal to target given the class term term,
    also inside route payloads."""
    lab = decode_label(bits)
    for bi in _basics(lab):
        if bi == target:
            bi.cls = HomClass(bi.cls.atoms, term)
    for rs in lab.routes:
        rs.payload = _with_term(rs.payload, target, term)
    return encode_label(lab.n, lab.w, lab.tnodes, lab.routes)


def test_fold_failures_are_not_memoized(monkeypatch):
    # Give one child subtree class a term that is not a tuple, everywhere it
    # appears.  Every vertex that folds it runs the failing call itself and
    # rejects it as malformed.
    g, ir = generate(GeneratorSpec("cycle", 12, 2), 0)
    labels = prove(g, "bipartite", 2, ir=ir)
    targets = []
    for rec in _records(labels):
        for _, csub in rec.children:
            if csub not in targets:
                targets.append(csub)
    assert targets
    calls, raised = Counter(), Counter()
    _count_fold_calls(monkeypatch, calls, raised)
    for target in targets:
        bad = {e: _with_term(bits, target, 7) for e, bits in labels.items()}
        raised.clear()
        verdicts = verify_all(g, bad, "bipartite", 2)
        malformed = [v.vid for v in verdicts.values() if v.reason == "malformed"]
        assert len(malformed) >= 2, target
        assert sum(raised.values()) >= len(malformed)
        assert verdicts == {
            view.vid: verify_vertex(view, "bipartite", 2) for view in local_views(g, bad)
        }


def test_plugins_keep_no_state():
    def state():  # deep: a memo kept on a plugin would change its pickle
        return {name: pickle.dumps(p) for name, p in PLUGINS.items()}

    before = state()
    g, ir = generate(GeneratorSpec("random-ops", 40, 2, 0.3), 0)
    for prop in ("parity", "marked-bipartite"):
        labels = prove(g, prop, 2, ir=ir, force=True)
        verify_all(g, labels, prop, 2)
    assert state() == before


# --- one memo per fuzz campaign ----------------------------------------------


def _campaigns():
    """(name, graph, witness, property, k): the false statements, and true
    ones whose labels carry route sections, so route-rank edits a route."""
    out = [(name, g, None, prop, k) for name, (g, prop, k) in sorted(FALSE_STATEMENTS.items())]
    for i, (g, ir, prop, k) in enumerate(_true_statements()):
        out.append(("true%d-%s" % (i, prop), g, ir, prop, k))
    return out


@pytest.mark.parametrize("name,g,ir,prop,k", [pytest.param(*c, id=c[0]) for c in _campaigns()])
def test_campaign_memo_equals_fresh_memo(monkeypatch, name, g, ir, prop, k):
    # Every trial of a real campaign: its mutant equals the one drawn from
    # the same rng state without the memo, and every vertex's verdict with
    # the campaign's memo equals verify_vertex with a fresh dict.
    caches = []
    bases = []
    mutations = Counter()
    orig_mutate, orig_any_reject = fuzz.mutate, fuzz.any_reject

    def checked_mutate(labels, mutation, rng, cache=None):
        twin = random.Random()
        twin.setstate(rng.getstate())
        out = orig_mutate(labels, mutation, rng, cache)
        assert out == orig_mutate(labels, mutation, twin), mutation
        assert twin.getstate() == rng.getstate()
        if labels not in bases:
            bases.append(labels)
        mutations[mutation] += 1
        if mutation == "route-rank":
            # A label without routes gets a bit flip instead.
            for e in labels:
                try:
                    before, after = decode_label(labels[e]), decode_label(out[e])
                except DecodeError:
                    continue
                if before.tnodes == after.tnodes and before.routes != after.routes:
                    mutations["route-edited"] += 1
        return out

    def checked_any_reject(g, labels, prop_name, k, cache=None):
        if not caches or caches[-1] is not cache:
            caches.append(cache)
        first = orig_any_reject(g, labels, prop_name, k, cache)
        fresh = [verify_vertex(view, prop_name, k, {}) for view in local_views(g, labels)]
        shared = [verify_vertex(view, prop_name, k, cache) for view in local_views(g, labels)]
        assert shared == fresh
        assert first == next((v for v in fresh if not v.accept), None)
        return first

    monkeypatch.setattr(fuzz, "mutate", checked_mutate)
    monkeypatch.setattr(fuzz, "any_reject", checked_any_reject)
    report = fuzz_soundness(g, prop, k, 6 * len(MUTATIONS), seed=80, ir=ir)
    assert report.counterexamples == []
    assert set(mutations) >= set(MUTATIONS)
    if name.startswith("true"):
        assert mutations["route-edited"] > 0
    # One memo for the whole campaign, left as decoding its keys makes it.
    (cache,) = caches
    decoded = [(key, hit) for key, hit in cache.items() if isinstance(hit, DecodedLabel)]
    assert decoded
    for key, hit in decoded:
        assert hit == decode_label(key)
    for bits in bases[0].values():
        hit = cache[bits]
        assert encode_label(hit.n, hit.w, hit.tnodes, hit.routes) == bits


def test_campaign_decodes_each_base_label_once(monkeypatch):
    # The replay trials verify the unmutated base; a campaign memo decodes
    # each of its labels once, and the next campaign starts a new memo.
    g = cycle_graph(6)
    base = prove(g, "bipartite", 2)
    decodes = Counter()
    orig = certify.decode_label

    def counted(bits, memo=None):
        decodes[bits] += 1
        return orig(bits, memo)

    monkeypatch.setattr(certify, "decode_label", counted)
    for campaigns in (1, 2):
        fuzz_soundness(g, "bipartite", 2, 5 * len(MUTATIONS), seed=81)
        assert {decodes[bits] for bits in base.values()} == {campaigns}
