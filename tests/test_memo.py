"""The per-run memo: the same verdicts as an uncached verifier, no decoded
structure shared with callers of decode_label, each distinct class operation
and each distinct element record decoded and folded once per run, no state
left on the plugins, and one memo per fuzz campaign that changes no mutant
and no verdict.  Also: the pipeline leaves no reference cycles, so the
entry points may pause the cyclic collector, and they leave it as they
found it."""

import copy
import gc
import pickle
import random
from collections import Counter
from dataclasses import replace

import pytest

from lanecert import certify, fuzz
from lanecert.certify import (
    SEC_TNODE,
    BasicInfo,
    CertifyError,
    DecodedLabel,
    _fold,
    _recompute_sub,
    _Reject,
    all_accept,
    any_reject,
    decode_label,
    encode_label,
    local_views,
    prove,
    prove_forced,
    read_layout,
    resolve_property,
    verify_all,
    verify_vertex,
    write_layout,
)
from lanecert.encoding import (
    BitReader,
    Bits,
    DecodeError,
    read_sections,
)
from lanecert.fuzz import MUTATIONS, fuzz_soundness, mutate
from lanecert.generators import GeneratorSpec, generate
from lanecert.graph import build_graph, id_bits
from lanecert.lanes import build_lane_partition
from lanecert.properties import PLUGINS, HomClass, PropertyError, PropertyPlugin
from lanecert.recursive import build_hierarchical_decomposition, completion_to_op_sequence
from tests.test_certify import _label_parts
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
            if len(lab.tnodes) > 1:
                # A reversed chain does not start at its root section.
                with pytest.raises(CertifyError):
                    encode_label(lab.n, lab.w, lab.tnodes, lab.routes)
            else:
                assert encode_label(lab.n, lab.w, lab.tnodes, lab.routes) != bits
        assert all_accept(verify_all(g, labels, prop, k))


# The layout families at k = 3, with a property each holds.
K3_LAYOUTS = (("cycle", 30, "bipartite"), ("caterpillar", 30, "acyclic"), ("random-ops", 40, "parity"))


def test_honest_labels_reencode_exactly():
    # Every layout family at k = 3 writes derived table entries, and its
    # labels re-encode to the same bits.
    k3 = _k3_layouts()
    for i, (g, ir, prop, k) in enumerate(k3 + _true_statements()):
        memo = {}
        derived = 0
        for bits in prove(g, prop, k, ir=ir).values():
            for lab in (decode_label(bits), decode_label(bits, memo)):
                assert encode_label(lab.n, lab.w, lab.tnodes, lab.routes) == bits
            derived += len(_label_parts(bits)["derived"])
        assert i >= len(k3) or derived > 0, K3_LAYOUTS[i]


def test_write_layout_inverts_read_layout():
    # Every honest label, and every label of a fuzz mutant of them that
    # read_layout accepts, is written back bit for bit from its layout.
    mutants = 0
    for g, ir, prop, k in _k3_layouts() + _true_statements():
        base = prove(g, prop, k, ir=ir)
        rng = random.Random("layout")
        for labels in [base] + [mutate(base, mutation, rng) for mutation in MUTATIONS for _ in range(3)]:
            for e, bits in labels.items():
                try:
                    lay = read_layout(bits)
                except DecodeError:
                    continue
                assert write_layout(lay) == bits
                mutants += bits != base[e]
    assert mutants > 0


def _k3_layouts():
    return [(*generate(GeneratorSpec(family, n, 3, 0.3), 0), prop, 3) for family, n, prop in K3_LAYOUTS]


def test_encode_memo_changes_no_label():
    # prove writes every label of a run under one memo.  Each is the label
    # encode_label writes for the prover's form of the edge with a fresh
    # memo, and for the decoded label with one memo for all the labels of
    # the instance and with a fresh memo per call, on forms decoded alone
    # and on forms that share objects (one decode memo) as the prover's do.
    for g, ir, prop, k in _k3_layouts() + _true_statements():
        labels = prove(g, prop, k, ir=ir)
        lp, emb, hd, ann = certify._annotate(g, prop, k, ir)
        for e, (tnodes, routes) in certify._forms(g, k, hd, ann, emb, lp.k).items():
            assert encode_label(g.n, lp.k, tnodes, routes) == labels[e]
        decoded = {}
        for forms_memo in (None, decoded):
            shared = {}
            for bits in labels.values():
                lab = decode_label(bits, forms_memo)
                assert encode_label(lab.n, lab.w, lab.tnodes, lab.routes, shared) == bits
                assert encode_label(lab.n, lab.w, lab.tnodes, lab.routes, {}) == bits


def test_encode_label_keys_sections_by_value():
    # Each chain of a decoded form copied on its own, so that equal sections
    # of different chains are distinct objects: the label is the same bits,
    # since chains share a prefix by value (_bases).
    for g, ir, prop, k in _k3_layouts()[2:] + _true_statements():
        for bits in prove(g, prop, k, ir=ir).values():
            lab = decode_label(bits)
            routes = [replace(rs, tnodes=copy.deepcopy(rs.tnodes)) for rs in lab.routes]
            assert encode_label(lab.n, lab.w, copy.deepcopy(lab.tnodes), routes) == bits


def test_encode_memo_keeps_labels_apart_by_n():
    # A memo filled from the honest labels, then given the same forms under
    # a header with another n (ids as wide, and wider): each label is the
    # one a fresh memo writes for that n.
    instances = [(cycle_graph(6), None, "bipartite", 2), (path_graph(8), None, "acyclic", 1)]
    for g, ir, prop, k in instances + _k3_layouts()[2:]:
        decoded = {}
        forms = [decode_label(bits, decoded) for bits in prove(g, prop, k, ir=ir).values()]
        memo = {}
        for lab in forms:
            encode_label(lab.n, lab.w, lab.tnodes, lab.routes, memo)
        for n in (g.n + 1, 4 * g.n):
            for lab in forms:
                assert encode_label(n, lab.w, lab.tnodes, lab.routes, memo) == encode_label(n, lab.w, lab.tnodes, lab.routes)


def test_one_record_object_per_element():
    # Under one memo every element is one record object, though labels
    # write some records at more than one slot width (a relayed chain's
    # and a carrier's own chain number their slots apart).
    g, ir = generate(GeneratorSpec("random-ops", 60, 3, 0.3), 0)
    labels = prove(g, "parity", 3, ir=ir)
    memo = {}
    records = {}  # eid -> the record objects of that element
    for bits in labels.values():
        lab = decode_label(bits, memo)
        for chain in [lab.tnodes] + [rs.tnodes for rs in lab.routes]:
            for sec in chain:
                records.setdefault(sec.elem.eid, set()).add(id(sec.elem))
    widths = {}  # eid -> the slot widths its record was decoded at
    for key, hit in memo.items():
        if isinstance(key, tuple) and key[0] == "elem":
            widths.setdefault(hit[0][0], set()).add(key[2])  # the record's eid
    assert {len(ids) for ids in records.values()} == {1}
    assert max(map(len, widths.values())) > 1


def _decodes(bits, memo=None) -> bool:
    try:
        decode_label(bits, memo)
    except DecodeError:
        return False
    return True


def _small_label(bits, records=False) -> Bits:
    """bits under a header with n = 5 (its lane count kept), and, if
    records, its own T-node sections alone behind a table of entries valid
    for n = 5: one group per section that names slots first, as many
    entries as the label's own table had there."""
    lay = read_layout(bits)
    n, lay.n = lay.n, 5
    if records:
        raws, news, found = certify._raw_chain(lay.tnodes, id_bits(n), n, certify._index_bits(lay.m), {})
        _, derived, partial = certify._sources([(range(lay.m), found)], {raws[0][0][1]})
        forms = [certify._DERIVED if t in derived else certify._PARTIAL if t in partial else certify._FULL
                 for t in range(lay.m)]
        entries = iter(
            certify._enc_entry((1, 0, term), id_bits(5), lay.w, forms[term])
            for term in range(lay.m)
        )
        lay.groups = [certify._join([next(entries) for _ in range(c)]) for c in news if c]
        lay.routes = []
    return write_layout(lay)


def test_memo_keeps_sections_apart_by_n():
    # Honest labels under a header with n = 5 (ids still 3 bits wide): some
    # name a vertex >= 5 and must fail to decode, even from a memo filled
    # under the honest n.  The same for each label's own T-node sections
    # alone, behind a table whose entries are valid for n = 5, so that only
    # the sections' element records can fail; and each label's table alone.
    for g, prop, k in ((cycle_graph(6), "bipartite", 2), (path_graph(8), "acyclic", 1)):
        labels = prove(g, prop, k)
        memo = {}
        for bits in labels.values():
            decode_label(bits, memo)
        failing = Counter()
        for bits in labels.values():
            for kind, records in (("sections", False), ("records", True)):
                small = _small_label(bits, records)
                assert _decodes(small, memo) == _decodes(small), kind
                failing[kind] += not _decodes(small)
            # And the label's table alone, its groups read under n = 5.
            parts = _label_parts(bits)

            def table_decodes(table_memo):
                try:
                    certify._dec_table(read_layout(bits).groups, parts["counts"], parts["derived"], parts["partial"],
                                       id_bits(5), 5, parts["lab"].w, table_memo)
                except DecodeError:
                    return False
                return True

            assert table_decodes(memo) == table_decodes({})
            failing["tables"] += not table_decodes({})
        assert failing["sections"] > 0 and failing["records"] > 0 and failing["tables"] > 0


def test_wide_relayed_dist_keeps_chains_apart():
    # A relayed frame writes its dist as a varint, so a forged one can be
    # wider than the b bits of a prefix's pointer field.  Two labels whose
    # relayed chains differ only in the last prefix section's parent_min,
    # above a frame whose dist is 2^b, decode under one memo as they do
    # alone, though packed at b + 2 bits per section their pointer fields
    # make equal ints.
    g, ir = generate(GeneratorSpec("cycle", 30, 2, 0.3), 0)
    labels = prove(g, "bipartite", 2, ir=ir)
    b = id_bits(g.n)
    forged = []
    for bits in labels.values():
        lab = decode_label(bits)
        for j, (rs, rl) in enumerate(zip(lab.routes, read_layout(bits).routes)):
            q = rl.q
            if 0 < q < len(rs.tnodes):
                for parent_min in (False, True):
                    chain = list(rs.tnodes)
                    chain[q - 1] = replace(chain[q - 1], parent_min=parent_min)
                    chain[q] = replace(chain[q], dist=1 << b)
                    routes = list(lab.routes)
                    routes[j] = replace(rs, tnodes=chain)
                    forged.append(encode_label(lab.n, lab.w, lab.tnodes, routes))
                break
        if forged:
            break
    memo = {}
    for bits in forged:
        assert decode_label(bits, memo) == decode_label(bits)


def test_nested_payload_takes_each_labels_own_parent():
    # One nested payload behind root sections whose B records have
    # different T sides at its side bit: each label's nested section takes
    # the side of its own record above, with and without a shared memo
    # (filled first from the honest labels).  The labels are one root
    # section of an honest label and one nested section of another, put
    # below that root's side; where the roots name as many slots, the
    # nested payload is the same bits behind each.
    g, ir = generate(GeneratorSpec("random-ops", 40, 3, 0.3), 0)
    labels = prove(g, "parity", 3, ir=ir)
    roots = {0: [], 1: []}  # side bit -> (root section, its T side)
    nested = {0: [], 1: []}  # side bit -> nested sections
    for bits in labels.values():
        lab = decode_label(bits)
        above = lab.tnodes[0].elem
        for bit in (0, 1):
            side = above.topo[5 + bit] if above.kind == "B" else ("V",)
            if side[0] == "T" and all(side != other for _, other in roots[bit]):
                roots[bit].append((lab.tnodes[0], side))
        payloads = [p for stype, p in read_sections(bits) if stype == SEC_TNODE]
        for p, sec in zip(payloads[1:], lab.tnodes[1:]):
            nested[p.value >> (p.nbits - 1)].append(sec)  # by its side bit
    shared = {}
    for bits in labels.values():
        w_lanes = decode_label(bits, shared).w
    checked = 0
    for bit in (0, 1):
        behind = {}  # nested payload -> [(label, side)]
        for sec in nested[bit][:20]:
            for root, side in roots[bit]:
                below = replace(sec, node_eid=side[1], basic=side[2])
                small = encode_label(g.n, w_lanes, [root, below], [])
                payload = [p for stype, p in read_sections(small) if stype == SEC_TNODE][1]
                behind.setdefault(payload, []).append((small, side))
        for found in behind.values():
            if not any(side[2] != found[0][1][2] for _, side in found[1:]):
                continue
            for memo in (None, shared):
                for small, side in found:
                    got = decode_label(small, memo).tnodes[1]
                    assert (got.node_eid, got.basic) == side[1:]
            checked += 1
    assert checked >= 2


# --- the class fold's memo ---------------------------------------------------

FOLD_OPS = (
    "base_vleaf",
    "base_edge",
    "base_path",
    "compose_bridge",
    "compose_parent",
    "accepts",
)


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
    """Every element record in the labels and in the chains they relay."""
    out = []
    for bits in labels.values():
        try:
            lab = decode_label(bits)
        except DecodeError:
            continue
        out.extend(sec.elem for sec in lab.tnodes)
        for rs in lab.routes:
            out.extend(sec.elem for sec in rs.tnodes)
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
    plugin = resolve_property(prop)[1]
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
    assert ops["accepts"] == 1  # the root class, checked at every vertex
    assert set(calls.values()) == {1}
    calls.clear()
    assert prove(g, "bipartite", 2, ir=ir) == labels
    assert "compose_parent" in {key[0] for key in calls}
    assert set(calls.values()) == {1}
    assert not raised


def _basics(lab):
    """Every BasicInfo a decoded label names: its own chain's, then those of
    the chains it relays."""
    for chain in [lab.tnodes] + [rs.tnodes for rs in lab.routes]:
        for sec in chain:
            yield sec.basic
            if sec.elem.kind == "B":
                yield from (side[2] for side in sec.elem.topo[5:7] if side[0] == "T")
            yield from (csub for _, csub in sec.elem.children)


def _with_term(bits, target, term):
    """bits with every BasicInfo equal to target given the class term term,
    also in the chains it relays."""
    lab = decode_label(bits)
    for bi in _basics(lab):
        if bi == target:
            bi.cls = HomClass(bi.cls.atoms, term)
    return encode_label(lab.n, lab.w, lab.tnodes, lab.routes)


def _seen_records(view):
    """The element records a vertex's view holds: those of its incident
    labels and of the relayed chains whose routes end at it."""
    out = []
    for bits in view.labels.values():
        lab = decode_label(bits)
        out.extend(sec.elem for sec in lab.tnodes)
        for rs in lab.routes:
            if view.vid in (rs.u, rs.v):
                out.extend(sec.elem for sec in rs.tnodes)
    return out


def test_fold_failures_are_not_memoized(monkeypatch):
    # Give one child subtree class a term that is not a tuple, everywhere it
    # appears.  Every vertex that sees a record listing it rejects, and every
    # vertex that rejects it as malformed ran the failing fold itself: the
    # failing record is folded again at each of them.
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
    current, failed = [None], Counter()
    orig_vertex, orig_sub = certify.verify_vertex, certify._recompute_sub

    def vertex(view, *args):
        current[0] = view.vid
        return orig_vertex(view, *args)

    def sub(rec, plugin, memo):
        try:
            return orig_sub(rec, plugin, memo)
        except PropertyError:
            failed[current[0]] += 1
            raise

    monkeypatch.setattr(certify, "verify_vertex", vertex)
    monkeypatch.setattr(certify, "_recompute_sub", sub)
    for target in targets:
        bad = {e: _with_term(bits, target, 7) for e, bits in labels.items()}
        raised.clear()
        failed.clear()
        verdicts = verify_all(g, bad, "bipartite", 2)
        malformed = [v.vid for v in verdicts.values() if v.reason == "malformed"]
        assert len(malformed) >= 2, target
        assert sum(raised.values()) >= len(malformed)
        assert set(failed) == set(malformed)
        for view in local_views(g, bad):
            seen = _seen_records(view)
            if any(csub.cls.term == 7 for rec in seen for _, csub in rec.children):
                assert not verdicts[view.vid].accept, (target, view.vid)
        assert verdicts == {
            view.vid: orig_vertex(view, "bipartite", 2) for view in local_views(g, bad)
        }


def test_failing_accepts_is_not_memoized(monkeypatch):
    plugin = resolve_property("bipartite")[1]
    calls, raised = Counter(), Counter()
    _count_fold_calls(monkeypatch, calls, raised)
    memo = {}
    bad = HomClass(((1, 0),), 7)
    for _ in range(2):
        with pytest.raises(PropertyError):
            _fold(memo, plugin, "accepts", bad)
    assert memo == {}
    assert raised == {("accepts", plugin.name, bad): 2}
    # An isolated vertex checks the one-vertex class, once per run.
    g = build_graph(1, [])
    assert all_accept(verify_all(g, {}, "bipartite", 0))
    assert calls[("accepts", plugin.name, plugin.base_path(1, ()))] == 1


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
    # Every trial of a real campaign: its mutant equals the one drawn again
    # from the same rng state, and every vertex's verdict with
    # the campaign's memo equals verify_vertex with a fresh dict.
    caches = []
    bases = []
    mutations = Counter()
    orig_mutate, orig_any_reject = fuzz.mutate, fuzz.any_reject

    def checked_mutate(labels, mutation, rng):
        twin = random.Random()
        twin.setstate(rng.getstate())
        out = orig_mutate(labels, mutation, rng)
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


def test_cached_decode_failures_keep_no_exception():
    # 300 fuzz mutants of forced C7 bipartite labels through any_reject
    # with one memo: a failed decode stays in the memo as its message, so
    # the memo holds no exception (nor its traceback and frames), and every
    # verdict is the one a fresh memo gives.
    g, prop, k = FALSE_STATEMENTS["C7-bipartite"]
    base = prove(g, prop, k, force=True)
    rng = random.Random(7)
    cache, reasons = {}, Counter()
    for trial in range(300):
        labels = mutate(base, MUTATIONS[trial % len(MUTATIONS)], rng)
        verdict = any_reject(g, labels, prop, k, cache)
        assert verdict == any_reject(g, labels, prop, k)
        reasons[verdict.reason] += 1
    assert reasons["decode"] > 0
    assert not [hit for hit in cache.values() if isinstance(hit, BaseException)]


def _old_perturb_route(bits, rng):
    """_perturb_route as it was: every section re-encoded from its decoded
    form."""
    try:
        lab = decode_label(bits)
    except DecodeError:
        return fuzz._flip_bits(bits, rng)
    if not lab.routes:
        return fuzz._flip_bits(bits, rng)
    rs = rng.choice(lab.routes)
    which = rng.randrange(3)
    if which == 0:
        rs.fwd = max(1, rs.fwd + rng.choice((-1, 1)))
    elif which == 1:
        rs.bwd = max(1, rs.bwd + rng.choice((-1, 1)))
    else:
        rs.u, rs.v = rs.v, rs.u
    return encode_label(lab.n, lab.w, lab.tnodes, lab.routes)


@pytest.mark.parametrize("name,g,ir,prop,k", [pytest.param(*c, id=c[0]) for c in _campaigns()])
def test_route_mutant_reframes_tnode_payloads(name, g, ir, prop, k):
    # Writing the base's layout back with one route's head edited gives the
    # label that re-encoding it gave, with the same draws from the rng.
    base = prove(g, prop, k, ir=ir, force=True)
    rng = random.Random("route-" + name)
    for _ in range(3):
        for e in sorted(base):
            twin = random.Random()
            twin.setstate(rng.getstate())
            assert fuzz._perturb_route(base[e], rng) == _old_perturb_route(base[e], twin)
            assert twin.getstate() == rng.getstate()


# --- the verdict table: a campaign checks each distinct view once -------------


def _view_variants(g, view, rng):
    """view, then views that each differ from it in one respect: the vid, the
    vertex tag, one edge tag, one label, the order of the labels."""
    out = [view, replace(view, vid=(view.vid + 1) % g.n), replace(view, vtag=view.vtag + 1)]
    if view.labels:
        e = rng.choice(sorted(view.labels))
        out.append(replace(view, etags={**view.etags, e: 1 - view.etags[e]}))
        out.append(replace(view, labels={**view.labels, e: fuzz._flip_bits(view.labels[e], rng)}))
        out.append(replace(view, labels=dict(reversed(view.labels.items()))))
    return out


def _tagged_cycle(n):
    """C_n with every edge marked: marked-bipartite holds iff n is even."""
    g = cycle_graph(n)
    return build_graph(n, g.edges, None, {e: 1 for e in g.edges})


@pytest.mark.parametrize("g,prop,k", [
    pytest.param(cycle_graph(5), "bipartite", 2, id="C5-bipartite"),
    pytest.param(_tagged_cycle(7), "marked-bipartite", 2, id="C7-marked-bipartite"),
])
def test_verdict_table_equals_fresh_verdicts(monkeypatch, g, prop, k):
    # Under one table, each view and each of its one-respect variants gets
    # the verdict verify_vertex gives it with a fresh memo, twice over (the
    # second time from the table), and a variant that only reorders the
    # labels gets the same verdict, reason included.
    checks = []
    orig = certify._verify_vertex

    def counted(view, *args):
        checks.append(view)
        return orig(view, *args)

    base = prove(g, prop, k, force=True)
    rng = random.Random("table-" + prop)
    views, reordered = [], []  # reordered: (view, its labels reversed)
    for mutation in MUTATIONS:
        for _ in range(4):
            for view in local_views(g, mutate(base, mutation, rng)):
                variants = _view_variants(g, view, rng)
                if len(view.labels) > 1:
                    reordered.append((len(views), len(views) + len(variants) - 1))
                views.extend(variants)
    fresh = [verify_vertex(view, prop, k, {}) for view in views]
    monkeypatch.setattr(certify, "_verify_vertex", counted)
    cache = {certify._VERDICTS: {}}
    for _ in range(2):
        assert [verify_vertex(view, prop, k, cache) for view in views] == fresh
    assert 0 < len(checks) == len(cache[certify._VERDICTS]) <= len(views)
    assert reordered and all(fresh[i] == fresh[j] for i, j in reordered)


def test_verdict_table_keys_on_edge_tags():
    # Honest marked-bipartite labels: every vertex accepts; the same view
    # with one edge tag flipped rejects, also after the table has stored
    # the accepting verdict.
    g = _tagged_cycle(6)
    labels = prove(g, "marked-bipartite", 2)
    cache = {certify._VERDICTS: {}}
    for view in local_views(g, labels):
        assert verify_vertex(view, "marked-bipartite", 2, cache).accept
        for e in view.labels:
            flipped = replace(view, etags={**view.etags, e: 0})
            fresh = verify_vertex(flipped, "marked-bipartite", 2)
            assert not fresh.accept
            assert verify_vertex(flipped, "marked-bipartite", 2, cache) == fresh
        assert verify_vertex(view, "marked-bipartite", 2, cache).accept


@pytest.mark.parametrize("name,g,ir,prop,k", [pytest.param(*c, id=c[0]) for c in _campaigns()])
def test_campaign_checks_each_distinct_view_once(monkeypatch, name, g, ir, prop, k):
    # _verify_vertex runs at most once per distinct (view, property, k) in a
    # campaign, while verify_vertex still runs for every vertex inspected.
    checks, calls = Counter(), []
    orig_check, orig_vertex = certify._verify_vertex, certify.verify_vertex

    def check(view, marked_user, plugin, k, cache):
        checks[(plugin.name, marked_user, k, view.vid, view.vtag,
                tuple(view.labels.items()), tuple(view.etags.items()))] += 1
        return orig_check(view, marked_user, plugin, k, cache)

    def vertex(view, *args):
        calls.append(view)
        return orig_vertex(view, *args)

    monkeypatch.setattr(certify, "_verify_vertex", check)
    monkeypatch.setattr(certify, "verify_vertex", vertex)
    fuzz_soundness(g, prop, k, 10 * len(MUTATIONS), seed=82, ir=ir)
    assert set(checks.values()) == {1}
    assert len(calls) > len(checks)


@pytest.mark.parametrize("g,prop,k", [
    pytest.param(cycle_graph(6), "bipartite", 2, id="true"),
    pytest.param(cycle_graph(7), "bipartite", 2, id="false"),
])
def test_any_reject_calls_verify_vertex_at_every_vertex(monkeypatch, g, prop, k):
    # With a table that already holds every verdict, any_reject still calls
    # verify_vertex for each vertex up to the first reject, whose verdict is
    # the last one returned; the table gives the same verdicts as without.
    seen = []
    orig = certify.verify_vertex

    def vertex(view, *args):
        seen.append(orig(view, *args))
        return seen[-1]

    monkeypatch.setattr(certify, "verify_vertex", vertex)
    labels = prove(g, prop, k, force=True)
    expect = any_reject(g, labels, prop, k)
    stop = g.n if expect is None else expect.vid + 1
    cache = {}
    for _ in range(3):
        seen.clear()
        assert any_reject(g, labels, prop, k, cache) == expect
        assert [v.vid for v in seen] == list(range(stop))
        assert expect is None or seen[-1] == expect
    assert len(cache[certify._VERDICTS]) == stop


# --- element records: decoded and folded once per run -------------------------


@pytest.mark.parametrize("family,prop,k", [("cycle", "bipartite", 2), ("random-ops", "parity", 3)])
def test_each_element_record_decoded_and_folded_once(monkeypatch, family, prop, k):
    g, ir = generate(GeneratorSpec(family, 60, k, 0.3), 0)
    labels = prove(g, prop, k, ir=ir)
    payloads = set()
    for bits in labels.values():  # the labels, and the chains they relay
        payloads.update(p for stype, p in read_sections(bits) if stype == SEC_TNODE)
        b = id_bits(g.n)
        lab = decode_label(bits)
        for rs in lab.routes:
            head = certify._Header(g.n, lab.w)
            payloads.update(certify._payloads(rs.tnodes, certify._enc_chain(rs.tnodes, head), head))
    tails, resolved, folds, folded = Counter(), {}, Counter(), []
    orig_dec, orig_res, orig_sub = certify._dec_elem, certify._resolve_elem, certify._recompute_sub

    def dec(r, b, n, sw):
        rest = r.remaining()
        tails[(n, sw, Bits(r.bits.value & ((1 << rest) - 1), rest))] += 1
        return orig_dec(r, b, n, sw)

    def res(fields, slots, basics):
        rec = orig_res(fields, slots, basics)
        resolved[id(rec)] = rec
        return rec

    def sub(rec, plugin, memo):
        folded.append(rec)  # kept alive, so no two of them share an id
        folds[id(rec)] += 1
        return orig_sub(rec, plugin, memo)

    monkeypatch.setattr(certify, "_dec_elem", dec)
    monkeypatch.setattr(certify, "_resolve_elem", res)
    monkeypatch.setattr(certify, "_recompute_sub", sub)
    assert all_accept(verify_all(g, labels, prop, k))
    assert len(tails) < len(payloads)  # payloads share element records
    assert set(tails.values()) == {1}
    assert {folds[i] for i in resolved} == {1}


def test_verify_all_decodes_each_part_once(monkeypatch):
    # One verify_all parses each distinct table entry once, decodes each
    # distinct T-node payload and element record once, and builds each
    # relayed chain once, not once per label that relays it, though its
    # carriers share prefixes of different lengths with their own chains.
    g, ir = generate(GeneratorSpec("random-ops", 60, 3, 0.3), 0)
    labels = prove(g, "parity", 3, ir=ir)
    decoded = [decode_label(bits) for bits in labels.values()]
    carried = sum(len(lab.routes) for lab in decoded)
    named = sum(len(list(certify._elem_uses(sec.elem))) + 1 for lab in decoded for sec in lab.tnodes)
    entries, payloads, records, relays = Counter(), Counter(), Counter(), Counter()
    orig_basic, orig_tnode = certify._basic_of, certify._dec_tnode
    orig_elem, orig_chain = certify._dec_elem, certify._relayed_sections

    def basic(mask, maps, term, b, n):
        entries[(n, mask, maps, term)] += 1
        return orig_basic(mask, maps, term, b, n)

    def tnode(payload, b, n, sw, nested, memo):
        payloads[(n, sw, nested, payload)] += 1
        return orig_tnode(payload, b, n, sw, nested, memo)

    def elem(r, b, n, sw):
        rest = r.remaining()
        records[(n, sw, Bits(r.bits.value & ((1 << rest) - 1), rest))] += 1
        return orig_elem(r, b, n, sw)

    def chain(prefix, pointers, rest):
        got = orig_chain(prefix, pointers, rest)
        relays[tuple((s.node_eid, id(s.basic), id(s.elem), s.dist, s.is_tree, s.parent_min) for s in got)] += 1
        return got

    monkeypatch.setattr(certify, "_basic_of", basic)
    monkeypatch.setattr(certify, "_dec_tnode", tnode)
    monkeypatch.setattr(certify, "_dec_elem", elem)
    monkeypatch.setattr(certify, "_relayed_sections", chain)
    assert all_accept(verify_all(g, labels, "parity", 3))
    for counts in (entries, payloads, records, relays):
        assert counts and set(counts.values()) == {1}
    assert len(relays) < carried / 2
    assert len(entries) < named / 4


def test_uncached_verify_vertex_decodes_each_record_once(monkeypatch):
    # One verify_vertex call without a cache, as a vertex verifies alone:
    # each distinct element record among its incident labels, in their own
    # chains and the sections of relayed chains they write, is decoded
    # once, though the labels repeat records (shared root sections, one
    # chain relayed by two carriers).
    g, ir = generate(GeneratorSpec("random-ops", 60, 3, 0.3), 0)
    labels = prove(g, "parity", 3, ir=ir)
    b = id_bits(g.n)
    views, expected, repeats = list(local_views(g, labels)), [], 0
    for view in views:
        keys = []
        for bits in view.labels.values():
            lab = decode_label(bits)
            # A route writes its relayed chain's sections after the prefix
            # it shares with an earlier chain of the label, q of them.
            written = [(lab.tnodes, 0)] + [(rs.tnodes, rl.q) for rs, rl in zip(lab.routes, read_layout(bits).routes)]
            for chain, q in written:
                head = certify._Header(g.n, lab.w)
                states = certify._enc_chain(chain, head)
                payloads = certify._payloads(chain, states, head)
                sw = certify._index_bits(len(states[-1].order))
                keys += [
                    (g.n, sw, _split_tnode(p, sw, pos > 0)[1])
                    for pos, p in enumerate(payloads) if pos >= q
                ]
        expected.append(set(keys))
        repeats += len(keys) > len(set(keys))
    assert repeats > len(views) / 2
    records = []
    orig = certify._dec_elem

    def elem(r, b, n, sw):
        rest = r.remaining()
        records.append((n, sw, Bits(r.bits.value & ((1 << rest) - 1), rest)))
        return orig(r, b, n, sw)

    monkeypatch.setattr(certify, "_dec_elem", elem)
    for view, keys in zip(views, expected):
        records.clear()
        assert verify_vertex(view, "parity", 3).accept
        assert len(records) == len(keys) and set(records) == keys, view.vid


def _split_tnode(payload: Bits, sw: int, nested: bool):
    """(prefix, element tail) of a T-node section payload with sw-bit slots,
    as _dec_tnode reads it at a nested or at the root position, or None
    when its prefix does not decode."""
    r = BitReader(payload)
    try:
        if nested:
            r.read_bit()  # side
        else:
            r.read_varint()
            r.read_uint(sw)
        r.read_varint()
        r.read_bit()
        r.read_bit()
    except DecodeError:
        return None
    tail = r.read_bits(r.remaining())
    return Bits(payload.value >> tail.nbits, payload.nbits - tail.nbits), tail


def _join(head: Bits, tail: Bits) -> Bits:
    return Bits((head.value << tail.nbits) | tail.value, head.nbits + tail.nbits)


def _flip(bits: Bits, rng) -> Bits:
    """bits with one bit flipped: a small lie, more often still decodable
    than fuzz's multi-bit flips."""
    return Bits(bits.value ^ (1 << rng.randrange(bits.nbits)), bits.nbits)


def _part_mutants(labels, rng):
    """Mutants of labels that change one T-node section payload of one label
    in its element tail only, or in its prefix only (the root's node eid and
    BasicInfo slot or a nested section's side bit, then the pointer fields),
    by a bit flip or by taking that part of another payload."""
    parts = []  # (edge, chain position, prefix, tail)
    for e in sorted(labels):
        try:
            decode_label(labels[e])
        except DecodeError:
            continue
        lay = read_layout(labels[e])
        sw = certify._index_bits(lay.m)
        for pos, payload in enumerate(lay.tnodes):
            split = _split_tnode(payload, sw, pos > 0)
            if split is not None and split[1].nbits:
                parts.append((e, pos) + split)
    out = []
    if not parts:
        return out
    for part in (0, 1):  # 0: the prefix, 1: the element tail
        e, pos, *pt = rng.choice(parts)
        donor = rng.choice(parts)[2:]
        for new in (_flip(pt[part], rng), donor[part]):
            pt2 = list(pt)
            pt2[part] = new
            lay = read_layout(labels[e])
            lay.tnodes[pos] = _join(*pt2)
            out.append({**labels, e: write_layout(lay)})
    return out


@pytest.mark.parametrize("name,g,ir,prop,k", [pytest.param(*c, id=c[0]) for c in _campaigns()])
def test_element_part_mutants_verdicts_equal_uncached(name, g, ir, prop, k):
    # Per mutation, mutants that then change only the element tail or only
    # the prefix of one payload: every vertex's verdict, with a fresh run
    # memo and with one memo shared across all of them, equals verify_vertex
    # without a memo.
    base = prove(g, prop, k, ir=ir, force=True)
    rng = random.Random("parts-" + name)
    shared = {}
    edited = 0
    for mutation in MUTATIONS:
        for _ in range(3):
            for labels in _part_mutants(mutate(base, mutation, rng), rng):
                edited += 1
                views = list(local_views(g, labels))
                uncached = {view.vid: verify_vertex(view, prop, k) for view in views}
                assert verify_all(g, labels, prop, k) == uncached, mutation
                assert {
                    view.vid: verify_vertex(view, prop, k, shared) for view in views
                } == uncached, mutation
    assert edited > 0


def _cycles_made(fn, *args, **kwargs) -> int:
    """The objects that the collector finds unreachable after
    fn(*args, **kwargs): those of the reference cycles fn made and
    dropped.  Run with the collector paused."""
    gc.collect()
    fn(*args, **kwargs)
    return gc.collect()


def test_pipeline_makes_no_reference_cycles():
    # prove, prove_forced and verify_all pause the cyclic collector, which
    # is only free if they make no cycles: a cycle they drop would stay in
    # memory until the collector next runs.  The merge tree that
    # build_hierarchical_decomposition drops links parents and children
    # both ways, so that function must cut the links.
    enabled = gc.isenabled()
    gc.disable()
    try:
        for family, n, k, prop in (("cycle", 60, 2, "bipartite"), ("random-ops", 60, 3, "parity")):
            g, ir = generate(GeneratorSpec(family, n, k, 0.3), 0)
            lp, _ = build_lane_partition(g, ir)
            ops = completion_to_op_sequence(g, ir, lp)
            assert _cycles_made(build_hierarchical_decomposition, ops) == 0, family
            assert _cycles_made(prove, g, prop, k, ir=ir) == 0, family
            labels = prove(g, prop, k, ir=ir)
            assert _cycles_made(verify_all, g, labels, prop, k) == 0, family
        assert _cycles_made(fuzz_soundness, cycle_graph(7), "bipartite", 2, 105, 7) == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_entry_points_leave_the_collector_as_they_found_it(monkeypatch, enabled):
    # The pause covers the whole pipeline, and ends with the collector in
    # the state it started in, also when prove refuses the statement.
    during = []

    def watched(fn):
        def call(*args):
            during.append(gc.isenabled())
            return fn(*args)
        return call

    monkeypatch.setattr(certify, "_annotate", watched(certify._annotate))
    monkeypatch.setattr(certify, "verify_vertex", watched(certify.verify_vertex))
    g = cycle_graph(6)
    labels = prove(g, "bipartite", 2)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        prove(g, "bipartite", 2)
        assert gc.isenabled() is enabled
        prove_forced(cycle_graph(5), "bipartite", 2)
        assert gc.isenabled() is enabled
        verify_all(g, labels, "bipartite", 2)
        assert gc.isenabled() is enabled
        with pytest.raises(CertifyError):
            prove(cycle_graph(5), "bipartite", 2)  # false, and not forced
        assert gc.isenabled() is enabled
        with pytest.raises(CertifyError):
            prove(build_graph(4, [(0, 1), (2, 3)]), "bipartite", 1)  # disconnected
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during and not any(during)
