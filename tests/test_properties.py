import dataclasses
import random
from collections import Counter

import pytest

from lanecert import certify
from lanecert.certify import (
    CertifyError,
    _recompute_sub,
    all_accept,
    annotate_classes,
    decode_label,
    local_views,
    prove,
    resolve_property,
    verify_all,
    verify_vertex,
)
from lanecert.encoding import BitReader, BitWriter, DecodeError, read_term, write_term
from lanecert.generators import GeneratorSpec, generate
from lanecert.graph import build_graph, edge_key
from lanecert.intervals import width
from lanecert.properties import (
    PLUGINS,
    HomClass,
    PropertyError,
    brute_force_property,
    get_plugin,
)
from lanecert.recursive import (
    EInsert,
    OpSequence,
    VInsert,
    apply_op_sequence,
    build_hierarchical_decomposition,
)
from tests.test_memo import _basics, _with_term
from tests.test_recursive import random_op_sequence


def hd_of(k, ops):
    return build_hierarchical_decomposition(OpSequence(k, tuple(range(k)), tuple(ops)))


def fold(hd, plugin, marks=None):
    """(root class, accepted); without marks, every edge is marked."""
    if marks is None:
        marks = {e: 1 for e in hd.root.edges}
    ann = annotate_classes(hd, plugin, marks)
    return ann.root.cls, ann.accepted


# Op sequences realizing a 6-cycle and a 5-cycle at k=2.
C6_OPS = [VInsert(2, 2), VInsert(2, 3), VInsert(1, 4), VInsert(1, 5), EInsert(1, 2)]
C5_OPS = [VInsert(2, 2), VInsert(1, 3), VInsert(1, 4), EInsert(1, 2)]


def path_hd(n):
    return hd_of(1, [VInsert(1, v) for v in range(1, n)])


def test_leaf_classes_frozen():
    bip = PLUGINS["bipartite"]
    c = bip.base_edge(3, 1)
    # One part: atom 0 is its rep (2*0 + 0), atom 1 has the other colour.
    assert c.atoms == ((3, 1), (3, 2))
    assert c.term == (0, 1)
    # An unmarked edge leaves two parts, each atom its own rep.
    skipped = bip.base_edge(3, 0)
    assert skipped.term == (0, 2)
    # A 3-path colours its two ends alike.
    assert bip.base_path(3, [1, 1]).term == (0, 1, 0)

    par = PLUGINS["parity"]
    one = par.base_vleaf(1)
    two = par.base_edge(1, 1)
    assert one.term == 1 and two.term == 0
    assert par.compose_bridge(one, par.base_vleaf(2), 1, 2, 1).term == 0

    mat = PLUGINS["matching"]
    p3 = mat.base_path(3, [1, 1])
    # A 3-path: all exposed (0b111), or one matched edge leaving one
    # endpoint exposed (0b001, 0b100); the masks sorted.
    assert p3.term == (0b001, 0b100, 0b111)

    forest = PLUGINS["acyclic"]
    e = forest.base_edge(2, 1)
    # One part, atom 0 its rep; an unmarked edge leaves two parts.
    assert e.term == (0, 0)
    assert forest.base_edge(2, 0).term == (0, 1)
    assert forest.base_path(3, [1, 1]).term == (0, 0, 0)


def test_simple_graphs():
    for name, hd, expect in [
        ("bipartite", hd_of(2, C6_OPS), True),
        ("bipartite", hd_of(2, C5_OPS), False),
        ("acyclic", hd_of(2, C6_OPS), False),
        ("acyclic", path_hd(5), True),
        ("matching", path_hd(4), True),
        ("matching", path_hd(3), False),
        ("parity", path_hd(4), True),
        ("parity", path_hd(5), False),
        ("matching", hd_of(2, C6_OPS), True),
        ("matching", hd_of(2, C5_OPS), False),
    ]:
        _, accepted = fold(hd, PLUGINS[name])
        assert accepted == expect, name


def test_marked_variant_ignores_unmarked_edges():
    hd = hd_of(2, C6_OPS)
    g = apply_op_sequence(OpSequence(2, (0, 1), tuple(C6_OPS)))
    marks = {e: 1 for e in g.edges}
    # Drop one cycle edge from the marked subgraph: becomes acyclic.
    marks[edge_key(0, 1)] = 0
    assert fold(hd, PLUGINS["acyclic"], marks)[1]
    assert not fold(hd, PLUGINS["acyclic"])[1]


def test_get_plugin():
    # Both names of a property resolve to its one plugin; an unknown name's
    # error lists every accepted one.
    assert resolve_property("marked-matching") == (True, get_plugin("matching"))
    assert resolve_property("matching") == (False, get_plugin("matching"))
    for name in ("planarity", "marked-planarity"):
        with pytest.raises(PropertyError) as exc:
            resolve_property(name)
        assert str(exc.value).endswith(
            "(available: acyclic, bipartite, marked-acyclic, marked-bipartite, "
            "marked-matching, marked-parity, matching, parity)"
        )


def graph_with_marks(s, marks):
    applied = apply_op_sequence(s)
    n = len(applied.vertices)
    return build_graph(n, applied.edges, {}, marks)


def test_oracle_agreement():
    rng = random.Random(40)
    for _ in range(250):
        s = random_op_sequence(rng, k=rng.randrange(1, 4), max_ops=9)
        applied = apply_op_sequence(s)
        marks = {e: rng.randrange(0, 2) for e in applied.edges}
        g = graph_with_marks(s, marks)
        hd = build_hierarchical_decomposition(s)
        for name, plugin in PLUGINS.items():
            assert fold(hd, plugin)[1] == brute_force_property(g, name), (name, s)
            assert fold(hd, plugin, marks)[1] == brute_force_property(g, "marked-" + name), (name, s)


def test_fold_order_independent():
    # Folding a record's children in any order gives the same subtree info.
    rng = random.Random(41)
    for _ in range(60):
        s = random_op_sequence(rng, max_ops=15)
        hd = build_hierarchical_decomposition(s)
        marks = {e: rng.randrange(0, 2) for e in apply_op_sequence(s).edges}
        for p in PLUGINS.values():
            ann = annotate_classes(hd, p, marks)
            for rec in ann.records.values():
                for _ in range(3):
                    kids = list(rec.children)
                    rng.shuffle(kids)
                    permuted = dataclasses.replace(rec, children=tuple(kids))
                    assert _recompute_sub(permuted, p, {}) == ann.sub[rec.eid]


def test_fold_terms_roundtrip_the_codec():
    # Every class a random fold reaches, for every plugin, has a term the
    # codec writes and reads back equal, and the state that term reads to
    # has that term as its canonical one.
    rng = random.Random(43)
    kinds = Counter()
    for _ in range(60):
        s = random_op_sequence(rng, max_ops=15)
        hd = build_hierarchical_decomposition(s)
        marks = {e: rng.randrange(0, 2) for e in apply_op_sequence(s).edges}
        for name, p in PLUGINS.items():
            for bi in annotate_classes(hd, p, marks).sub.values():
                t = bi.cls.term
                w = BitWriter()
                write_term(w, t)
                r = BitReader(w.getvalue())
                assert read_term(r) == t and r.remaining() == 0
                assert p._alg.canon(p._unpack(bi.cls), len(bi.cls.atoms)) == t
                kinds[name, type(t).__name__] += 1
    # Folds reach both forms wherever a plugin has both (partition terms
    # fall to the int 0 when the property fails).
    for name in PLUGINS:
        assert kinds[name, "tuple" if "parity" not in name else "int"] > 0, name
    for name in ("acyclic", "bipartite"):
        assert kinds[name, "int"] > 0 and kinds[name, "tuple"] > 0, name


@pytest.mark.parametrize("name", sorted(PLUGINS))
def test_honest_terms_at_k3_read_back_alone(name):
    # Every class term the prover annotates at k = 3, each written as a
    # bitstring of its own, reads back equal and uses every bit: the term
    # reader's count guard lets every honest term through.
    g, ir = generate(GeneratorSpec("random-ops", 40, 3, 0.3), 5)
    ann = certify._annotate(g, name, 3, ir)[3]
    for t in {bi.cls.term for bi in ann.sub.values()}:
        w = BitWriter()
        write_term(w, t)
        r = BitReader(w.getvalue())
        assert read_term(r) == t and r.remaining() == 0, t


def append_suffix(prefix: OpSequence, suffix_ops):
    """Append abstract suffix ops, remapping fresh vertex ids past the prefix."""
    applied = apply_op_sequence(prefix)
    nxt = max(applied.vertices) + 1
    ops = list(prefix.ops)
    for op in suffix_ops:
        if isinstance(op, VInsert):
            ops.append(VInsert(op.lane, nxt))
            nxt += 1
        else:
            ops.append(op)
    return OpSequence(prefix.k, prefix.initial, tuple(ops))


def test_class_congruence():
    # Fragments with equal classes are interchangeable in any context: if two
    # prefixes have the same root class, extending both with the same suffix
    # yields the same acceptance.
    rng = random.Random(42)
    matched = 0
    for _ in range(400):
        k = rng.randrange(2, 4)
        p1 = random_op_sequence(rng, k=k, max_ops=8)
        p2 = random_op_sequence(rng, k=k, max_ops=8)
        suffix = random_op_sequence(rng, k=k, max_ops=6).ops
        try:
            e1 = append_suffix(p1, suffix)
            e2 = append_suffix(p2, suffix)
            g1, g2 = apply_op_sequence(e1), apply_op_sequence(e2)
        except Exception:
            continue  # suffix invalid for one prefix; skip the pair
        h1, h2 = (build_hierarchical_decomposition(p) for p in (p1, p2))
        x1, x2 = (build_hierarchical_decomposition(e) for e in (e1, e2))
        for name, plugin in PLUGINS.items():
            if fold(h1, plugin)[0] == fold(h2, plugin)[0]:
                matched += 1
                assert fold(x1, plugin)[1] == fold(x2, plugin)[1], name
    assert matched > 100


def test_annotate_covers_all_elements():
    rng = random.Random(43)
    s = random_op_sequence(rng, k=3, max_ops=20)
    hd = build_hierarchical_decomposition(s)
    ann = annotate_classes(hd, PLUGINS["bipartite"], {e: 1 for e in hd.root.edges})
    eids = set()
    stack = [hd.root]
    while stack:
        t = stack.pop()
        for el in t.elements():
            eids.add(el.eid)
            if el.kind == "B":
                for child in (el.payload.left, el.payload.right):
                    if hasattr(child, "root_element"):
                        stack.append(child)
    assert set(ann.records) == eids and set(ann.sub) == eids
    assert [el.eid for el in hd.elements] == sorted(eids)
    assert ann.root == ann.sub[hd.root.root_element.eid]


def test_validate_class_rejects_garbage():
    bip = PLUGINS["bipartite"]
    with pytest.raises(PropertyError):
        bip.accepts(HomClass(((1, 1),), ((0,),)))  # lone "in" role
    with pytest.raises(PropertyError):
        bip.accepts(HomClass(((1, 0),), ((4,),)))  # the old colouring-set form
    with pytest.raises(PropertyError):
        PLUGINS["acyclic"].accepts(HomClass(((1, 0),), ()))  # not one per atom
    with pytest.raises(PropertyError):
        PLUGINS["parity"].accepts(HomClass(((1, 0),), 7))
    bip.accepts(bip.base_edge(1, 1))
    # Masks out of the order canon sorts them in, repeated, past the atoms,
    # negative or nested.
    two = ((1, 1), (1, 2))
    for term in ((3, 0), (0, 0), (0, 4), (-1, 3), ((0,), 3), 3):
        with pytest.raises(PropertyError):
            PLUGINS["matching"].accepts(HomClass(two, term))
    # A part's rep that is not its lowest atom, a rep past the atom, the
    # bipartite form of two parts, a non-int entry.
    for term in ((1, 1), (1, 0), (0, 2), ((0,), 1), (0,), ((0,), (1,))):
        with pytest.raises(PropertyError):
            PLUGINS["acyclic"].accepts(HomClass(two, term))
    assert PLUGINS["matching"].accepts(HomClass(two, (0, 3)))
    assert not PLUGINS["matching"].accepts(HomClass(two, (3,)))
    assert PLUGINS["acyclic"].accepts(HomClass(two, (0, 1)))
    assert PLUGINS["acyclic"].accepts(HomClass(two, (0, 0)))
    assert not PLUGINS["acyclic"].accepts(HomClass(two, 0))
    for term in NONCANONICAL_BIPARTITE:
        with pytest.raises(PropertyError):
            bip.accepts(HomClass(((1, 1), (1, 2)), term))


# Bipartite terms over two atoms that are not canonical: a wrong length,
# rep(1) = 2 > 1, rep 0's own entry odd (as atom 1's rep and as a self-rep),
# and a non-int entry.
NONCANONICAL_BIPARTITE = [(0,), (0, 4), (1, 1), (0, 3), (0, (0,))]


def _noncanonical_like(term):
    """The NONCANONICAL_BIPARTITE cases of the same kinds, over len(term)
    atoms.  The non-int entry has no wire form (see
    test_noncanonical_bipartite_term_is_malformed)."""
    n = len(term)
    yield (0,) * (n + 1)
    yield (0,) * (n - 1) + (2 * n,)
    yield (1,) + term[1:]
    yield (0,) * (n - 1) + (2 * (n - 1) + 1,)


def test_noncanonical_bipartite_term_is_malformed(monkeypatch):
    # Every BasicInfo of the root's class in every label gets a bad term;
    # a vertex that folds or checks that class must say malformed.
    g, ir = generate(GeneratorSpec("cycle", 8, 2, 0.3), 0)
    labels = prove(g, "bipartite", 2, ir=ir)
    root = decode_label(next(iter(labels.values()))).tnodes[0].basic
    assert len(root.cls.term) == len(root.cls.atoms) > 1
    for term in _noncanonical_like(root.cls.term):
        bad = {e: _with_term(bits, root, term) for e, bits in labels.items()}
        verdicts = verify_all(g, bad, "bipartite", 2)
        reasons = {v.reason for v in verdicts.values()}
        assert "malformed" in reasons, term
        for view in local_views(g, bad):
            assert verify_vertex(view, "bipartite", 2) == verdicts[view.vid]
    # A nested entry cannot be written; its wire-level counterpart is the
    # root term packed one bit wider than its widest entry, which no label
    # decodes and both endpoints of every edge reject.
    with pytest.raises(ValueError):
        _with_term(next(iter(labels.values())), root, ((0,),) + root.cls.term[1:])
    orig = certify.write_term

    def wide(w, t):
        if t != root.cls.term:
            return orig(w, t)
        width = max(t).bit_length() + 1
        w.write_bit(1)
        w.write_gamma(len(t))
        w.write_gamma(width)
        for e in t:
            w.write_uint(e, width)

    with monkeypatch.context() as mp:
        mp.setattr(certify, "write_term", wide)
        bad = {e: _with_term(bits, root, root.cls.term) for e, bits in labels.items()}
    verdicts = verify_all(g, bad, "bipartite", 2)
    for e, bits in bad.items():
        with pytest.raises(DecodeError):
            decode_label(bits)
        assert verdicts[e[0]].reason == verdicts[e[1]].reason == "decode"
    for view in local_views(g, bad):
        assert verify_vertex(view, "bipartite", 2) == verdicts[view.vid]


@pytest.mark.parametrize("family,n,k,prop", [("caterpillar", 20, 1, "acyclic"),
                                             ("path", 12, 1, "matching")])
def test_unsorted_set_terms_are_malformed(family, n, k, prop):
    # A class whose term lists two or more exposed sets (matching) gets them
    # in reverse order, or one with a part of two or more atoms (acyclic)
    # names its highest atom as that part's rep, everywhere it appears; a
    # vertex that folds or checks it must say malformed.
    g, ir = generate(GeneratorSpec(family, n, k, 0.3), 0)
    labels = prove(g, prop, k, ir=ir)

    def forged(t):
        if not isinstance(t, tuple):
            return None
        if prop == "matching":
            return t[::-1] if len(t) > 1 else None
        rep = next((r for r in t if t.count(r) > 1), None)
        if rep is None:
            return None
        top = max(i for i, r in enumerate(t) if r == rep)
        return tuple(top if r == rep else r for r in t)

    target = next(
        bi
        for bits in labels.values()
        for bi in _basics(decode_label(bits))
        if forged(bi.cls.term) is not None
    )
    bad = {e: _with_term(bits, target, forged(target.cls.term)) for e, bits in labels.items()}
    assert bad != labels
    verdicts = verify_all(g, bad, prop, k)
    assert "malformed" in {v.reason for v in verdicts.values()}
    for view in local_views(g, bad):
        assert verify_vertex(view, prop, k) == verdicts[view.vid]


def test_brute_force_guards():
    g = build_graph(12, [])
    with pytest.raises(PropertyError):
        brute_force_property(g, "parity")
    with pytest.raises(PropertyError):
        brute_force_property(build_graph(2, []), "unknown")
    assert brute_force_property(build_graph(2, [(0, 1)]), "matching")
    assert not brute_force_property(
        build_graph(2, [(0, 1)], {}, {(0, 1): 0}), "marked-matching"
    )


# (n, seed) of random-ops graphs at k = 3 and density 0.3: graphs with
# cycles and witness width up to 4.  The first seven are bipartite.
K3_CASES = [(10, 21), (10, 24), (14, 24), (14, 34), (18, 34), (18, 54), (22, 34)]
K3_CASES += [(n, seed) for n in (10, 18, 26, 30) for seed in range(2)]


def _k3_instance(n, seed, prop):
    """The K3_CASES graph and witness; for a marked property, about 70% of
    the edges get tag 1, so odd cycles survive in some marked subgraphs."""
    g, ir = generate(GeneratorSpec("random-ops", n, 3, 0.3), seed)
    if prop.startswith("marked-"):
        rng = random.Random(seed)
        tags = {e: int(rng.random() < 0.7) for e in g.edges}
        g = build_graph(g.n, g.edges, None, tags)
    return g, ir


@pytest.mark.parametrize("prop", ["bipartite", "marked-bipartite"])
def test_bipartite_at_k3_matches_oracle(prop):
    verdicts = set()
    for n, seed in K3_CASES:
        g, ir = _k3_instance(n, seed, prop)
        assert len(g.edges) >= g.n
        labels = prove(g, prop, 3, ir=ir, force=True)
        accepted = all_accept(verify_all(g, labels, prop, 3))
        assert accepted == brute_force_property(g, prop, limit=g.n), (n, seed)
        verdicts.add(accepted)
    assert verdicts == {True, False}


# (n, seed) of random-ops graphs at k = 3 and density 0.3, each with a
# cycle, n <= 24: odd and even orders, then three whose marked edges (as
# _k3_instance tags them) hold a perfect matching.
K3_ALL_CASES = [(n, seed) for n in (9, 12, 15, 18, 21, 24) for seed in range(3)] + [(10, 1), (12, 7), (14, 7)]


@pytest.mark.parametrize(
    "prop", ["parity", "acyclic", "marked-parity", "marked-bipartite", "marked-acyclic", "marked-matching"]
)
def test_every_property_at_k3_matches_oracle(prop):
    # At k = 3 on graphs with cycles, every vertex accepts the prover's
    # labels of a true statement, the prover refuses a false one, and some
    # vertex rejects its forced labels.  (Every graph here has a cycle, so
    # acyclic is never true; marked-acyclic is, on some marked subgraphs.)
    verdicts = set()
    for n, seed in K3_ALL_CASES:
        g, ir = _k3_instance(n, seed, prop)
        assert len(g.edges) >= g.n
        holds = brute_force_property(g, prop, limit=g.n)
        if holds:
            labels = prove(g, prop, 3, ir=ir)
        else:
            with pytest.raises(CertifyError):
                prove(g, prop, 3, ir=ir)
            labels = prove(g, prop, 3, ir=ir, force=True)
        assert all_accept(verify_all(g, labels, prop, 3)) == holds, (n, seed)
        verdicts.add(holds)
    assert verdicts == ({False} if prop == "acyclic" else {True, False})


# (n, seed) of random-ops graphs at k = 3 and density 0.3 for matching: the
# two with the largest matching labels in a scan of seeds (both have a
# perfect matching), then graphs of odd order.
MATCHING_K3_CASES = [(28, 609067), (22, 602179), (9, 1), (13, 2), (17, 3), (21, 4)]


def test_matching_at_k3_matches_oracle():
    verdicts = set()
    for n, seed in MATCHING_K3_CASES:
        g, ir = generate(GeneratorSpec("random-ops", n, 3, 0.3), seed)
        assert width(ir) - 1 == 3
        labels = prove(g, "matching", 3, ir=ir, force=True)
        accepted = all_accept(verify_all(g, labels, "matching", 3))
        assert accepted == brute_force_property(g, "matching", limit=g.n), (n, seed)
        verdicts.add(accepted)
        if (n, seed) == (28, 609067):
            # Sorted exposed-set masks keep this instance's labels small
            # (41.8 Mbit as lists of atom indices).
            assert sum(bits.nbits for bits in labels.values()) <= 10_000_000
    assert verdicts == {True, False}


def test_marked_bipartite_state_stays_linear_in_atoms():
    # A colouring-set state ran out of memory on this instance (13 atoms,
    # a join of 2**20 pairs).  The state is one int per atom.
    g, ir = generate(GeneratorSpec("random-ops", 18, 3, 0.3), 484523)
    labels = prove(g, "marked-bipartite", 3, ir=ir, force=True)
    verdicts = verify_all(g, labels, "marked-bipartite", 3)
    assert all_accept(verdicts) == brute_force_property(
        g, "marked-bipartite", limit=g.n
    )
    root = decode_label(next(iter(labels.values()))).tnodes[0].basic.cls
    assert isinstance(root.term, tuple)
    assert len(root.term) == len(root.atoms)
