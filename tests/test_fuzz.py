import random

from lanecert import certify, fuzz
from lanecert.bench import bench_label_size
from lanecert.certify import prove, verify_all
from lanecert.fuzz import MUTATIONS, fuzz_soundness, mutate
from lanecert.graph import build_graph
from tests.test_graph import cycle_graph


def test_fuzz_c5_bipartite_no_counterexamples():
    report = fuzz_soundness(cycle_graph(5), "bipartite", 2, 400, seed=70)
    assert report.trials == 400
    assert not report.statement_true
    assert report.counterexamples == []
    assert report.rejects == 400
    # Every trial is counted once, under its mutation and the reason its
    # first rejecting vertex gave.
    assert set(report.reasons) == set(MUTATIONS)
    for i, mutation in enumerate(MUTATIONS):
        trials = len(range(i, 400, len(MUTATIONS)))
        assert sum(report.reasons[mutation].values()) == trials, mutation
        assert "all-accept" not in report.reasons[mutation]
    assert report.reasons["replay"] == {"root-class": len(range(6, 400, 7))}


def test_fuzz_proves_once_on_true_statements(monkeypatch):
    # One prover run gives the base labels and the statement's truth, which
    # comes from the class annotation: one call and one annotation per
    # campaign, on a true statement and on a false one alike.
    calls = []
    annotations = []
    orig, orig_annotate = fuzz.prove, certify.annotate_classes

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    def annotate(*args):
        ann = orig_annotate(*args)
        annotations.append(ann.accepted)
        return ann

    monkeypatch.setattr(fuzz, "prove", counted)
    monkeypatch.setattr(certify, "annotate_classes", annotate)
    report = fuzz_soundness(cycle_graph(6), "bipartite", 2, len(MUTATIONS), seed=75)
    assert report.statement_true and len(calls) == 1 and annotations == [True]
    assert report.reasons["replay"] == {"all-accept": 1}
    calls.clear()
    annotations.clear()
    report = fuzz_soundness(cycle_graph(5), "bipartite", 2, len(MUTATIONS), seed=75)
    assert not report.statement_true and len(calls) == 1 and annotations == [False]
    assert report.reasons["replay"] == {"root-class": 1}


def test_fuzz_path_with_chord():
    # A triangle hanging off a path: not acyclic, not bipartite.
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4)])
    for prop in ("acyclic", "bipartite"):
        report = fuzz_soundness(g, prop, 2, 300, seed=71)
        assert report.counterexamples == []


def test_fuzz_true_statement_replay_accepts():
    # On a true statement the honest replay rounds must all-accept.
    report = fuzz_soundness(cycle_graph(6), "bipartite", 2, len(MUTATIONS), seed=72)
    assert report.statement_true
    assert report.all_accepts >= 1
    assert report.counterexamples == []


def test_fuzz_with_donor_labels():
    # Honest labels of a different (true) instance replayed onto a false one.
    donor = prove(cycle_graph(6), "bipartite", 2)
    report = fuzz_soundness(
        cycle_graph(5), "bipartite", 2, 200, seed=73, donors=[donor]
    )
    assert report.counterexamples == []


def test_mutate_determinism():
    labels = prove(cycle_graph(6), "bipartite", 2)
    for m in MUTATIONS:
        a = mutate(labels, m, random.Random(74))
        b = mutate(labels, m, random.Random(74))
        assert a == b
        if m != "replay":
            # Mutations still verify totally (accept or reject, never crash).
            verify_all(cycle_graph(6), a, "bipartite", 2)


def test_bench_rows():
    rows = bench_label_size("path", [16, 64], "acyclic", 1)
    assert [r.n for r in rows] == [16, 64]
    assert all(r.max_bits > 0 and r.ratio > 0 for r in rows)
    assert rows[1].ratio <= rows[0].ratio * 1.5
