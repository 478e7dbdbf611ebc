import json
from pathlib import Path

import pytest

from lanecert import cli
from lanecert.cli import main
from lanecert.graph import read_graph_file, write_graph_file
from lanecert.intervals import read_interval_file
from lanecert.lanes import LaneError, build_lane_partition
from lanecert.recursive import EInsert, OpSequence, VInsert, completion_to_op_sequence
from tests.test_graph import cycle_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "gen", "--family", "path")[0] == 2
    assert run(capsys, "prove", "--graph", "/no/such", "--property", "parity",
               "--k", "1", "--out", "/tmp/x")[0] == 2
    for cmd, more in (
        ("decompose", ("--graph", "g")),
        ("prove", ("--graph", "g", "--property", "parity", "--out", "l")),
        ("verify", ("--graph", "g", "--labels", "l", "--property", "parity")),
        ("fuzz", ("--graph", "g", "--property", "parity")),
        ("bench", ("--family", "path", "--sizes", "8", "--property", "parity")),
    ):
        code, out, err = run(capsys, cmd, *more, "--k", "-1")
        assert code == 2 and out == "" and "argument --k" in err, (cmd, err)


def test_gen_decompose(tmp_path, capsys):
    gfile = str(tmp_path / "g.txt")
    ifile = str(tmp_path / "g.iv")
    code, out, _ = run(
        capsys, "gen", "--family", "cycle", "--n", "8",
        "--out-graph", gfile, "--out-intervals", ifile, "--json",
    )
    assert code == 0
    assert json.loads(out) == {"family": "cycle", "n": 8, "edges": 8, "width": 3}
    # Seed 0's lane heads are not 0..k-1, so its op file has an #initial
    # line; seed 1's are, so its file has none.
    lanes_file, ops_file = tmp_path / "lanes.txt", tmp_path / "ops.txt"
    kinds = {"V": VInsert, "E": EInsert}
    for seed in ("0", "1"):
        run(capsys, "gen", "--family", "random-ops", "--n", "12", "--k", "2",
            "--seed", seed, "--out-graph", gfile, "--out-intervals", ifile)
        code, out, _ = run(
            capsys, "decompose", "--graph", gfile, "--intervals", ifile, "--k", "2",
            "--out-lanes", str(lanes_file), "--out-ops", str(ops_file), "--dump",
        )
        assert code == 0
        g = read_graph_file(Path(gfile).read_text())
        ir = read_interval_file(Path(ifile).read_text(), g.n)
        lp, _ = build_lane_partition(g, ir)
        ops = completion_to_op_sequence(g, ir, lp)
        lanes = lanes_file.read_text().splitlines()
        assert tuple(tuple(int(v) for v in ln.split()) for ln in lanes) == lp.lanes
        k, *body = ops_file.read_text().splitlines()
        initial = tuple(range(int(k)))
        if seed == "0":
            head, *body = body
            assert head.startswith("#initial ")
            initial = tuple(int(v) for v in head.split()[1:])
        parsed = OpSequence(
            int(k),
            initial,
            tuple(kinds[kind](int(a), int(b)) for kind, a, b in map(str.split, body)),
        )
        assert parsed == ops


def test_decompose_witness_too_wide(tmp_path, capsys):
    gfile = str(tmp_path / "g.txt")
    ifile = str(tmp_path / "g.iv")
    run(capsys, "gen", "--family", "cycle", "--n", "8",
        "--out-graph", gfile, "--out-intervals", ifile)
    code, out, err = run(
        capsys, "decompose", "--graph", gfile, "--intervals", ifile, "--k", "1",
    )
    assert code == 1 and out == "" and "witness width 3 exceeds 2" in err


def test_gen_determinism(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for f in (a, b):
        run(capsys, "gen", "--family", "random-ops", "--n", "20", "--k", "2",
            "--seed", "9", "--out-graph", f)
    assert Path(a).read_text() == Path(b).read_text()


def test_gen_density_of_one_is_usage_error(tmp_path, capsys):
    out_graph = tmp_path / "g"
    code, out, err = run(capsys, "gen", "--family", "random-ops", "--n", "5", "--k", "3",
                         "--density", "1", "--out-graph", str(out_graph))
    assert code == 2 and out == "" and "density" in err, err
    assert not out_graph.exists()


def test_prove_verify_stats_roundtrip(tmp_path, capsys):
    gfile = str(tmp_path / "g.txt")
    lfile = str(tmp_path / "l.txt")
    run(capsys, "gen", "--family", "cycle", "--n", "6", "--out-graph", gfile)
    code, out, _ = run(
        capsys, "prove", "--graph", gfile, "--property", "bipartite",
        "--k", "2", "--out", lfile, "--json",
    )
    assert code == 0 and not json.loads(out)["refused"]
    code, out, _ = run(
        capsys, "verify", "--graph", gfile, "--labels", lfile,
        "--property", "bipartite", "--k", "2", "--json",
    )
    assert code == 0 and json.loads(out)["accept"]
    code, out, _ = run(capsys, "stats", "--labels", lfile, "--json")
    assert code == 0 and json.loads(out)["count"] == 6
    # Wrong property claim: same labels must be rejected with exit 1.
    code, out, _ = run(
        capsys, "verify", "--graph", gfile, "--labels", lfile,
        "--property", "acyclic", "--k", "2",
    )
    assert code == 1


def test_verify_json_reasons(tmp_path, capsys):
    # Honest bipartite labels checked as acyclic: every rejecting vertex is
    # counted under its reason.
    gfile = str(tmp_path / "g.txt")
    lfile = str(tmp_path / "l.txt")
    run(capsys, "gen", "--family", "cycle", "--n", "6", "--out-graph", gfile)
    run(capsys, "prove", "--graph", gfile, "--property", "bipartite",
        "--k", "2", "--out", lfile)
    code, out, _ = run(
        capsys, "verify", "--graph", gfile, "--labels", lfile,
        "--property", "acyclic", "--k", "2", "--json",
    )
    rep = json.loads(out)
    assert code == 1 and rep["rejects"] > 0
    assert sum(rep["reasons"].values()) == rep["rejects"]
    assert "-" not in rep["reasons"]


def test_malformed_label_file_is_usage_error(tmp_path, capsys):
    gfile = str(tmp_path / "g.txt")
    run(capsys, "gen", "--family", "cycle", "--n", "6", "--out-graph", gfile)
    # Field count, ids, hex, a second label of one edge, a self-pair and a
    # negative id.
    for line in ("0 1", "a b 00", "0 1 zz", "0 1 0100\n1 0 0180", "2 2 0100", "-1 3 0100"):
        lfile = str(tmp_path / "bad.txt")
        with open(lfile, "w") as fh:
            fh.write(line + "\n")
        for argv in (
            ("verify", "--graph", gfile, "--labels", lfile,
             "--property", "bipartite", "--k", "2"),
            ("stats", "--labels", lfile),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", (line, argv[0])
            assert err.startswith("error: bad label line"), err
    # verify also refuses a label of a pair that is not an edge of the graph.
    lfile = str(tmp_path / "l.txt")
    run(capsys, "prove", "--graph", gfile, "--property", "bipartite", "--k", "2", "--out", lfile)
    with open(lfile, "a") as fh:
        fh.write("0 3 0100\n")
    code, out, err = run(capsys, "verify", "--graph", gfile, "--labels", lfile, "--property", "bipartite", "--k", "2")
    assert code == 2 and out == "", err
    assert err.startswith("error: bad label line for 0 3"), err


def test_seed_only_where_it_is_read(tmp_path, capsys):
    # gen, fuzz and bench draw random numbers and take --seed; prove does
    # not, and refuses it.
    gfile, lfile = str(tmp_path / "g.txt"), str(tmp_path / "l.txt")
    assert run(capsys, "gen", "--family", "cycle", "--n", "6", "--out-graph", gfile, "--seed", "1")[0] == 0
    code, out, err = run(capsys, "prove", "--graph", gfile, "--property", "bipartite", "--k", "2",
                         "--out", lfile, "--seed", "1")
    assert code == 2 and out == "" and "--seed" in err, err


def test_stray_interval_lines_are_usage_errors(tmp_path, capsys):
    # A second line of a vertex, and a line of a vertex out of range: prove
    # and decompose exit 2 and name the line.
    gfile, ifile = str(tmp_path / "g.txt"), str(tmp_path / "g.iv")
    run(capsys, "gen", "--family", "cycle", "--n", "6", "--out-graph", gfile, "--out-intervals", ifile)
    good = Path(ifile).read_text()
    for bad in ("0 0 1", "7 0 0", "-1 3 3"):
        with open(ifile, "w") as fh:
            fh.write(good + bad + "\n")
        for cmd in ("decompose", "prove"):
            argv = [cmd, "--graph", gfile, "--intervals", ifile, "--k", "2"]
            if cmd == "prove":
                argv += ["--property", "bipartite", "--out", str(tmp_path / "l")]
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "" and repr(bad) in err, (bad, cmd, err)


def test_second_byte_form_of_a_label_is_usage_error(tmp_path, capsys):
    # Each is another byte form of the label 03a0; verify refuses the file.
    gfile = str(tmp_path / "g.txt")
    run(capsys, "gen", "--family", "cycle", "--n", "6", "--out-graph", gfile)
    lfile = str(tmp_path / "labels.txt")
    for text in ("8300a0", "03bf", "03a0ff"):
        with open(lfile, "w") as fh:
            fh.write("0 1 %s\n" % text)
        code, out, err = run(capsys, "verify", "--graph", gfile, "--labels", lfile,
                             "--property", "bipartite", "--k", "2")
        assert code == 2 and out == "", text
        assert err.startswith("error: bad label line"), err


def test_non_integer_token_is_usage_error(tmp_path, capsys):
    gfile = str(tmp_path / "g.txt")
    ifile = str(tmp_path / "g.iv")
    run(capsys, "gen", "--family", "cycle", "--n", "6",
        "--out-graph", gfile, "--out-intervals", ifile)
    good_graph = Path(gfile).read_text()
    good_iv = Path(ifile).read_text()
    cases = (
        (good_graph.replace("0 1\n", "0 x\n", 1), good_iv, "'0 x'"),
        (good_graph.replace("6 6", "6 six", 1), good_iv, "'6 six'"),
        (good_graph, good_iv.replace("0 ", "zero ", 1), "'zero "),
    )
    for graph_text, iv_text, bad in cases:
        for path, text in ((gfile, graph_text), (ifile, iv_text)):
            with open(path, "w") as fh:
                fh.write(text)
        for cmd in ("decompose", "prove"):
            argv = [cmd, "--graph", gfile, "--intervals", ifile, "--k", "2"]
            if cmd == "prove":
                argv += ["--property", "bipartite", "--out", str(tmp_path / "l")]
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", (bad, cmd)
            assert err.startswith("error: non-integer token") and bad in err, err


def test_internal_value_error_is_not_usage_error(tmp_path, capsys, monkeypatch):
    gfile = str(tmp_path / "g.txt")
    run(capsys, "gen", "--family", "cycle", "--n", "6", "--out-graph", gfile)

    def broken(*args, **kwargs):
        raise ValueError("uint 9 does not fit in 3 bits")

    monkeypatch.setattr(cli, "prove", broken)
    with pytest.raises(ValueError, match="does not fit"):
        main(["prove", "--graph", gfile, "--property", "bipartite",
              "--k", "2", "--out", str(tmp_path / "l")])


def test_internal_lane_error_is_not_usage_error(tmp_path, capsys, monkeypatch):
    # No CLI input reaches a LaneError, so one is a bug and propagates.
    gfile = str(tmp_path / "g.txt")
    run(capsys, "gen", "--family", "cycle", "--n", "6", "--out-graph", gfile)

    def broken(*args, **kwargs):
        raise LaneError("vertex 3 in two lanes")

    monkeypatch.setattr(cli, "build_lane_partition", broken)
    with pytest.raises(LaneError, match="two lanes"):
        main(["decompose", "--graph", gfile, "--k", "2"])


def test_bench_bad_sizes_is_usage_error(capsys):
    code, out, err = run(capsys, "bench", "--family", "path", "--sizes", "16,x",
                         "--property", "acyclic", "--k", "1")
    assert code == 2 and out == "" and "--sizes" in err


def test_prove_refusal_exit_code(tmp_path, capsys):
    gfile = str(tmp_path / "c5.txt")
    with open(gfile, "w") as fh:
        fh.write(write_graph_file(cycle_graph(5)))
    code, out, _ = run(
        capsys, "prove", "--graph", gfile, "--property", "bipartite",
        "--k", "2", "--out", str(tmp_path / "l.txt"),
    )
    assert code == 1 and "refused" in out


def test_fuzz_command(tmp_path, capsys):
    gfile = str(tmp_path / "c5.txt")
    with open(gfile, "w") as fh:
        fh.write(write_graph_file(cycle_graph(5)))
    code, out, _ = run(
        capsys, "fuzz", "--graph", gfile, "--property", "bipartite",
        "--k", "2", "--trials", "50", "--seed", "3", "--json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["trials"] == 50 and rep["counterexamples"] == []
    assert sum(sum(c.values()) for c in rep["reasons"].values()) == 50
    assert rep["reasons"]["replay"] == {"root-class": 7}


def test_bench_command(capsys):
    code, out, _ = run(
        capsys, "bench", "--family", "path", "--sizes", "16,64",
        "--property", "acyclic", "--k", "1", "--json",
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [16, 64]
    assert [r["w"] for r in rows] == [2, 2]  # a path's lane count, from the header
    code, out, _ = run(
        capsys, "bench", "--family", "grid", "--sizes", "30", "--property", "bipartite",
        "--k", "3",
    )
    assert code == 0
    head, row = out.splitlines()
    assert head.split()[:3] == ["family", "n", "w"] and row.split()[:3] == ["grid", "30", "7"]


def test_bench_reports_bits_by_section(capsys):
    # Each row splits the mean label into its sections, in --json and in
    # the text table, and the parts add up to the mean label.
    args = ("bench", "--family", "random-ops", "--sizes", "40", "--property", "parity", "--k", "3")
    code, out, _ = run(capsys, *args, "--json")
    assert code == 0
    (row,) = json.loads(out)
    parts = row["mean_bits_by_section"]
    assert list(parts) == ["header", "basic", "tnode", "route", "framing"]
    assert all(parts[name] > 0 for name in parts)
    assert sum(parts.values()) == pytest.approx(row["mean_bits"])
    code, out, _ = run(capsys, *args)
    assert code == 0
    head, line = out.splitlines()
    cells = dict(zip(head.split(), line.split()))
    assert {name: float(cells[name]) for name in parts} == pytest.approx(parts, abs=0.05)


def test_bench_refusal_exit_code(capsys):
    code, out, err = run(capsys, "bench", "--family", "cycle", "--sizes", "10,20",
                         "--property", "acyclic", "--k", "2")
    assert code == 1 and out.startswith("refused: ") and err == ""
