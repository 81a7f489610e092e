import hashlib
import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import targetflow.certify
import targetflow.cli
from targetflow import (PathCover, allocate_drivers, format_edge_list,
                        generate_er, parse_edge_list, solve, verify_cover)
from targetflow.cli import main

from reference import double_cover_drivers

DATA = Path(__file__).parent / "data"
GRAPH = str(DATA / "canonical_edges.txt")
TARGETS = str(DATA / "canonical_targets.txt")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSolveCommand:
    def test_canonical(self, capsys):
        code, out = run(capsys, "solve", GRAPH, TARGETS)
        assert code == 0
        doc = json.loads(out)
        assert doc["min_drivers"] == 1
        assert doc["paths"] == [[9, 7]]
        assert doc["cycles"] == [[2, 3, 6]]
        assert doc["flow_value"] == 3
        assert sorted(doc["attachments"]) == [[0, 2], [0, 9]]

    def test_chain_all_targets(self, capsys, tmp_path):
        gfile = tmp_path / "g.txt"
        gfile.write_text("1 2\n2 3\n")
        tfile = tmp_path / "t.txt"
        tfile.write_text("1\n2\n3\n")
        code, out = run(capsys, "solve", str(gfile), str(tfile))
        assert code == 0
        assert json.loads(out)["min_drivers"] == 1

    def test_unknown_target_label_exits_2(self, capsys, tmp_path):
        tfile = tmp_path / "t.txt"
        tfile.write_text("2\n42\n")
        code, _ = run(capsys, "solve", GRAPH, str(tfile))
        assert code == 2

    def test_malformed_graph_exits_1(self, capsys, tmp_path):
        gfile = tmp_path / "bad.txt"
        gfile.write_text("1 2 3\n")
        code, _ = run(capsys, "solve", str(gfile), TARGETS)
        assert code == 1

    def test_canonical_solve_leaves_numpy_ma_unimported(self):
        # numpy.ma (pulled in by np.unique, for one) costs resident memory
        # on every solve
        code = ("import sys; from targetflow.cli import main; "
                f"main(['solve', {GRAPH!r}, {TARGETS!r}]); "
                "print('numpy.ma' in sys.modules)")
        src = Path(__file__).parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        gfile, tfile = tmp_path / "g.txt", tmp_path / "t.txt"
        gfile.write_bytes(b"\xef\xbb\xbf" + Path(GRAPH).read_bytes())
        tfile.write_bytes(b"\xef\xbb\xbf" + Path(TARGETS).read_bytes())
        code, out = run(capsys, "solve", str(gfile), str(tfile))
        assert code == 0
        assert out == run(capsys, "solve", GRAPH, TARGETS)[1]

    def test_missing_file_exits_1(self, capsys):
        code, _ = run(capsys, "solve", "/nonexistent", TARGETS)
        assert code == 1

    def test_golden_sf_all_target_stdout(self, capsys, tmp_path):
        # SHA-256 of the report on a 20k-node SF graph with every label a
        # target: it pins the canonical order of its 6430 paths
        gfile, tfile = tmp_path / "g.txt", tmp_path / "t.txt"
        run(capsys, "gen", "sf", "--n", "20000", "--mu", "3", "--seed", "1",
            "--out", str(gfile))
        labels = {int(t) for t in gfile.read_text().split()}
        tfile.write_text("".join(f"{v}\n" for v in sorted(labels)))
        code, out = run(capsys, "solve", str(gfile), str(tfile))
        assert code == 0 and json.loads(out)["min_drivers"] == 6430
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "09f6323fe22feaf373aa7bb3132f3492c7b220ab407e1c3974232c0851abfdc7")

    def test_output_feeds_back_as_valid_cover(self, capsys):
        _, out = run(capsys, "solve", GRAPH, TARGETS)
        doc = json.loads(out)
        g, labels = parse_edge_list(Path(GRAPH).read_text())
        cover = PathCover(
            tuple(tuple(labels[v] for v in p) for p in doc["paths"]),
            tuple(tuple(labels[v] for v in c) for c in doc["cycles"]))
        assert verify_cover(g, [labels[v] for v in (2, 3, 7, 9)], cover)


def _solve_text(capsys, tmp_path, edges, targets):
    gfile, tfile = tmp_path / "g.txt", tmp_path / "t.txt"
    gfile.write_text("".join(f"{a} {b}\n" for a, b in edges))
    tfile.write_text("".join(f"{v}\n" for v in targets))
    code, out = run(capsys, "solve", str(gfile), str(tfile))
    assert code == 0
    return out


BIG = 123_456_789_012_345_678  # 18 digits


class TestSolveReportBytes:
    """``solve`` writes its report by hand: the bytes must be what
    ``json.dumps(indent=2)`` writes for the same report."""

    @pytest.mark.parametrize("edges, targets, empty", [
        ([(1, 2), (2, 1), (3, 3)], [1, 2, 3], "paths"),
        ([(1, 2), (2, 3)], [1, 2, 3], "cycles"),
        ([(1, 2), (3, 4)], [1, 3], "cycles"),
        ([(5, 5), (6, 6)], [5, 6], "paths"),
        ([(BIG, BIG + 1), (BIG + 1, BIG), (BIG + 2, BIG)], [BIG + 2, BIG],
         None),
    ])
    def test_edge_cases(self, capsys, tmp_path, edges, targets, empty):
        out = _solve_text(capsys, tmp_path, edges, targets)
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n"
        if empty:
            assert doc[empty] == []
        if empty == "cycles" and len(targets) == 2:  # singleton paths
            assert doc["paths"] == [[1], [3]]
        if targets[0] == BIG + 2:
            assert doc["paths"] == [[BIG + 2, BIG]]

    def test_random_covers(self, capsys, tmp_path):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 25)
            label = rng.choice([lambda v: v, lambda v: BIG + 7919 * v])
            edges = {(label(rng.randrange(n)), label(rng.randrange(n)))
                     for _ in range(rng.randint(1, 3 * n))}
            nodes = sorted({v for e in edges for v in e})
            targets = rng.sample(nodes, rng.randint(1, len(nodes)))
            out = _solve_text(capsys, tmp_path, sorted(edges), targets)
            assert out == json.dumps(json.loads(out), indent=2) + "\n"


def _dict_route(text, targets):
    """The ``solve`` report through ``parse_edge_list``'s label dict."""
    g, labels = parse_edge_list(text)
    name = list(labels)  # in id order
    sol = solve(g, [labels[v] for v in targets])
    alloc = allocate_drivers(sol.cover)
    return json.dumps({
        "min_drivers": sol.min_drivers,
        "paths": [[name[v] for v in p] for p in sol.cover.paths],
        "cycles": [[name[v] for v in c] for c in sol.cover.cycles],
        "attachments": [[d, name[v]] for d, v in alloc.attachments],
        "flow_value": sol.flow_value}, indent=2) + "\n"


class TestLabelArray:
    """The CLI keeps the labels as one array in id order and maps them by
    binary search; its bytes are those of the label dict."""

    @pytest.mark.parametrize("label", [
        lambda v: 1_000_003 * v + 17,  # sparse
        lambda v: 2 ** 63 + v,  # the line loop's Python integers
        lambda v: 2 ** 64 * (v % 3) + v,  # int64 and beyond mixed
        lambda v: (7 * v) % 101,  # first appearances out of ascending order
    ], ids=["sparse", "beyond-int64", "mixed", "shuffled"])
    def test_solve_matches_dict_route(self, capsys, tmp_path, label):
        rng = random.Random(29)
        for _ in range(25):
            n = rng.randint(1, 20)
            edges = [(label(rng.randrange(n)), label(rng.randrange(n)))
                     for _ in range(rng.randint(1, 3 * n))]
            edges += rng.sample(edges, len(edges) // 3)  # repeated edges
            nodes = sorted({v for e in edges for v in e})
            targets = rng.choices(nodes, k=rng.randint(1, len(nodes)))
            text = "".join(f"{a} {b}\n" for a, b in edges)
            out = _solve_text(capsys, tmp_path, edges, targets)
            assert out == _dict_route(text, targets), text

    def test_verify_attachments_are_labels(self, capsys, tmp_path):
        big = 2 ** 64
        text, targets = f"{big} 5\n5 {big + 1}\n{big + 2} 5\n", [big + 1, 5]
        gfile, tfile = tmp_path / "g.txt", tmp_path / "t.txt"
        gfile.write_text(text)
        tfile.write_text("".join(f"{v}\n" for v in targets))
        want = json.loads(_dict_route(text, targets))
        code, out = run(capsys, "verify", str(gfile), str(tfile))
        assert code == 0
        assert json.loads(out)["attachments"] == want["attachments"]
        code, out = run(capsys, "verify", str(gfile), str(tfile),
                        "--attach", f"{big + 2},{big}")
        assert code == 0
        assert json.loads(out)["attachments"] == [[0, big + 2], [1, big]]

    def test_sparse_labels_at_10k(self, capsys, tmp_path):
        # every label, targets included, mapped by one random injection
        # into [0, 10^15): each first appearance stays where it was, so the
        # report is the dense file's with each label mapped
        g = generate_er(10_000, 3, 1)
        edges = list(zip(g.tail.tolist(), g.head.tolist()))
        labels = sorted({v for e in edges for v in e})
        to = dict(zip(labels, random.Random(7).sample(range(10 ** 15),
                                                      len(labels))))
        targets = random.Random(2).sample(labels, len(labels) // 10)
        want = json.loads(_solve_text(capsys, tmp_path, edges, targets))
        for key in ("paths", "cycles"):
            want[key] = [[to[v] for v in row] for row in want[key]]
        want["attachments"] = [[d, to[v]] for d, v in want["attachments"]]
        out = _solve_text(capsys, tmp_path, [(to[a], to[b]) for a, b in edges],
                          [to[v] for v in targets])
        assert out == json.dumps(want, indent=2) + "\n"


class TestInputFiles:
    """Graph and target files go through one reader with one set of rules."""

    @pytest.mark.parametrize("what", ["graph", "targets"])
    def test_file_not_utf8_exits_1(self, capsys, tmp_path, what):
        files = {"graph": tmp_path / "g.txt", "targets": tmp_path / "t.txt"}
        files["graph"].write_bytes(b"1 2\n2 3\n")
        files["targets"].write_bytes(b"1\n")
        files[what].write_bytes(b"1 2\n2 \xff3\n" if what == "graph"
                                else b"1\n\xff\n")
        code = main(["solve", str(files["graph"]), str(files["targets"])])
        assert code == 1
        assert f"cannot read {what} {files[what]}: " in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        b"\xef\xbb\xbf2\n3\n7\n9\n",
        b"2\r\n3\r\n7\r\n9\r\n",
        b"# targets\n\n2\n  \n3\n# more\n7\n\t\n9\n",
        b"+2\n3\n7\n9\n",
    ], ids=["bom", "crlf", "comments", "plus"])
    def test_target_file_forms(self, capsys, tmp_path, data):
        tfile = tmp_path / "t.txt"
        tfile.write_bytes(data)
        code, out = run(capsys, "solve", GRAPH, str(tfile))
        assert code == 0
        assert out == run(capsys, "solve", GRAPH, TARGETS)[1]

    def test_target_label_beyond_int64(self, capsys, tmp_path):
        big = 2 ** 63
        gfile, tfile = tmp_path / "g.txt", tmp_path / "t.txt"
        gfile.write_text(f"{big} 1\n1 2\n")
        tfile.write_text(f"{big}\n2\n")
        code, out = run(capsys, "solve", str(gfile), str(tfile))
        assert code == 0
        assert json.loads(out)["paths"] == [[big, 1, 2]]

    @pytest.mark.parametrize("text, message", [
        ("2\n3 7\n", "line 2: expected 1 tokens, got 2"),
        ("2\n-3\n", "line 2: labels must be non-negative"),
        ("2\nx\n", "line 2: non-integer token in ['x']"),
    ], ids=["two-labels", "negative", "non-integer"])
    def test_target_parse_error_exits_1(self, capsys, tmp_path, text,
                                        message):
        tfile = tmp_path / "t.txt"
        tfile.write_text(text)
        assert main(["solve", GRAPH, str(tfile)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read targets {tfile}: {message}\n")

    @pytest.mark.parametrize("text, extra, message", [
        ("2\n42\n", [], "target label 42 does not occur in the graph"),
        ("99\n2\n42\n", [], "target label 99 does not occur in the graph"),
        (f"2\n{2 ** 64}\n", [],
         f"target label {2 ** 64} does not occur in the graph"),
        ("# none\n\n", [], "target set is empty"),
        ("2\n", ["--attach", "2,42"],
         "attachment label 42 does not occur in the graph"),
        ("2\n", ["--attach", "2,42,-1,1"],
         "attachment label 42 does not occur in the graph"),
        ("2\n", ["--attach", f"{2 ** 63},2"],
         f"attachment label {2 ** 63} does not occur in the graph"),
    ], ids=["unknown-target", "first-unknown-target", "target-beyond-int64",
            "empty", "unknown-attachment", "first-unknown-attachment",
            "attachment-beyond-int64"])
    def test_semantic_errors_exit_2(self, capsys, tmp_path, text, extra,
                                    message):
        tfile = tmp_path / "t.txt"
        tfile.write_text(text)
        assert main(["verify", GRAPH, str(tfile), *extra]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestGenCommand:
    def test_er_file_lines(self, capsys, tmp_path):
        out_path = tmp_path / "er.txt"
        code, _ = run(capsys, "gen", "er", "--n", "1000", "--mu", "3",
                      "--seed", "1", "--out", str(out_path))
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 1500

    def test_sf_line_count(self, capsys, tmp_path):
        out_path = tmp_path / "sf.txt"
        code, _ = run(capsys, "gen", "sf", "--n", "1000", "--mu", "3",
                      "--gamma", "3", "--seed", "1", "--out", str(out_path))
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 1500

    def test_byte_identical_regeneration(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(capsys, "gen", "er", "--n", "50", "--mu", "2", "--seed", "9",
            "--out", str(a))
        run(capsys, "gen", "er", "--n", "50", "--mu", "2", "--seed", "9",
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    # SHA-256 of the stdout of ``targetflow gen KIND --n N --mu 3 --seed S``
    # (default gamma 3), recorded from the generators' per-edge loops
    GOLDEN_GEN = {
        ("er", 1000, 1):
            "47084135f364819ecf1950e9a85505634bd671f5eb5ca5f63c6e92af271b17ff",
        ("er", 1000, 2):
            "0be8ec4ccd9c4e6021af222965d8f83161df3c0abf785294afbff43fa69d6991",
        ("er", 20000, 1):
            "50ac5878d5a1ca2f2a606556e184dd220cc47c2272d285d314d3ce38e4c4bdc8",
        ("er", 20000, 2):
            "64bfbc56caeab56705428bd3a84ba1fd4cdd61e4cb3435f00f0e8800090ffd1c",
        ("sf", 1000, 1):
            "4cf027d4eff2cbd1296c6ae1ef750e874d6ca6d347d1ea02de2c4e86af74571f",
        ("sf", 1000, 2):
            "ba189e7e6d4ee7c4f8e88d0fd1965a6f93e4ba2e6fce54872770eb9d106577bc",
        ("sf", 20000, 1):
            "418000e61c56b18476f76075af3996809e41d6d5aaa4314662564c360147a02a",
        ("sf", 20000, 2):
            "903d7d1c7f32c91d2fd55f7971df18a7e30f31544a331a8e668f2c8b23dd6ead",
    }

    @pytest.mark.parametrize("kind, n, seed", sorted(GOLDEN_GEN))
    def test_golden_stdout(self, capsys, kind, n, seed):
        code, out = run(capsys, "gen", kind, "--n", str(n), "--mu", "3",
                        "--seed", str(seed))
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.GOLDEN_GEN[kind, n, seed]

    def test_generated_graph_round_trips(self, capsys, tmp_path):
        out_path = tmp_path / "er.txt"
        run(capsys, "gen", "er", "--n", "30", "--mu", "2", "--seed", "3",
            "--out", str(out_path))
        g, _ = parse_edge_list(out_path.read_text())
        assert len(g.edges) == 30


@pytest.mark.parametrize("argv, message", [
    ("gen er --n 10 --mu inf",
     "cannot place inf distinct edges in a 10-node loopless digraph"),
    ("gen er --n 10 --mu 1e308",
     "cannot place inf distinct edges in a 10-node loopless digraph"),
    ("gen er --n 1" + "0" * 400 + " --mu 3", "n * mu / 2 overflows a float"),
    ("sweep --gen er --n 10 --mu inf",
     "cannot place inf distinct edges in a 10-node loopless digraph"),
    ("gen sf --n 10 --mu 3 --gamma nan", "gamma must exceed 2, not nan"),
    ("gen er --n 10 --mu nan", "mu must be non-negative, not nan"),
    ("gen sf --n 10 --mu -1", "mu must be non-negative, not -1.0"),
    ("gen er --n 0 --mu 3", "n must be at least 1"),
    ("sweep --n 10", "sweep needs --graph or --gen"),
], ids=["mu-inf", "count-overflow", "n-overflow", "sweep-mu-inf",
        "gamma-nan", "mu-nan", "mu-negative", "n", "sweep-no-graph"])
def test_bad_parameters_exit_2(capsys, argv, message):
    assert main(argv.split()) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


class TestMatchingCommand:
    def test_chain(self, capsys, tmp_path):
        gfile = tmp_path / "g.txt"
        gfile.write_text("1 2\n2 3\n")
        code, out = run(capsys, "matching", str(gfile))
        assert code == 0 and out.strip() == "1"

    def test_canonical_agrees_with_full_solve(self, capsys):
        code, out = run(capsys, "matching", GRAPH)
        g, _ = parse_edge_list(Path(GRAPH).read_text())
        assert code == 0
        want = double_cover_drivers(g)
        assert int(out.strip()) == want
        assert solve(g, range(g.n)).min_drivers == want

    def test_empty_graph_has_one_driver(self, capsys, tmp_path):
        gfile = tmp_path / "g.txt"
        gfile.write_text("")
        code, out = run(capsys, "matching", str(gfile))
        assert code == 0 and out == "1\n"


@pytest.mark.parametrize("argv", [
    ["gen", "er", "--n", "10", "--mu", "3"],
    ["solve", GRAPH, TARGETS],
    ["matching", GRAPH],
    ["sweep", "--gen", "er", "--n", "30", "--fractions", "0.5",
     "--trials", "1"],
    ["verify", GRAPH, TARGETS, "--seed", "7"],
], ids=lambda argv: argv[0])
def test_unwritable_out_exits_1(capsys, tmp_path, argv):
    out_path = str(tmp_path / "missing" / "out.txt")
    assert main(argv + ["--out", out_path]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out_path in err
    if argv[0] == "verify":  # the report is written before the trajectory
        assert json.loads(out)["passed"] is True


class TestVerifyCommand:
    def test_canonical_passes(self, capsys, tmp_path):
        traj = tmp_path / "traj.csv"
        code, out = run(capsys, "verify", GRAPH, TARGETS,
                        "--seed", "7", "--tf", "3", "--out", str(traj))
        assert code == 0
        doc = json.loads(out)
        assert doc["rank"] == 4
        assert doc["controllable"] is True
        assert doc["y_norm"] <= 1e-3
        assert doc["passed"] is True
        header = traj.read_text().splitlines()[0]
        assert header == "t,y_1,y_2,y_3,y_4"

    def test_one_step_exponential_per_verify(self, capsys, monkeypatch):
        # the input design and its simulated check share one FOH step
        calls = []
        real = targetflow.certify._foh
        monkeypatch.setattr(targetflow.certify, "_foh",
                            lambda *args: calls.append(args) or real(*args))
        code, out = run(capsys, "verify", GRAPH, TARGETS, "--seed", "7")
        assert code == 0 and json.loads(out)["passed"] is True
        assert len(calls) == 1

    def test_isolated_target_trivially_passes(self, capsys, tmp_path):
        gfile = tmp_path / "g.txt"
        gfile.write_text("1 1\n")  # single node with a self-loop
        tfile = tmp_path / "t.txt"
        tfile.write_text("1\n")
        code, out = run(capsys, "verify", str(gfile), str(tfile))
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_adversarial_attachment_reports_failure(self, capsys):
        code, out = run(capsys, "verify", GRAPH, TARGETS, "--attach", "7")
        assert code == 0  # a failed certification is a report, not an error
        doc = json.loads(out)
        assert doc["rank"] < 4
        assert doc["controllable"] is False
        assert doc["passed"] is False

    def test_attachment_needs_no_cover(self, capsys, monkeypatch):
        def no_solve(*args):
            raise AssertionError("verify --attach solved a cover")
        monkeypatch.setattr(targetflow.cli, "solve", no_solve)
        code, out = run(capsys, "verify", GRAPH, TARGETS, "--attach", "7")
        assert code == 0
        assert json.loads(out) == {
            "targets": 4, "drivers": 1, "attachments": [[0, 7]], "rank": 1,
            "controllable": False, "t_f": 3.0, "tolerance": 0.001,
            "y_norm": None, "passed": False}

    # with the cover's drivers and with an attachment the rank test fails
    # on, so the horizon is checked before that test
    @pytest.mark.parametrize("tf", ["nan", "inf", "-1"])
    def test_non_finite_horizon_exits_2(self, capsys, tf):
        for attach in ([], ["--attach", "7"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["verify", GRAPH, TARGETS, "--tf", tf, *attach])
            assert code == 2
            assert ("t_f must be positive and finite"
                    in capsys.readouterr().err)

    def test_numeric_blowup_exits_3(self, capsys):
        # horizons this long overflow the exponential, with no warning
        for tf in ("500", "1e300"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, _ = run(capsys, "verify", GRAPH, TARGETS, "--tf", tf)
            assert code == 3

    def test_overflowing_norm_exits_3(self, capsys, tmp_path):
        # a star of in-degree 1000: the row-sum norm of the exponential's
        # argument overflows at this horizon, though each entry is finite
        gfile = tmp_path / "g.txt"
        gfile.write_text("".join(f"{i} 0\n" for i in range(1, 1001)))
        tfile = tmp_path / "t.txt"
        tfile.write_text("0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", str(gfile), str(tfile), "--tf", "1.7e308"])
        assert code == 3
        assert "matrix exponential overflows" in capsys.readouterr().err

    def test_unreached_target_reports_rank_3_of_4(self, capsys, tmp_path):
        # the raw Krylov powers of this system overflow float64.  Node 500
        # enters the edge list through a self-loop and stays unreachable
        # from the single driver at node 0.
        gfile = tmp_path / "g.txt"
        gfile.write_text(format_edge_list(generate_er(500, 12, 0))
                         + "500 500\n")
        tfile = tmp_path / "t.txt"
        tfile.write_text("0\n1\n2\n500\n")
        code, out = run(capsys, "verify", str(gfile), str(tfile),
                        "--attach", "0", "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["rank"] == 3
        assert doc["controllable"] is False
        assert doc["passed"] is False


class TestSweepCommand:
    def test_csv_to_stdout(self, capsys):
        code, out = run(capsys, "sweep", "--gen", "er", "--n", "60",
                        "--mu", "2", "--fractions", "0.5,1.0",
                        "--trials", "2", "--seed", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "f,trials,mean_nD,ratio,std"
        assert len(lines) == 3
        assert lines[2].endswith(",1,0")  # f=1 row: ratio 1, std 0

    def test_json_format(self, capsys):
        code, out = run(capsys, "sweep", "--gen", "er", "--n", "40",
                        "--mu", "2", "--fractions", "1.0", "--trials", "1",
                        "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"][0]["ratio"] == 1.0

    def test_graph_file_input(self, capsys):
        code, out = run(capsys, "sweep", "--graph", GRAPH,
                        "--fractions", "1.0", "--trials", "1")
        assert code == 0

    @pytest.mark.parametrize("fractions", ["0.5,nan", "nan,0.5"])
    def test_nan_fraction_exits_2(self, capsys, fractions):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "--graph", GRAPH, "--fractions", fractions,
                         "--trials", "1"])
        assert code == 2
        assert "fractions must lie in (0, 1]" in capsys.readouterr().err

    def test_graph_without_nodes_exits_2(self, capsys, tmp_path):
        gfile = tmp_path / "empty.txt"
        gfile.write_text("")
        code = main(["sweep", "--graph", str(gfile), "--trials", "1"])
        assert code == 2
        assert "graph has no nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["er", "sf"])
    def test_golden_csv(self, capsys, kind):
        # recorded from the generators' per-edge loops, default fractions
        code, out = run(capsys, "sweep", "--gen", kind, "--n", "300",
                        "--trials", "5", "--seed", "7")
        assert code == 0
        assert out == (DATA / f"sweep_{kind}300_seed7.csv").read_text()

    def test_reproducible_bytes(self, capsys):
        args = ("sweep", "--gen", "er", "--n", "50", "--mu", "2",
                "--fractions", "0.3,0.9", "--trials", "3", "--seed", "11")
        _, a = run(capsys, *args)
        _, b = run(capsys, *args)
        assert a == b
