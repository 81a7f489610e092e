import json
import os
import subprocess
import sys
from pathlib import Path

from targetflow import (PathCover, format_edge_list, generate_er,
                        parse_edge_list, solve, verify_cover)
from targetflow.cli import main

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

    def test_missing_file_exits_1(self, capsys):
        code, _ = run(capsys, "solve", "/nonexistent", TARGETS)
        assert code == 1

    def test_output_feeds_back_as_valid_cover(self, capsys):
        _, out = run(capsys, "solve", GRAPH, TARGETS)
        doc = json.loads(out)
        g, labels = parse_edge_list(Path(GRAPH).read_text())
        cover = PathCover(
            tuple(tuple(labels[v] for v in p) for p in doc["paths"]),
            tuple(tuple(labels[v] for v in c) for c in doc["cycles"]))
        assert verify_cover(g, [labels[v] for v in (2, 3, 7, 9)], cover)


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

    def test_generated_graph_round_trips(self, capsys, tmp_path):
        out_path = tmp_path / "er.txt"
        run(capsys, "gen", "er", "--n", "30", "--mu", "2", "--seed", "3",
            "--out", str(out_path))
        g, _ = parse_edge_list(out_path.read_text())
        assert len(g.edges) == 30


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
        assert int(out.strip()) == solve(g, range(g.n)).min_drivers


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

    def test_numeric_blowup_exits_3(self, capsys):
        # a horizon this long overflows the exponential
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, _ = run(capsys, "verify", GRAPH, TARGETS, "--tf", "500")
        assert code == 3

    def test_overflowing_rank_test_exits_3(self, capsys, tmp_path):
        # the rank test overflows; nothing may claim "controllable".  Node
        # 500 enters the edge list through a self-loop and stays unreachable
        # from the single driver at node 0.
        gfile = tmp_path / "g.txt"
        gfile.write_text(format_edge_list(generate_er(500, 12, 0))
                         + "500 500\n")
        tfile = tmp_path / "t.txt"
        tfile.write_text("0\n1\n2\n500\n")
        code, out = run(capsys, "verify", str(gfile), str(tfile),
                        "--attach", "0", "--seed", "0")
        assert code == 3
        assert out == ""


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

    def test_reproducible_bytes(self, capsys):
        args = ("sweep", "--gen", "er", "--n", "50", "--mu", "2",
                "--fractions", "0.3,0.9", "--trials", "3", "--seed", "11")
        _, a = run(capsys, *args)
        _, b = run(capsys, *args)
        assert a == b
