import io
import random
import warnings

import numpy as np
import pytest

import targetflow.graph
from targetflow import (DiGraph, EdgeListError, format_edge_list,
                        from_adjacency, generate_er, generate_sf,
                        parse_edge_list, to_adjacency)

from conftest import CANONICAL_EDGES, random_graph
from reference import er_edges, parse_lines, sf_edges

# 9-node instance adjacency, row 6 reconciled so that solving it reproduces
# the known single-driver answer (entry (6,3) added).
CANONICAL_A = [
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 1, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 1, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 1, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 1, 0],
]


class TestDiGraph:
    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            DiGraph(3, [(0, 1), (0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            DiGraph(2, [(0, 2)])

    def test_self_loops_allowed(self):
        g = DiGraph(2, [(1, 1)])
        assert g.edges == ((1, 1),)

    @pytest.mark.parametrize("edges", [[(0.5, 1)], [("1", 0)], [(0, None)],
                                       np.array([[0.0, 1.0]])])
    def test_rejects_non_integer_ids(self, edges):
        with pytest.raises(ValueError, match="must be integers"):
            DiGraph(2, edges)

    def test_accepts_numpy_integers_and_no_edges(self):
        g = DiGraph(3, [(np.int64(0), np.uint8(1)), (np.int32(2), 0)])
        assert g.edges == ((0, 1), (2, 0))
        assert g.tail.dtype == np.int64
        assert DiGraph(2, np.array([[1, 0]], dtype=np.int32)).edges == ((1, 0),)
        for empty in ([], (), np.empty((0, 2))):
            assert DiGraph(2, empty).tail.size == 0


class TestParse:
    def test_compaction_by_first_appearance(self):
        g, labels = parse_edge_list("1 2\n2 3\n")
        assert g.n == 3
        assert g.edges == ((0, 1), (1, 2))
        assert labels == {1: 0, 2: 1, 3: 2}

    def test_comment_skip_and_self_loop(self):
        g, labels = parse_edge_list("# c\n5 5\n")
        assert g.n == 1
        assert g.edges == ((0, 0),)
        assert labels == {5: 0}

    def test_duplicates_collapse(self):
        g, _ = parse_edge_list("1 2\n1 2\n2 1\n")
        assert g.edges == ((0, 1), (1, 0))

    def test_canonical_file(self):
        text = "".join(f"{t} {h}\n" for t, h in CANONICAL_EDGES)
        g, labels = parse_edge_list(text)
        assert g.n == 9
        assert len(g.edges) == 13
        assert len(labels) == 9

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListError, match="line 2"):
            parse_edge_list("1 2\n3 4 5\n")
        with pytest.raises(EdgeListError, match="line 3"):
            parse_edge_list("1 2\n\n3 x\n")

    def test_roundtrip_through_serialization(self):
        rng = random.Random(5)
        for _ in range(50):
            raw = random_graph(rng, 8, 14)
            if not raw.edges:
                continue
            # arbitrary labels, then parse -> serialize -> parse
            shift = rng.randint(0, 100)
            text = "".join(f"{t + shift} {h + shift}\n" for t, h in raw.edges)
            g, labels = parse_edge_list(text)
            again, labels2 = parse_edge_list(format_edge_list(g, labels))
            assert again.n == g.n
            assert again.edges == g.edges
            assert labels2 == labels


# tokens ``int`` accepts that numpy's text reader leaves to the line loop
LOOP_TOKENS = ["+5", "1_000", "\u0663", "\uff15", "\u0661\u0662", str(2 ** 63),
               str(2 ** 64 + 3)]
MALFORMED = ["1 2 3", "x 1", "-1 2", "7", "1.5 2", "1 2 # c", "1 -2", "0x1 2"]
# characters that str.split() and str.splitlines() treat specially
ODD_CHARS = ["\x0c", "\x0b", "\u2028", "\x85", "\xa0", "\r", "\x1c"]


def _fuzz_text(rng, kind):
    """Edge-list text with blank lines, tabs, CRLF or LF, duplicate edges,
    self-loops and, in half of the texts, comments.  ``kind`` adds one loop-only token ("token"), one
    malformed line ("malformed") or one odd character ("char") at a random
    position; "plain" adds nothing."""
    pool = [rng.randrange(10 ** rng.randint(1, 12))
            for _ in range(rng.randint(1, 12))]
    comments = rng.random() < 0.5
    lines = []
    for _ in range(rng.randint(1, 30)):
        r = rng.random()
        if r < 0.1:
            lines.append(rng.choice(["", "  ", "\t"]))
        elif r < 0.2 and comments:
            lines.append(rng.choice(["", " ", "\t "]) + "#"
                         + rng.choice(["", " c", " 1 2 3", "#", " x\ty"]))
        else:
            pad = lambda: rng.choice(["", " ", "\t", "  "])  # noqa: E731
            lines.append(f"{pad()}{rng.choice(pool)}{pad() or ' '}"
                         f"{rng.choice(pool)}{pad()}")
    i = rng.randrange(len(lines))
    if kind == "token":
        lines.insert(i, f"{rng.choice(LOOP_TOKENS)} {rng.choice(pool)}")
    elif kind == "malformed":
        lines.insert(i, rng.choice(MALFORMED))
    elif kind == "char":
        at = rng.randint(0, len(lines[i]))
        lines[i] = lines[i][:at] + rng.choice(ODD_CHARS) + lines[i][at:]
    end = rng.choice(["\n", "\r\n"])
    return end.join(lines) + rng.choice(["", end])


def _outcome(parse, text):
    try:
        n, edges, labels = parse(text)
    except EdgeListError as exc:
        return ("error", exc.line_no, str(exc))
    return n, edges, list(labels.items())


def _library(text):
    g, labels = parse_edge_list(text)
    return g.n, g.edges, labels


@pytest.fixture
def loop_calls(monkeypatch):
    """Records each call of the line loop."""
    loop = targetflow.graph._line_labels
    calls = []
    monkeypatch.setattr(targetflow.graph, "_line_labels",
                        lambda lines: calls.append(1) or loop(lines))
    return calls


class TestParseMatchesReference:
    @pytest.mark.parametrize("kind", ["plain", "token", "malformed", "char"])
    def test_fuzz(self, kind, loop_calls):
        rng = random.Random(f"parse-{kind}")
        for case in range(500):
            text = _fuzz_text(rng, kind)
            want = _outcome(lambda t: parse_lines(t.splitlines()), text)
            loop_calls.clear()
            assert _outcome(_library, text) == want, text
            # numpy's reader takes the plain texts without comments and
            # leaves comments, loop-only tokens and errors to the loop (a "\r"
            # put before a line end makes a plain CRLF, so odd characters may
            # go either way)
            if kind != "char" and "#" not in text:
                assert bool(loop_calls) == (kind != "plain"), text
            assert (_outcome(lambda t: _library(io.StringIO(t)), text)
                    == _outcome(lambda t: parse_lines(io.StringIO(t)), text))
            assert _outcome(lambda t: _library(t.splitlines()), text) == want

    def test_round_trip_at_10k(self, loop_calls):
        g = generate_er(10_000, 3, 4)
        rng = random.Random(4)
        labels = dict(zip(rng.sample(range(10 ** 15), g.n), range(g.n)))
        text = format_edge_list(g, labels)
        n, edges, got = parse_lines(text.splitlines())
        parsed, parsed_labels = parse_edge_list(text)
        assert not loop_calls
        assert (parsed.n, parsed.edges, list(parsed_labels.items())) == (
            n, edges, list(got.items()))

    def test_short_plain_text_takes_reader(self, loop_calls):
        assert parse_edge_list("1 2\n")[0].edges == ((0, 1),)
        assert not loop_calls

    def test_short_commented_text_takes_line_loop(self, loop_calls):
        assert parse_edge_list("# c\n1 2\n")[0].edges == ((0, 1),)
        assert loop_calls


# the texts below are this long, so no size cut could send them to the loop
LONG = 1 << 14


class TestReaderShapes:
    """Texts the reader reads without error but in the wrong shape, and
    the labels at the edge of int64."""

    @pytest.mark.parametrize("line, count", [("1 2 3", 3), ("7", 1)])
    def test_uniform_wrong_token_count(self, line, count):
        text = f"{line}\n" * (LONG // len(line) + 1)
        with pytest.raises(EdgeListError) as exc:
            parse_edge_list(text)
        assert exc.value.line_no == 1
        assert str(exc.value) == f"line 1: expected 2 tokens, got {count}"

    def test_whitespace_only_is_empty_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g, labels = parse_edge_list(" \t\r\n" * LONG)
        assert (g.n, g.edges, labels) == (0, (), {})

    @pytest.mark.parametrize("top, loop", [(2 ** 63 - 1, False),
                                           (2 ** 63, True)])
    def test_int64_edge_labels(self, top, loop, loop_calls):
        lines = [f"{top} 0"] + [f"{i} {i + 1}" for i in range(LONG // 8)]
        text = "\n".join(lines) + "\n"
        g, labels = parse_edge_list(text)
        assert bool(loop_calls) == loop
        assert list(labels)[0] == top and type(list(labels)[0]) is int
        assert (g.n, g.edges, labels) == parse_lines(text.splitlines())
        again, labels2 = parse_edge_list(format_edge_list(g, labels))
        assert (again.edges, labels2) == (g.edges, labels)

    @pytest.mark.parametrize("at", [0, 1, 2, 3])
    def test_lone_carriage_return_in_a_line(self, at):
        lines = [f"{i} {i + 1}" for i in range(LONG // 6)]
        lines[5] = lines[5][:at] + "\r" + lines[5][at:]
        text = "\n".join(lines) + "\n"
        assert (_outcome(_library, text)
                == _outcome(lambda t: parse_lines(t.splitlines()), text))
        assert (_outcome(lambda t: _library(io.StringIO(t)), text)
                == _outcome(lambda t: parse_lines(io.StringIO(t)), text))


class TestColumnsAndViews:
    def test_lazy_views_match_eager_ones(self):
        rng = random.Random(8)
        for _ in range(200):
            raw = random_graph(rng, 12, 30)
            edges = list(raw.edges)
            rng.shuffle(edges)
            g = DiGraph(raw.n, edges)
            assert g.edges == tuple(edges)
            assert g.tail.tolist() == [t for t, _ in edges]
            assert g.head.tolist() == [h for _, h in edges]

    def test_equality_and_hash_are_order_blind(self):
        rng = random.Random(9)
        for _ in range(100):
            raw = random_graph(rng, 10, 20)
            edges = list(raw.edges)
            rng.shuffle(edges)
            g = DiGraph(raw.n, edges)
            assert g == raw and hash(g) == hash(raw)
            assert hash(g) == hash((raw.n, frozenset(edges)))
            assert g != DiGraph(raw.n + 1, edges)
            if edges:
                assert g != DiGraph(raw.n, edges[1:])

    def test_array_input_and_read_only_columns(self):
        g = DiGraph(3, np.array([[0, 1], [2, 2]]))
        assert g == DiGraph(3, [(0, 1), (2, 2)])
        assert g.edges == ((0, 1), (2, 2))
        with pytest.raises(ValueError):
            g.tail[0] = 1
        with pytest.raises(ValueError, match="pairs"):
            DiGraph(3, [(0, 1, 2)])
        with pytest.raises(ValueError, match="out of range"):
            DiGraph(3, [(0, 1), (-1, 2)])

    def test_format_matches_per_edge_formula(self):
        rng = random.Random(10)
        for _ in range(100):
            g = random_graph(rng, 10, 20)
            # labels up to 10^20, beyond int64
            big = [v * 100 for v in rng.sample(range(10 ** 18), g.n)]
            labels = dict(zip(big, range(g.n)))
            name = {i: lab for lab, i in labels.items()}
            assert format_edge_list(g) == "".join(
                f"{t} {h}\n" for t, h in g.edges)
            assert format_edge_list(g, labels) == "".join(
                f"{name[t]} {name[h]}\n" for t, h in g.edges)


class TestAdjacency:
    def test_identity_gives_self_loops(self):
        g = from_adjacency(np.eye(2))
        assert g == DiGraph(2, [(0, 0), (1, 1)])

    def test_single_entry_orientation(self):
        a = np.zeros((2, 2))
        a[1][0] = 1
        assert from_adjacency(a) == DiGraph(2, [(0, 1)])

    def test_canonical_matrix_gives_13_edges(self):
        g = from_adjacency(CANONICAL_A)
        expected = DiGraph(9, [(t - 1, h - 1) for t, h in CANONICAL_EDGES])
        assert g == expected

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            from_adjacency(np.zeros((2, 3)))

    def test_roundtrip(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_graph(rng, 7, 12)
            assert from_adjacency(to_adjacency(g)) == g

    def test_edges_in_row_major_order(self):
        a = np.random.default_rng(12).integers(0, 2, (8, 8))
        rows, cols = np.nonzero(a)
        assert from_adjacency(a).edges == tuple(zip(cols.tolist(),
                                                    rows.tolist()))


class TestGenerators:
    def test_er_edge_count(self):
        g = generate_er(1000, 3.0, seed=0)
        assert len(g.edges) == 1500
        assert all(t != h for t, h in g.edges)

    def test_er_exhausts_pair_space(self):
        g = generate_er(2, 2.0, seed=3)
        assert set(g.edges) == {(0, 1), (1, 0)}

    def test_er_determinism(self):
        assert generate_er(100, 4.0, seed=7).edges == generate_er(100, 4.0, seed=7).edges

    def test_er_overfull_rejected(self):
        with pytest.raises(ValueError):
            generate_er(3, 10.0, seed=0)

    def test_sf_edge_count_and_determinism(self):
        g = generate_sf(1000, 3.0, 3.0, seed=1)
        assert len(g.edges) == 1500
        assert all(t != h for t, h in g.edges)
        assert g.edges == generate_sf(1000, 3.0, 3.0, seed=1).edges

    def test_sf_gamma_guard(self):
        with pytest.raises(ValueError, match="gamma"):
            generate_sf(100, 3.0, 2.0, seed=0)

    # the word filter of ``randrange`` changes at powers of two
    GRID_N = sorted({2, 3, 1000} | {2 ** j + d for j in (2, 3, 5, 8, 10, 13)
                                    for d in (-1, 0, 1)})

    @pytest.mark.parametrize("n", GRID_N)
    def test_er_matches_per_edge_loop(self, n):
        for mu in (0.5, 1, 3, 6):
            if round(n * mu / 2) > n * (n - 1):
                continue
            for seed in (0, 1):
                assert generate_er(n, mu, seed).edges == tuple(
                    er_edges(n, mu, seed))

    @pytest.mark.parametrize("n", GRID_N)
    def test_sf_matches_per_edge_loop(self, n):
        for mu in (0.5, 1, 3, 6):
            if round(n * mu / 2) > n * (n - 1):
                continue
            for gamma in (2.2, 3.0):
                for seed in (0, 1):
                    assert generate_sf(n, mu, gamma, seed).edges == tuple(
                        sf_edges(n, mu, gamma, seed))

    def test_er_beyond_one_word_per_draw(self):
        # n > 2**32: each randrange takes two words
        n = 2 ** 32 + 1
        assert generate_er(n, 2e-9, 5).edges == tuple(er_edges(n, 2e-9, 5))

    def test_sf_attempt_budget_matches_per_edge_loop(self):
        # every ordered pair of 60 nodes is wanted; seed 0 finds them all
        # within the 354000 attempts, seed 3 does not
        assert generate_sf(60, 118, 2.001, 0).edges == tuple(
            sf_edges(60, 118, 2.001, 0))
        with pytest.raises(RuntimeError) as loop:
            sf_edges(60, 118, 2.001, 3)
        with pytest.raises(RuntimeError) as replay:
            generate_sf(60, 118, 2.001, 3)
        assert str(replay.value) == str(loop.value) == (
            "edge sampling did not converge within 354000 attempts")

    @pytest.mark.parametrize("budget, kept", [(5, [[0, 1]]), (4, [])])
    def test_pair_budget_counts_every_attempt(self, budget, kept):
        # four self-loops, then the first pair to keep, then self-loops
        stream = iter([[0, 0] * 4 + [0, 1]])

        def draw(tries):
            return np.array(next(stream, []) + [1, 1] * tries)

        edges = targetflow.graph._first_pairs(2, 1, draw, budget)
        assert edges.tolist() == kept

    def test_sf_tail_heavier_than_er(self):
        # max total degree of the static model strictly exceeds the uniform
        # model's across 20 seeds
        def max_total_degree(g):
            deg = [0] * g.n
            for t, h in g.edges:
                deg[t] += 1
                deg[h] += 1
            return max(deg)

        for seed in range(20):
            sf = generate_sf(1000, 3.0, 3.0, seed=seed)
            er = generate_er(1000, 3.0, seed=seed)
            assert max_total_degree(sf) > max_total_degree(er)
