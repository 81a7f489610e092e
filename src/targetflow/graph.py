"""Directed-graph representation, edge-list ingestion and random generators.

Graphs are structural: unweighted, no duplicate edges, self-loops allowed.
Node ids are dense 0-based integers; file ingestion maps arbitrary integer
labels onto them and reports the mapping.
"""

import io
import random
from functools import cached_property
from itertools import accumulate
from numbers import Integral

import numpy as np


class EdgeListError(ValueError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _repeats(keys):
    """Mask of the entries of ``keys`` that equal an earlier entry."""
    rep = np.zeros(keys.size, dtype=bool)
    ranked = np.sort(keys)  # cheaper than a stable argsort; keys rarely repeat
    if (ranked[1:] != ranked[:-1]).all():
        return rep
    order = np.argsort(keys, kind="stable")
    rep[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    return rep


def _pair_keys(tail, head, n):
    """``tail * n + head``, in Python integers where int64 would wrap."""
    return (tail.astype(object) if n * n > 1 << 63 else tail) * n + head


def _ids(values, *width, below=None, name="node"):
    """Integers within int64 as an int64 array, not copied when it is one
    already: one-dimensional, or rows of ``width`` ids, as (tail, head);
    with ``below``, each in ``range(below)``, or an error naming a ``name``."""
    ids = np.asarray(values if isinstance(values, np.ndarray) else list(values))
    ids = ids if ids.size else ids.reshape(0, *width).astype(np.int64)
    kind = ids.dtype.kind
    if kind not in "iu" or kind == "u" and ids.max() >= 1 << 63:
        raise ValueError(
            f"node ids must be integers within int64, got {ids.dtype}")
    if ids.shape[1:] != width:
        raise ValueError("edges must be (tail, head) pairs" if width else
                         f"node ids must be integers in one row: {ids.shape}")
    ids = ids.astype(np.int64, copy=False)
    if below is not None and (bad := (ids < 0) | (ids >= below)).any():
        raise ValueError(f"{name} {ids[bad][0]} out of range for n={below}")
    return ids


class DiGraph:
    """Immutable directed graph over nodes ``0 .. n-1``.

    The edges are the read-only int64 columns ``tail`` and ``head``, in
    construction order (several algorithms use it as a deterministic
    tie-break).  ``edges`` is the tuple view of them, built on first
    access.  Equality is structural, i.e. order-blind.
    """

    def __init__(self, n: int, edges):
        """``edges``: (tail, head) pairs, or an m-by-2 array, of integers."""
        if not isinstance(n, Integral):
            raise ValueError(f"node count must be an integer, not {n!r}")
        if (n := int(n)) < 0:
            raise ValueError("node count must be non-negative")
        if n >= 1 << 63:
            raise ValueError(f"node count {n} is beyond int64")
        cols = _ids(edges, 2, below=n).T.copy()
        cols.setflags(write=False)
        tail, head = cols
        if (bad := _repeats(_pair_keys(tail, head, n))).any():
            i = bad.argmax()
            raise ValueError(f"duplicate edge ({tail[i]}, {head[i]})")
        self.n, self.tail, self.head = n, tail, head

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The (tail, head) pairs in construction order."""
        return tuple(zip(self.tail.tolist(), self.head.tolist()))

    def __eq__(self, other):
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self.n == other.n and set(self.edges) == set(other.edges)

    def __hash__(self):
        return hash((self.n, frozenset(self.edges)))

    def __repr__(self):
        return f"DiGraph(n={self.n}, edges={self.tail.size})"


def _label_columns(text: str, width: int):
    """The labels of a plain list, ``width`` a line, as one int64 array in
    line order, read by numpy's text reader; ``None`` when the text needs
    the line loop: for a character other than ASCII digits, blanks and line
    ends (comments included), a carriage return inside a line, a line with
    neither zero nor ``width`` tokens, or a label beyond int64."""
    if not text.isascii() or text.encode().translate(None, b"0123456789 \t\r\n"):
        return None
    if text.isspace() or not text:  # the reader would warn of no data
        return np.zeros(0, dtype=np.int64)
    try:
        rows = np.loadtxt(io.StringIO(text), dtype=np.int64, ndmin=2,
                          comments=None)
    except (ValueError, OverflowError):
        return None
    return rows.ravel() if rows.shape[1] == width else None


def _line_labels(lines, width: int):
    """The same labels read line by line, which takes any integer token
    ``int`` takes and names the line of an error.  The array holds Python
    integers when some label is beyond int64."""
    labels = []
    for line_no, raw in enumerate(lines, start=1):
        if not isinstance(raw, str):
            raise TypeError("expected a str, a text file or str lines, "
                            f"not {type(raw).__name__}")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != width:
            raise EdgeListError(f"expected {width} tokens, got {len(parts)}", line_no)
        try:
            row = list(map(int, parts))
        except ValueError:
            raise EdgeListError(f"non-integer token in {parts!r}", line_no) from None
        if min(row) < 0:
            raise EdgeListError("labels must be non-negative", line_no)
        labels += row
    try:
        return np.array(labels, dtype=np.int64)
    except OverflowError:
        return np.array(labels, dtype=object)


def _read_labels(text, width: int):
    """The labels of ``text``, ``width`` per line, as one array in line
    order: the input and the rules of :func:`parse_edge_list`."""
    from_file = hasattr(text, "read")
    if from_file:
        text = text.read()
    if isinstance(text, (bytes, bytearray)):
        raise TypeError("expected a str, a text file or str lines, not bytes")
    if not isinstance(text, str):
        return _line_labels(text, width)
    labels = _label_columns(text, width)
    if labels is None:
        labels = _line_labels(
            text.split("\n") if from_file else text.splitlines(), width)
    return labels


def _parse_edges(text) -> tuple[DiGraph, np.ndarray]:
    """:func:`parse_edge_list`'s graph, and its labels by id as one array."""
    labels = _read_labels(text, 2)
    # relabel by first appearance: a stable sort puts each label's first
    # position in front of its group
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    fresh = np.ones(order.size, dtype=bool)
    fresh[1:] = ranked[1:] != ranked[:-1]
    first = order[fresh]
    by_first = np.argsort(first, kind="stable")  # the engine's sort kernel
    rank = np.empty(first.size, dtype=np.int64)
    rank[by_first] = np.arange(first.size)
    ids = np.empty(order.size, dtype=np.int64)
    ids[order] = rank[np.cumsum(fresh) - 1]
    n = first.size
    tail, head = ids[0::2], ids[1::2]
    keep = ~_repeats(_pair_keys(tail, head, n))
    g = DiGraph(n, np.column_stack((tail[keep], head[keep])))
    return g, labels[first[by_first]]


def _label_ids(names, found, what):
    """The ids of labels ``found`` in ``names``, or ``ValueError`` if absent."""
    order = np.argsort(names, kind="stable")  # the relabel's sort kernel
    at = np.searchsorted(names, found, sorter=order)
    hit = at < names.size
    hit[hit] = names[order[at[hit]]] == found[hit]
    if not hit.all():
        raise ValueError(f"{what} label {found[~hit][0]} does not occur in "
                         "the graph")
    return order[at]


def parse_edge_list(text) -> tuple[DiGraph, dict[int, int]]:
    """Parse "tail head" integer pairs, one per line.

    Lines starting with ``#`` and blank lines are skipped.  Labels are
    compacted to dense 0-based ids in first-appearance order; duplicate edges
    collapse to one.  Returns the graph and the label -> internal-id map, in id
    order.  ``text`` is a string, a text file (read whole, then split into the
    lines iterating it would give) or an iterable of lines.  Text of digits and
    whitespace only is read by numpy's text reader; anything else, comments and
    errors included, goes through the line loop.

    Raises:
        EdgeListError: wrong token count, non-integer or negative token.
    """
    g, names = _parse_edges(text)
    return g, dict(zip(names.tolist(), range(g.n)))


def format_edge_list(g: DiGraph, labels: dict[int, int] | None = None) -> str:
    """Serialize a graph in the edge-list file format.

    ``labels`` is an original-label -> internal-id map over ids ``0 .. n-1``,
    as :func:`parse_edge_list` returns; without it ids are written as labels.
    """
    if labels is not None and not np.array_equal(
            np.sort(_ids(labels.values())), range(g.n)):
        raise ValueError(f"label ids must be 0..{g.n - 1}, each once")
    name = range(g.n) if labels is None else sorted(labels, key=labels.get)
    words = np.array(list(map(str, name)), dtype=object)
    cells = np.full((g.tail.size, 4), " ", dtype=object)
    cells[:, 0], cells[:, 2], cells[:, 3] = words[g.tail], words[g.head], "\n"
    return "".join(cells.ravel().tolist())


def from_adjacency(a) -> DiGraph:
    """Graph of an n-by-n 0/1 matrix: edge (j -> i) exists iff ``a[i][j]``
    is nonzero, so row i of the matrix lists the nodes feeding node i."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency matrix must be square, got {a.shape}")
    rows, cols = np.nonzero(a)
    return DiGraph(a.shape[0], np.column_stack((cols, rows)))


def to_adjacency(g: DiGraph) -> np.ndarray:
    """Inverse of :func:`from_adjacency`: a[i][j] = 1 iff edge (j -> i)."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    a[g.head, g.tail] = 1
    return a


def _words(rng, count):
    """The next ``count`` 32-bit outputs of ``rng``'s Mersenne Twister in
    draw order, which ``getrandbits`` lays out from the low word up."""
    bits = rng.getrandbits(32 * count)
    return np.frombuffer(bits.to_bytes(4 * count, "little"), dtype="<u4")


def _edge_count(n: int, mu: float) -> int:
    """The ``round(n * mu / 2)`` edges of mean total degree ``mu``, or
    ``ValueError`` unless a loopless digraph on ``n`` nodes holds them."""
    if not isinstance(n, Integral):
        raise ValueError(f"n must be an integer, not {n!r}")
    try:
        count = n * mu / 2
    except OverflowError:  # an int n past the float range
        raise ValueError("n * mu / 2 overflows a float") from None
    if not count >= 0:  # NaN fails too
        raise ValueError(f"mu must be non-negative, not {mu}")
    target = round(count) if count < np.inf else count
    if target > n * (n - 1):
        raise ValueError(f"cannot place {target} distinct edges in a "
                         f"{n}-node loopless digraph")
    return target


def _first_pairs(n, target, draw, budget=None):
    """The first ``target`` pairs of consecutive ``draw`` values that are no
    self-loop and no repeat, among its first ``budget`` pairs: what a loop
    drawing one pair at a time keeps.  ``draw(k)`` adds about ``k`` pairs."""
    vals, tries = np.empty(0, dtype=np.int64), target + target // 32 + 64
    while True:
        vals = np.concatenate((vals, draw(tries)))
        pairs = vals[:vals.size // 2 * 2].reshape(-1, 2)[:budget]
        t, h = pairs.T
        keep = np.flatnonzero((t != h) & ~_repeats(_pair_keys(t, h, n)))
        if keep.size >= target or len(pairs) == budget:
            return pairs[keep[:target]]
        tries = len(pairs)


def generate_er(n: int, mu: float, seed: int) -> DiGraph:
    """Uniform random digraph with mean total degree ``mu``.

    Draws ``round(n * mu / 2)`` distinct directed edges uniformly without
    replacement from all ordered pairs excluding self-loops.  Deterministic
    for a fixed seed: the pairs of ``random.Random(seed).randrange(n)`` that
    a loop drawing one pair at a time keeps, replayed in bulk.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    target = _edge_count(n, mu)
    rng = random.Random(seed)
    if 2 * target >= n * (n - 1):
        # dense regime: sample directly from the enumerated pair space
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        return DiGraph(n, rng.sample(pairs, target))
    k = n.bit_length()

    def draw(tries):
        if k > 32:  # a draw takes more than one word
            return np.array([rng.randrange(n) for _ in range(2 * tries)])
        w = _words(rng, (2 * tries << k) // n + 1) >> (32 - k)
        return w[w < n].astype(np.int64)  # as randrange(n) rejects w >= n
    return DiGraph(n, _first_pairs(n, target, draw))


def generate_sf(n: int, mu: float, gamma: float, seed: int) -> DiGraph:
    """Static-model scale-free digraph with tail exponent ``gamma``.

    Node weights follow ``(i + 1) ** (-1 / (gamma - 1))``; each of the
    ``round(n * mu / 2)`` edges picks tail and head independently with
    probability proportional to the weights, rejecting self-loops and
    duplicates.  Deterministic for a fixed seed: each end bisects the
    cumulative weights at ``random() * total``, as a loop drawing one pair
    at a time from ``random.Random(seed)`` would, replayed in bulk.

    Raises:
        ValueError: gamma not above 2, n < 2 or a bad edge count.
        RuntimeError: the rejection loop exceeding ``100 * L`` attempts.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not gamma > 2:  # NaN fails too; inf gives uniform weights
        raise ValueError(f"gamma must exceed 2, not {gamma}")
    target = _edge_count(n, mu)
    alpha = 1.0 / (gamma - 1.0)
    # Python's power and sum, to the last ulp: numpy's power can differ
    cum = np.array(list(accumulate((i + 1) ** (-alpha) for i in range(n))))
    rng = random.Random(seed)

    def draw(tries):
        w = _words(rng, 4 * tries).reshape(-1, 2)  # two words per random()
        u = ((w[:, 0] >> 5) * 67108864.0 + (w[:, 1] >> 6)) / 2.0 ** 53
        return np.searchsorted(cum, u * cum[-1], side="right")
    edges = _first_pairs(n, target, draw, 100 * max(target, 1))
    if len(edges) < target:
        raise RuntimeError(f"edge sampling did not converge within "
                           f"{100 * max(target, 1)} attempts")
    return DiGraph(n, edges)
