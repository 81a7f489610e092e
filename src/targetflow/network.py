"""Bounded capacity networks, stored as int64 arc columns.

Networks carry integer lower/upper bounds per arc.  Unbounded capacity is
expressed with the ``INF`` marker; a network stores one integer sentinel in
its place, larger than any flow, so that all arithmetic stays integral.
"""

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .graph import _ids

INF = math.inf


class Arc(NamedTuple):
    tail: int
    head: int
    lower: int = 0
    cap: int | float = 1


def _integers(values):
    """``values`` as int64 where they all fit, else as exact Python ints,
    with ``None``; or as given, with the position of the first
    non-integer.  One value at a time: numpy's object loop warns on NaN."""
    col = np.asarray(values)
    if col.dtype == np.int64:
        return col, None
    col = np.array(values, dtype=object)  # asarray may round a large int
    bad = [v % 1 != 0 for v in col.tolist()]
    if any(bad):
        return col, bad.index(True)
    ints = list(map(int, col.tolist()))
    fits = all(-1 << 63 <= v < 1 << 63 for v in ints)
    return np.array(ints, dtype=np.int64 if fits else object), None


class BoundedFlowNetwork:
    """Directed capacity network with per-arc bounds ``lower <= cap``.

    ``source`` and ``sink`` are the endpoints of the flow problem the network
    poses.  Apart from an explicit return arc (sink -> source), the source
    must have no incoming arcs and the sink no outgoing arcs.  Parallel arcs
    and self-loop arcs are permitted.

    The arcs are kept as read-only int64 columns: ``tail``, ``head``,
    ``lower``, ``cap``, and ``unbounded``, which indexes the ``INF`` arcs.
    Their ``cap`` is the sentinel, 1 plus the sum of the finite capacities
    and lower bounds; a bound or sentinel beyond int64 is a ``ValueError``.
    ``arcs`` gives the arcs as ``Arc`` tuples, ``INF`` included, built on
    first access, however the network was made.
    """

    def __init__(self, node_count: int, arcs, source: int, sink: int):
        tail, head, lower, cap = tuple(zip(*arcs)) or ((),) * 4
        unbounded = [i for i, c in enumerate(cap) if c == INF]
        self._init_columns(node_count, source, sink, tail, head, lower,
                           [0 if c == INF else c for c in cap], unbounded)

    @classmethod
    def from_columns(cls, node_count: int, source: int, sink: int,
                     tail, head, lower, cap, unbounded=()):
        """Network over arc columns, which it takes over (not copied) and
        makes read-only.  ``unbounded`` indexes the arcs of capacity
        ``INF``; a copy of ``cap`` takes the sentinel there."""
        net = cls.__new__(cls)
        net._init_columns(node_count, source, sink, tail, head, lower, cap,
                          unbounded)
        return net

    def _init_columns(self, n, s, t, tail, head, lower, cap, unbounded):
        self.node_count = n = _ids((n,)).item()
        self.source, self.sink = s, t = _ids(
            (s, t), below=n, name="source/sink").tolist()
        if s == t:
            raise ValueError("source and sink must differ")
        self.tail = tail = _ids(tail, below=n, name="arc endpoint")
        self.head = head = _ids(head, below=n, name="arc endpoint")
        self.unbounded = _ids(unbounded, below=tail.size, name="unbounded arc")
        (self.lower, i), (self.cap, j) = _integers(lower), _integers(cap)
        sizes = tail.size, head.size, self.lower.size, self.cap.size
        if len(set(sizes)) > 1:
            raise ValueError("arc columns differ in length: tail {}, head {}, "
                             "lower {}, cap {}".format(*sizes))
        for k, message in (
                (i, "lower bound must be a non-negative integer: {}"),
                (j, "finite capacity must be an integer: {}")):
            if k is not None:
                raise ValueError(message.format(self._arc(k)))
        try:
            self.lower = lower = self.lower.astype(np.int64, copy=False)
            self.cap = cap = self.cap.astype(np.int64,
                                             copy=self.unbounded.size > 0)
            if self.unbounded.size:
                cap[self.unbounded] = 0
                # a negative bound counts as zero here and is rejected below
                both = np.concatenate((cap, lower)).clip(0)
                if both.max() > np.iinfo(np.int64).max // both.size:
                    both = both.astype(object)  # its sum may exceed int64
                cap[self.unbounded] = 1 + int(both.sum())
        except OverflowError:
            raise ValueError("bound or INF sentinel beyond int64") from None
        live = cap > 0
        for bad, message in (
                (lower < 0, "lower bound must be a non-negative integer: {}"),
                (lower > cap, "lower bound exceeds capacity: {}"),
                ((head == s) & live & (tail != t),
                 "source admits no incoming arc besides a return arc"),
                ((tail == t) & live & (head != s),
                 "sink admits no outgoing arc besides a return arc")):
            if np.count_nonzero(bad):
                raise ValueError(message.format(self._arc(bad.argmax())))
        for col in (tail, head, lower, cap, self.unbounded):
            col.setflags(write=False)

    def _arc(self, i):
        """``arcs[i]``, without building the other arcs."""
        return Arc(*(c.item(i) for c in (self.tail, self.head, self.lower)),
                   INF if i in self.unbounded else self.cap.item(i))

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """The arcs as ``Arc`` tuples, ``INF`` included."""
        cap = self.cap.astype(object)
        cap[self.unbounded] = INF
        return tuple(map(Arc, self.tail.tolist(), self.head.tolist(),
                         self.lower.tolist(), cap.tolist()))

    def __repr__(self):
        return (f"BoundedFlowNetwork(node_count={self.node_count}, "
                f"arcs={self.tail.size}, source={self.source}, "
                f"sink={self.sink})")
