"""Bounded capacity networks, stored as int64 arc columns.

Networks carry integer lower/upper bounds per arc.  Unbounded capacity is
expressed with the ``INF`` marker; a network stores one integer sentinel in
its place, larger than any flow, so that all arithmetic stays integral.
"""

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

INF = math.inf


class Arc(NamedTuple):
    tail: int
    head: int
    lower: int = 0
    cap: int | float = 1


def _column(values):
    """``values`` as int64, or as Python objects when one is not an int64:
    a float or a larger integer."""
    col = np.asarray(values)
    return col if col.dtype == np.int64 else np.array(values, dtype=object)


def _first_fraction(col):
    """Position of the first non-integer value of a ``_column``, or
    ``None``; tested one value at a time, as numpy's object loop would warn
    on a NaN."""
    bad = [v % 1 != 0 for v in col.tolist()] if col.dtype == object else ()
    return bad.index(True) if any(bad) else None


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
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError("source/sink out of range")
        if s == t:
            raise ValueError("source and sink must differ")
        self.node_count, self.source, self.sink = n, s, t
        self.tail = tail = np.asarray(tail, dtype=np.int64)
        self.head = head = np.asarray(head, dtype=np.int64)
        self.unbounded = np.asarray(unbounded, dtype=np.int64)
        self.lower, self.cap = _column(lower), _column(cap)
        for col, message in (
                (self.lower, "lower bound must be a non-negative integer: {}"),
                (self.cap, "finite capacity must be an integer: {}")):
            i = _first_fraction(col)
            if i is not None:
                raise ValueError(message.format(self.arcs[i]))
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
                ((tail < 0) | (tail >= n) | (head < 0) | (head >= n),
                 "arc endpoint out of range: {}"),
                (lower < 0, "lower bound must be a non-negative integer: {}"),
                (lower > cap, "lower bound exceeds capacity: {}"),
                ((head == s) & live & (tail != t),
                 "source admits no incoming arc besides a return arc"),
                ((tail == t) & live & (head != s),
                 "sink admits no outgoing arc besides a return arc")):
            if np.count_nonzero(bad):
                raise ValueError(message.format(self.arcs[bad.argmax()]))
        for col in (tail, head, lower, cap, self.unbounded):
            col.setflags(write=False)

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
