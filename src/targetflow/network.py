"""Bounded capacity networks, stored as arc columns.

Networks carry integer lower/upper bounds per arc.  Unbounded capacity is
expressed with the ``INF`` marker; solvers substitute an integer sentinel
larger than any achievable flow so that all arithmetic stays integral.
"""

import math
from functools import cached_property
from itertools import chain, groupby, repeat
from typing import NamedTuple

import numpy as np

INF = math.inf


class Arc(NamedTuple):
    tail: int
    head: int
    lower: int = 0
    cap: int | float = 1
    tag: str | None = None


def _column(values):
    """``values`` as int64, or as Python objects when one is not an int64:
    ``INF``, a float or a larger integer."""
    col = np.asarray(values)
    return col if col.dtype == np.int64 else np.array(values, dtype=object)


def _narrowed(col):
    """An object column of integers as int64 where they all fit."""
    try:
        return col.astype(np.int64) if col.dtype == object else col
    except OverflowError:
        return col


class BoundedFlowNetwork:
    """Directed capacity network with per-arc bounds ``lower <= cap``.

    ``source`` and ``sink`` are the endpoints of the flow problem the network
    poses.  Apart from an explicit return arc (sink -> source), the source
    must have no incoming arcs and the sink no outgoing arcs.  Parallel arcs
    and self-loop arcs are permitted.

    The arcs are kept as read-only columns: ``tail`` and ``head`` in int64,
    ``lower`` and ``cap`` in int64 too unless some bound is ``INF`` or beyond
    int64, which keeps that column as Python objects.  Tags are kept as
    (tag, count) runs in arc order.  ``arcs`` gives the arcs as ``Arc``
    tuples, built on first access, however the network was made.
    """

    def __init__(self, node_count: int, arcs, source: int, sink: int):
        tail, head, lower, cap, tags = tuple(zip(*arcs)) or ((),) * 5
        self._tags = tuple((tag, len(list(run))) for tag, run in groupby(tags))
        self._init_columns(node_count, source, sink, tail, head, lower, cap)

    @classmethod
    def from_columns(cls, node_count: int, source: int, sink: int,
                     tail, head, lower, cap, tags=()):
        """Network over arc columns, which it takes over (not copied) and
        makes read-only.  ``tags`` gives (tag, count) runs in arc order;
        arcs past them carry no tag."""
        net = cls.__new__(cls)
        net._tags = tuple(tags)
        net._init_columns(node_count, source, sink, tail, head, lower, cap)
        return net

    def _init_columns(self, n, s, t, tail, head, lower, cap):
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError("source/sink out of range")
        if s == t:
            raise ValueError("source and sink must differ")
        tail = np.asarray(tail, dtype=np.int64)
        head = np.asarray(head, dtype=np.int64)
        lower, cap = _column(lower), _column(cap)
        self.node_count, self.source, self.sink = n, s, t
        self.tail, self.head, self.lower, self.cap = tail, head, lower, cap
        live = cap > 0
        checks = [
            ((tail < 0) | (tail >= n) | (head < 0) | (head >= n),
             "arc endpoint out of range: {}"),
            (lower < 0, "lower bound must be a non-negative integer: {}"),
            (lower > cap, "lower bound exceeds capacity: {}"),
            ((head == s) & live & (tail != t),
             "source admits no incoming arc besides a return arc"),
            ((tail == t) & live & (head != s),
             "sink admits no outgoing arc besides a return arc"),
        ]
        if object in (lower.dtype, cap.dtype):
            with np.errstate(invalid="ignore"):  # INF % 1 is NaN
                checks[1:1] = [
                    (lower % 1 != 0,
                     "lower bound must be a non-negative integer: {}"),
                    ((cap != INF) & (cap % 1 != 0),
                     "finite capacity must be an integer: {}")]
        for bad, message in checks:
            if np.count_nonzero(bad):
                raise ValueError(message.format(self.arcs[bad.argmax()]))
        self.lower, self.cap = _narrowed(lower), _narrowed(cap)
        for col in (self.tail, self.head, self.lower, self.cap):
            col.setflags(write=False)

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """The arcs as ``Arc`` tuples, tags included."""
        tags = chain(chain.from_iterable(repeat(tag, count)
                                         for tag, count in self._tags),
                     repeat(None))
        return tuple(map(Arc, self.tail.tolist(), self.head.tolist(),
                         self.lower.tolist(), self.cap.tolist(), tags))

    def __repr__(self):
        return (f"BoundedFlowNetwork(node_count={self.node_count}, "
                f"arcs={self.tail.size}, source={self.source}, "
                f"sink={self.sink})")


def _finite_caps(net: BoundedFlowNetwork):
    """The capacity column with ``INF`` mapped to an integer larger than any
    flow the finite bounds can carry."""
    cap = net.cap
    if cap.dtype != object:
        return cap
    inf = cap == INF
    big = 1 + sum(cap[~inf].tolist()) + sum(net.lower.tolist())
    return np.where(inf, big, cap)
