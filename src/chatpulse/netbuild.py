"""Fixed-interval window slicing and per-window interaction networks.

A window's network links two users whenever they sent messages one after the
other inside that window; repeated transitions fold into integer edge
weights. Same-sender runs contribute nothing, so a monologue window has no
edges and is not a conversation. Transitions never span window boundaries.
"""

from __future__ import annotations

import json
import operator
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import chain
from pathlib import Path

from . import _kernels
from ._record import FrozenRecord, Record
from .chatlog import MessageLog, utf8_lines
from .errors import ParameterError, SchemaError

ALIGN_WALL = "wall"
ALIGN_FIRST = "first"


class WindowSpec(FrozenRecord):
    """How to cut a log into half-open [start, start + delta_t) windows."""

    __slots__ = ("delta_t", "alignment", "time_range")

    def __init__(
        self,
        delta_t: int = 600,
        alignment: str = ALIGN_WALL,
        time_range: tuple[int | None, int | None] = (None, None),
    ) -> None:
        if delta_t <= 0:
            raise ParameterError(f"delta_t must be positive, got {delta_t}")
        if alignment not in (ALIGN_WALL, ALIGN_FIRST):
            raise ParameterError(
                f"alignment must be {ALIGN_WALL!r} or {ALIGN_FIRST!r},"
                f" got {alignment!r}"
            )
        lo, hi = time_range
        if lo is not None and hi is not None and hi <= lo:
            raise ParameterError(f"empty time range [{lo}, {hi})")
        self._fill(delta_t, alignment, time_range)


WindowSlice = namedtuple("WindowSlice", ["start", "index", "lo", "hi"])
WindowSlice.__doc__ = (
    "One nonempty window: its start, index and rows ``lo:hi`` of the log."
)


def slice_windows(log: MessageLog, spec: WindowSpec) -> Iterator[WindowSlice]:
    """Cut the in-range rows into windows floor((t - origin) / delta_t).

    Yields the windows in order, each once, so no list of them is held.
    Empty windows are omitted, but indices stay gap-aware: index arithmetic is
    anchored to the origin, not to the previous nonempty window.
    """
    stamps = log.timestamps
    lo, hi = spec.time_range
    first = 0 if lo is None else bisect_left(stamps, lo)
    end = len(stamps) if hi is None else bisect_left(stamps, hi)
    if first >= end:
        return
    delta = spec.delta_t
    if spec.alignment == ALIGN_WALL:
        anchor = lo if lo is not None else stamps[first]
        origin = (anchor // delta) * delta
    else:
        origin = stamps[first]

    row = first
    while row < end:
        index = (stamps[row] - origin) // delta
        start = origin + index * delta
        stop = bisect_left(stamps, start + delta, row + 1, end)
        yield WindowSlice(start, index, row, stop)
        row = stop


# Built once per window, then only read: a plain record, cheaper to build
# than a frozen one.
class InteractionNetwork(Record):
    """One window's weighted undirected simple graph of sender transitions.

    ``nodes`` holds interacting participants only, in ascending order: a
    sender who spoke but never next to a different sender is not a node and
    does not count as a participant. ``edges`` maps each pair ``(u, v)``,
    ``u < v``, to its transition count.
    """

    __slots__ = ("window_start", "window_index", "nodes", "edges")

    def __init__(
        self,
        window_start: int,
        window_index: int,
        nodes: tuple[int, ...],
        edges: dict[tuple[int, int], int],
    ) -> None:
        self.window_start = window_start
        self.window_index = window_index
        self.nodes = nodes
        self.edges = edges

    @property
    def is_conversation(self) -> bool:
        return len(self.nodes) >= 2

    def strengths(self) -> dict[int, int]:
        """Weighted degree per interacting node, in ascending user order."""
        acc = dict.fromkeys(self.nodes, 0)
        for (u, v), w in self.edges.items():
            acc[u] += w
            acc[v] += w
        return acc


def network_from_senders(
    senders, *, window_start: int = 0, window_index: int = 0
) -> InteractionNetwork:
    """Build a window network from an ordered sequence of sender IDs."""
    edges = _kernels.pair_counts(senders)
    return InteractionNetwork(
        window_start=window_start,
        window_index=window_index,
        nodes=tuple(sorted(set(chain.from_iterable(edges)))),
        edges=edges,
    )


def in_window_order(networks: Iterable) -> Iterator[InteractionNetwork]:
    """Yield each network once it is checked against the ones before it.

    Window starts strictly increase, and the first two windows fix the window
    length ``(w1 - w0) / (i1 - i0)``, which must be a positive integer; every
    window then satisfies ``w - w0 == (i - i0) * length``.
    """
    prev = length = None
    for net in networks:
        start, index = net.window_start, net.window_index
        if prev is None:
            w0, i0 = start, index
        elif start <= prev:
            raise SchemaError(f"window starts not strictly increasing at {start}")
        elif length is None:
            span, steps = start - w0, index - i0
            if steps <= 0 or span % steps:
                raise SchemaError(
                    f"window indices {i0}, {index} at starts {w0},"
                    f" {start} give no whole window length"
                )
            length = span // steps
        elif start - w0 != (index - i0) * length:
            raise SchemaError(
                f"window index {index} inconsistent with start "
                f"{start} (window length {length}s)"
            )
        prev = start
        yield net


def window_networks(
    log: MessageLog, spec: WindowSpec
) -> Iterator[InteractionNetwork]:
    """One network per nonempty window, yielded in window order as it is built.

    The windows come from :func:`slice_windows`, so their starts strictly
    increase and their indices agree with one window length, as
    :func:`in_window_order` checks.
    """
    users = log.users
    for w in slice_windows(log, spec):
        yield network_from_senders(
            users[w.lo:w.hi], window_start=w.start, window_index=w.index
        )


def ensemble_lines(networks: Iterable[InteractionNetwork]) -> Iterator[str]:
    """Each network's JSONL line, newline included, edges in (u < v) order.

    Every value is an int, so each line is written as compact JSON directly.
    """
    for net in networks:
        nodes = ",".join(map(str, net.nodes))
        edges = ",".join([f"[{u},{v},{w}]" for (u, v), w in sorted(net.edges.items())])
        yield (
            f'{{"w":{net.window_start},"i":{net.window_index},'
            f'"nodes":[{nodes}],"edges":[{edges}]}}\n'
        )


# json.loads skips the whitespace around a value and reads the value with
# this scanner; a line that holds the value alone needs only the scanner.
_scan_json = json.JSONDecoder().scan_once
_INT = {int}


def ensemble_networks(path: str | Path) -> Iterator[InteractionNetwork]:
    """Each network of an ensemble JSONL file, once read and checked in order."""
    return in_window_order(_line_networks(Path(path)))


def _line_networks(path: Path) -> Iterator[InteractionNetwork]:
    """Each line's network, yielded once read.

    A line holds a window's start, index, nodes and edges; every metric
    downstream works from nodes and edges alone. The nodes are listed in
    strictly ascending order, as :func:`ensemble_lines` writes them. Each line
    is read as ``json.loads`` reads it: any line the scanner alone does not
    read to its end goes through ``json.loads``, so both accept and reject
    the same lines. Each network keys its edges with its own ``(u, v)``
    tuples: no command holds more than a few networks at once, so sharing
    keys across networks would save nothing.
    """
    for line_no, line in enumerate(utf8_lines(path, SchemaError), 1):
        try:
            obj, end = _scan_json(line, 0)
        except (StopIteration, ValueError):
            end = -1
        if end != len(line):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}: line {line_no}: invalid JSON") from exc
        try:
            raw_edges = obj["edges"]
            edges = {}
            for u, v, w in raw_edges:
                if not (u < v) or w <= 0:
                    raise SchemaError(
                        f"{path}: line {line_no}: bad edge [{u},{v},{w}]"
                    )
                edges[u, v] = w
            if len(edges) != len(raw_edges):
                raise SchemaError(f"{path}: line {line_no}: duplicate edge")
            start, index, nodes = obj["w"], obj["i"], obj["nodes"]
            # compare types: a bool or 1.0 would pass as the int 1 otherwise,
            # so each raw edge is read, not the deduplicated endpoints; nodes
            # that cannot be iterated are malformed, whatever the start
            if not (
                set(map(type, chain(nodes, *raw_edges))) <= _INT
                and type(start) is int
                and type(index) is int
            ):
                raise SchemaError(
                    f"{path}: line {line_no}: window start, index, node IDs"
                    " and weights must be integers"
                )
            if any(map(operator.ge, nodes, nodes[1:])):
                raise SchemaError(
                    f"{path}: line {line_no}: nodes are not strictly ascending"
                )
            if set(chain.from_iterable(edges)) != set(nodes):
                raise SchemaError(
                    f"{path}: line {line_no}: nodes do not match edge endpoints"
                )
            yield InteractionNetwork(start, index, tuple(nodes), edges)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: line {line_no}: malformed network") from exc
