"""Fixed-interval window slicing and per-window interaction networks.

A window's network links two users whenever they sent messages one after the
other inside that window; repeated transitions fold into integer edge
weights. Same-sender runs contribute nothing, so a monologue window has no
edges and is not a conversation. Transitions never span window boundaries.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import chain
from pathlib import Path

from . import _kernels
from ._record import FrozenRecord, Record
from .chatlog import MessageLog, _check_utf8, _json_lines, _line_blocks
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

    _fields = ("window_start", "window_index", "nodes", "edges")
    # the strengths counted when the network was built or read, or None
    __slots__ = _fields + ("_strengths",)

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
        self._strengths = None

    @property
    def is_conversation(self) -> bool:
        return len(self.nodes) >= 2

    def strengths(self) -> dict[int, int]:
        """Weighted degree per interacting node, in ascending user order.

        A network built by :func:`network_from_senders` (and so by
        :func:`window_networks`) or read by :func:`ensemble_networks` returns
        the dict that its one pass over ``edges`` counted; do not change it.
        Any other network counts its strengths on each call.
        """
        acc = self._strengths
        if acc is None:
            acc = dict.fromkeys(self.nodes, 0)
            for (u, v), w in self.edges.items():
                acc[u] += w
                acc[v] += w
        return acc


def network_from_senders(
    senders, *, window_start: int = 0, window_index: int = 0
) -> InteractionNetwork:
    """Build a window network from an ordered sequence of sender IDs.

    One pass over the counted edges adds each weight to both endpoints'
    strengths. The endpoints, sorted, are the nodes, and the network keeps
    the strengths in their order, so :meth:`InteractionNetwork.strengths`
    does not count them again.
    """
    edges = _kernels.pair_counts(senders)
    counted: dict[int, int] = {}
    get = counted.get
    for (u, v), w in edges.items():
        counted[u] = get(u, 0) + w
        counted[v] = get(v, 0) + w
    nodes = tuple(sorted(counted))
    net = InteractionNetwork(window_start, window_index, nodes, edges)
    net._strengths = {u: counted[u] for u in nodes}
    return net


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


class _Reprs(dict):
    """Value -> ``repr`` text, each distinct value formatted once.

    Keep the keys of one cache to one type: a dict merges equal keys, so
    ``1`` and ``1.0`` would share one text, as would 0.0 and -0.0, whose
    reprs differ.
    """

    def __missing__(self, value) -> str:
        text = self[value] = repr(value)
        return text


def ensemble_lines(
    networks: Iterable[InteractionNetwork], ints: _Reprs | None = None
) -> Iterator[str]:
    """Each network's JSONL line, newline included, edges in (u < v) order.

    Every value is an int, so each line is written as compact JSON directly.
    Each node ID and weight is formatted once, through ``ints``, an
    int -> text cache that a caller may share with its other writers.
    """
    text = _Reprs() if ints is None else ints
    for net in networks:
        nodes = ",".join(map(text.__getitem__, net.nodes))
        edges = ",".join([
            f"[{text[u]},{text[v]},{text[w]}]" for (u, v), w in sorted(net.edges.items())
        ])
        yield (
            f'{{"w":{net.window_start},"i":{net.window_index},'
            f'"nodes":[{nodes}],"edges":[{edges}]}}\n'
        )


# the largest edge weight read: a float holds every int up to it exactly, so
# no float conversion in the scoring can overflow
_MAX_WEIGHT = 2**53
# a block of lines in ensemble_lines' form keeps only these keys, once a
# line, when its digits, commas, brackets, minus signs and line ends go
_FORM_KEYS = b'{"w":"i":"nodes":"edges":}'
_FORM_VALUES = b"0123456789,[]-\n"


def ensemble_networks(path: str | Path) -> Iterator[InteractionNetwork]:
    """Each network of an ensemble JSONL file, once read and checked in order."""
    return in_window_order(_line_networks(Path(path)))


def _line_networks(path: Path) -> Iterator[InteractionNetwork]:
    """Each line's network, yielded once read.

    A line holds a window's start, index, nodes and edges; every metric
    downstream works from nodes and edges alone. The nodes are listed in
    strictly ascending order, as :func:`ensemble_lines` writes them, and each
    edge weight is an int from 1 to ``2**53``. The file must be UTF-8. It is
    read a block of whole lines at a time, and each line is decoded by
    :func:`chatlog._json_lines`, the JSONL log's decoder, which skips blank
    lines and names the line it cannot decode.

    A block in :func:`ensemble_lines`' form ends in ``\\n`` and holds nothing
    but ``_FORM_KEYS`` once a line, digits, commas, brackets and minus signs.
    A line of it that decodes then holds no float, bool or null, and no
    string but the keys ``w``, ``i``, ``nodes`` and ``edges``, each at most
    once: every value is an int or a list. So :func:`_form_network` checks
    no value's type but the start's and index's. A line it rejects, and each line of a block in any other form
    (CRLF, blank lines, spaces, another key order, extra keys, a byte-order
    mark, a last line with no line end), goes to :func:`_checked_network`,
    which alone words a diagnostic. Each network keys its edges with its own
    ``(u, v)`` tuples: no command holds more than a few networks at once, so
    sharing keys across networks would save nothing.
    """
    _check_utf8(path, SchemaError)
    with open(path, "rb") as fh:
        line_no = 0
        for block in _line_blocks(fh):
            lines = block.decode("utf-8").splitlines()
            first, line_no = line_no + 1, line_no + len(lines)
            in_form = block.endswith(b"\n") and (
                block.translate(None, _FORM_VALUES) == _FORM_KEYS * len(lines)
            )
            for n, obj in _json_lines(lines, path, first):
                net = _form_network(obj) if in_form else None
                yield _checked_network(obj, path, n) if net is None else net


def _form_network(obj) -> InteractionNetwork | None:
    """The network of a decoded line of a block in form, or None.

    One pass over the edges checks each, keys it, and adds its weight to
    both endpoints' strengths. A nested list fails to hash or compare, an
    endpoint that is not a node is a ``KeyError``, and a zero strength is a
    node with no edge. The network keeps the strengths, so
    :meth:`InteractionNetwork.strengths` does not count them again.
    """
    try:
        raw_edges, nodes, start, index = obj["edges"], obj["nodes"], obj["w"], obj["i"]
        strengths = dict.fromkeys(nodes, 0)
        edges = {}
        for u, v, w in raw_edges:
            if not (u < v and 0 < w <= _MAX_WEIGHT):
                return None
            edges[u, v] = w
            strengths[u] += w
            strengths[v] += w
    except (KeyError, TypeError, ValueError):
        return None
    if not (
        type(start) is int
        and type(index) is int
        and len(edges) == len(raw_edges)
        and 0 not in strengths.values()
        and len(strengths) == len(nodes)
        and nodes == sorted(nodes)
    ):
        return None
    net = InteractionNetwork(start, index, tuple(nodes), edges)
    net._strengths = strengths
    return net


_INT = {int}


def _checked_network(obj, path: Path, line_no: int) -> InteractionNetwork:
    """The network of a decoded line, each check in turn, or the
    ``SchemaError`` of the first check it fails."""
    try:
        raw_edges = obj["edges"]
        edges = {}
        for u, v, w in raw_edges:
            if not (u < v) or w <= 0 or w > _MAX_WEIGHT:
                raise SchemaError(f"{path}: line {line_no}: bad edge [{u},{v},{w}]")
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
        return InteractionNetwork(start, index, tuple(nodes), edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: line {line_no}: malformed network") from exc
