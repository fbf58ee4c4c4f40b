"""Property tests: invariants that hold for every log, not just the fixtures."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import hmac
import io
import json
import math
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from zoneinfo import ZoneInfo

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chatpulse import (
    DegenerateEnsembleError,
    EngagementClass,
    InsufficientDataError,
    MessageLog,
    OrderingError,
    ParseError,
    SchemaError,
    WindowSpec,
    conversation_metrics,
    dump_log,
    engagement_index,
    ensemble_lines,
    ensemble_stats,
    load_log,
    network_from_senders,
    parse_transcript,
    period_compare,
    period_means,
    rank_users,
    window_networks,
    zscore_classify,
)
from chatpulse import chatlog
from chatpulse.chatlog import PROFILES, READ_CHUNK, sender_digest, utf8_lines
from chatpulse.cli import EXIT_INSUFFICIENT, EXIT_OK, main
from chatpulse.engagement import centrality_scale
from chatpulse.ensemble import rank_means, scope_means
from chatpulse.netbuild import ensemble_networks, in_window_order
from chatpulse.temporal import compare_means, split_periods

from conftest import make_log
from oracles import (
    STRPTIME_PROFILES,
    load_ensemble_direct,
    load_log_csv_direct,
    load_log_jsonl_direct,
    parse_transcript_direct,
    scope_means_direct,
    strptime_first_line,
    table_rows,
)

DELTA_T = 600
BASE = 1_533_081_600  # 2018-08-01T00:00Z


def chats(max_gap, min_size=2):
    """Lists of (sender, seconds since the previous message)."""
    return st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, max_gap)),
        min_size=min_size,
        max_size=120,
    )


# gaps up to two windows leave some windows empty
messages = chats(2 * DELTA_T)


def log_of(rows, start=BASE):
    timeline, t = [], start
    for user, gap in rows:
        t += gap
        timeline.append((user, t))
    return make_log(timeline)


def scored(rows):
    return conversation_metrics(window_networks(log_of(rows), WindowSpec(DELTA_T)))


# denser logs, so most draws hold two conversations with different ei
@given(chats(DELTA_T // 2, min_size=10), st.floats(-2, 0), st.floats(0.01, 2))
def test_classes_partition_the_conversations(rows, low, width):
    wms = scored(rows)
    try:
        stats = ensemble_stats(wms)
        zs, classes = zscore_classify(wms, stats, low=low, high=low + width)
    except (InsufficientDataError, DegenerateEnsembleError):
        assume(False)
    labels = dict(zip(wms.indices, classes))
    assert len(labels) == len(classes) == len(zs) == len(wms)
    assert set(labels) == set(wms.indices)
    for z, label in zip(zs, classes, strict=True):
        assert (label is EngagementClass.HIGH) == (z >= low + width)
        assert (label is EngagementClass.LOW) == (z <= low)
        assert label is not EngagementClass.GLOBAL


@given(chats(30))  # about 20 messages per window
def test_mean_centrality_is_the_window_ei(rows):
    for w in table_rows(scored(rows)):
        users, strengths, scale = w.users, w.strengths, w.scale
        mean = math.fsum(s * scale for s in strengths) / len(users)
        assert math.isclose(mean, w.metrics.ei, rel_tol=1e-12)


# Windows of one shape, (n, sorted edge weights), share one score. About six
# messages a window over a dozen windows make shapes repeat within a draw.
repeating_shapes = chats(DELTA_T // 3, min_size=20)


METRIC_FIELDS = ("n", "total_weight", "gini", "equality", "intensity", "ei")


def reprs(row, fields) -> list[str]:
    """The reprs of ``row``'s fields, named in declaration order."""
    return [repr(getattr(row, name)) for name in fields]


@given(repeating_shapes)
def test_shared_scores_equal_scoring_each_window_alone(rows):
    built = tuple(window_networks(log_of(rows), WindowSpec(DELTA_T)))
    nets = [net for net in built if net.is_conversation]
    wms = table_rows(conversation_metrics(built))
    assert [w.window_index for w in wms] == [net.window_index for net in nets]
    for w, net in zip(wms, nets):
        alone = engagement_index(net)
        assert reprs(w.metrics, METRIC_FIELDS) == reprs(alone, METRIC_FIELDS)
        users, strengths, scale = w.users, w.strengths, w.scale
        alone_scale = centrality_scale(alone)
        assert [(u, s, repr(s * scale)) for u, s in zip(users, strengths)] == [
            (u, s, repr(s * alone_scale)) for u, s in net.strengths().items()
        ]


@given(repeating_shapes)
def test_memoized_float_keys_are_strictly_positive(rows):
    # classified.csv formats once per ei and centralities.csv once per
    # centrality; a dict merges 0.0 and -0.0, whose reprs differ
    for w in table_rows(scored(rows)):
        assert w.metrics.ei > 0
        strengths, scale = w.strengths, w.scale
        assert all(s * scale > 0 for s in strengths)


def unshared_csvs(ensemble_path) -> dict[str, str]:
    """The scored CSVs formatted row by row, each window scored alone."""
    metrics = ["window_start,window_index,n,total_weight,equality,intensity,ei\n"]
    central = ["window_start,user_id,strength,ei_centrality\n"]
    eis = []
    for net in filter(lambda n: n.is_conversation, ensemble_networks(ensemble_path)):
        m = engagement_index(net)
        metrics.append(
            f"{net.window_start},{net.window_index},{m.n},{m.total_weight},"
            f"{m.equality!r},{m.intensity!r},{m.ei!r}\n"
        )
        scale = centrality_scale(m)
        for user, s in net.strengths().items():
            central.append(f"{net.window_start},{user},{s},{s * scale!r}\n")
        eis.append((net.window_index, m.ei))
    mean = math.fsum(ei for _, ei in eis) / len(eis)
    std = math.sqrt(math.fsum((ei - mean) ** 2 for _, ei in eis) / len(eis))
    classified = ["window_index,ei,z,label\n"]
    for index, ei in eis:
        z = (ei - mean) / std
        label = "HIGH" if z >= 1.0 else "LOW" if z <= -1.0 else "MEDIUM"
        classified.append(f"{index},{ei!r},{z!r},{label}\n")
    return {
        "metrics.csv": "".join(metrics),
        "centralities.csv": "".join(central),
        "classified.csv": "".join(classified),
    }


@given(repeating_shapes)
def test_csv_text_equals_formatting_every_row(rows):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        log = out / "log.csv"
        log.write_text(dump_log(log_of(rows)))
        ens = out / "ensemble.jsonl"
        assert main(["build", str(log), "--out", tmp]) == EXIT_OK
        assert main(["metrics", str(ens), "--out", tmp]) == EXIT_OK
        # a degenerate or one-window ensemble has no classes
        assume(main(["classify", str(ens), "--out", tmp]) == EXIT_OK)
        for name, text in unshared_csvs(ens).items():
            assert (out / name).read_text() == text, name


@given(messages, st.sampled_from(["csv", "jsonl"]))
def test_log_round_trip(rows, fmt):
    log = log_of(rows)
    text = dump_log(log, fmt)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"log.{fmt}"
        path.write_text(text)
        loaded = load_log(path)
    assert (loaded.users, loaded.timestamps) == (log.users, log.timestamps)
    assert dump_log(loaded, fmt) == text


# --from bounds inside the generated rows, at their start, and past them all
FROM_WHEN = st.sampled_from([None, "2018-08-01", "2018-08-01T02:00", "2030-01-01"])


@given(messages, st.sampled_from([1, 10, 60]), st.sampled_from(["wall", "first"]),
       FROM_WHEN)
@example([(0, 0), (1, 60)], 10, "wall", "2030-01-01")
def test_build_writes_the_dumped_ensemble(rows, interval, align, from_when):
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.csv"
        log.write_text(dump_log(log_of(rows)))
        argv = ["build", str(log), "--out", tmp,
                "--interval", str(interval), "--align", align]
        if from_when is not None:
            argv += ["--from", from_when]
        assert main(argv) == EXIT_OK
        streamed = (Path(tmp) / "ensemble.jsonl").read_text()
        lo = None if from_when is None else chatlog.utc_timestamp(from_when)
        spec = WindowSpec(interval * 60, align, (lo, None))
        held = tuple(in_window_order(window_networks(load_log(log), spec)))
        assert streamed == "".join(ensemble_lines(held))
        if from_when == "2030-01-01":
            assert streamed == ""


def networks_of(nets):
    return [(n.window_start, n.window_index, n.nodes, n.edges) for n in nets]


@given(messages)
def test_ensemble_round_trip(rows):
    built = tuple(window_networks(log_of(rows), WindowSpec(DELTA_T)))
    text = "".join(ensemble_lines(built))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ensemble.jsonl"
        path.write_text(text)
        loaded = tuple(ensemble_networks(path))
    assert networks_of(loaded) == networks_of(built)
    assert "".join(ensemble_lines(loaded)) == text


# values of the wrong kind for any field; the containers are built afresh,
# as a mutation may append to them
ODD_VALUES = st.one_of(
    st.sampled_from([1.0, 0.5, -1, 0, True, False, None, "1", "", float("nan")]),
    st.builds(list), st.builds(lambda: [1]), st.builds(dict),
)
# JSON whitespace, other whitespace, line breaks, brackets and a BOM
ODD_CHARS = st.sampled_from(
    [" ", "\t", "\r", "\n", "\x0c", "\u3000", "\u2028", "\ufeff",
     "[", "]", "{", "}", ",", '"']
)


@st.composite
def mutated_line(draw, index):
    """One canonical ensemble line for window ``index``, then mutated."""
    net = network_from_senders(
        draw(st.lists(st.integers(0, 5), max_size=8)),
        window_start=DELTA_T * index, window_index=index,
    )
    obj = {
        "w": net.window_start, "i": net.window_index, "nodes": sorted(net.nodes),
        "edges": [[u, v, w] for (u, v), w in sorted(net.edges.items())],
    }
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(
            ["field", "node", "extra", "edge", "dup", "swap", "key"]
        ))
        edges = obj.get("edges")
        if kind == "field":
            obj[draw(st.sampled_from(["w", "i", "nodes", "edges"]))] = draw(ODD_VALUES)
        elif kind == "node" and isinstance(obj.get("nodes"), list) and obj["nodes"]:
            at = draw(st.integers(0, len(obj["nodes"]) - 1))
            obj["nodes"][at] = draw(ODD_VALUES)
        elif kind == "extra" and isinstance(obj.get("nodes"), list):
            obj["nodes"].append(draw(st.integers(0, 6)))
        elif kind == "edge" and isinstance(edges, list) and edges:
            edge = draw(st.sampled_from(edges))
            if isinstance(edge, list) and edge:
                edge[draw(st.integers(0, len(edge) - 1))] = draw(ODD_VALUES)
        elif kind == "dup" and isinstance(edges, list) and edges:
            edges.append(draw(st.sampled_from(edges)))
        elif kind == "swap" and isinstance(edges, list) and edges:
            edge = draw(st.sampled_from(edges))
            if isinstance(edge, list):
                edge.reverse()
        elif kind == "key":
            key = draw(st.sampled_from(["w", "i", "nodes", "edges", "x"]))
            if obj.pop(key, None) is None:
                obj[key] = draw(ODD_VALUES)
    keys = draw(st.permutations(list(obj)))
    separators = draw(st.sampled_from([(",", ":"), (", ", ": ")]))
    text = json.dumps({k: obj[k] for k in keys}, separators=separators)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(ODD_CHARS) + text[at:]
        else:
            text = text[:at] + text[at + 1:]  # drops a bracket, key or digit
    return text


@st.composite
def mutated_ensembles(draw):
    count = draw(st.integers(1, 4))
    lines = [draw(mutated_line(index)) for index in range(count)]
    blanks = draw(st.lists(st.integers(0, count), max_size=2))
    for at in sorted(blanks, reverse=True):
        lines.insert(at, draw(st.sampled_from(["", " ", "\t"])))
    return "\n".join(lines) + "\n"


def load_outcome(load, path):
    """``load``'s networks, with the types of every value, or its error."""
    try:
        nets = tuple(load(path))
    except Exception as exc:  # noqa: BLE001 - the two loaders must agree
        return type(exc).__name__, str(exc)
    for n in nets:  # whether carried from the read or counted on the call
        recount = dict.fromkeys(n.nodes, 0)
        for (u, v), w in n.edges.items():
            recount[u] += w
            recount[v] += w
        assert list(n.strengths().items()) == list(recount.items())
    return repr([
        (n.window_start, n.window_index, n.nodes, list(n.edges.items()))
        for n in nets
    ])


@settings(max_examples=400)
@given(mutated_ensembles())
def test_load_ensemble_agrees_with_per_line_json_loads(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ensemble.jsonl"
        path.write_text(text, encoding="utf-8")
        assert load_outcome(ensemble_networks, path) == load_outcome(
            load_ensemble_direct, path
        )


# weights at and past both ends of the range the reader takes
FORM_WEIGHTS = st.sampled_from([0, -1, 1, 2, 2**53, 2**53 + 1])
# changes to one line that keep it in ensemble_lines' form; the reader
# rejects each, and a new weight when it is out of range
FORM_CHANGES = st.sampled_from([
    None, None, None, "weight", "weight", "reverse", "loop", "dup-edge",
    "short-edge", "long-edge", "extra-node", "dup-node", "reversed-nodes",
    "nested-node", "list-start",
])
# what may be inserted or deleted while a block stays in the form
FORM_CHARS = "0123456789,[]-"


@st.composite
def form_ensembles(draw):
    """Lines written as ``ensemble_lines`` writes them (compact JSON, its key
    order), with negative IDs and at most one change each, then characters
    of ``FORM_CHARS`` inserted or deleted, so most blocks stay in the form
    and reach the fast path."""
    lines = []
    for index in range(draw(st.integers(1, 5))):
        net = network_from_senders(draw(st.lists(st.integers(-3, 5), max_size=8)))
        nodes = list(net.nodes)
        edges = [[u, v, w] for (u, v), w in sorted(net.edges.items())]
        obj = {"w": DELTA_T * index, "i": index, "nodes": nodes, "edges": edges}
        change = draw(FORM_CHANGES)
        edge = draw(st.sampled_from(edges)) if edges else None
        if change == "list-start":
            obj["w"] = [obj["w"]]
        elif edge is None:
            pass
        elif change == "weight":
            edge[2] = draw(FORM_WEIGHTS)
        elif change == "reverse":
            edge[:2] = edge[1::-1]
        elif change == "loop":
            edge[1] = edge[0]
        elif change == "dup-edge":
            edges.append(list(edge))
        elif change == "short-edge":
            del edge[2]
        elif change == "long-edge":
            edge.append(1)
        elif change == "extra-node":
            nodes.append(nodes[-1] + 1)
        elif change == "dup-node":
            nodes.insert(0, nodes[0])
        elif change == "reversed-nodes":
            nodes.reverse()
        elif change == "nested-node":
            nodes[0] = [nodes[0]]
        lines.append(json.dumps(obj, separators=(",", ":")) + "\n")
    text = "".join(lines)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2]))):
        if draw(st.booleans()):
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(FORM_CHARS)) + text[at:]
        else:
            spots = [at for at, char in enumerate(text) if char in FORM_CHARS]
            at = draw(st.sampled_from(spots))
            text = text[:at] + text[at + 1:]
    if draw(st.integers(0, 7)) == 0:  # the last block is then out of the form
        text = text[:-1]
    return text


@settings(max_examples=400)
@given(form_ensembles(), st.one_of(st.none(), st.integers(3, 64)))
def test_load_ensemble_agrees_in_ensemble_lines_form(text, chunk):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        if chunk is not None:  # blocks of a line or a few
            mp.setattr(chatlog, "READ_CHUNK", chunk)
        path = Path(tmp) / "ensemble.jsonl"
        path.write_text(text, encoding="utf-8")
        assert load_outcome(ensemble_networks, path) == load_outcome(
            load_ensemble_direct, path
        )


VALID_LINE = '{"w":0,"i":0,"nodes":[0,1],"edges":[[0,1,2]]}'
# each quirk follows a valid line; the JSON Python cannot decode, then export
# quirks: leading zeros, an exponent, a bool, CRLF, a missing last newline
ENSEMBLE_QUIRKS = {
    "long-int": '{"w":600,"i":1,"nodes":[0,1],"edges":[[0,1,%s]]}\n' % ("1" * 5000),
    "deep": "[" * 200_000 + "\n",
    "unterminated": '{"w":600,"i":1,"nodes":[0,1],"edges":[[0,1,1]]}',
    "leading-zero": '{"w":600,"i":01,"nodes":[0,1],"edges":[[0,1,1]]}\n',
    "exponent": '{"w":6e2,"i":1,"nodes":[0,1],"edges":[[0,1,1]]}\n',
    "1e5-weight": '{"w":600,"i":1,"nodes":[0,1],"edges":[[0,1,1e5]]}\n',
    "true": '{"w":600,"i":1,"nodes":[0,1],"edges":[[0,1,true]]}\n',
    "crlf": '{"w":600,"i":1,"nodes":[0,1],"edges":[[0,1,1]]}\r\n',
    "empty-edges": '{"w":600,"i":1,"nodes":[],"edges":[]}\n',
    # quirks in ensemble_lines' form, which its fast path meets first
    "list-start": '{"w":[600],"i":1,"nodes":[0,1],"edges":[[0,1,1]]}\n',
    "nested-node": '{"w":600,"i":1,"nodes":[[0],1],"edges":[[0,1,1]]}\n',
    "2-element-edge": '{"w":600,"i":1,"nodes":[0,1],"edges":[[0,1]]}\n',
    "4-element-edge": '{"w":600,"i":1,"nodes":[0,1],"edges":[[0,1,1,1]]}\n',
    "two-objects": '{"w":600,"i":1,"nodes":[0,1],"edges":[[0,1,1]]}'
    '{"w":1200,"i":2,"nodes":[0,1],"edges":[[0,1,1]]}\n',
    "weight-past-2**53": '{"w":600,"i":1,"nodes":[0,1],"edges":[[0,1,%d]]}\n'
    % (2**53 + 1),
    "loop-edge": '{"w":600,"i":1,"nodes":[1],"edges":[[1,1,1]]}\n',
    "negative-ids": '{"w":600,"i":1,"nodes":[-2,-1],"edges":[[-2,-1,1]]}\n',
    "weight-2**53": '{"w":600,"i":1,"nodes":[0,1],"edges":[[0,1,%d]]}\n' % 2**53,
}


@pytest.mark.parametrize("chunk", [None, 3], ids=["whole", "small-chunks"])
@pytest.mark.parametrize("quirk", list(ENSEMBLE_QUIRKS))
def test_load_ensemble_agrees_on_quirks(tmp_path, monkeypatch, quirk, chunk):
    if chunk is not None:  # lines cross block edges
        monkeypatch.setattr(chatlog, "READ_CHUNK", chunk)
    path = tmp_path / "ensemble.jsonl"
    path.write_bytes(f"{VALID_LINE}\n{ENSEMBLE_QUIRKS[quirk]}".encode())
    outcome = load_outcome(ensemble_networks, path)
    assert outcome == load_outcome(load_ensemble_direct, path)
    # an error names the quirk's line; otherwise both lines were read
    assert "line 2" in outcome[1] if isinstance(outcome, tuple) else "(600, 1" in outcome


@pytest.mark.parametrize("chunk", [None, 8], ids=["whole", "small-chunks"])
def test_load_ensemble_counts_every_line_break_across_blocks(
    tmp_path, monkeypatch, chunk
):
    if chunk is not None:  # a block for each "\n", read after the lines before
        monkeypatch.setattr(chatlog, "READ_CHUNK", chunk)
    lines = [
        VALID_LINE.replace('"w":0,"i":0', f'"w":{600 * i},"i":{i}') for i in range(4)
    ]
    # "\r" and U+2028 end a line for str.splitlines, but only "\n" ends a
    # block; the last line is in ensemble_lines' form, and its nodes are wrong
    text = "\r".join(lines[:2]) + "\n" + "\u2028".join(lines[2:]) + "\n"
    text += '{"w":2400,"i":4,"nodes":[0,1,2],"edges":[[0,1,1]]}\n'
    path = tmp_path / "ensemble.jsonl"
    path.write_text(text, encoding="utf-8")
    outcome = load_outcome(ensemble_networks, path)
    assert outcome == load_outcome(load_ensemble_direct, path)
    assert outcome[1].endswith("line 5: nodes do not match edge endpoints")


# every line boundary str.splitlines knows, a BOM, and characters of one to
# four UTF-8 bytes
LINE_PIECES = st.sampled_from([
    "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
    "\u2028", "\u2029", "\ufeff", "a", "\u00e9", "\u20ac", "\U0001f600",
])


@given(st.lists(LINE_PIECES, max_size=60), st.integers(0, 8))
def test_utf8_lines_equal_splitlines(pieces, shift):
    # the ASCII prefix moves the pieces across the first READ_CHUNK boundary
    text = "x" * (READ_CHUNK - shift) + "".join(pieces) if shift else "".join(pieces)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.txt"
        path.write_bytes(text.encode("utf-8"))
        lines = list(utf8_lines(path, ParseError))
        assert lines == path.read_text(encoding="utf-8").splitlines()


# rows of one to 13 digits a field, in any timestamp order
CSV_ROWS = st.lists(
    st.tuples(st.sampled_from([0, 7, 301, 4000, 70_000]), st.integers(0, 10**12)),
    max_size=30,
)
# spellings that int() or csv.reader read, or that one of them rejects
ODD_FIELDS = st.sampled_from([
    b"", b"007", b" 12", b"12 ", b"+12", b"1_000", b"-5", b"1.5", b"x",
    b"1234567890123456789", b"12345678901234567890123", b"1\x002", b"\xd9\xa1",
])


@st.composite
def quirky_csv_logs(draw) -> bytes:
    """A canonical CSV log, as dump_log writes it, with at most one quirk."""
    rows = draw(CSV_ROWS.filter(bool))
    lines = [b"user_id,timestamp"] + [b"%d,%d" % row for row in rows]
    end = b"\n"
    quirk = draw(st.sampled_from([
        None, "crlf", "cr", "quoted", "quoted line break", "bom", "blank",
        "3+1 columns", "user ID", "timestamp", "late non-UTF-8", "no final newline",
        "1 column, no final newline", "header only", "empty",
    ]))
    at = draw(st.integers(1, len(lines)))  # a row, or the end of the file
    row = min(at, len(lines) - 1)
    if quirk == "crlf":
        end = b"\r\n"
    elif quirk == "cr":  # no "\n" at all: the whole file is one block
        end = b"\r"
    elif quirk == "quoted" and row:
        fields = lines[row].split(b",")
        column = draw(st.integers(0, 1))
        fields[column] = b'"%s"' % fields[column]
        lines[row] = b",".join(fields)
    elif quirk == "quoted line break" and row:
        # one record on two lines, which may fall in two blocks; int()
        # strips the break around the digits, not between them
        fields = lines[row].split(b",")
        cut = draw(st.integers(0, len(fields[0])))
        fields[0] = b'"%s\n%s"' % (fields[0][:cut], fields[0][cut:])
        lines[row] = b",".join(fields)
    elif quirk == "bom":
        lines[0] = b"\xef\xbb\xbf" + lines[0]
    elif quirk == "blank":
        lines.insert(at, draw(st.sampled_from([b"", b" ", b","])))
    elif quirk == "3+1 columns" and row + 1 < len(lines):
        # the commas still add up to one a line
        lines[row], lines[row + 1] = (
            lines[row] + b"," + lines[row + 1].split(b",")[0],
            lines[row + 1].split(b",")[1],
        )
    elif quirk in ("user ID", "timestamp") and row:
        fields = lines[row].split(b",")
        fields[quirk == "timestamp"] = draw(ODD_FIELDS)
        lines[row] = b",".join(fields)
    elif quirk == "late non-UTF-8" and row:
        lines[row] += b"\xff"
    elif quirk == "header only":
        del lines[1:]
    text = end.join(lines) + end
    if quirk == "no final newline":
        text = text[: -len(end)]
    elif quirk == "1 column, no final newline":
        # the last row cut to its user ID: no comma left in the last line
        text = end.join(lines[:-1] + [lines[-1].split(b",")[0]])
    elif quirk == "empty":
        text = b""
    return text


def log_outcome(load, path):
    """``load``'s columns, or its error message."""
    try:
        log = load(path)
    except SchemaError as exc:
        return str(exc)
    return log.users, log.timestamps


@settings(max_examples=600)
@given(quirky_csv_logs(), st.integers(8, 64))
def test_load_log_agrees_with_csv_reader(text, block):
    # blocks of a few rows, so that rows and quirks cross block edges
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(chatlog, "READ_CHUNK", block)
        path = Path(tmp) / "log.csv"
        path.write_bytes(text)
        assert log_outcome(load_log, path) == log_outcome(load_log_csv_direct, path)


@st.composite
def mutated_jsonl_logs(draw) -> bytes:
    """A JSONL log, as dump_log writes it, with odd values, keys and
    characters in a few lines, blank lines and a BOM."""
    lines = []
    for user, ts in draw(CSV_ROWS):
        obj = {"u": user, "t": ts}
        if draw(st.integers(0, 3)) == 0:
            kind = draw(st.sampled_from(["u", "t", "drop", "extra"]))
            if kind == "drop":
                del obj[draw(st.sampled_from(["u", "t"]))]
            else:
                obj["x" if kind == "extra" else kind] = draw(ODD_VALUES)
        keys = draw(st.permutations(list(obj)))
        separators = draw(st.sampled_from([(",", ":"), (", ", ": ")]))
        text = json.dumps({k: obj[k] for k in keys}, separators=separators)
        for _ in range(draw(st.sampled_from([0, 0, 0, 1]))):
            at = draw(st.integers(0, len(text)))
            if draw(st.booleans()):
                text = text[:at] + draw(ODD_CHARS) + text[at:]
            else:
                text = text[:at] + text[at + 1:]
        lines.append(text)
    for at in sorted(draw(st.lists(st.integers(0, len(lines)), max_size=2)), reverse=True):
        lines.insert(at, draw(st.sampled_from(["", " ", "\t", "\u3000"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return (draw(st.sampled_from(["", "", "\ufeff"])) + text).encode("utf-8")


@settings(max_examples=400)
@given(mutated_jsonl_logs(), st.integers(3, 64))
def test_load_log_jsonl_agrees_with_per_line_json_loads(data, block):
    # blocks of a few lines, so that lines and quirks cross block edges
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(chatlog, "READ_CHUNK", block)
        path = Path(tmp) / "log.jsonl"
        path.write_bytes(data)
        assert log_outcome(load_log, path) == log_outcome(load_log_jsonl_direct, path)


JSONL_ROW = '{"u":0,"t":600}\n'
# each quirk's second line follows a valid row: the JSON Python cannot
# decode, whitespace and line ends, values json reads its own way, and BOMs
JSONL_LOG_QUIRKS = {
    "long-int": '{"u":1,"t":%s}\n' % ("1" * 5000),
    "deep": "[" * 200_000 + "\n",
    "whitespace": ' \t{"u":1,"t":700}\x0c \n',
    "ideographic-space": "\u3000\n",
    "crlf": '{"u":1,"t":700}\r\n',
    "unterminated": '{"u":1,"t":700}',
    "exponent": '{"u":1,"t":1e5}\n',
    "true": '{"u":true,"t":700}\n',
    "nan": '{"u":1,"t":NaN}\n',
    "minus-zero": '{"u":-0,"t":700}\n',
    "leading-zero": '{"u":01,"t":700}\n',
    "extra-data": '{"u":1,"t":700} {"u":2,"t":800}\n',
    "duplicate-key": '{"u":1,"t":700,"u":2}\n',
    "bom-line-2": '\ufeff{"u":1,"t":700}\n',
}


@pytest.mark.parametrize("chunk", [None, 3], ids=["whole", "small-chunks"])
@pytest.mark.parametrize("quirk", [*JSONL_LOG_QUIRKS, "bom-line-1"])
def test_load_log_jsonl_agrees_on_quirks(tmp_path, monkeypatch, quirk, chunk):
    if chunk is not None:  # lines cross block edges
        monkeypatch.setattr(chatlog, "READ_CHUNK", chunk)
    if quirk == "bom-line-1":
        text = "\ufeff" + JSONL_ROW + '{"u":1,"t":700}\n'
    else:
        text = JSONL_ROW + JSONL_LOG_QUIRKS[quirk]
    path = tmp_path / "log.jsonl"
    path.write_bytes(text.encode())
    outcome = log_outcome(load_log, path)
    assert outcome == log_outcome(load_log_jsonl_direct, path)
    # an error names the quirk's line; otherwise the valid row was read
    assert "line 2: " in outcome if isinstance(outcome, str) else 600 in outcome[1]


def no_csv_reader(*args, **kwargs):
    raise AssertionError("csv.reader called")


@given(CSV_ROWS, st.integers(8, 64))
def test_dump_log_csv_loads_without_csv_reader(rows, block):
    rows = sorted(rows, key=lambda row: row[1])
    log = MessageLog(tuple(u for u, _ in rows), tuple(t for _, t in rows))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(chatlog, "READ_CHUNK", block)
        mp.setattr(csv, "reader", no_csv_reader)
        path = Path(tmp) / "log.csv"
        path.write_text(dump_log(log))
        loaded = load_log(path)
    assert (loaded.users, loaded.timestamps) == (log.users, log.timestamps)


def scored_csvs(rows, tmp: Path, name: str, start=BASE) -> tuple[str, str]:
    """metrics.csv and centralities.csv of `build` then `metrics` on the log."""
    log = tmp / f"{name}.csv"
    log.write_text(dump_log(log_of(rows, start)))
    out = tmp / name
    assert main(["build", str(log), "--out", str(out)]) == EXIT_OK
    assert main(["metrics", str(out / "ensemble.jsonl"), "--out", str(out)]) == EXIT_OK
    return (out / "metrics.csv").read_text(), (out / "centralities.csv").read_text()


def metrics_rows(rows, start, tmp: Path) -> list[list[str]]:
    metrics, _ = scored_csvs(rows, tmp, f"log-{start}", start)
    return [line.split(",") for line in metrics.splitlines()]


@given(messages, st.integers(-1000, 1000).filter(bool))
def test_shift_by_whole_windows_changes_only_window_start(rows, windows):
    with tempfile.TemporaryDirectory() as tmp:
        before = metrics_rows(rows, BASE, Path(tmp))
        after = metrics_rows(rows, BASE + windows * DELTA_T, Path(tmp))
    assert before[0] == after[0] and len(before) == len(after)
    for old, new in zip(before[1:], after[1:]):
        assert int(new[0]) - int(old[0]) == windows * DELTA_T
        assert new[1:] == old[1:]


def centralities_by_window(text: str, relabel=lambda user: user) -> dict:
    windows: dict[str, set] = {}
    for line in text.splitlines()[1:]:
        start, user, strength, value = line.split(",")
        windows.setdefault(start, set()).add((relabel(int(user)), strength, value))
    return windows


@given(messages, st.permutations(range(6)))
def test_relabeling_users_changes_only_the_user_ids(rows, perm):
    relabeled = [(perm[user], gap) for user, gap in rows]
    with tempfile.TemporaryDirectory() as tmp:
        metrics, central = scored_csvs(rows, Path(tmp), "original")
        metrics_p, central_p = scored_csvs(relabeled, Path(tmp), "relabeled")
    assert metrics_p == metrics
    back = {new: old for old, new in enumerate(perm)}
    assert centralities_by_window(central_p, back.__getitem__) == (
        centralities_by_window(central)
    )


def descending(means: dict[int, float]) -> tuple[tuple[int, float], ...]:
    return tuple(sorted(means.items(), key=lambda kv: (-kv[1], kv[0])))


# (-50, 1) leaves LOW empty: no z-score of at most 120 windows reaches -50
@given(
    chats(DELTA_T // 2, min_size=10),
    st.sampled_from([(-1.0, 1.0), (-0.5, 0.5), (-50.0, 1.0)]),
    st.sampled_from(["zero", "present"]),
    st.data(),
)
def test_rankings_and_period_means_match_the_definition(rows, thresholds, avg, data):
    wms = scored(rows)
    low, high = thresholds
    try:
        _, classified = zscore_classify(wms, ensemble_stats(wms), low=low, high=high)
    except (InsufficientDataError, DegenerateEnsembleError):
        assume(False)
    table = table_rows(wms)
    population = {user for w in table for user in w.users}
    label = dict(zip(wms.indices, classified))

    rankings = rank_users(wms, classified, top_k=len(population), avg=avg)
    assert set(rankings) == set(EngagementClass)
    for scope, ranking in rankings.items():
        scoped = [
            w for w in table
            if scope is EngagementClass.GLOBAL or label[w.window_index] is scope
        ]
        expected = descending(scope_means_direct(scoped, avg, population)) if scoped else ()
        assert ranking.scope is scope
        assert ranking.entries == expected
    if low == -50.0:
        assert rankings[EngagementClass.LOW].entries == ()

    split = wms.starts[data.draw(st.integers(1, len(wms) - 1))]
    periods = (
        table,
        [w for w in table if w.window_start < split],
        [w for w in table if w.window_start >= split],
    )
    for vector, scoped in zip(period_means(wms, split, avg=avg), periods):
        assert vector == dict.fromkeys(population, 0.0) | scope_means_direct(
            scoped, avg, population
        )


def iso(ts: int) -> str:
    return datetime.fromtimestamp(ts, timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")


@given(chats(DELTA_T // 2, min_size=10), st.sampled_from(["zero", "present"]), st.data())
def test_stepwise_rank_and_compare_match_report(rows, avg, data):
    wms = scored(rows)
    assume(len(wms) >= 2)
    split = iso(wms.starts[data.draw(st.integers(1, len(wms) - 1))])
    with tempfile.TemporaryDirectory() as tmp:
        log, report, steps = Path(tmp) / "log.csv", Path(tmp) / "report", Path(tmp) / "steps"
        log.write_text(dump_log(log_of(rows)))
        code = main(
            ["report", str(log), "--out", str(report), "--split", split, "--avg", avg]
        )
        assume(code == EXIT_OK)  # say, every window has the same ei
        ens = str(steps / "ensemble.jsonl")
        assert main(["build", str(log), "--out", str(steps)]) == EXIT_OK
        assert main(["rank", ens, "--out", str(steps), "--avg", avg]) == EXIT_OK
        assert main(
            ["compare", ens, "--out", str(steps), "--split", split, "--avg", avg]
        ) == EXIT_OK
        written = {
            p.name: p.read_bytes() for p in steps.iterdir() if p.name != "manifest.json"
        }
        assert len(written) == 7  # ensemble, four rankings, two comparison files
        assert {name: (report / name).read_bytes() for name in written} == written


def same_bits(shared, separate) -> bool:
    """Equal records whose floats also have the same reprs, so the same bits."""
    return shared == separate and repr(shared) == repr(separate)


# (-50, 1) leaves LOW empty and (-1, 50) leaves HIGH empty; the splits at the
# first window and past the last leave a period empty
@given(
    chats(DELTA_T // 2, min_size=10),
    st.sampled_from([(-1.0, 1.0), (-0.5, 0.5), (-50.0, 1.0), (-1.0, 50.0)]),
    st.sampled_from(["zero", "present"]),
    st.data(),
)
def test_one_pass_for_rankings_and_comparison_equals_a_pass_each(
    rows, thresholds, avg, data
):
    wms = scored(rows)
    low, high = thresholds
    try:
        _, labels = zscore_classify(wms, ensemble_stats(wms), low=low, high=high)
    except (InsufficientDataError, DegenerateEnsembleError):
        assume(False)
    top_k = data.draw(st.integers(1, 8))
    starts = list(wms.starts)
    middle = starts[data.draw(st.integers(1, len(starts) - 1))]
    empty_period = {starts[0], starts[-1] + 1}
    for split in (starts[0], middle, starts[-1], starts[-1] + 1):
        if split in empty_period:
            with pytest.raises(InsufficientDataError) as separate:
                period_compare(wms, split, avg=avg)
            with pytest.raises(InsufficientDataError) as shared:
                scope_means(wms, avg, labels, split_periods(wms, split))
            assert str(shared.value) == str(separate.value)
            continue
        by_class, by_period = scope_means(wms, avg, labels, split_periods(wms, split))
        rankings = rank_users(wms, labels, top_k, avg=avg)
        assert same_bits(rank_means(by_class, top_k), rankings)
        assert same_bits(compare_means(by_period, split), period_compare(wms, split, avg=avg))
        if low == -50.0:
            assert rankings[EngagementClass.LOW].entries == ()
        if high == 50.0:
            assert rankings[EngagementClass.HIGH].entries == ()
    # report, which makes the one pass, fails with the separate pass's text
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.csv"
        log.write_text(dump_log(log_of(rows)))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([
                "report", str(log), "--out", str(Path(tmp) / "out"),
                f"--thresholds={low},{high}", "--avg", avg, "--split", iso(starts[0]),
            ])
    assert code == EXIT_INSUFFICIENT
    with pytest.raises(InsufficientDataError) as separate:
        period_compare(wms, starts[0], avg=avg)
    assert json.loads(err.getvalue()) == {
        "error": "insufficient-data", "detail": str(separate.value)
    }


# --- transcript header times against strptime --------------------------------

# digit strings in and out of range for each field of a header time; the
# header grammar wants 1-2 digits for day, month and hour, 2-4 for the year
# and exactly 2 for minute and second, so longer and shorter ones are here too
EDGES = {
    "day": ("0", "00", "1", "07", "13", "28", "29", "30", "31", "32", "007"),
    "month": ("0", "00", "1", "02", "09", "12", "13", "32", "012"),
    "year": ("0", "7", "00", "18", "68", "69", "99", "018", "100", "0000",
             "0001", "1969", "2019", "9999", "20190"),
    "hour": ("0", "00", "1", "09", "11", "12", "13", "23", "24", "012"),
    "minute": ("0", "00", "05", "59", "60", "99", "005"),
    "second": (None, "0", "00", "30", "59", "60", "61", "005"),
    "meridiem": (" AM", " PM", "AM", "PM", " am", " pm", "pM", " Am"),
}
VALID = {"day": "17", "month": "2", "year": "19", "hour": "11", "minute": "05",
         "second": "30", "meridiem": " PM"}
ZONES = ("UTC", "America/Sao_Paulo")


def header_line(profile, day, month, year, hour, minute, second, meridiem):
    """One message line whose header time has exactly these field strings."""
    if profile == "whatsapp-us-dash":
        return f"{month}/{day}/{year}, {hour}:{minute}{meridiem} - Ann: hi"
    if profile == "whatsapp-bracket":
        secs = "" if second is None else f":{second}"
        return f"[{day}/{month}/{year}, {hour}:{minute}{secs}] Ann: hi"
    return f"{day}/{month}/{year}, {hour}:{minute} - Ann: hi"


def parsed_first_line(line, profile, tz):
    """The epoch parse_transcript reads from ``line``, or its error text."""
    try:
        return parse_transcript(line + "\n", tz=tz, profile=profile).log.timestamps[0]
    except ParseError as exc:
        assert exc.line_no == 1
        return str(exc).removeprefix("line 1: ")


def edge_cases():
    """Field dicts that each move one field, or hour and meridiem, to an edge."""
    for name, values in EDGES.items():
        for value in values:
            yield VALID | {name: value}
    for hour in EDGES["hour"]:
        for meridiem in EDGES["meridiem"]:
            yield VALID | {"hour": hour, "meridiem": meridiem}


@pytest.mark.parametrize("tz", ZONES)
@pytest.mark.parametrize("profile", sorted(STRPTIME_PROFILES))
def test_header_time_edges_match_strptime(profile, tz):
    zone = ZoneInfo(tz)
    mismatches = []
    for fields in edge_cases():
        line = header_line(profile, **fields)
        expected = strptime_first_line(line, profile, zone)
        if parsed_first_line(line, profile, tz) != expected:
            mismatches.append((line, expected))
    assert mismatches == []


def time_field(name, max_size):
    digits = st.text("0123456789", min_size=1, max_size=max_size)
    return st.one_of(st.sampled_from(EDGES[name]), digits)


@settings(max_examples=400)
@given(
    profile=st.sampled_from(sorted(STRPTIME_PROFILES)),
    tz=st.sampled_from(ZONES),
    day=time_field("day", 3),
    month=time_field("month", 3),
    year=time_field("year", 5),
    hour=time_field("hour", 3),
    minute=time_field("minute", 3),
    second=time_field("second", 3),
    meridiem=st.sampled_from(EDGES["meridiem"]),
)
def test_header_times_match_strptime(profile, tz, **fields):
    line = header_line(profile, **fields)
    expected = strptime_first_line(line, profile, ZoneInfo(tz))
    assert parsed_first_line(line, profile, tz) == expected


# keys shorter than, equal to and longer than SHA-256's 64-byte block; a
# longer key is hashed first
@given(
    st.sampled_from([0, 1, 16, 64, 65, 200]).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)
    ),
    st.text(),
)
def test_sender_digest_equals_hmac_sha256(salt, name):
    expected = hmac.new(salt, name.encode("utf-8"), hashlib.sha256).hexdigest()
    assert sender_digest(salt, name) == expected


# --- whole transcripts against a line-at-a-time parse -------------------------

# local times just before an offset change: Sao Paulo skipped 2018-11-04
# 00:00-00:59 and repeated 2019-02-16 23:00-23:59; Lord Howe skipped
# 2018-10-07 02:00-02:29 and repeated 2019-04-07 01:30-01:59
TRANSITIONS = {
    "UTC": (datetime(2018, 11, 3, 23, 10),),
    "America/Sao_Paulo": (datetime(2018, 11, 3, 23, 10), datetime(2019, 2, 16, 22, 40)),
    "Australia/Lord_Howe": (datetime(2018, 10, 7, 1, 20), datetime(2019, 4, 7, 1, 10)),
}
# what a line may carry besides its header: no-break spaces, direction marks,
# a digit outside ASCII, a byte-order mark that is not the file's first, and
# bodies holding line breaks that str.splitlines splits at, followed by text
# shaped as a header
NOISE = ("",) * 6 + (
    "nbsp", "narrow", "mark", "digit", "bom", "\r", "\x85", "\u2028", "\r\n",
)
# minutes from one header time to the next: mostly forward, sometimes back
# by up to 70, which the second occurrence of a repeated hour or the slack
# may absorb
STEPS = st.one_of(*[st.integers(0, 25)] * 3, st.integers(-70, 25))
LINE_KINDS = ("message",) * 5 + ("notice", "continuation")


def transcript_line(profile, when: datetime, sender: str, body: str, dash="-",
                    seconds=True, year4=False, space=" ") -> str:
    """One header line of ``profile`` at the naive local time ``when``."""
    year = f"{when.year}" if year4 else f"{when.year % 100:02d}"
    if profile == "whatsapp-us-dash":
        hour = when.hour % 12 or 12
        meridiem = "AM" if when.hour < 12 else "PM"
        clock = f"{hour}:{when.minute:02d}{space}{meridiem}"
        return f"{when.month}/{when.day}/{year}, {clock} {dash} {sender}{body}"
    if profile == "whatsapp-bracket":
        secs = f":{when.second:02d}" if seconds else ""
        clock = f"{when.hour:02d}:{when.minute:02d}{secs}"
        return f"[{when.day}/{when.month}/{year}, {clock}] {sender}{body}"
    stamp = f"{when.day:02d}/{when.month:02d}/{year}, {when.hour:02d}:{when.minute:02d}"
    return f"{stamp} {dash} {sender}{body}"


@st.composite
def transcripts(draw):
    """(profile, tz, text): an export with notices, continuations and noise,
    whose times step back and forth around an offset change."""
    profile = draw(st.sampled_from(sorted(PROFILES)))
    tz = draw(st.sampled_from(sorted(TRANSITIONS)))
    when = draw(st.sampled_from(TRANSITIONS[tz]))
    lines = []
    entries = st.tuples(
        st.sampled_from(LINE_KINDS), STEPS, st.integers(0, 59),
        st.integers(0, 3), st.sampled_from(NOISE), st.booleans(),
    )
    for kind, minutes, second, who, noise, flip in draw(st.lists(entries, max_size=30)):
        if kind == "continuation":
            lines.append(f"more é {who}" + (noise if noise in ("\r", "\x85") else ""))
            continue
        when = when.replace(second=second) + timedelta(minutes=minutes)
        sender = ("Ana", "Bruno\u00a0Lima", "Carla", "Davi \u200fR")[who]
        body = ": oi \U0001f600" if kind == "message" else " joined"
        if noise in ("\r", "\x85", "\u2028", "\r\n"):
            # a break inside the body, then text shaped as a header
            body += noise + transcript_line(profile, when, "Zé", ": x")
        line = transcript_line(
            profile, when, sender, body, dash="–" if flip else "-",
            seconds=not flip, year4=flip and who == 0,
            space="\u202f" if noise == "narrow" else " " if flip else "",
        )
        if noise == "nbsp":
            line = line.replace(", ", ",\u00a0", 1)
        elif noise == "mark":
            line = "\u200e" + line.replace(" ", " \u202a", 1)
        elif noise == "digit":
            line = line.replace("1", "\u0661", 1)
        elif noise == "bom":
            line = "\ufeff" + line
        lines.append(line)
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))
    return profile, tz, draw(st.sampled_from(["", "\ufeff"])) + text


def parse_outcome(parse, lines, **kwargs):
    """The parsed columns and senders, or the error's class, text and line."""
    try:
        parsed = parse(lines, **kwargs)
    except (ParseError, OrderingError) as exc:
        return type(exc).__name__, str(exc), exc.line_no
    return parsed.log.users, parsed.log.timestamps, parsed.senders


# a byte-order mark opening a later batch is text, as on any line but the first
LATER_BOM = (
    "whatsapp-en-dash", "UTC", "3/7/18, 10:00 - A: a\n\ufeff3/7/18, 10:01 - B: b",
)


@settings(max_examples=400, deadline=None)
@given(transcripts(), st.sampled_from([0, 90, 3600]), st.sampled_from([1, 2, 3, None]))
@example(LATER_BOM, 0, 1)
def test_parse_transcript_agrees_with_a_line_at_a_time_parse(case, slack, batch):
    profile, tz, text = case
    kwargs = {"tz": tz, "profile": profile, "slack": slack}
    expected = parse_outcome(parse_transcript_direct, text, **kwargs)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        if batch is not None:  # errors and headers after a batch boundary
            mp.setattr(chatlog, "PARSE_BATCH", batch)
        assert parse_outcome(parse_transcript, text, **kwargs) == expected
        # the same text as a file read three bytes at a time
        mp.setattr(chatlog, "READ_CHUNK", 3)
        path = Path(tmp) / "chat.txt"
        path.write_bytes(text.encode("utf-8"))
        lines = utf8_lines(path, ParseError)
        assert parse_outcome(parse_transcript, lines, **kwargs) == expected
