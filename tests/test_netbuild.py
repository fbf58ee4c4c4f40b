"""Window slicing and interaction-network construction."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from chatpulse import (
    ParameterError,
    SchemaError,
    WindowSpec,
    ensemble_lines,
    network_from_senders,
    slice_windows,
    window_networks,
)
from chatpulse.chatlog import utc_timestamp
from chatpulse.cli import EXIT_SCHEMA, main
from chatpulse.netbuild import ensemble_networks, in_window_order

from conftest import make_log, random_log
from oracles import brute_pair_counts, load_ensemble_direct, strengths_direct

T2330 = utc_timestamp("2018-07-03T23:30:00Z")


def test_events_in_same_ten_minute_bin():
    log = make_log([(0, T2330 + 60), (1, T2330 + 9 * 60)])  # 23:31 and 23:39
    stream = slice_windows(log, WindowSpec(delta_t=600))
    assert iter(stream) is stream  # yielded, not held as a list
    slices = list(stream)
    assert len(slices) == 1
    assert slices[0].start == T2330


def test_bin_boundary_splits_windows():
    log = make_log([(0, T2330 + 9 * 60), (1, T2330 + 11 * 60)])  # 23:39, 23:41
    slices = slice_windows(log, WindowSpec(delta_t=600))
    assert [(s.start, s.lo, s.hi) for s in slices] == [
        (T2330, 0, 1),
        (T2330 + 600, 1, 2),
    ]


def test_bin_counts_match_direct_histogram():
    log = random_log(seed=3, users=8, count=900, horizon=3 * 86400, start=T2330)
    delta = 600
    slices = list(slice_windows(log, WindowSpec(delta_t=delta)))
    origin = (log.timestamps[0] // delta) * delta
    expected = Counter((t - origin) // delta for t in log.timestamps)
    assert {s.index: s.hi - s.lo for s in slices} == dict(expected)
    assert [(s.lo, s.hi) for s in slices] == list(
        zip([0] + [s.hi for s in slices[:-1]], [s.hi for s in slices])
    )
    assert slices[-1].hi == len(log)


def test_empty_range_is_empty_result_not_error():
    log = make_log([(0, 100), (1, 200)])
    spec = WindowSpec(delta_t=600, time_range=(10_000, 20_000))
    assert list(slice_windows(log, spec)) == []


def test_window_indices_are_gap_aware():
    log = make_log([(0, 0), (1, 30), (0, 3000), (1, 3030)])
    slices = list(slice_windows(log, WindowSpec(delta_t=600)))
    assert [s.index for s in slices] == [0, 5]
    assert [s.start for s in slices] == [0, 3000]


def test_first_message_alignment_anchors_to_first_event():
    log = make_log([(0, 250), (1, 300), (0, 880)])
    slices = slice_windows(log, WindowSpec(delta_t=600, alignment="first"))
    assert [s.start for s in slices] == [250, 850]
    wall = slice_windows(log, WindowSpec(delta_t=600, alignment="wall"))
    assert [s.start for s in wall] == [0, 600]


def test_range_filter_is_half_open():
    log = make_log([(0, 100), (1, 200), (0, 300)])
    spec = WindowSpec(delta_t=600, time_range=(100, 300))
    rows = [row for s in slice_windows(log, spec) for row in range(s.lo, s.hi)]
    assert [log.timestamps[row] for row in rows] == [100, 200]


def test_invalid_specs_rejected():
    with pytest.raises(ParameterError):
        WindowSpec(delta_t=0)
    with pytest.raises(ParameterError):
        WindowSpec(alignment="sliding")
    with pytest.raises(ParameterError):
        WindowSpec(time_range=(50, 50))


# --- network construction ----------------------------------------------------

def test_single_transition_makes_one_edge():
    net = network_from_senders([0, 1])
    assert net.edges == {(0, 1): 1}
    assert net.nodes == (0, 1)
    assert net.is_conversation


def test_monologue_is_not_a_conversation():
    net = network_from_senders([0, 0, 0])
    assert net.edges == {}
    assert net.nodes == ()
    assert not net.is_conversation


def test_known_sequence_weights():
    # transitions: (A,B),(B,A),(A,B),(B,C),(C,A)
    net = network_from_senders([0, 1, 0, 1, 2, 0])
    assert net.edges == {(0, 1): 3, (1, 2): 1, (0, 2): 1}
    assert brute_pair_counts([0, 1, 0, 1, 2, 0]) == net.edges


def test_matches_brute_force_oracle_on_random_sequences():
    rng = random.Random(77)
    for _ in range(200):
        seq = [rng.randrange(rng.randrange(1, 10) + 1) for _ in range(rng.randrange(0, 120))]
        net = network_from_senders(seq)
        expected = brute_pair_counts(seq)
        assert net.edges == expected
        assert net.nodes == tuple(sorted({u for p in expected for u in p}))


def test_built_networks_carry_their_strengths():
    rng = random.Random(31)
    for _ in range(200):
        seq = [rng.randrange(rng.randrange(1, 10) + 1) for _ in range(rng.randrange(0, 120))]
        net = network_from_senders(seq)
        expected = brute_pair_counts(seq)
        assert net.nodes == tuple(sorted({u for p in expected for u in p}))
        strengths = net.strengths()
        assert strengths == strengths_direct(expected)
        assert tuple(strengths) == net.nodes  # keys in nodes order
        # counted when the network was built, not again on each call
        assert net.strengths() is strengths
    log = random_log(seed=31, users=5, count=300, horizon=6 * 3600)
    for net in window_networks(log, WindowSpec(delta_t=600)):
        assert net.strengths() is net.strengths()
        assert net.strengths() == strengths_direct(net.edges)


def test_strengths_sum_to_twice_total_weight():
    net = network_from_senders([0, 1, 2, 1, 0, 3, 0])
    assert sum(net.strengths().values()) == 2 * sum(net.edges.values())


def test_total_weight_bounded_by_messages():
    rng = random.Random(5)
    for _ in range(50):
        seq = [rng.randrange(4) for _ in range(rng.randrange(1, 40))]
        net = network_from_senders(seq)
        assert sum(net.edges.values()) <= len(seq) - 1


# --- ensembles ----------------------------------------------------------------

def test_cross_window_independence():
    log = random_log(seed=10, users=5, count=300, horizon=6 * 3600)
    spec = WindowSpec(delta_t=600)
    full = tuple(window_networks(log, spec))
    victim = full[len(full) // 2]
    kept = [
        (u, t)
        for u, t in zip(log.users, log.timestamps)
        if not victim.window_start <= t < victim.window_start + 600
    ]
    reb = tuple(window_networks(make_log(kept), spec))
    survivors = {n.window_start: n for n in reb}
    for net in full:
        if net.window_start == victim.window_start:
            assert net.window_start not in survivors
        else:
            other = survivors[net.window_start]
            assert other.edges == net.edges and other.nodes == net.nodes


def test_single_user_log_has_zero_conversations():
    log = make_log([(0, t * 100) for t in range(50)])
    nets = tuple(window_networks(log, WindowSpec(delta_t=600)))
    assert len(nets) > 0
    assert [net for net in nets if net.is_conversation] == []


def test_build_ensemble_deterministic():
    log = random_log(seed=21)
    spec = WindowSpec(delta_t=600)
    assert "".join(ensemble_lines(window_networks(log, spec))) == "".join(
        ensemble_lines(window_networks(log, spec))
    )


def test_ensemble_round_trip_through_jsonl(tmp_path):
    log = random_log(seed=22, users=7, count=600, horizon=86400)
    nets = tuple(window_networks(log, WindowSpec(delta_t=600)))
    path = tmp_path / "ensemble.jsonl"
    path.write_text("".join(ensemble_lines(nets)))
    loaded = tuple(ensemble_networks(path))
    assert len(loaded) == len(nets)
    for a, b in zip(loaded, nets):
        assert (a.window_start, a.window_index) == (b.window_start, b.window_index)
        assert a.nodes == b.nodes and a.edges == b.edges
    # canonical form: u < v on every edge, edges sorted within the line
    for line in path.read_text().splitlines():
        edges = json.loads(line)["edges"]
        assert all(u < v for u, v, _ in edges)
        assert edges == sorted(edges)


VALID_LINE = '{"w":0,"i":0,"nodes":[0,1],"edges":[[0,1,2]]}'
INTEGERS = (
    "window start, index, node IDs and weights must be integers"
)
BOOL_ENDPOINT = '{"w":0,"i":0,"nodes":[0,1,2],"edges":[[0,1,1],[false,2,1]]}'
FLOAT_ENDPOINT = '{"w":0,"i":0,"nodes":[0,1,2],"edges":[[0,2,1],[1,2.0,1]]}'
# each line's exact diagnostic, as per-line json.loads and the checks give it
BAD_ENSEMBLE = {
    '{"w":0,"i":0,"nodes":[0,1],"edges":[[1,0,2]]}':  # u > v
        "{path}: line 1: bad edge [1,0,2]",
    '{"w":0,"i":0,"nodes":[0,1],"edges":[[0,1,0]]}':  # zero weight
        "{path}: line 1: bad edge [0,1,0]",
    '{"w":0,"i":0,"nodes":[0,1,5],"edges":[[0,1,2]]}':  # phantom node
        "{path}: line 1: nodes do not match edge endpoints",
    '{"w":0,"i":0,"edges":[[0,1,2]]}':  # missing nodes
        "{path}: line 1: malformed network",
    "not json": "{path}: line 1: invalid JSON",
    '{"w":0,"i":0,"nodes":[0,1],"edges":[[0,1,2],[0,1,5]]}':  # duplicate edge
        "{path}: line 1: duplicate edge",
    '{"w":0,"i":0,"nodes":[0,1],"edges":[[0,1,true]]}':  # bool weight
        f"{{path}}: line 1: {INTEGERS}",
    '{"w":0,"i":0,"nodes":[0,1],"edges":[[0,1,1.5]]}':  # float weight
        f"{{path}}: line 1: {INTEGERS}",
    '{"w":0,"i":0,"nodes":[false,1],"edges":[[false,1,2]]}':  # bool node ID
        f"{{path}}: line 1: {INTEGERS}",
    '{"w":0,"i":0,"nodes":[0,1.0],"edges":[[0,1,2]]}':  # float node ID
        f"{{path}}: line 1: {INTEGERS}",
    # an endpoint equal to an int endpoint of another edge is still typed
    BOOL_ENDPOINT: f"{{path}}: line 1: {INTEGERS}",
    FLOAT_ENDPOINT: f"{{path}}: line 1: {INTEGERS}",
    '{"w":0.5,"i":0,"nodes":[0,1],"edges":[[0,1,2]]}':  # float window start
        f"{{path}}: line 1: {INTEGERS}",
    '{"w":0,"i":0,"nodes":[0,1],"edges":[[0,1,1]]}\n'
    '{"w":600,"i":7,"nodes":[0,1],"edges":[[0,1,1]]}':  # length 600/7
        "window indices 0, 7 at starts 0, 600 give no whole window length",
    f"{VALID_LINE}\n{VALID_LINE} {{}}":  # Extra data after the object
        "{path}: line 2: invalid JSON",
    f"\ufeff{VALID_LINE}": "{path}: line 1: invalid JSON",  # BOM
    # splitlines cuts at U+2028, even inside a JSON string
    f'{VALID_LINE}\n\n{VALID_LINE[:-1]},"x":"a\u2028b"}}':
        "{path}: line 3: invalid JSON",
    '{"w":0,"i":0,"nodes":[0,1],"edges":[[0,1,NaN]]}':  # NaN weight
        f"{{path}}: line 1: {INTEGERS}",
}


@pytest.mark.parametrize("line", list(BAD_ENSEMBLE))
def test_bad_ensemble_lines_rejected(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        tuple(ensemble_networks(path))
    assert str(err.value) == BAD_ENSEMBLE[line].format(path=path)


@pytest.mark.parametrize("line", [BOOL_ENDPOINT, FLOAT_ENDPOINT])
def test_non_int_endpoint_exits_schema_code(tmp_path, capsys, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    argv = ["metrics", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_SCHEMA
    [err] = capsys.readouterr().err.splitlines()
    assert json.loads(err)["detail"] == f"{path}: line 1: {INTEGERS}"


@pytest.mark.parametrize("line", [f"  {VALID_LINE}  ", f"\t{VALID_LINE}\t"])
def test_ensemble_line_padded_with_json_whitespace_loads(tmp_path, line):
    path = tmp_path / "padded.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    (net,) = ensemble_networks(path)
    assert (net.window_start, net.window_index) == (0, 0)
    assert net.nodes == (0, 1) and net.edges == {(0, 1): 2}


@pytest.mark.parametrize("nodes", ["[2,1,1]", "[1,1,2]", "[2,1]", "[1,2,2]"])
def test_ensemble_nodes_must_ascend_strictly(tmp_path, nodes):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"w":0,"i":0,"nodes":[1,2],"edges":[[1,2,1]]}\n'
        f'{{"w":600,"i":1,"nodes":{nodes},"edges":[[1,2,3]]}}\n'
    )
    with pytest.raises(SchemaError) as err:
        tuple(ensemble_networks(path))
    assert str(err.value) == f"{path}: line 2: nodes are not strictly ascending"
    argv = ["metrics", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_SCHEMA


def test_ensemble_ordering_validated(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"w":600,"i":1,"nodes":[0,1],"edges":[[0,1,1]]}\n'
        '{"w":0,"i":0,"nodes":[0,1],"edges":[[0,1,1]]}\n'
    )
    with pytest.raises(SchemaError) as err:
        tuple(ensemble_networks(path))
    assert str(err.value) == "window starts not strictly increasing at 0"


# window (start, index) sequences whose last window breaks the order, and the
# message the stream gives at that window, whether built or read from a file
BAD_ORDER = {
    ((0, 0), (600, 1), (1200, 2), (600, 3)):
        "window starts not strictly increasing at 600",
    ((0, 0), (600, 7)):
        "window indices 0, 7 at starts 0, 600 give no whole window length",
    ((0, 0), (600, 1), (1500, 2)):
        "window index 2 inconsistent with start 1500 (window length 600s)",
}


@pytest.mark.parametrize("windows", list(BAD_ORDER))
def test_window_order_is_checked_one_network_at_a_time(tmp_path, windows):
    nets = [
        network_from_senders([0, 1], window_start=w, window_index=i)
        for w, i in windows
    ]
    stream = in_window_order(iter(nets))
    assert [next(stream) for _ in nets[:-1]] == nets[:-1]  # yielded as checked
    with pytest.raises(SchemaError) as streamed:
        next(stream)
    path = tmp_path / "ensemble.jsonl"
    path.write_text("".join(ensemble_lines(nets)))
    read = ensemble_networks(path)
    assert [next(read).window_start for _ in nets[:-1]] == [w for w, _ in windows][:-1]
    with pytest.raises(SchemaError) as from_file:
        next(read)
    assert str(streamed.value) == str(from_file.value) == BAD_ORDER[windows]


def test_ensemble_networks_stream_what_load_ensemble_holds(tmp_path):
    path = tmp_path / "ensemble.jsonl"
    log = random_log(seed=24, users=5, count=300, horizon=86400)
    built = tuple(window_networks(log, WindowSpec(delta_t=600)))
    path.write_text("".join(ensemble_lines(built)))
    stream = ensemble_networks(path)
    assert iter(stream) is stream  # yielded, not held as a list
    fields = lambda nets: [
        (n.window_start, n.window_index, n.nodes, n.edges) for n in nets
    ]
    assert fields(stream) == fields(load_ensemble_direct(path)) == fields(built)
    early = ensemble_networks(path)
    next(early)
    early.close()  # a stream left early closes its file
