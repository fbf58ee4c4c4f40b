"""Synthetic log generation and its emitted ground truth."""

from __future__ import annotations

import json

import pytest

from chatpulse import (
    ParameterError,
    WindowSpec,
    dump_log,
    engagement_index,
    window_networks,
)
from chatpulse.synth import Regime, dump_ground_truth, generate

from oracles import gini_pairwise


def test_seed_determinism_is_byte_identical():
    regime = Regime(kind="uniform-random", users=9, rate=7, windows=12, seed=101)
    a = generate(regime)
    b = generate(regime)
    assert a.log == b.log
    assert dump_log(a.log, "csv") == dump_log(b.log, "csv")
    assert dump_ground_truth(a) == dump_ground_truth(b)


def test_pipeline_closure_reproduces_ground_truth_exactly():
    for kind, kwargs in [
        ("round-robin", {}),
        ("broadcaster", {}),
        ("dominant-pair", {}),
        ("uniform-random", {}),
        ("planted-dropout", {"dropouts": 2, "split_window": 4}),
    ]:
        regime = Regime(kind=kind, users=5, rate=9, windows=8, seed=3, **kwargs)
        result = generate(regime)
        nets = tuple(window_networks(result.log, WindowSpec()))
        built = {n.window_index: n for n in nets}
        assert len(nets) == len(result.truth)
        for truth in result.truth:
            net = built[truth.window_index]
            assert net.window_start == truth.window_start
            assert net.edges == truth.edges
            assert net.nodes == truth.nodes
            if truth.metrics is not None:
                metrics = engagement_index(net)
                assert metrics.ei == pytest.approx(truth.metrics["ei"], abs=1e-12)
                assert metrics.equality == pytest.approx(
                    truth.metrics["equality"], abs=1e-12
                )


def test_round_robin_ring_uniform_when_rate_is_ck_plus_one():
    # 4 users, 9 messages -> 8 transitions -> ring edges of weight 2
    result = generate(Regime(kind="round-robin", users=4, rate=9, windows=3, seed=0))
    for truth in result.truth:
        assert truth.edges == {(0, 1): 2, (1, 2): 2, (2, 3): 2, (0, 3): 2}
        assert truth.metrics["equality"] == 1.0
    # every window identical in structure
    assert len({json.dumps(sorted(t.edges.items())) for t in result.truth}) == 1


def test_round_robin_off_cycle_rate_truth_is_exact():
    # 32 messages over 4 users leave 31 transitions: the wrap edge is one
    # light; the emitted truth must carry the exact multiset, not an ideal
    result = generate(Regime(kind="round-robin", users=4, rate=32, windows=2, seed=0))
    nets = tuple(window_networks(result.log, WindowSpec()))
    for truth, net in zip(result.truth, nets):
        assert truth.edges == {(0, 1): 8, (1, 2): 8, (2, 3): 8, (0, 3): 7}
        assert net.edges == truth.edges
        assert truth.metrics["equality"] < 1.0


def test_single_broadcaster_never_converses():
    result = generate(Regime(kind="broadcaster", users=1, rate=20, windows=5, seed=0))
    assert all(t.metrics is None for t in result.truth)
    nets = tuple(window_networks(result.log, WindowSpec()))
    assert [n for n in nets if n.is_conversation] == []


def test_broadcaster_with_crowd_centers_on_user_zero():
    result = generate(Regime(kind="broadcaster", users=6, rate=12, windows=2, seed=0))
    for truth in result.truth:
        assert all(0 in pair for pair in truth.edges)


def test_dominant_pair_equality_below_one():
    result = generate(Regime(kind="dominant-pair", users=6, rate=16, windows=3, seed=0))
    for truth in result.truth:
        weights = list(truth.edges.values())
        assert truth.edges[(0, 1)] == max(weights)
        assert truth.metrics["equality"] == pytest.approx(
            1.0 - gini_pairwise(weights), abs=1e-15
        )
        assert truth.metrics["equality"] < 1.0


def test_planted_dropouts_silent_after_split():
    regime = Regime(
        kind="planted-dropout", users=10, dropouts=4, rate=8, windows=10,
        split_window=6, seed=11,
    )
    result = generate(regime)
    assert result.dropout_users == (10, 11, 12, 13)
    split_ts = result.truth[6].window_start
    rows = list(zip(result.log.users, result.log.timestamps))
    for user, t in rows:
        if user in result.dropout_users:
            assert t < split_ts
    # and they are genuinely active before it
    active = {user for user, t in rows if t < split_ts}
    assert set(result.dropout_users) <= active


def test_messages_never_straddle_bins_for_any_interval():
    for minutes in (1, 7, 10, 60):
        spec = WindowSpec(delta_t=minutes * 60)
        result = generate(
            Regime(kind="uniform-random", users=4, rate=11, windows=5, seed=2), spec
        )
        nets = tuple(window_networks(result.log, spec))
        assert [n.window_index for n in nets] == [
            t.window_index for t in result.truth
        ]
        for net, truth in zip(nets, result.truth):
            assert net.edges == truth.edges


@pytest.mark.parametrize(
    "regime",
    [
        Regime(kind="round-robin", users=10, rate=5, windows=3),
        Regime(kind="nonsense", users=3, rate=5, windows=3),
        Regime(kind="uniform-random", users=0, rate=5, windows=3),
        Regime(kind="uniform-random", users=3, rate=0, windows=3),
        Regime(kind="planted-dropout", users=5, rate=8, windows=6, dropouts=0,
               split_window=3),
        Regime(kind="planted-dropout", users=5, rate=8, windows=6, dropouts=2,
               split_window=6),
        Regime(kind="dominant-pair", users=2, rate=9, windows=3),
    ],
)
def test_inconsistent_parameters_rejected(regime):
    with pytest.raises(ParameterError):
        generate(regime)


def test_ground_truth_jsonl_schema():
    result = generate(Regime(kind="round-robin", users=3, rate=7, windows=2, seed=0))
    lines = dump_ground_truth(result).splitlines()
    assert len(lines) == 2
    for line in lines:
        obj = json.loads(line)
        assert set(obj) == {"w", "i", "nodes", "edges", "metrics"}
        assert all(u < v for u, v, _ in obj["edges"])
        if obj["metrics"] is not None:
            assert set(obj["metrics"]) == {
                "n", "total_weight", "gini", "equality", "intensity", "ei"
            }
