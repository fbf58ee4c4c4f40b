"""Per-user series and period comparison."""

from __future__ import annotations

import pytest

from chatpulse import (
    InsufficientDataError,
    WindowSpec,
    conversation_metrics,
    engagement_drop_report,
    period_compare,
    period_means,
    user_series,
    window_networks,
)
from chatpulse.synth import Regime, generate

from conftest import make_log
from oracles import centralities_direct


def test_absent_user_has_empty_series():
    log = make_log([(0, 0), (1, 30)])
    nets = tuple(window_networks(log, WindowSpec(delta_t=600)))
    assert user_series(conversation_metrics(nets), 42).points == ()


def test_single_window_series_value():
    # one 2-node window with total weight 4 -> centrality 3 for both users
    log = make_log([(0, 0), (1, 60), (0, 120), (1, 180), (0, 240)])
    nets = tuple(window_networks(log, WindowSpec(delta_t=600)))
    series = user_series(conversation_metrics(nets), 0)
    assert series.points == ((0, 3.0),)


def test_series_skips_windows_where_user_is_absent():
    log = make_log([(0, 0), (1, 30), (2, 600), (3, 630), (0, 1200), (1, 1230)])
    nets = tuple(window_networks(log, WindowSpec(delta_t=600)))
    series = user_series(conversation_metrics(nets), 0)
    assert [start for start, _ in series.points] == [0, 1200]


def mirrored_ensemble():
    """Identical two-user activity in both halves, split at t=1200."""
    rows = [(0, 0), (1, 60), (0, 600), (1, 660), (0, 1200), (1, 1260), (0, 1800), (1, 1860)]
    return tuple(window_networks(make_log(rows), WindowSpec(delta_t=600)))


def test_identical_periods_give_zero_diff():
    cmp = period_compare(conversation_metrics(mirrored_ensemble()), split=1200)
    assert cmp.rows
    for row in cmp.rows:
        assert row.diff == pytest.approx(0.0, abs=1e-12)


def test_period_means_weighted_identity():
    result = generate(Regime(kind="uniform-random", users=10, rate=8, windows=30, seed=3))
    nets = tuple(window_networks(result.log, WindowSpec()))
    split = nets[12].window_start
    whole, p1, p2 = period_means(conversation_metrics(nets), split)
    k1 = sum(n.is_conversation for n in nets if n.window_start < split)
    k2 = sum(n.is_conversation for n in nets if n.window_start >= split)
    for user in whole:
        expected = (k1 * p1[user] + k2 * p2[user]) / (k1 + k2)
        assert whole[user] == pytest.approx(expected, abs=1e-12)


def test_normalized_vectors_peak_at_one():
    result = generate(Regime(kind="uniform-random", users=8, rate=6, windows=24, seed=9))
    nets = tuple(window_networks(result.log, WindowSpec()))
    split = nets[10].window_start
    cmp = period_compare(conversation_metrics(nets), split)
    for vec in (
        [r.whole for r in cmp.rows],
        [r.p1 for r in cmp.rows],
        [r.p2 for r in cmp.rows],
    ):
        assert max(vec) == pytest.approx(1.0, abs=1e-12)
    for row in cmp.rows:
        assert -1.0 - 1e-12 <= row.diff <= 1.0 + 1e-12


def test_rows_sorted_by_whole_then_user_without_duplicates():
    result = generate(Regime(kind="uniform-random", users=9, rate=7, windows=20, seed=1))
    nets = tuple(window_networks(result.log, WindowSpec()))
    cmp = period_compare(
        conversation_metrics(nets), nets[10].window_start
    )
    users = [r.user for r in cmp.rows]
    assert len(users) == len(set(users))
    keys = [(-r.whole, r.user) for r in cmp.rows]
    assert keys == sorted(keys)


def test_time_shift_invariance():
    result = generate(Regime(kind="uniform-random", users=6, rate=6, windows=16, seed=4))
    log = result.log
    nets = tuple(window_networks(log, WindowSpec()))
    split = nets[8].window_start
    base = period_compare(conversation_metrics(nets), split)

    offset = 7 * 86400
    shifted_log = make_log(zip(log.users, [t + offset for t in log.timestamps]))
    shifted = period_compare(
        conversation_metrics(window_networks(shifted_log, WindowSpec())),
        split + offset,
    )
    assert [(r.user, r.diff) for r in base.rows] == [
        (r.user, pytest.approx(r2.diff, abs=1e-12))
        for r, r2 in zip(base.rows, shifted.rows)
    ]


def test_split_outside_span_is_insufficient_data():
    nets = mirrored_ensemble()
    with pytest.raises(InsufficientDataError):
        period_compare(conversation_metrics(nets), split=10_000_000)
    with pytest.raises(InsufficientDataError):
        period_compare(conversation_metrics(nets), split=-10)


def test_boundary_window_belongs_to_second_period():
    nets = mirrored_ensemble()
    split = 1200  # exactly a window start
    _, p1, p2 = period_means(conversation_metrics(nets), split)
    k1 = sum(n.is_conversation for n in nets if n.window_start < split)
    k2 = sum(n.is_conversation for n in nets if n.window_start >= split)
    assert (k1, k2) == (2, 2)


def test_dropouts_are_most_negative_and_match_direct_recomputation():
    regime = Regime(
        kind="planted-dropout",
        users=20,
        dropouts=3,
        rate=10,
        windows=16,
        split_window=8,
        seed=6,
    )
    result = generate(regime)
    nets = tuple(window_networks(result.log, WindowSpec()))
    split = nets[0].window_start + 8 * 600
    cmp = period_compare(conversation_metrics(nets), split)

    worst = sorted(cmp.rows, key=lambda r: r.diff)[: regime.dropouts]
    assert {r.user for r in worst} == set(result.dropout_users)

    # independent recomputation from raw edges
    convs = [net for net in nets if net.is_conversation]
    table = {net.window_index: centralities_direct(net.edges) for net in convs}
    p1_idx = [n.window_index for n in convs if n.window_start < split]
    p2_idx = [n.window_index for n in convs if n.window_start >= split]
    users = {u for row in table.values() for u in row}

    def mean(indices, user):
        return sum(table[i].get(user, 0.0) for i in indices) / len(indices)

    whole = {u: mean(p1_idx + p2_idx, u) for u in users}
    p1 = {u: mean(p1_idx, u) for u in users}
    p2 = {u: mean(p2_idx, u) for u in users}
    kept = [u for u in users if whole[u] > 0]
    wmax = max(whole[u] for u in kept)
    p1max = max(p1[u] for u in kept)
    p2max = max(p2[u] for u in kept)
    for row in cmp.rows:
        assert row.whole == pytest.approx(whole[row.user] / wmax, abs=1e-12)
        assert row.diff == pytest.approx(
            p2[row.user] / p2max - p1[row.user] / p1max, abs=1e-12
        )


def test_drop_report_bounds_and_ordering():
    nets = mirrored_ensemble()
    cmp = period_compare(conversation_metrics(nets), split=1200)
    assert engagement_drop_report(cmp, -1.5) == []
    everyone = engagement_drop_report(cmp, 1.0)
    assert {r.user for r in everyone} == {r.user for r in cmp.rows}
    diffs = [r.diff for r in everyone]
    assert diffs == sorted(diffs)


def test_top_k_limits_rows():
    result = generate(Regime(kind="uniform-random", users=10, rate=8, windows=20, seed=2))
    nets = tuple(window_networks(result.log, WindowSpec()))
    split = nets[10].window_start
    cmp = period_compare(conversation_metrics(nets), split, top_k=3)
    assert len(cmp.rows) == 3

