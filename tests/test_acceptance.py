"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
"""

from __future__ import annotations

import math
import os
import random
import time
from pathlib import Path

import pytest

from chatpulse import (
    EngagementClass,
    EngagementMetrics,
    InteractionNetwork,
    WindowSpec,
    conversation_metrics,
    dump_log,
    engagement_index,
    ensemble_stats,
    gini,
    engagement_drop_report,
    load_log,
    network_from_senders,
    period_compare,
    window_networks,
    zscore_classify,
)
from chatpulse.chatlog import MessageLog
from chatpulse.cli import EXIT_OK, main
from chatpulse.synth import Regime, generate

from oracles import (
    brute_pair_counts,
    centralities_direct,
    gini_pairwise,
    metrics_table,
    random_conversation_edges,
    table_rows,
)


def report(num: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num}: {description}"


def net_from_edges(edges) -> InteractionNetwork:
    nodes = tuple(sorted({u for pair in edges for u in pair}))
    return InteractionNetwork(
        window_start=0, window_index=0, nodes=nodes, edges=dict(edges)
    )


def test_criterion_1_toy_network_table():
    started = time.perf_counter()
    toys = {
        "a": net_from_edges({(0, 1): 2, (1, 2): 2, (2, 3): 2, (0, 3): 2}),
        "b": net_from_edges({(0, 1): 2, (1, 2): 2, (0, 2): 2}),
        "c": net_from_edges({(0, 1): 4, (1, 2): 2}),
        "d": net_from_edges({(0, 1): 4}),
    }
    expected = {
        "a": (4, 8, 5.0, 1.0, 5.0),
        "b": (3, 6, 4.17, 1.0, 4.17),
        "c": (3, 6, 4.17, 0.83, 3.47),
        "d": (2, 4, 3.0, 1.0, 3.0),
    }
    ok = True
    for name, net in toys.items():
        n, tw, inten, eq, ei = expected[name]
        m = engagement_index(net)
        ok &= m.n == n and m.total_weight == tw
        ok &= abs(m.intensity - inten) <= 0.01
        ok &= abs(m.equality - eq) <= 0.01
        ok &= abs(m.ei - ei) <= 0.01
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    report(1, f"toy-network table reproduced within 0.01 in {elapsed:.3f}s", ok)


def test_criterion_2_intensity_base_case():
    value = engagement_index(network_from_senders([0, 1])).intensity
    report(2, "two nodes interacting once give intensity exactly 1", value == 1.0)


def test_criterion_3_gini_oracle_equivalence():
    rng = random.Random(20_180_901)
    worst = 0.0
    for _ in range(1000):
        k = rng.randrange(1, 65)
        weights = [rng.randrange(1, 101) for _ in range(k)]
        worst = max(worst, abs(gini(weights) - gini_pairwise(weights)))
    report(3, f"sorted Gini matches O(k^2) oracle on 1000 multisets "
              f"(max |diff| {worst:.2e})", worst <= 1e-12)


def test_criterion_4_mean_centrality_identity():
    rng = random.Random(20_181_007)
    worst = 0.0
    for _ in range(1000):
        net = net_from_edges(random_conversation_edges(rng, max_n=50))
        [w] = table_rows(conversation_metrics([net]))
        users, strengths, scale = w.users, w.strengths, w.scale
        mean = sum(s * scale for s in strengths) / len(users)
        worst = max(worst, abs(mean - w.metrics.ei))
    report(4, f"mean node centrality equals network EI on 1000 networks "
              f"(max |diff| {worst:.2e})", worst <= 1e-9)


def test_criterion_5_construction_oracle():
    rng = random.Random(20_181_028)
    ok = True
    for _ in range(1000):
        users = rng.randrange(1, 11)
        length = rng.randrange(0, 201)
        seq = [rng.randrange(users) for _ in range(length)]
        net = network_from_senders(seq)
        expected = brute_pair_counts(seq)
        ok &= net.edges == expected
        ok &= net.nodes == tuple(sorted({u for p in expected for u in p}))
    report(5, "network_from_senders matches the adjacent-pair enumerator on "
              "1000 random sequences", ok)


def test_criterion_6_classification_partition_and_boundaries():
    ok = True
    for seed in (1, 2, 3):
        result = generate(
            Regime(kind="uniform-random", users=15, rate=9, windows=120, seed=seed)
        )
        nets = window_networks(result.log, WindowSpec())
        convs = [n for n in nets if n.is_conversation]
        windows = metrics_table(map(engagement_index, convs))
        stats = ensemble_stats(windows)
        zs, classified = zscore_classify(windows, stats)
        sizes = {
            label: sum(1 for c in classified if c == label)
            for label in (
                EngagementClass.HIGH, EngagementClass.MEDIUM, EngagementClass.LOW
            )
        }
        ok &= sum(sizes.values()) == len(convs)
        zmean = math.fsum(zs) / len(zs)
        zstd = math.sqrt(math.fsum((z - zmean) ** 2 for z in zs) / len(zs))
        ok &= abs(zmean) <= 1e-9 and abs(zstd - 1.0) <= 1e-9

    # crafted boundary: ei values {3,5} give z exactly -1 and +1
    boundary = metrics_table(
        EngagementMetrics(2, 1, 0.0, 1.0, ei, ei) for ei in (3.0, 5.0)
    )
    _, labels = zscore_classify(boundary, ensemble_stats(boundary))
    ok &= labels == [EngagementClass.LOW, EngagementClass.HIGH]
    report(6, "classes partition the ensemble, z-scores standardized, "
              "boundaries inclusive", ok)


def test_criterion_7_planted_dropout_detection():
    regime = Regime(
        kind="planted-dropout", users=50, dropouts=5, rate=12, windows=40,
        split_window=20, seed=0,
    )
    result = generate(regime)
    convs = [n for n in window_networks(result.log, WindowSpec()) if n.is_conversation]
    split = result.truth[regime.split_window].window_start
    cmp = period_compare(conversation_metrics(convs), split)

    by_diff = sorted(cmp.rows, key=lambda r: (r.diff, r.user))
    worst5 = by_diff[:5]
    ok = {r.user for r in worst5} == set(result.dropout_users)
    ok &= all(r.diff < -0.61 for r in worst5)
    flagged = engagement_drop_report(cmp, -0.61)
    ok &= {r.user for r in flagged} == set(result.dropout_users)

    # independent exhaustive recomputation from raw edges
    table = {n.window_index: centralities_direct(n.edges) for n in convs}
    p1 = [n.window_index for n in convs if n.window_start < split]
    p2 = [n.window_index for n in convs if n.window_start >= split]
    users = {u for row in table.values() for u in row}

    def mean(indices, user):
        return sum(table[i].get(user, 0.0) for i in indices) / len(indices)

    whole = {u: mean(p1 + p2, u) for u in users}
    kept = [u for u in users if whole[u] > 0]
    p1v = {u: mean(p1, u) for u in kept}
    p2v = {u: mean(p2, u) for u in kept}
    p1max, p2max = max(p1v.values()), max(p2v.values())
    for row in cmp.rows:
        expected = p2v[row.user] / p2max - p1v[row.user] / p1max
        ok &= abs(row.diff - expected) <= 1e-12
    report(7, "the 5 planted dropouts rank most negative (diff < -0.61) and "
              "diffs match exhaustive recomputation", ok)


TABLE_COUNTS = {
    "politics1": (79082, 489),
    "politics2": (78319, 628),
    "vegetarian": (10593, 120),
    "english": (11325, 218),
    "theology": (70213, 304),
}
TOTAL_CONVERSATIONS = 16732


def test_criterion_8_dataset_reproduction_if_available():
    root = os.environ.get("CHATPULSE_DATASETS")
    if not root:
        print("[WAIVED] criterion 8: archived datasets not available in this "
              "environment (set CHATPULSE_DATASETS to enable)")
        pytest.skip("archived datasets unavailable; criterion waived")
    root = Path(root)
    ok = True
    totals = {"wall": 0, "first": 0}
    for group, (messages, users) in TABLE_COUNTS.items():
        path = root / f"{group}.csv"
        if not path.exists():
            path = root / f"{group}.jsonl"
        log = load_log(path)
        ok &= len(log) == messages and len(set(log.users)) == users
        for align in ("wall", "first"):
            nets = window_networks(log, WindowSpec(delta_t=600, alignment=align))
            totals[align] += sum(n.is_conversation for n in nets)
    counts_ok = TOTAL_CONVERSATIONS in totals.values()
    report(8, f"archived dataset counts (conversations: {totals})",
           ok and counts_ok)


def test_criterion_9_report_performance(tmp_path):
    rng = random.Random(90)
    count, users, days = 80_000, 600, 90
    times = sorted(rng.randrange(days * 86400) for _ in range(count))
    base = 1_533_081_600
    ids = tuple(rng.randrange(users) for _ in times)
    log = MessageLog(ids, tuple(base + t for t in times))
    log_path = tmp_path / "scale.csv"
    log_path.write_text(dump_log(log))

    out = tmp_path / "report"
    started = time.perf_counter()
    code = main(["report", str(log_path), "--out", str(out)])
    elapsed = time.perf_counter() - started
    ok = code == EXIT_OK and elapsed < 10.0 and (out / "metrics.csv").exists()
    report(9, f"80k-message/600-user/90-day report completed in {elapsed:.2f}s",
           ok)
