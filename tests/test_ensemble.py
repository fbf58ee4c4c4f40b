"""Ensemble statistics, z-score classes, and user rankings."""

from __future__ import annotations

import math
import random

import pytest

from chatpulse import (
    ClassifiedNetwork,
    DegenerateEnsembleError,
    EngagementClass,
    EngagementMetrics,
    InsufficientDataError,
    InteractionNetwork,
    ParameterError,
    WindowMetrics,
    WindowSpec,
    conversation_metrics,
    ensemble_stats,
    rank_users,
    window_networks,
    zscore_classify,
    zscore_histogram,
)
from chatpulse.ensemble import window_scorer
from chatpulse.synth import Regime, generate

from conftest import make_log


def wm(index: int, ei: float) -> WindowMetrics:
    metrics = EngagementMetrics(
        n=2, total_weight=1, gini=0.0, equality=1.0, intensity=ei, ei=ei
    )
    return WindowMetrics(window_start=index * 600, window_index=index, metrics=metrics)


def wms(*eis: float) -> list[WindowMetrics]:
    return [wm(i, ei) for i, ei in enumerate(eis)]


def test_window_metrics_keep_given_node_rows():
    metrics = wm(0, 2.0).metrics  # n=2, total_weight=1: the scale is ei
    given = WindowMetrics(0, 0, metrics, (0, 1), (1, 3))
    assert given.columns() == ((0, 1), (1, 3), 2.0)
    assert wm(0, 2.0).columns() == ((), (), 2.0)
    # given strengths are never dropped: one per user
    with pytest.raises(ValueError):
        WindowMetrics(0, 0, metrics, (0, 1), (1,))
    with pytest.raises(ValueError):
        WindowMetrics(0, 0, metrics, (0,), ())


def test_conversation_metrics_build_strengths_once_while_scoring(monkeypatch):
    calls = []
    original = InteractionNetwork.strengths

    def counted(net):
        calls.append(net.window_index)
        return original(net)

    monkeypatch.setattr(InteractionNetwork, "strengths", counted)
    log = make_log([(0, 0), (1, 30), (2, 600), (3, 630), (0, 660)])
    nets = tuple(window_networks(log, WindowSpec(delta_t=600)))
    windows = conversation_metrics(nets)
    assert calls == [0, 1]  # one column per conversation, built as it is scored
    zscore_classify(windows, ensemble_stats(windows))
    score = window_scorer()
    for net, w in zip(nets, windows, strict=True):
        assert w.metrics == score(net)
        assert w.columns()[:2] == (net.nodes, tuple(original(net).values()))
    assert windows[1].columns()[:2] == ((0, 2, 3), (1, 1, 2))
    assert calls == [0, 1]


def test_stats_of_constant_values():
    stats = ensemble_stats(wms(4, 4, 4))
    assert stats.mean_ei == 4.0 and stats.std_ei == 0.0 and stats.count == 3


def test_stats_population_vs_sample():
    stats = ensemble_stats(wms(2, 6))
    assert stats.mean_ei == 4.0 and stats.std_ei == 2.0
    sample = ensemble_stats(wms(2, 6), std="sample")
    assert sample.std_ei == pytest.approx(math.sqrt(8.0))


def test_stats_recover_planted_mean_and_spread():
    rng = random.Random(33)
    values = [rng.uniform(1.0, 8.0) for _ in range(500)]
    stats = ensemble_stats(wms(*values))
    mean = math.fsum(values) / len(values)
    var = math.fsum((x - mean) ** 2 for x in values) / len(values)
    assert stats.mean_ei == pytest.approx(mean, abs=1e-9)
    assert stats.std_ei == pytest.approx(math.sqrt(var), abs=1e-9)


def test_stats_need_two_networks():
    with pytest.raises(InsufficientDataError):
        ensemble_stats(wms(4))


def test_classification_boundaries_inclusive():
    windows = wms(3, 5)  # mean 4, population std 1 -> z exactly -1 and +1
    stats = ensemble_stats(windows)
    assert (stats.mean_ei, stats.std_ei) == (4.0, 1.0)
    labels = [c.label for c in zscore_classify(windows, stats)]
    assert labels == [EngagementClass.LOW, EngagementClass.HIGH]


def test_mean_value_is_medium():
    windows = wms(2, 4, 6)
    stats = ensemble_stats(windows)
    classified = zscore_classify(windows, stats)
    assert classified[1].z == 0.0
    assert classified[1].label == EngagementClass.MEDIUM


def test_degenerate_ensemble_rejected():
    windows = wms(4, 4, 4)
    with pytest.raises(DegenerateEnsembleError):
        zscore_classify(windows, ensemble_stats(windows))


def test_partition_and_standardization():
    rng = random.Random(99)
    windows = wms(*(rng.uniform(0.5, 9.0) for _ in range(400)))
    stats = ensemble_stats(windows)
    classified = zscore_classify(windows, stats)
    by_label = {
        label: sum(1 for c in classified if c.label == label)
        for label in (EngagementClass.HIGH, EngagementClass.MEDIUM, EngagementClass.LOW)
    }
    assert sum(by_label.values()) == len(windows)
    zs = [c.z for c in classified]
    zmean = math.fsum(zs) / len(zs)
    zvar = math.fsum((z - zmean) ** 2 for z in zs) / len(zs)
    assert zmean == pytest.approx(0.0, abs=1e-9)
    assert math.sqrt(zvar) == pytest.approx(1.0, abs=1e-9)


def test_labels_affine_invariant():
    rng = random.Random(7)
    values = [rng.uniform(1.0, 5.0) for _ in range(100)]
    a, b = 3.7, 11.0
    base = wms(*values)
    shifted = wms(*(a * v + b for v in values))
    labels = lambda ws: [c.label for c in zscore_classify(ws, ensemble_stats(ws))]
    assert labels(base) == labels(shifted)


def test_custom_thresholds():
    windows = wms(0, 10, 20)
    stats = ensemble_stats(windows)
    classified = zscore_classify(windows, stats, low=-2.0, high=2.0)
    assert all(c.label == EngagementClass.MEDIUM for c in classified)
    with pytest.raises(ParameterError):
        zscore_classify(windows, stats, low=1.0, high=-1.0)


# --- rankings -----------------------------------------------------------------

def two_window_ensemble():
    # window 0: users 0,1 interact equally; window 1: users 2,3
    log = make_log([(0, 0), (1, 30), (0, 60), (1, 90), (2, 600), (3, 650)])
    return window_networks(log, WindowSpec(delta_t=600))


def label_all(windows, label):
    return [
        ClassifiedNetwork(w.window_index, w.metrics.ei, 0.0, label) for w in windows
    ]


def test_absent_users_count_as_zero_in_class_means():
    windows = conversation_metrics(two_window_ensemble())
    classified = label_all(windows, EngagementClass.MEDIUM)
    ranking = rank_users(windows, classified, top_k=10)[EngagementClass.MEDIUM]
    means = dict(ranking.entries)
    assert set(means) == {0, 1, 2, 3}
    # every user appears in exactly one of the two windows
    ei0 = windows[0].metrics.ei
    ei1 = windows[1].metrics.ei
    assert means[0] == pytest.approx(ei0 / 2)
    assert means[2] == pytest.approx(ei1 / 2)


def test_present_mode_averages_over_appearances():
    windows = conversation_metrics(two_window_ensemble())
    classified = label_all(windows, EngagementClass.MEDIUM)
    ranking = rank_users(windows, classified, top_k=10, avg="present")[
        EngagementClass.MEDIUM
    ]
    means = dict(ranking.entries)
    assert means[0] == pytest.approx(windows[0].metrics.ei)
    assert means[2] == pytest.approx(windows[1].metrics.ei)


def test_ranking_order_descending_with_user_tiebreak():
    windows = conversation_metrics(two_window_ensemble())
    classified = label_all(windows, EngagementClass.MEDIUM)
    ranking = rank_users(windows, classified, top_k=10)[EngagementClass.GLOBAL]
    values = [v for _, v in ranking.entries]
    assert values == sorted(values, reverse=True)
    for (u1, v1), (u2, v2) in zip(ranking.entries, ranking.entries[1:]):
        if v1 == v2:
            assert u1 < u2


def test_ranking_stability_under_network_permutation():
    windows = conversation_metrics(two_window_ensemble())
    classified = label_all(windows, EngagementClass.MEDIUM)
    fwd = rank_users(windows, classified, top_k=10)
    rev = rank_users(windows, list(reversed(classified)), top_k=10)
    assert fwd == rev


def test_global_mean_is_classsize_weighted_combination():
    result = generate(
        Regime(kind="uniform-random", users=12, rate=10, windows=60, seed=5)
    )
    windows = conversation_metrics(window_networks(result.log, WindowSpec()))
    stats = ensemble_stats(windows)
    classified = zscore_classify(windows, stats)
    rankings = {
        scope: dict(ranking.entries)
        for scope, ranking in rank_users(windows, classified, top_k=10_000).items()
    }
    sizes = {
        scope: sum(1 for c in classified if c.label == scope)
        for scope in (EngagementClass.HIGH, EngagementClass.MEDIUM, EngagementClass.LOW)
    }
    total = sum(sizes.values())
    for user, global_mean in rankings[EngagementClass.GLOBAL].items():
        combined = sum(
            sizes[scope] * rankings[scope].get(user, 0.0)
            for scope in sizes
        ) / total
        assert combined == pytest.approx(global_mean, abs=1e-12)


def test_empty_class_gives_empty_ranking():
    windows = conversation_metrics(two_window_ensemble())
    classified = label_all(windows, EngagementClass.MEDIUM)
    ranking = rank_users(windows, classified, top_k=5)[EngagementClass.LOW]
    assert ranking.entries == ()


def test_top_k_truncates():
    windows = conversation_metrics(two_window_ensemble())
    classified = label_all(windows, EngagementClass.MEDIUM)
    ranking = rank_users(windows, classified, top_k=2)[EngagementClass.GLOBAL]
    assert len(ranking.entries) == 2
    with pytest.raises(ParameterError):
        rank_users(windows, classified, top_k=0)


def test_histogram_bins_and_clamping():
    windows = wms(3, 5, 4, 4, 4, 400)
    stats = ensemble_stats(windows)
    classified = zscore_classify(windows, stats)
    hist = zscore_histogram(classified)
    assert hist["edges"][0] == -3.0 and hist["edges"][-1] == 3.0
    assert len(hist["edges"]) == 13 and len(hist["counts"]) == 12
    assert sum(hist["counts"]) == len(windows)  # clamped tails keep everything
