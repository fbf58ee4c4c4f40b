"""Ensemble-level statistics: z-scores, engagement classes, user rankings."""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum

from .engagement import (
    EngagementMetrics, NodeEngagement, engagement_index, node_centralities,
)
from .errors import DegenerateEnsembleError, InsufficientDataError, ParameterError
from .netbuild import NetworkEnsemble

AVG_ZERO = "zero"  # absent users count as 0 in class means
AVG_PRESENT = "present"  # mean over networks the user appears in

STD_POPULATION = "population"
STD_SAMPLE = "sample"


class EngagementClass(str, Enum):
    HIGH = "HIGH"
    MEDIUM = "MEDIUM"
    LOW = "LOW"
    GLOBAL = "GLOBAL"  # ranking scope only, never a network label


@dataclass(slots=True)
class WindowMetrics:
    """One scored conversation window: its metrics and per-user centralities.

    ``nodes`` is in ascending user order, as node_centralities returns it.
    """

    window_start: int
    window_index: int
    metrics: EngagementMetrics
    nodes: tuple[NodeEngagement, ...] = ()


def conversation_metrics(ensemble: NetworkEnsemble) -> list[WindowMetrics]:
    """Score every conversation network once, in window order.

    The result feeds classification, rankings, series and period comparison.
    """
    scored = []
    for net in ensemble.conversations:
        metrics = engagement_index(net)
        nodes = tuple(node_centralities(net, metrics))
        scored.append(WindowMetrics(net.window_start, net.window_index, metrics, nodes))
    return scored


@dataclass(frozen=True, slots=True)
class EnsembleStats:
    mean_ei: float
    std_ei: float
    count: int


def ensemble_stats(
    windows, *, std: str = STD_POPULATION
) -> EnsembleStats:
    """Mean and standard deviation of ei over conversation networks."""
    if std not in (STD_POPULATION, STD_SAMPLE):
        raise ParameterError(f"std must be 'population' or 'sample', got {std!r}")
    eis = [w.metrics.ei for w in windows]
    k = len(eis)
    if k < 2:
        raise InsufficientDataError(
            f"z-scores need at least 2 conversation networks, got {k}"
        )
    mean = math.fsum(eis) / k
    denom = k if std == STD_POPULATION else k - 1
    var = math.fsum((x - mean) ** 2 for x in eis) / denom
    return EnsembleStats(mean_ei=mean, std_ei=math.sqrt(var), count=k)


@dataclass(slots=True)
class ClassifiedNetwork:
    window_index: int
    ei: float
    z: float
    label: EngagementClass


def zscore_classify(
    windows,
    stats: EnsembleStats,
    *,
    low: float = -1.0,
    high: float = 1.0,
) -> list[ClassifiedNetwork]:
    """Label each network HIGH (z >= high), LOW (z <= low) or MEDIUM.

    Both boundaries are inclusive for their extreme class.
    """
    if stats.std_ei == 0:
        raise DegenerateEnsembleError(
            "all conversation networks have identical engagement; z-scores undefined"
        )
    if low >= high:
        raise ParameterError(f"need low < high, got ({low}, {high})")
    out = []
    for w in windows:
        z = (w.metrics.ei - stats.mean_ei) / stats.std_ei
        if z >= high:
            label = EngagementClass.HIGH
        elif z <= low:
            label = EngagementClass.LOW
        else:
            label = EngagementClass.MEDIUM
        out.append(
            ClassifiedNetwork(window_index=w.window_index, ei=w.metrics.ei, z=z, label=label)
        )
    return out


def check_avg(avg: str) -> None:
    if avg not in (AVG_ZERO, AVG_PRESENT):
        raise ParameterError(f"avg must be 'zero' or 'present', got {avg!r}")


def class_means(windows, avg: str) -> dict[int, float]:
    """Mean ei centrality of each user who appears in ``windows``.

    With avg='zero' the denominator is the number of windows, so a user's
    absences count as 0; with avg='present' it is the user's appearances.
    Sums run in window order. Callers add absent users as 0.0 where needed.
    """
    sums: defaultdict[int, float] = defaultdict(float)
    for w in windows:
        for ne in w.nodes:
            sums[ne.user] += ne.ei_centrality
    if avg == AVG_ZERO:
        return {user: s / len(windows) for user, s in sums.items()}
    appearances = Counter(ne.user for w in windows for ne in w.nodes)
    return {user: s / appearances[user] for user, s in sums.items()}


def population(windows) -> set[int]:
    """Every user with an ei centrality in any of ``windows``."""
    return {ne.user for w in windows for ne in w.nodes}


@dataclass(frozen=True)
class UserRanking:
    scope: EngagementClass
    entries: tuple[tuple[int, float], ...]  # (user, mean ei centrality), descending


def rank_users(
    windows,
    classified,
    scope: EngagementClass,
    top_k: int,
    *,
    avg: str = AVG_ZERO,
) -> UserRanking:
    """Rank users by mean ei centrality over the scored windows of one class.

    With avg='zero' (default) every user of the whole ensemble is ranked, a
    user absent from a window contributes 0 and the denominator is the class
    size, which rewards sustained participation; avg='present' ranks only
    the users of the class and averages over their appearances.
    """
    if top_k < 1:
        raise ParameterError(f"top_k must be >= 1, got {top_k}")
    check_avg(avg)

    if scope == EngagementClass.GLOBAL:
        scoped = windows
    else:
        chosen = {c.window_index for c in classified if c.label == scope}
        scoped = [w for w in windows if w.window_index in chosen]
    if not scoped:
        return UserRanking(scope=scope, entries=())

    means = class_means(scoped, avg)
    if avg == AVG_ZERO:
        means = {user: means.get(user, 0.0) for user in population(windows)}
    ordered = sorted(means.items(), key=lambda kv: (-kv[1], kv[0]))
    return UserRanking(scope=scope, entries=tuple(ordered[:top_k]))


HIST_LO = -3.0
HIST_HI = 3.0
HIST_WIDTH = 0.5


def zscore_histogram(classified) -> dict[str, list[float] | list[int]]:
    """Fixed-bin z-score histogram (width 0.5 over [-3, 3], clamped tails)."""
    nbins = int(round((HIST_HI - HIST_LO) / HIST_WIDTH))
    edges = [HIST_LO + i * HIST_WIDTH for i in range(nbins + 1)]
    counts = [0] * nbins
    for c in classified:
        pos = int((c.z - HIST_LO) // HIST_WIDTH)
        counts[min(max(pos, 0), nbins - 1)] += 1
    return {"edges": edges, "counts": counts}
