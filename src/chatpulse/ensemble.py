"""Ensemble-level statistics: z-scores, engagement classes, user rankings."""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from enum import Enum

from ._record import FrozenRecord, Record
from .engagement import EngagementMetrics, engagement_index
from .errors import DegenerateEnsembleError, InsufficientDataError, ParameterError
from .netbuild import InteractionNetwork

AVG_ZERO = "zero"  # absent users count as 0 in class means
AVG_PRESENT = "present"  # mean over networks the user appears in

STD_POPULATION = "population"
STD_SAMPLE = "sample"


class EngagementClass(str, Enum):
    HIGH = "HIGH"
    MEDIUM = "MEDIUM"
    LOW = "LOW"
    GLOBAL = "GLOBAL"  # ranking scope only, never a network label


class WindowMetrics:
    """One scored conversation window: its metrics and two per-user columns.

    ``columns()`` is the one way to read a window's per-user data: the
    users, ascending, their strengths, and the ``centrality_scale`` that
    makes a strength its user's ei centrality, which the metrics shared by
    the windows of one shape derived once. The columns are those given; a
    window given none holds its metrics alone.
    """

    __slots__ = ("window_start", "window_index", "metrics", "_users", "_strengths")

    def __init__(
        self,
        window_start: int,
        window_index: int,
        metrics: EngagementMetrics,
        users: tuple[int, ...] = (),
        strengths: tuple[int, ...] = (),
    ) -> None:
        if len(users) != len(strengths):
            raise ValueError("give one strength per user")
        self.window_start = window_start
        self.window_index = window_index
        self.metrics = metrics
        self._users, self._strengths = users, strengths

    def columns(self) -> tuple[tuple[int, ...], tuple[int, ...], float]:
        """Users, their strengths, and the scale from a strength to its centrality."""
        return self._users, self._strengths, self.metrics._scale


def window_scorer():
    """A function that gives one conversation network's EngagementMetrics.

    A network's metrics depend only on its participant count and the
    multiset of its edge weights, its shape. A scorer scores each distinct
    shape once, and the windows of one shape share its ``EngagementMetrics``;
    the floats are those of scoring each window, since ``gini`` sorts the
    weights and the key fixes every operand.
    """
    scored: dict[tuple[int, ...], EngagementMetrics] = {}

    def score(net: InteractionNetwork) -> EngagementMetrics:
        shape = (len(net.nodes), *sorted(net.edges.values()))
        metrics = scored.get(shape)
        if metrics is None:
            metrics = scored[shape] = engagement_index(net)
        return metrics

    return score


def scored_window(net: InteractionNetwork, metrics: EngagementMetrics) -> WindowMetrics:
    """``net``'s window with its ``metrics`` and its columns: nodes, strengths."""
    return WindowMetrics(
        net.window_start, net.window_index, metrics,
        net.nodes, tuple(net.strengths().values()),
    )


def conversation_metrics(networks) -> list[WindowMetrics]:
    """Score the conversations among ``networks``, in order, through one scorer.

    Any iterable of networks serves: ``window_networks``, ``ensemble_networks``
    or a tuple. Each window's columns are built as it is scored, so no window
    holds its network.
    """
    score = window_scorer()
    return [scored_window(net, score(net)) for net in networks if net.is_conversation]


class EnsembleStats(FrozenRecord):
    __slots__ = ("mean_ei", "std_ei", "count")

    def __init__(self, mean_ei: float, std_ei: float, count: int) -> None:
        self._fill(mean_ei, std_ei, count)


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


class ClassifiedNetwork(Record):
    __slots__ = ("window_index", "ei", "z", "label")

    def __init__(
        self, window_index: int, ei: float, z: float, label: EngagementClass
    ) -> None:
        self.window_index = window_index
        self.ei = ei
        self.z = z
        self.label = label


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


def scope_means(windows, avg: str, *scopings) -> tuple[dict, ...]:
    """Mean ei centrality of each user over every window and over each scope.

    Each scoping gives each window's scope key, in the order of ``windows``,
    and the result holds one dict per scoping, scope -> user -> mean, with
    the key GLOBAL covering every window in each. One pass in window order
    adds each user's centrality into GLOBAL and into its window's scope
    under every scoping, so every mean adds in window order and does not
    depend on the other scopings given. With avg='zero' the denominator is
    the scope's window count and every user of ``windows`` has a mean in
    every scope, 0.0 where absent; with avg='present' it is the user's
    appearances in the scope and only those users are listed. A scope no
    window has is absent.
    """
    check_avg(avg)
    present = avg == AVG_PRESENT
    whole: defaultdict[int, float] = defaultdict(float)
    sums: list[dict] = [{} for _ in scopings]  # scope -> user -> summed centrality
    seen: list[dict] = [{} for _ in scopings]  # scope -> user -> appearances
    targets: dict = {}  # a window's scope keys -> the sums and counts it adds to
    for w, keys in zip(windows, zip(*scopings)):
        target = targets.get(keys)
        if target is None:
            target = targets[keys] = (
                tuple([acc.setdefault(key, defaultdict(float)) for acc, key in zip(sums, keys)]),
                tuple([acc.setdefault(key, defaultdict(int)) for acc, key in zip(seen, keys)]),
            )
        parts, part_seen = target
        users, strengths, scale = w.columns()
        for user, s in zip(users, strengths):
            value = s * scale
            whole[user] += value
            for part in parts:
                part[user] += value
        if present:
            for counts in part_seen:
                for user in users:
                    counts[user] += 1
    if present:
        # a scoping gives each window one scope, so a user's appearances in
        # the first scoping's scopes add up to its appearances in all; all
        # the scopings' counts would count each appearance once a scoping
        overall = {
            user: s / sum([counts.get(user, 0) for counts in seen[0].values()])
            for user, s in whole.items()
        }
    else:
        overall = {user: s / len(windows) for user, s in whole.items()}
    out = []
    for scoping, by_scope, seen_by_scope in zip(scopings, sums, seen):
        if present:
            means = {
                scope: {user: s / seen_by_scope[scope][user] for user, s in acc.items()}
                for scope, acc in by_scope.items()
            }
        else:
            sizes = Counter(scoping)
            means = {
                scope: {user: acc.get(user, 0.0) / sizes[scope] for user in whole}
                for scope, acc in by_scope.items()
            }
        means[EngagementClass.GLOBAL] = overall
        out.append(means)
    return tuple(out)


class UserRanking(FrozenRecord):
    __slots__ = ("scope", "entries")

    def __init__(
        self,
        scope: EngagementClass,
        entries: tuple[tuple[int, float], ...],  # (user, mean ei centrality), descending
    ) -> None:
        self._fill(scope, entries)


def rank_users(
    windows,
    classified,
    top_k: int,
    *,
    avg: str = AVG_ZERO,
) -> dict[EngagementClass, UserRanking]:
    """Rank users by mean ei centrality, globally and within each class.

    Returns one ranking per EngagementClass, GLOBAL included. With
    avg='zero' (default) every user of the whole ensemble is ranked, a user
    absent from a window contributes 0 and the denominator is the class
    size, which rewards sustained participation; avg='present' ranks only
    the users of the class and averages over their appearances. A class
    without windows gets an empty ranking.
    """
    if top_k < 1:
        raise ParameterError(f"top_k must be >= 1, got {top_k}")
    label = {c.window_index: c.label for c in classified}
    (means,) = scope_means(windows, avg, [label.get(w.window_index) for w in windows])
    return rank_means(means, top_k)


def rank_means(means: dict, top_k: int) -> dict[EngagementClass, UserRanking]:
    """The top ``top_k`` users of each EngagementClass, GLOBAL included, from
    :func:`scope_means`' result for a scoping by class; ties go to the
    lower user ID."""
    rankings = {}
    for scope in EngagementClass:
        scoped = means.get(scope, {})
        ordered = sorted(scoped.items(), key=lambda kv: (-kv[1], kv[0]))
        rankings[scope] = UserRanking(scope=scope, entries=tuple(ordered[:top_k]))
    return rankings


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
