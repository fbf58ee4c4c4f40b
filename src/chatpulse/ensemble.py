"""Ensemble-level statistics: z-scores, engagement classes, user rankings."""

from __future__ import annotations

import math
from array import array
from collections import Counter, defaultdict
from enum import Enum
from itertools import islice, repeat

from ._record import FrozenRecord
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


class ScoredWindows:
    """Scored conversation windows, one row each, held as columns.

    Row ``i`` is the window that starts at ``starts[i]``, has index
    ``indices[i]`` and scored ``metrics[i]``, the ``EngagementMetrics`` that
    the windows of one shape share. Its users, ascending, are
    ``users[bounds[i]:bounds[i + 1]]``, and the same slice of ``strengths``
    holds their strengths; a user's ei centrality is its strength times
    ``metrics[i]._scale``, which the metrics derived once for their shape.
    ``starts``, ``indices`` and ``bounds`` are ``array('q')`` columns, and
    ``users`` and ``strengths`` flat lists of shared ints, so a row costs
    8 bytes a column and 16 a user, with no object of its own. Read the rows
    through ``zip(bounds, bounds[1:])``; do not change the columns.
    """

    __slots__ = ("starts", "indices", "metrics", "bounds", "users", "strengths")

    def __init__(self) -> None:
        self.starts = array("q")
        self.indices = array("q")
        self.metrics: list[EngagementMetrics] = []
        self.bounds = array("q", (0,))
        self.users: list[int] = []
        self.strengths: list[int] = []

    def __len__(self) -> int:
        return len(self.metrics)

    def append(
        self, net: InteractionNetwork, metrics: EngagementMetrics, columns: bool = True
    ) -> None:
        """Add ``net``'s window with its ``metrics`` as the last row.

        With ``columns``, the row holds the network's nodes and their
        strengths; without, it holds no users, for a reader of the metrics
        alone, which then never calls ``strengths()``.
        """
        self.starts.append(net.window_start)
        self.indices.append(net.window_index)
        self.metrics.append(metrics)
        if columns:
            self.users += net.nodes
            self.strengths += net.strengths().values()
        self.bounds.append(len(self.users))


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


def conversation_metrics(networks, *, columns: bool = True) -> ScoredWindows:
    """Score the conversations among ``networks``, in order, through one scorer.

    Any iterable of networks serves: ``window_networks``, ``ensemble_networks``
    or a tuple. Each window's row is added as it is scored, so no window
    holds its network; ``columns`` is :meth:`ScoredWindows.append`'s.
    """
    score, windows = window_scorer(), ScoredWindows()
    for net in networks:
        if net.is_conversation:
            windows.append(net, score(net), columns)
    return windows


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
    eis = [m.ei for m in windows.metrics]
    k = len(eis)
    if k < 2:
        raise InsufficientDataError(
            f"z-scores need at least 2 conversation networks, got {k}"
        )
    mean = math.fsum(eis) / k
    denom = k if std == STD_POPULATION else k - 1
    var = math.fsum((x - mean) ** 2 for x in eis) / denom
    return EnsembleStats(mean_ei=mean, std_ei=math.sqrt(var), count=k)


def zscore_classify(
    windows: ScoredWindows,
    stats: EnsembleStats,
    *,
    low: float = -1.0,
    high: float = 1.0,
) -> tuple[array, list[EngagementClass]]:
    """Each window's ei z-score and class, in the rows' order.

    The z-scores are an ``array('d')`` and the classes a list: HIGH
    (z >= high), LOW (z <= low) or MEDIUM. Both boundaries are inclusive for
    their extreme class.
    """
    if stats.std_ei == 0:
        raise DegenerateEnsembleError(
            "all conversation networks have identical engagement; z-scores undefined"
        )
    if low >= high:
        raise ParameterError(f"need low < high, got ({low}, {high})")
    zs, labels = array("d"), []
    for m in windows.metrics:
        z = (m.ei - stats.mean_ei) / stats.std_ei
        zs.append(z)
        if z >= high:
            labels.append(EngagementClass.HIGH)
        elif z <= low:
            labels.append(EngagementClass.LOW)
        else:
            labels.append(EngagementClass.MEDIUM)
    return zs, labels


def check_avg(avg: str) -> None:
    if avg not in (AVG_ZERO, AVG_PRESENT):
        raise ParameterError(f"avg must be 'zero' or 'present', got {avg!r}")


def scope_means(
    windows: ScoredWindows, avg: str, scoping, *others
) -> tuple[dict, ...]:
    """Mean ei centrality of each user over every window and over each scope.

    Each scoping, ``scoping`` and any ``others``, gives each window's scope
    key in the order of the rows, and the result holds one dict per
    scoping, scope -> user -> mean, with the key GLOBAL covering every
    window in each. One pass in window order adds each user's centrality
    into GLOBAL and into its window's scope under every scoping, so every
    mean adds in window order and does not depend on the other scopings
    given. With avg='zero' the denominator is the scope's window count and
    every user of ``windows`` has a mean in every scope, 0.0 where absent;
    with avg='present' it is the user's appearances in the scope and only
    those users are listed. A scope no window has is absent.
    """
    check_avg(avg)
    scopings = (scoping, *others)
    present = avg == AVG_PRESENT
    users, bounds = windows.users, windows.bounds
    whole: defaultdict[int, float] = defaultdict(float)
    # per scoping, scope -> user -> summed centrality, and -> appearances
    sums = [defaultdict(lambda: defaultdict(float)) for _ in scopings]
    seen = [defaultdict(lambda: defaultdict(int)) for _ in scopings]

    def each_window(by_scope):
        """Each window's dicts under each scoping, in window order."""
        return [map(acc.__getitem__, keys) for acc, keys in zip(by_scope, scopings)]

    # the first scoping's sums are added to inline, and the others' only
    # when there are others, so a single scoping costs no inner loop
    first, *rest = each_window(sums)
    rest = zip(*rest) if others else repeat(())
    counted = zip(*each_window(seen)) if present else repeat(())
    # each window takes its rows from one iterator over both columns, so no
    # window slices them
    rows = zip(users, windows.strengths)
    for m, lo, hi, acc, parts, counts in zip(
        windows.metrics, bounds, islice(bounds, 1, None), first, rest, counted
    ):
        scale = m._scale
        for user, s in islice(rows, hi - lo):
            value = s * scale
            whole[user] += value
            acc[user] += value
            if parts:
                for part in parts:
                    part[user] += value
        for part_seen in counts:
            for user in users[lo:hi]:
                part_seen[user] += 1
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
    for keys, by_scope, seen_by_scope in zip(scopings, sums, seen):
        if present:
            means = {
                scope: {user: s / seen_by_scope[scope][user] for user, s in acc.items()}
                for scope, acc in by_scope.items()
            }
        else:
            sizes = Counter(keys)
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
    windows: ScoredWindows,
    labels,
    top_k: int,
    *,
    avg: str = AVG_ZERO,
) -> dict[EngagementClass, UserRanking]:
    """Rank users by mean ei centrality, globally and within each class.

    ``labels`` gives each window's class in the order of the rows, as
    :func:`zscore_classify` returns them. Returns one ranking per
    EngagementClass, GLOBAL included. With avg='zero' (default) every user
    of the whole ensemble is ranked, a user absent from a window contributes
    0 and the denominator is the class size, which rewards sustained
    participation; avg='present' ranks only the users of the class and
    averages over their appearances. A class without windows gets an empty
    ranking.
    """
    if top_k < 1:
        raise ParameterError(f"top_k must be >= 1, got {top_k}")
    (means,) = scope_means(windows, avg, labels)
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


def zscore_histogram(zs) -> dict[str, list[float] | list[int]]:
    """Fixed-bin histogram of z-scores (width 0.5 over [-3, 3], clamped tails)."""
    nbins = int(round((HIST_HI - HIST_LO) / HIST_WIDTH))
    edges = [HIST_LO + i * HIST_WIDTH for i in range(nbins + 1)]
    counts = [0] * nbins
    for z in zs:
        pos = int((z - HIST_LO) // HIST_WIDTH)
        counts[min(max(pos, 0), nbins - 1)] += 1
    return {"edges": edges, "counts": counts}
