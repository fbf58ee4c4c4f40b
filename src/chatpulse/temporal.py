"""Per-user engagement time series and period-over-period comparison.

The comparison splits scored windows at a boundary timestamp (the boundary
window belongs to the second period), takes each user's mean ei centrality
over the whole range and over each period, normalizes the three vectors by
their own maxima, and reports diff = p2 - p1 per user. Normalizing by the
per-period maximum makes diffs sensitive to whoever tops each period; that is
a property of the method, not an artifact.
"""

from __future__ import annotations

from bisect import bisect_right

from ._record import FrozenRecord
from .ensemble import AVG_ZERO, EngagementClass, ScoredWindows, check_avg, scope_means
from .errors import InsufficientDataError, ParameterError


class UserSeries(FrozenRecord):
    __slots__ = ("user", "points")

    def __init__(
        self,
        user: int,
        points: tuple[tuple[int, float], ...],  # (window_start, ei centrality)
    ) -> None:
        self._fill(user, points)


def user_series(windows: ScoredWindows, user: int) -> UserSeries:
    """All (window_start, ei centrality) points for one user; gaps where absent.

    Each of the user's rows in the flat ``users`` column is found by
    ``list.index`` from the one before, and its window by bisecting
    ``bounds``, so windows without the user cost no Python code.
    """
    users, bounds, points = windows.users, windows.bounds, []
    row = -1
    while True:
        try:
            row = users.index(user, row + 1)
        except ValueError:  # no later row holds the user
            return UserSeries(user=user, points=tuple(points))
        i = bisect_right(bounds, row) - 1
        scale = windows.metrics[i]._scale
        points.append((windows.starts[i], windows.strengths[row] * scale))


class ComparisonRow(FrozenRecord):
    __slots__ = ("user", "whole", "p1", "p2", "diff")

    def __init__(
        self, user: int, whole: float, p1: float, p2: float, diff: float
    ) -> None:
        self._fill(user, whole, p1, p2, diff)


class PeriodComparison(FrozenRecord):
    __slots__ = ("split", "rows")

    def __init__(
        self,
        split: int,
        rows: tuple[ComparisonRow, ...],  # descending by whole-period value
    ) -> None:
        self._fill(split, rows)


def split_periods(windows: ScoredWindows, split: int) -> list[str]:
    """Each window's period, in order: "p1" before ``split``, "p2" from it.

    Periods are half-open around the split: a window starting exactly at the
    split belongs to p2. Raises when either period has no conversation.
    """
    periods = ["p2" if start >= split else "p1" for start in windows.starts]
    if "p1" not in periods or "p2" not in periods:
        raise InsufficientDataError(
            f"both periods need at least one conversation network "
            f"(p1={periods.count('p1')}, p2={periods.count('p2')})"
        )
    return periods


def period_means(
    windows: ScoredWindows,
    split: int,
    *,
    avg: str = AVG_ZERO,
) -> tuple[dict[int, float], dict[int, float], dict[int, float]]:
    """Raw per-user mean ei centrality over (whole, p1, p2) of scored windows.

    The periods are :func:`split_periods`'. Every user of ``windows`` is in
    all three vectors, with 0.0 where absent. Raises when either period has
    no conversation.
    """
    check_avg(avg)
    (means,) = scope_means(windows, avg, split_periods(windows, split))
    return _period_vectors(means)


def _period_vectors(means: dict) -> tuple[dict, dict, dict]:
    whole = means[EngagementClass.GLOBAL]
    p1, p2 = (
        {user: means[period].get(user, 0.0) for user in whole}
        for period in ("p1", "p2")
    )
    return whole, p1, p2


def _normalized(vec: dict[int, float]) -> dict[int, float]:
    peak = max(vec.values(), default=0.0)
    if peak <= 0.0:
        return dict(vec)
    return {u: v / peak for u, v in vec.items()}


def period_compare(
    windows: ScoredWindows,
    split: int,
    *,
    top_k: int | None = None,
    avg: str = AVG_ZERO,
) -> PeriodComparison:
    """Max-normalized per-user engagement difference between two periods.

    Users with zero whole-period engagement are dropped before normalization
    (their p1 and p2 means are necessarily zero too). Rows are ordered by
    descending whole-period value, ties by ascending user; top_k=None keeps
    every user.
    """
    if top_k is not None and top_k < 1:
        raise ParameterError(f"top_k must be >= 1, got {top_k}")
    check_avg(avg)
    (means,) = scope_means(windows, avg, split_periods(windows, split))
    return compare_means(means, split, top_k=top_k)


def compare_means(
    means: dict, split: int, *, top_k: int | None = None
) -> PeriodComparison:
    """:func:`period_compare`'s result from :func:`scope_means`' result for
    the scoping by :func:`split_periods` at ``split``."""
    whole, p1, p2 = _period_vectors(means)
    users = [u for u, v in whole.items() if v > 0.0]
    whole_n = _normalized({u: whole[u] for u in users})
    p1_n = _normalized({u: p1[u] for u in users})
    p2_n = _normalized({u: p2[u] for u in users})
    rows = [
        ComparisonRow(
            user=u,
            whole=whole_n[u],
            p1=p1_n[u],
            p2=p2_n[u],
            diff=p2_n[u] - p1_n[u],
        )
        for u in users
    ]
    rows.sort(key=lambda r: (-r.whole, r.user))
    if top_k is not None:
        rows = rows[:top_k]
    return PeriodComparison(split=split, rows=tuple(rows))


def engagement_drop_report(
    comparison: PeriodComparison, threshold: float
) -> list[ComparisonRow]:
    """Users whose normalized difference dropped to <= threshold, worst first."""
    hits = [row for row in comparison.rows if row.diff <= threshold]
    hits.sort(key=lambda r: (r.diff, r.user))
    return hits
