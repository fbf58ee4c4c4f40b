"""Hot-loop kernels: adjacent-pair counting and sorted-form Gini.

tests/test_kernels.py checks both against the definitional oracles in
tests/oracles.py.
"""

from __future__ import annotations


def pair_counts(users) -> dict[tuple[int, int], int]:
    """Count unordered adjacent pairs in a sender sequence, skipping repeats.

    Consecutive messages from the same sender contribute nothing (self-loop
    removal); distinct adjacent senders increment the weight of their
    unordered pair.
    """
    counts: dict[tuple[int, int], int] = {}
    it = iter(users)
    try:
        prev = next(it)
    except StopIteration:
        return counts
    for cur in it:
        if cur != prev:
            key = (prev, cur) if prev < cur else (cur, prev)
            counts[key] = counts.get(key, 0) + 1
        prev = cur
    return counts


def gini_sorted(values) -> float:
    """Gini coefficient of positive values via the O(k log k) sorted form.

    Equivalent to sum_ij |x_i - x_j| / (2 k^2 mu); callers validate that
    the input is nonempty and strictly positive.
    """
    xs = sorted(values)
    k = len(xs)
    total = 0.0
    weighted = 0.0
    for i, x in enumerate(xs):
        weighted += (2.0 * (i + 1) - k - 1) * x
        total += x
    return weighted / (k * total)
