"""Equality, Intensity, Engagement Index, and the engagement centrality scale.

For a conversation network with n interacting participants, total simplified
edge weight m, and edge-weight multiset W:

    equality  = 1 - gini(W)
    intensity = log2(n * m)
    ei        = equality * intensity

A node's engagement centrality is n * strength * ei / (2 m), its strength
times ``centrality_scale``, so the mean over nodes recovers the network ei
exactly. Networks without two interacting users have no metrics; callers
treat them as excluded.
"""

from __future__ import annotations

import math

from . import _kernels
from ._record import FrozenRecord
from .errors import NotAConversationError
from .netbuild import InteractionNetwork


# Built once per distinct conversation shape and shared by every window of
# that shape (see ensemble.window_scorer), so it is frozen. Its centrality
# scale is derived once, when it is built, for every window of the shape.
class EngagementMetrics(FrozenRecord):
    _fields = ("n", "total_weight", "gini", "equality", "intensity", "ei")
    __slots__ = _fields + ("_scale",)

    def __init__(
        self, n: int, total_weight: int, gini: float, equality: float,
        intensity: float, ei: float,
    ) -> None:
        self._fill(n, total_weight, gini, equality, intensity, ei)
        object.__setattr__(self, "_scale", centrality_scale(self))


def gini(values) -> float:
    """Gini coefficient of a nonempty multiset of positive weights, in [0, 1)."""
    values = list(values)
    if not values:
        raise ValueError("gini requires at least one weight")
    if min(values) <= 0:
        raise ValueError("gini weights must be strictly positive")
    return _kernels.gini_sorted(values)


def engagement_index(net: InteractionNetwork) -> EngagementMetrics:
    """All scalar engagement metrics for one conversation network."""
    if not net.is_conversation:
        raise NotAConversationError(
            f"window {net.window_index} has {len(net.nodes)} interacting participants;"
            " metrics need at least two"
        )
    weights = net.edges.values()
    g = gini(weights)
    eq = 1.0 - g
    n, total = len(net.nodes), sum(weights)
    inten = math.log2(n * total)
    return EngagementMetrics(n, total, g, eq, inten, eq * inten)


def centrality_scale(metrics: EngagementMetrics) -> float:
    """The factor from a node's strength to its engagement centrality.

    Each ``EngagementMetrics`` keeps its own, derived here when it is built.
    """
    return metrics.n * metrics.ei / (2.0 * metrics.total_weight)
