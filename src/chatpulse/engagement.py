"""Equality, Intensity, Engagement Index, and per-node engagement centrality.

For a conversation network with n interacting participants, total simplified
edge weight m, and edge-weight multiset W:

    equality  = 1 - gini(W)
    intensity = log2(n * m)
    ei        = equality * intensity

A node's engagement centrality is n * strength * ei / (2 m), so the mean over
nodes recovers the network ei exactly. Networks without two interacting users
have no metrics; callers treat them as excluded.
"""

from __future__ import annotations

import math

from . import _kernels
from ._record import FrozenRecord, Record
from .errors import NotAConversationError
from .netbuild import InteractionNetwork


# Built once per distinct conversation shape and shared by every window of
# that shape (see ensemble.conversation_metrics), so it is frozen.
class EngagementMetrics(FrozenRecord):
    __slots__ = ("n", "total_weight", "gini", "equality", "intensity", "ei")

    def __init__(
        self, n: int, total_weight: int, gini: float, equality: float,
        intensity: float, ei: float,
    ) -> None:
        self._fill(n, total_weight, gini, equality, intensity, ei)


# Built per user on demand (node_centralities, WindowMetrics.nodes), then only
# read: a plain record, cheaper to build than a frozen one.
class NodeEngagement(Record):
    __slots__ = ("user", "strength", "ei_centrality")

    def __init__(self, user: int, strength: int, ei_centrality: float) -> None:
        self.user = user
        self.strength = strength
        self.ei_centrality = ei_centrality


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
    """The factor from a node's strength to its engagement centrality."""
    return metrics.n * metrics.ei / (2.0 * metrics.total_weight)


def node_centralities(
    net: InteractionNetwork, metrics: EngagementMetrics
) -> list[NodeEngagement]:
    """Per-node engagement, proportional to strength; averages to metrics.ei."""
    scale = centrality_scale(metrics)
    return [
        NodeEngagement(user, s, s * scale)
        for user, s in net.strengths().items()
    ]
