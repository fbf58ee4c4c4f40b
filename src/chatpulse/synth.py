"""Synthetic message logs with analytically known per-window networks.

Each regime emits `rate` messages per window, evenly spaced inside the window
with an idle tail, so no message ever straddles a bin boundary and the
expected network of every window is exact. Ground truth (edges and metrics)
is derived by directly enumerating adjacent sender pairs and the O(k^2)
pairwise Gini definition, independently of the analysis kernels.

Randomized regimes draw from ``random.Random(seed)`` (MT19937), so identical
regimes produce byte-identical logs and fixtures can be regenerated anywhere.
"""

from __future__ import annotations

import json
import math

from ._record import FrozenRecord
from .chatlog import MessageLog
from .errors import ParameterError
from .netbuild import WindowSpec

# only simulate draws from random, so generate imports it; type checkers
# read this constant as true
TYPE_CHECKING = False
if TYPE_CHECKING:
    import random

REGIME_KINDS = (
    "round-robin",
    "broadcaster",
    "dominant-pair",
    "uniform-random",
    "planted-dropout",
)

# 2018-08-01T00:00:00Z; rounded up to a delta_t multiple before use.
DEFAULT_START = 1_533_081_600


class Regime(FrozenRecord):
    """One generation recipe. `users` counts background users; the
    planted-dropout regime adds `dropouts` extra IDs on top that fall
    silent from `split_window` on."""

    __slots__ = (
        "kind", "users", "rate", "windows", "seed", "dropouts", "split_window"
    )

    def __init__(
        self,
        kind: str,
        users: int,
        rate: int,
        windows: int,
        seed: int = 0,
        dropouts: int = 0,
        split_window: int | None = None,
    ) -> None:
        self._fill(kind, users, rate, windows, seed, dropouts, split_window)


class WindowTruth(FrozenRecord):
    __slots__ = ("window_start", "window_index", "nodes", "edges", "metrics")

    def __init__(
        self,
        window_start: int,
        window_index: int,
        nodes: tuple[int, ...],
        edges: dict[tuple[int, int], int],
        metrics: dict[str, float] | None,  # None for non-conversation windows
    ) -> None:
        self._fill(window_start, window_index, nodes, edges, metrics)


class SynthResult(FrozenRecord):
    __slots__ = ("regime", "log", "truth")

    def __init__(
        self, regime: Regime, log: MessageLog, truth: tuple[WindowTruth, ...]
    ) -> None:
        self._fill(regime, log, truth)

    @property
    def dropout_users(self) -> tuple[int, ...]:
        if self.regime.kind != "planted-dropout":
            return ()
        return tuple(range(self.regime.users, self.regime.users + self.regime.dropouts))


def _validate(regime: Regime) -> None:
    if regime.kind not in REGIME_KINDS:
        raise ParameterError(f"unknown regime kind {regime.kind!r}")
    if regime.users < 1 or regime.windows < 1 or regime.rate < 1:
        raise ParameterError("users, windows, and rate must all be >= 1")
    if regime.kind == "round-robin" and regime.rate < regime.users:
        raise ParameterError(
            f"round-robin needs rate >= users ({regime.rate} < {regime.users})"
        )
    if regime.kind == "dominant-pair":
        if regime.users < 3:
            raise ParameterError("dominant-pair needs a pair plus background users")
        if regime.rate < regime.users + 1:
            raise ParameterError(
                "dominant-pair needs rate >= users + 1 so the pair dominates"
            )
    if regime.kind == "planted-dropout":
        if regime.dropouts < 1:
            raise ParameterError("planted-dropout needs dropouts >= 1")
        if regime.split_window is None or not (0 < regime.split_window < regime.windows):
            raise ParameterError(
                "planted-dropout needs 0 < split_window < windows"
            )


def _window_senders(regime: Regime, window: int, rng: random.Random) -> list[int]:
    k = regime.users
    if regime.kind == "round-robin":
        return [i % k for i in range(regime.rate)]
    if regime.kind == "broadcaster":
        if k == 1:
            return [0] * regime.rate
        return [
            0 if i % 2 == 0 else 1 + (i // 2) % (k - 1) for i in range(regime.rate)
        ]
    if regime.kind == "dominant-pair":
        crowd = k - 2
        chatter = [i % 2 for i in range(regime.rate - crowd)]
        return chatter + list(range(2, k))
    if regime.kind == "uniform-random":
        return [rng.randrange(k) for _ in range(regime.rate)]
    # planted-dropout: before the split, every other message comes from a
    # dropout user (IDs k..k+dropouts-1); after it, background only.
    if window < regime.split_window:
        return [
            k + (i // 2) % regime.dropouts if i % 2 == 0 else rng.randrange(k)
            for i in range(regime.rate)
        ]
    return [rng.randrange(k) for _ in range(regime.rate)]


def _adjacent_pair_counts(senders: list[int]) -> dict[tuple[int, int], int]:
    # Definitional enumeration, deliberately separate from the kernels.
    counts: dict[tuple[int, int], int] = {}
    for a, b in zip(senders, senders[1:]):
        if a != b:
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    return counts


def _pairwise_gini(weights: list[int]) -> float:
    k = len(weights)
    mu = sum(weights) / k
    spread = sum(abs(a - b) for a in weights for b in weights)
    return spread / (2.0 * k * k * mu)


def _truth_metrics(
    nodes: tuple[int, ...], edges: dict[tuple[int, int], int]
) -> dict[str, float] | None:
    if len(nodes) < 2:
        return None
    weights = list(edges.values())
    total = sum(weights)
    g = _pairwise_gini(weights)
    eq = 1.0 - g
    inten = math.log2(len(nodes) * total)
    return {
        "n": len(nodes),
        "total_weight": total,
        "gini": g,
        "equality": eq,
        "intensity": inten,
        "ei": eq * inten,
    }


def generate(regime: Regime, spec: WindowSpec | None = None) -> SynthResult:
    """Generate a log plus exact expected per-window networks and metrics."""
    import random

    _validate(regime)
    spec = spec or WindowSpec()
    delta = spec.delta_t
    origin = ((DEFAULT_START + delta - 1) // delta) * delta
    if origin + regime.windows * delta > 2**63:
        raise ParameterError(
            f"{regime.windows} windows of {delta} s end past the int64 "
            "timestamp range"
        )
    rng = random.Random(regime.seed)

    users: list[int] = []
    stamps: list[int] = []
    truth: list[WindowTruth] = []
    for window in range(regime.windows):
        start = origin + window * delta
        senders = _window_senders(regime, window, rng)
        gaps = len(senders) + 1
        users += senders
        stamps += [start + (i * delta) // gaps for i in range(len(senders))]
        edges = _adjacent_pair_counts(senders)
        nodes = tuple(sorted({u for pair in edges for u in pair}))
        truth.append(
            WindowTruth(
                window_start=start,
                window_index=window,
                nodes=nodes,
                edges=edges,
                metrics=_truth_metrics(nodes, edges),
            )
        )

    log = MessageLog(tuple(users), stamps)
    return SynthResult(regime=regime, log=log, truth=tuple(truth))


def dump_ground_truth(result: SynthResult) -> str:
    """Serialize expected windows as JSONL mirroring the ensemble schema."""
    lines = []
    for t in result.truth:
        obj = {
            "w": t.window_start,
            "i": t.window_index,
            "nodes": list(t.nodes),
            "edges": [[u, v, w] for (u, v), w in sorted(t.edges.items())],
            "metrics": t.metrics,
        }
        lines.append(json.dumps(obj, separators=(",", ":")))
    return "".join(line + "\n" for line in lines)

