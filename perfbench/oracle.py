"""Reference results and output checks for the pipeline benchmark.

The expected windows come straight from the definitions: adjacent-pair
enumeration over each window's senders and the O(k^2) pairwise Gini. Nothing
here imports chatpulse or shares code with it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

TOL = 1e-12  # metrics.csv against the oracle
MEAN_TOL = 1e-9  # mean node centrality against the window's ei
LABELS = frozenset({"HIGH", "MEDIUM", "LOW"})


class CheckFailed(Exception):
    """An artifact disagrees with the oracle or with an invariant."""


@dataclass(frozen=True)
class Window:
    start: int
    index: int
    n: int
    total_weight: int
    equality: float
    intensity: float
    ei: float


@dataclass(frozen=True)
class Expected:
    windows: int  # nonempty windows, one ensemble.jsonl line each
    conversations: tuple[Window, ...]  # windows with >= 2 interacting users


def adjacent_pairs(senders) -> dict[tuple[int, int], int]:
    """Count each unordered pair of distinct consecutive senders."""
    seq = list(senders)
    counts: dict[tuple[int, int], int] = {}
    for a, b in zip(seq, seq[1:]):
        if a != b:
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    return counts


def gini_pairwise(weights) -> float:
    """sum_ij |x_i - x_j| / (2 k^2 mu), straight from the definition."""
    ws = list(weights)
    k = len(ws)
    mu = sum(ws) / k
    return sum(abs(a - b) for a in ws for b in ws) / (2.0 * k * k * mu)


def expected_windows(rows, delta_t: int = 600) -> Expected:
    """Wall-aligned windows of ``(user, ts)`` rows, scored by definition."""
    if not rows:
        return Expected(0, ())
    origin = rows[0][1] // delta_t * delta_t
    buckets: dict[int, list[int]] = {}
    for user, ts in rows:
        buckets.setdefault((ts - origin) // delta_t, []).append(user)
    conversations = []
    for index in sorted(buckets):
        edges = adjacent_pairs(buckets[index])
        nodes = {u for pair in edges for u in pair}
        if len(nodes) < 2:
            continue
        total = sum(edges.values())
        equality = 1.0 - gini_pairwise(edges.values())
        intensity = math.log2(len(nodes) * total)
        conversations.append(Window(
            start=origin + index * delta_t, index=index, n=len(nodes),
            total_weight=total, equality=equality, intensity=intensity,
            ei=equality * intensity,
        ))
    return Expected(len(buckets), tuple(conversations))


def _csv_rows(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"{path.name}: expected header {header!r}")
    rows = [line.split(",") for line in lines[1:]]
    width = header.count(",") + 1
    for line_no, row in enumerate(rows, 2):
        if len(row) != width:
            raise CheckFailed(f"{path.name}: line {line_no}: expected {width} columns")
    return rows


def check_log(path: Path, text: str) -> None:
    """A written log must equal the expected CSV byte for byte."""
    if path.read_text(encoding="utf-8") != text:
        raise CheckFailed(f"{path.name}: log differs from the expected rows")


def check_ensemble(path: Path, expected: Expected) -> int:
    """One line per nonempty window; returns the window count."""
    with open(path, encoding="utf-8") as fh:
        count = sum(1 for line in fh if line.strip())
    if count != expected.windows:
        raise CheckFailed(f"{path.name}: {count} windows, expected {expected.windows}")
    return count


def check_metrics(path: Path, expected: Expected) -> dict[int, float]:
    """Every row of metrics.csv within TOL of the oracle; returns start -> ei."""
    rows = _csv_rows(path, "window_start,window_index,n,total_weight,equality,intensity,ei")
    if len(rows) != len(expected.conversations):
        raise CheckFailed(
            f"{path.name}: {len(rows)} rows, expected {len(expected.conversations)}"
        )
    ei_by_start = {}
    for line_no, (row, want) in enumerate(zip(rows, expected.conversations), 2):
        try:
            start, index, n, total = (int(x) for x in row[:4])
            equality, intensity, ei = (float(x) for x in row[4:])
        except ValueError as exc:
            raise CheckFailed(f"{path.name}: line {line_no}: malformed row") from exc
        if (start, index, n, total) != (want.start, want.index, want.n, want.total_weight):
            raise CheckFailed(f"{path.name}: line {line_no}: window fields differ")
        for name, got, ref in (
            ("equality", equality, want.equality),
            ("intensity", intensity, want.intensity),
            ("ei", ei, want.ei),
        ):
            if not abs(got - ref) <= TOL:
                raise CheckFailed(f"{path.name}: line {line_no}: {name} {got!r} != {ref!r}")
        ei_by_start[start] = ei
    return ei_by_start


def check_centralities(path: Path, ei_by_start: dict[int, float]) -> None:
    """The mean node centrality of each window equals the window's ei."""
    sums: dict[int, list[float]] = {}
    for row in _csv_rows(path, "window_start,user_id,strength,ei_centrality"):
        sums.setdefault(int(row[0]), []).append(float(row[3]))
    if sums.keys() != ei_by_start.keys():
        raise CheckFailed(f"{path.name}: windows differ from metrics.csv")
    for start, values in sums.items():
        if not abs(math.fsum(values) / len(values) - ei_by_start[start]) <= MEAN_TOL:
            raise CheckFailed(f"{path.name}: window {start}: mean != ei")


def check_partition(classified: Path, histogram: Path, expected: Expected) -> None:
    """HIGH/MEDIUM/LOW label every conversation exactly once."""
    rows = _csv_rows(classified, "window_index,ei,z,label")
    indices = [int(r[0]) for r in rows]
    if sorted(indices) != [w.index for w in expected.conversations]:
        raise CheckFailed(f"{classified.name}: not one row per conversation")
    if not {r[3] for r in rows} <= LABELS:
        raise CheckFailed(f"{classified.name}: unknown label")
    if sum(json.loads(histogram.read_text(encoding="utf-8"))["counts"]) != len(rows):
        raise CheckFailed(f"{histogram.name}: counts do not sum to the conversations")


def check_pipeline(expected: Expected, ensemble: Path, scored: Path, classified: Path) -> dict:
    """Every check shared by the workloads; returns the window counts.

    ``scored`` holds metrics.csv and centralities.csv, ``classified`` holds
    classified.csv and histogram.json.
    """
    windows = check_ensemble(ensemble, expected)
    ei_by_start = check_metrics(scored / "metrics.csv", expected)
    check_centralities(scored / "centralities.csv", ei_by_start)
    check_partition(classified / "classified.csv", classified / "histogram.json", expected)
    return {"windows": windows, "conversations": len(expected.conversations)}
