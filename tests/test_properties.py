"""Property tests: invariants that hold for every log, not just the fixtures."""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

from hypothesis import assume, given
from hypothesis import strategies as st

from chatpulse import (
    DegenerateEnsembleError,
    EngagementClass,
    InsufficientDataError,
    WindowSpec,
    build_ensemble,
    conversation_metrics,
    dump_ensemble,
    dump_log,
    ensemble_stats,
    load_ensemble,
    load_log,
    zscore_classify,
)
from chatpulse.cli import EXIT_OK, main

from conftest import make_log

DELTA_T = 600
BASE = 1_533_081_600  # 2018-08-01T00:00Z


def chats(max_gap, min_size=2):
    """Lists of (sender, seconds since the previous message)."""
    return st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, max_gap)),
        min_size=min_size,
        max_size=120,
    )


# gaps up to two windows leave some windows empty
messages = chats(2 * DELTA_T)


def log_of(rows, start=BASE):
    timeline, t = [], start
    for user, gap in rows:
        t += gap
        timeline.append((user, t))
    return make_log(timeline)


def scored(rows):
    return conversation_metrics(build_ensemble(log_of(rows), WindowSpec(DELTA_T)))


# denser logs, so most draws hold two conversations with different ei
@given(chats(DELTA_T // 2, min_size=10), st.floats(-2, 0), st.floats(0.01, 2))
def test_classes_partition_the_conversations(rows, low, width):
    wms = scored(rows)
    try:
        stats = ensemble_stats(wms)
        classified = zscore_classify(wms, stats, low=low, high=low + width)
    except (InsufficientDataError, DegenerateEnsembleError):
        assume(False)
    labels = {c.window_index: c.label for c in classified}
    assert len(labels) == len(classified) == len(wms)
    assert set(labels) == {w.window_index for w in wms}
    for c in classified:
        assert (c.label is EngagementClass.HIGH) == (c.z >= low + width)
        assert (c.label is EngagementClass.LOW) == (c.z <= low)
        assert c.label is not EngagementClass.GLOBAL


@given(chats(30))  # about 20 messages per window
def test_mean_centrality_is_the_window_ei(rows):
    for w in scored(rows):
        mean = math.fsum(ne.ei_centrality for ne in w.nodes) / len(w.nodes)
        assert math.isclose(mean, w.metrics.ei, rel_tol=1e-12)


@given(messages, st.sampled_from(["csv", "jsonl"]))
def test_log_round_trip(rows, fmt):
    log = log_of(rows)
    text = dump_log(log, fmt)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"log.{fmt}"
        path.write_text(text)
        loaded = load_log(path)
    assert loaded.events == log.events
    assert dump_log(loaded, fmt) == text


def networks_of(ens):
    return [(n.window_start, n.window_index, n.nodes, n.edges) for n in ens.networks]


@given(messages)
def test_ensemble_round_trip(rows):
    ens = build_ensemble(log_of(rows), WindowSpec(DELTA_T))
    text = dump_ensemble(ens)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ensemble.jsonl"
        path.write_text(text)
        loaded = load_ensemble(path)
    assert networks_of(loaded) == networks_of(ens)
    assert dump_ensemble(loaded) == text


def scored_csvs(rows, tmp: Path, name: str, start=BASE) -> tuple[str, str]:
    """metrics.csv and centralities.csv of `build` then `metrics` on the log."""
    log = tmp / f"{name}.csv"
    log.write_text(dump_log(log_of(rows, start)))
    out = tmp / name
    assert main(["build", str(log), "--out", str(out)]) == EXIT_OK
    assert main(["metrics", str(out / "ensemble.jsonl"), "--out", str(out)]) == EXIT_OK
    return (out / "metrics.csv").read_text(), (out / "centralities.csv").read_text()


def metrics_rows(rows, start, tmp: Path) -> list[list[str]]:
    metrics, _ = scored_csvs(rows, tmp, f"log-{start}", start)
    return [line.split(",") for line in metrics.splitlines()]


@given(messages, st.integers(-1000, 1000).filter(bool))
def test_shift_by_whole_windows_changes_only_window_start(rows, windows):
    with tempfile.TemporaryDirectory() as tmp:
        before = metrics_rows(rows, BASE, Path(tmp))
        after = metrics_rows(rows, BASE + windows * DELTA_T, Path(tmp))
    assert before[0] == after[0] and len(before) == len(after)
    for old, new in zip(before[1:], after[1:]):
        assert int(new[0]) - int(old[0]) == windows * DELTA_T
        assert new[1:] == old[1:]


def centralities_by_window(text: str, relabel=lambda user: user) -> dict:
    windows: dict[str, set] = {}
    for line in text.splitlines()[1:]:
        start, user, strength, value = line.split(",")
        windows.setdefault(start, set()).add((relabel(int(user)), strength, value))
    return windows


@given(messages, st.permutations(range(6)))
def test_relabeling_users_changes_only_the_user_ids(rows, perm):
    relabeled = [(perm[user], gap) for user, gap in rows]
    with tempfile.TemporaryDirectory() as tmp:
        metrics, central = scored_csvs(rows, Path(tmp), "original")
        metrics_p, central_p = scored_csvs(relabeled, Path(tmp), "relabeled")
    assert metrics_p == metrics
    back = {new: old for old, new in enumerate(perm)}
    assert centralities_by_window(central_p, back.__getitem__) == (
        centralities_by_window(central)
    )
