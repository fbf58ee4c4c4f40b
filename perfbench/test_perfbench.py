"""Tests of the benchmark itself: generators, output checks, span arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import corpus
import oracle
import run
import spans

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("generate", [corpus.c9_log, corpus.burst_log, corpus.transcript])
def test_generators_are_deterministic_per_seed(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_burst_corpus_keeps_each_burst_inside_one_window():
    rows = corpus.burst_log(3)
    assert len(rows) == corpus.BURST["bursts"] * corpus.BURST["per_burst"]
    windows = {t // corpus.WINDOW for _, t in rows}
    assert len(windows) == corpus.BURST["bursts"]


def test_oracle_matches_definitions_on_a_toy_window():
    assert oracle.adjacent_pairs([1, 1, 2, 1, 3]) == {(1, 2): 2, (1, 3): 1}
    assert oracle.gini_pairwise([2, 2, 2]) == 0.0
    assert oracle.gini_pairwise([4, 2]) == pytest.approx(1 / 6)


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    """A real ``chatpulse report`` over a prefix of the criterion-9 corpus."""
    work = tmp_path_factory.mktemp("report")
    rows = corpus.c9_log(1)[:3000]
    (work / "log.csv").write_text(corpus.log_csv(rows), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "chatpulse", "report", str(work / "log.csv"),
         "--out", str(work / "out")],
        check=True, env=env, cwd=ROOT,
    )
    return work / "out", oracle.expected_windows(rows)


def test_checks_pass_on_real_report(report_dir):
    out, expected = report_dir
    counts = oracle.check_pipeline(expected, out / "ensemble.jsonl", out, out)
    assert counts == {"windows": expected.windows, "conversations": len(expected.conversations)}


def test_metrics_check_fails_on_one_changed_digit(report_dir, tmp_path):
    out, expected = report_dir
    lines = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
    fields = lines[5].split(",")
    ei = fields[6]
    dot = ei.index(".")
    fields[6] = ei[:dot + 1] + str((int(ei[dot + 1]) + 1) % 10) + ei[dot + 2:]
    lines[5] = ",".join(fields)
    copy = tmp_path / "metrics.csv"
    copy.write_text("\n".join(lines) + "\n", encoding="utf-8")
    oracle.check_metrics(out / "metrics.csv", expected)
    with pytest.raises(oracle.CheckFailed, match="line 6: ei"):
        oracle.check_metrics(copy, expected)


def test_partition_check_fails_on_a_missing_conversation(report_dir, tmp_path):
    out, expected = report_dir
    lines = (out / "classified.csv").read_text(encoding="utf-8").splitlines()
    (tmp_path / "classified.csv").write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(oracle.CheckFailed):
        oracle.check_partition(tmp_path / "classified.csv", out / "histogram.json", expected)


def test_self_time_of_a_toy_nested_call():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    tracer = spans.Tracer("run-1", clock=lambda: next(ticks))
    inner = tracer.wrap("toy.inner", lambda: None)
    outer = tracer.wrap("toy.outer", lambda: (inner(), inner()))
    outer()
    # (run_id, span_id, parent_id, name), in the order the spans ended
    assert [s[:4] for s in tracer.spans] == [
        ("run-1", 1, 0, "toy.inner"),
        ("run-1", 2, 0, "toy.inner"),
        ("run-1", 0, -1, "toy.outer"),
    ]
    assert spans.self_times(tracer.spans) == {
        "toy.outer": [7.0, 1],  # 10 - (3 - 1) - (5 - 4)
        "toy.inner": [3.0, 2],
    }


def test_install_wraps_every_binding_and_reports_absent_names():
    home = types.ModuleType("chatpulse._toy")
    home.double = lambda x: 2 * x
    user = types.ModuleType("chatpulse._toy_user")
    user.double = home.double
    sys.modules.update({home.__name__: home, user.__name__: user})
    try:
        tracer = spans.Tracer("run-1")
        absent = tracer.install([
            ("chatpulse._toy", "double"),
            ("chatpulse._toy", "deleted"),
            ("chatpulse.gone", "anything"),
        ])
        assert absent == ["_toy.deleted", "gone.anything"]
        assert user.double(4) == 8
        assert home.double is user.double
        assert [s[3] for s in tracer.spans] == ["_toy.double"]
    finally:
        del sys.modules[home.__name__], sys.modules[user.__name__]


def test_launcher_reports_the_child_peak_not_the_parent_peak(tmp_path):
    launcher = run.Launcher(dict(os.environ))
    ballast = b"x" * (100 << 20)  # grows this process after the launcher started
    try:
        code, maxrss_kb = launcher.run(
            [sys.executable, "-c", "pass"], tmp_path / "err", time.perf_counter() + 60
        )
        direct = subprocess.Popen([sys.executable, "-c", "pass"])
        _, _, usage = os.wait4(direct.pid, 0)
        direct.returncode = 0
    finally:
        launcher.close()
    assert code == 0
    assert maxrss_kb < 50 << 10
    assert usage.ru_maxrss > len(ballast) >> 10  # the inherited peak a launcher avoids


def test_launcher_kills_a_child_at_the_deadline(tmp_path):
    launcher = run.Launcher(dict(os.environ))
    try:
        with pytest.raises(RuntimeError, match="killed"):
            launcher.run(
                [sys.executable, "-c", "import time; time.sleep(60)"],
                tmp_path / "err", time.perf_counter() + 0.5,
            )
    finally:
        launcher.close()
    assert launcher.proc.returncode == 0


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == ("max", 3.0)
    values = [float(i) for i in range(1, 21)]
    assert run.tail_percentile(values) == ("p50", 10.0)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
