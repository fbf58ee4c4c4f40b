#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the chatpulse pipeline.

    python3 perfbench/run.py --workload c9-report --seed 1 --seconds 30 --trace 0

Run it from the repository root. It builds the workload's input from the
seed, then runs the CLI in a closed loop: one fresh child process per run,
the next one starting when the last has ended, until ``--seconds`` have
passed. Every run's artifacts are checked against an independent oracle and
must be byte-identical across the runs of one invocation.

With ``--trace 0`` the runs are untraced and the result reports the
end-to-end metrics (see ``summarize`` for which statistic each reads). With
``--trace 1`` untraced and traced runs alternate; the traced ones wrap
chatpulse's public functions (see spans.py) and the result reports per-layer
self times and counts.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it, also written to
``.perfbench_results/``, records the environment, the corpus parameters,
every run, and the SHA-256 of every artifact except ``manifest.json``, so
two commits can be compared for byte identity.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import corpus
import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"

MIN_RUNS = 3  # per mode, even when --seconds is shorter than three runs
SETUP_SAMPLES = 15  # setup_s is read from at least this many imports
LIMIT_S = 170.0  # the whole invocation, including set-up, stays under this


@dataclass
class Prepared:
    """A workload's input on disk, how to run it, and how to check a run."""

    messages: int
    params: dict
    steps: Callable[[Path], list[list[str]]]
    check: Callable[[Path], dict[str, int]]


def _report_workload(rows, work: Path, params: dict) -> Prepared:
    path = work / "log.csv"
    path.write_text(corpus.log_csv(rows), encoding="utf-8")
    expected = oracle.expected_windows(rows, corpus.WINDOW)

    def steps(out: Path) -> list[list[str]]:
        return [["report", str(path), "--out", str(out), "--split", corpus.SPLIT]]

    def check(out: Path) -> dict[str, int]:
        return oracle.check_pipeline(expected, out / "ensemble.jsonl", out, out)

    return Prepared(len(rows), params | {"split": corpus.SPLIT}, steps, check)


def prepare_c9(seed: int, work: Path) -> Prepared:
    return _report_workload(corpus.c9_log(seed), work, {"corpus": "c9", **corpus.C9})


def prepare_burst(seed: int, work: Path) -> Prepared:
    return _report_workload(corpus.burst_log(seed), work, {"corpus": "burst", **corpus.BURST})


def prepare_transcript(seed: int, work: Path) -> Prepared:
    text, rows = corpus.transcript(seed)
    path = work / "chat.txt"
    path.write_text(text, encoding="utf-8")
    log_text = corpus.log_csv(rows)
    expected = oracle.expected_windows(rows, corpus.WINDOW)

    def steps(out: Path) -> list[list[str]]:
        ens = str(out / "build" / "ensemble.jsonl")
        return [
            ["parse", str(path), "--out", str(out / "parse"),
             "--tz", corpus.TRANSCRIPT_TZ, "--salt", corpus.TRANSCRIPT_SALT],
            ["build", str(out / "parse" / "log.csv"), "--out", str(out / "build")],
            ["metrics", ens, "--out", str(out / "metrics")],
            ["classify", ens, "--out", str(out / "classify")],
            ["rank", ens, "--out", str(out / "rank")],
            ["series", ens, "--out", str(out / "series"), "--user", "0", "--user", "1"],
            ["compare", ens, "--out", str(out / "compare"),
             "--split", corpus.TRANSCRIPT_SPLIT],
        ]

    def check(out: Path) -> dict[str, int]:
        oracle.check_log(out / "parse" / "log.csv", log_text)
        return oracle.check_pipeline(
            expected, out / "build" / "ensemble.jsonl", out / "metrics", out / "classify"
        )

    params = {
        "corpus": "whatsapp-en-dash", **corpus.TRANSCRIPT, "tz": corpus.TRANSCRIPT_TZ,
        "salt": corpus.TRANSCRIPT_SALT, "split": corpus.TRANSCRIPT_SPLIT,
    }
    return Prepared(len(rows), params, steps, check)


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "c9-report": prepare_c9,
    "burst-report": prepare_burst,
    "transcript-stepwise": prepare_transcript,
}

# Span names whose self time and call count are reported per layer.
TIMED = (
    "chatlog.load_log", "chatlog.parse_transcript", "chatlog.anonymize",
    "chatlog.dump_log", "netbuild.build_ensemble", "netbuild.dump_ensemble",
    "netbuild.load_ensemble", "_kernels.pair_counts", "_kernels.gini_sorted",
    "engagement.engagement_index", "engagement.node_centralities",
    "ensemble.conversation_metrics", "ensemble.centrality_table",
    "ensemble.rank_users", "temporal.period_compare", "temporal.user_series",
)
COUNTED = (
    "_kernels.pair_counts", "_kernels.gini_sorted", "engagement.engagement_index",
    "engagement.node_centralities", "ensemble.rank_users",
)
CLASSIFY = ("ensemble.ensemble_stats", "ensemble.zscore_classify", "ensemble.zscore_histogram")


def metric_name(span: str, suffix: str) -> str:
    """Metric names may not start with '_', so '_kernels' reads 'kernels'."""
    return f"{span.lstrip('_')}.{suffix}"


@dataclass
class Run:
    traced: bool
    ok: bool = False
    error: str | None = None
    setup_s: float | None = None
    wall_s: float | None = None
    rss_mb: float | None = None
    steps: list[float] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)

    def record(self) -> dict:
        return {k: v for k, v in vars(self).items() if v not in (None, [], {})}


class Launcher:
    """Client of launcher.py, which forks the children while staying small."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
        )
        self._buf = b""
        self._pid: int | None = None  # the child being waited for

    def _reply(self, deadline: float | None) -> dict | None:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            timeout = None if deadline is None else max(0.0, deadline - time.perf_counter())
            if not select.select([fd], [], [], timeout)[0]:
                return None
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError("launcher exited")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def run(self, argv: list[str], stderr: Path, deadline: float) -> tuple[int, int]:
        """Exit code and peak RSS in KiB of one child, killed at the deadline."""
        request = json.dumps({"argv": argv, "stderr": str(stderr)}) + "\n"
        self.proc.stdin.write(request.encode())
        self._pid = self._reply(None)["pid"]
        reply = self._reply(deadline)
        timed_out = reply is None
        if timed_out:
            self._kill()
            reply = self._reply(None)
        self._pid = None
        if timed_out:
            raise RuntimeError(f"child killed after the {LIMIT_S:.0f}s limit")
        return reply["code"], reply["maxrss_kb"]

    def _kill(self) -> None:
        with contextlib.suppress(ProcessLookupError):
            os.kill(self._pid, signal.SIGKILL)

    def close(self) -> None:
        """Ends the launcher, first killing a child left running by an error."""
        if self._pid is not None:
            self._kill()
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool, started: float) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.started = started
        self.work = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("PYTHONDONTWRITEBYTECODE", None)  # time imports from cached bytecode
        self.launcher = Launcher(env)  # before the corpus makes this process large
        self.children = 0
        self.setup: list[float] = []  # import time of every child after the warm-up
        self.digests: dict[str, str] | None = None
        self.kernel_backend: str | None = None
        self.absent: list[str] = []
        self.prepared: Prepared | None = None

    def prepare(self) -> None:
        self.work.mkdir(parents=True)
        self.prepared = WORKLOADS[self.workload](self.seed, self.work)

    def spawn(self, steps: list[list[str]], traced: bool) -> tuple[dict, float]:
        """Run one child to completion; returns its result and peak RSS in MiB."""
        self.children += 1
        tag = f"child-{self.children}"
        job_path, result_path, err_path = (
            self.work / f"{tag}.{ext}" for ext in ("job.json", "result.json", "stderr")
        )
        job = {"steps": steps, "trace": traced, "run_id": tag, "result": str(result_path)}
        job_path.write_text(json.dumps(job), encoding="utf-8")
        code, maxrss_kb = self.launcher.run(
            [sys.executable, str(CHILD), str(job_path)], err_path, self.started + LIMIT_S
        )
        if code != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise RuntimeError(f"{tag} exited {code}: {tail.strip()}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        for path in (job_path, result_path, err_path):
            path.unlink()
        if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"imported chatpulse from {result['module']}, not {SRC}")
        self.setup.append(result["setup_s"])
        return result, maxrss_kb / 1024.0

    def warm_up(self) -> None:
        """One untimed child: compiles bytecode and fills the page cache."""
        self.spawn([], traced=False)
        self.setup.clear()

    def sample_setup(self, share: float) -> None:
        """Import-only children until setup_s has ``share`` of its samples."""
        while len(self.setup) < SETUP_SAMPLES * share and self.elapsed() < LIMIT_S:
            self.spawn([], traced=False)

    def run(self, traced: bool) -> Run:
        run = Run(traced=traced)
        out = self.work / f"out-{self.children + 1}"
        try:
            result, run.rss_mb = self.spawn(self.prepared.steps(out), traced)
            run.setup_s = result["setup_s"]
            codes = [code for code, _ in result["steps"]]
            if any(codes):
                raise oracle.CheckFailed(f"step exit codes {codes}")
            counts = self.prepared.check(out)
            self.compare_digests(out)
            run.steps = [seconds for _, seconds in result["steps"]]
            run.wall_s = sum(run.steps)
            if traced:
                self.absent = result["absent"]
                run.layers = self.layers(result["spans"], run.wall_s, counts, out)
            run.ok = True
        except (RuntimeError, oracle.CheckFailed, OSError, ValueError, KeyError) as exc:
            run.error = f"{type(exc).__name__}: {exc}"
            print(f"run failed: {run.error}", file=sys.stderr)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return run

    def compare_digests(self, out: Path) -> None:
        digests = {}
        for path in sorted(out.rglob("*")):
            if path.is_file() and path.name != "manifest.json":
                digests[path.relative_to(out).as_posix()] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
        if self.digests is None:
            self.digests = digests
            manifest = next(iter(sorted(out.rglob("manifest.json"))), None)
            if manifest is not None:
                doc = json.loads(manifest.read_text(encoding="utf-8"))
                self.kernel_backend = doc.get("kernel_backend")
        elif digests != self.digests:
            changed = sorted(k for k in digests.keys() | self.digests.keys()
                             if digests.get(k) != self.digests.get(k))
            raise oracle.CheckFailed(f"artifacts differ from the first run: {changed}")

    def layers(self, raw_spans, wall_s: float, counts: dict, out: Path) -> dict:
        st = spans.self_times(raw_spans)
        zero = (0.0, 0)
        layers = {metric_name(s, "s"): st.get(s, zero)[0] for s in TIMED}
        layers |= {metric_name(s, "calls"): st.get(s, zero)[1] for s in COUNTED}
        ei_calls = st.get("engagement.engagement_index", zero)[1]
        layers |= {
            "ensemble.classify.s": sum(st.get(s, zero)[0] for s in CLASSIFY),
            "cli.self_s": st.get("cli.main", zero)[0],
            "cli.artifact_bytes": sum(  # manifests name the run's output directory
                p.stat().st_size for p in out.rglob("*")
                if p.is_file() and p.name != "manifest.json"
            ),
            "chatlog.messages": self.prepared.messages,
            "netbuild.windows": counts["windows"],
            "netbuild.conversations": counts["conversations"],
            "engagement.score_yield": counts["conversations"] / ei_calls if ei_calls else 0.0,
            "trace.coverage": sum(v[0] for v in st.values()) / wall_s,
        }
        return layers

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def tail_percentile(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples above it, else the max."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return "max", ordered[-1]
    pct = 100 * (n - 10) // n
    return f"p{pct}", ordered[max(0, -(-pct * n // 100) - 1)]


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


END_TO_END_UNITS = {"wall_s": "s", "msgs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    **{metric_name(s, "s"): "s" for s in TIMED},
    **{metric_name(s, "calls"): "count" for s in COUNTED},
    "ensemble.classify.s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "chatlog.messages": "count",
    "netbuild.windows": "count",
    "netbuild.conversations": "count",
    "engagement.score_yield": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def summarize(bench: Bench, runs: list[Run], setup: list[float]) -> tuple[dict, dict]:
    """Returns (metrics for the result line, per-metric sample summaries).

    The summaries give every timing's median, minimum, highest supported tail
    percentile and sample count. The end-to-end metrics read the fastest run
    (wall_s, msgs_per_s) and the fastest import (setup_s): on a shared host
    whose speed drifts with its neighbours' load, the minimum varies far less
    between invocations than the median. Per-layer metrics are medians.
    """
    good = [r for r in runs if r.ok]
    plain = [r for r in good if not r.traced]
    samples: dict[str, list[float]] = {
        "wall_s": [r.wall_s for r in plain],
        "msgs_per_s": [bench.prepared.messages / r.wall_s for r in plain],
        "setup_s": setup,
        "peak_rss_mb": [r.rss_mb for r in plain],
    }
    units = END_TO_END_UNITS | PER_LAYER_UNITS | {"traced_wall_s": "s"}
    if bench.trace:
        traced = [r for r in good if r.traced]
        for name in PER_LAYER_UNITS:
            if name != "trace.overhead_s":
                samples[name] = [r.layers[name] for r in traced]
        samples["traced_wall_s"] = [r.wall_s for r in traced]
    summary = {}
    for name, values in samples.items():
        if values:
            summary[name] = {
                "median": statistics.median(values), "min": min(values), "n": len(values)
            }
            if units[name] == "s":
                label, value = tail_percentile(values)
                summary[name][label] = value
    if bench.trace:
        overhead = summary["traced_wall_s"]["median"] - summary["wall_s"]["median"]
        summary["trace.overhead_s"] = {"median": overhead}
        value = {name: summary[name]["median"] for name in PER_LAYER_UNITS}
    else:
        fastest = summary["wall_s"]["min"]
        value = {
            "wall_s": fastest,
            "msgs_per_s": bench.prepared.messages / fastest,
            "setup_s": summary["setup_s"]["min"],
            "peak_rss_mb": summary["peak_rss_mb"]["median"],
        }
    reported = PER_LAYER_UNITS if bench.trace else END_TO_END_UNITS
    metrics = {name: {"value": value[name], "unit": units[name]} for name in reported}
    return metrics, summary


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chatpulse" / "cli.py").is_file():
        print(f"perfbench: no chatpulse sources under {SRC}", file=sys.stderr)
        return 2

    # A terminated benchmark still runs the clean-up below, which kills its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    bench = Bench(args.workload, args.seed, bool(args.trace), started)
    try:
        bench.prepare()
        bench.warm_up()
        modes = (False, True) if bench.trace else (False,)
        runs: list[Run] = []
        window = time.perf_counter()
        while True:
            runs.extend(bench.run(traced) for traced in modes)
            if bench.elapsed() >= LIMIT_S:
                break
            # Spread the import-only children over the window, like the runs.
            share = min(1.0, (time.perf_counter() - window) / args.seconds)
            bench.sample_setup(share)
            if len(runs) >= MIN_RUNS * len(modes) and share >= 1.0:
                break
    finally:
        bench.launcher.close()
        shutil.rmtree(bench.work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    failed = sum(not r.ok for r in runs)
    if not any(r.ok and not r.traced for r in runs) or (
        bench.trace and not any(r.ok and r.traced for r in runs)
    ):
        print("perfbench: no run of this mode succeeded", file=sys.stderr)
        return 1
    metrics, summary = summarize(bench, runs, bench.setup)
    digests = bench.digests or {}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(),
            "kernel_backend": bench.kernel_backend,
        },
        "corpus": bench.prepared.params,
        "messages": bench.prepared.messages,
        "fail_ratio": failed / len(runs),
        "absent": bench.absent,
        "summary": summary,
        "digests": digests,
        "artifact_set_sha256": hashlib.sha256(
            json.dumps(digests, sort_keys=True).encode()
        ).hexdigest(),
        "runs": [r.record() for r in runs],
        "elapsed_s": bench.elapsed(),
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    for name, s in summary.items():
        extra = "  ".join(f"{k} {v:.6g}" for k, v in s.items() if k not in ("median", "n"))
        print(f"{name:34s} median {s['median']:.6g}  {extra}  n={s.get('n', '-')}")
    print(f"fail_ratio {failed}/{len(runs)}  artifacts {record['artifact_set_sha256'][:16]}")
    print(json.dumps(record, separators=(",", ":")))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
