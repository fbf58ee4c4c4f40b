"""Command-line pipeline from transcript export to engagement artifacts.

Every run writes a manifest.json recording the command, effective parameter
values, and SHA-256 digests of the inputs; rerunning with the same config and
inputs reproduces every artifact byte for byte. All artifact writes are
atomic (write temp, then rename), timestamps in artifacts are UTC epoch
seconds, and floats are written in shortest round-trip form.

Exit codes: 0 ok, 2 usage or bad parameter, 3 parse/ordering error,
4 schema error, 5 insufficient data, 6 I/O failure. Failures, usage errors
included, print a single-line JSON diagnostic to stderr.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .chatlog import (
    DEFAULT_PROFILE,
    PROFILES,
    MessageLog,
    _new_sha256,
    _resolve_zone,
    anonymize,
    dump_mapping,
    load_log,
    log_lines,
    parse_transcript,
    read_mapping,
    utc_timestamp,
    utf8_lines,
)
from .ensemble import (
    AVG_PRESENT,
    AVG_ZERO,
    STD_POPULATION,
    STD_SAMPLE,
    WindowMetrics,
    conversation_metrics,
    ensemble_stats,
    rank_means,
    rank_users,
    scope_means,
    scored_window,
    window_scorer,
    zscore_classify,
    zscore_histogram,
)
from .errors import (
    InsufficientDataError,
    NotAConversationError,
    ParameterError,
    ParseError,
    SchemaError,
)
from .netbuild import (
    WindowSpec,
    _Reprs,
    ensemble_lines,
    ensemble_networks,
    window_networks,
)
from .synth import REGIME_KINDS, Regime, dump_ground_truth, generate
from .temporal import compare_means, period_compare, split_periods, user_series

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_SCHEMA = 4
EXIT_INSUFFICIENT = 5
EXIT_IO = 6

_STD_MODES = {"pop": STD_POPULATION, "sample": STD_SAMPLE}
MANIFEST = "manifest.json"


def _write_artifact(path: Path, chunks) -> None:
    """Stream text chunks (newlines included) to a temp file, then rename.

    If a chunk or a write fails part-way, the temp file is deleted and any
    artifact already at ``path`` is left as it was. Any other artifact first
    deletes the ``manifest.json`` beside it, which ``main`` writes again only
    once the command succeeds: no manifest describes a half-replaced run.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        if path.name != MANIFEST:
            path.with_name(MANIFEST).unlink(missing_ok=True)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: str, rows) -> None:
    _write_artifact(path, itertools.chain((header + "\n",), rows))


def _sha256(path: Path) -> str:
    digest = _new_sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# flags whose parser dest differs from the name the manifest records
_RECORDED_AS = {"from_when": "from", "to_when": "to"}


def _input_digests(args) -> dict[str, str]:
    """SHA-256 of each input file, read before the command may overwrite it."""
    paths = (getattr(args, "input", None), getattr(args, "mapping_in", None))
    return {str(p): _sha256(Path(p)) for p in paths if p}


def _write_manifest(outdir: Path, args, inputs: dict, outputs: list[str]) -> None:
    """Record the command, every flag under its long name, inputs and outputs,
    and the ``counts`` a command that reads a log sets on ``args``."""
    params = {
        _RECORDED_AS.get(key, key): value
        for key, value in vars(args).items()
        if key not in ("command", "handler", "counts")
    }
    doc = {
        "command": args.command,
        "version": __version__,
        "parameters": params,
        "inputs": inputs,
        "outputs": sorted(outputs),
    }
    if hasattr(args, "counts"):
        doc["counts"] = args.counts
    _write_artifact(outdir / MANIFEST, (json.dumps(doc, indent=2), "\n"))


def _parse_thresholds(text: str) -> tuple[float, float]:
    try:
        lo_raw, hi_raw = text.split(",")
        lo, hi = float(lo_raw), float(hi_raw)
    except ValueError as exc:
        raise ParameterError(f"--thresholds wants 'lo,hi', got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError(f"--thresholds wants finite numbers, got {text!r}")
    if lo >= hi:
        raise ParameterError(f"--thresholds wants lo < hi, got {text!r}")
    return lo, hi


def _when(text: str | None) -> int | None:
    if text is None:
        return None
    try:
        return utc_timestamp(text)
    except ValueError as exc:
        raise ParameterError(f"bad ISO date/datetime {text!r} ({exc})") from exc


def _log_and_spec(args) -> tuple[MessageLog, WindowSpec]:
    """The log at ``args.input`` and the window flags' spec; the load's
    counts go to ``args.counts`` for the manifest."""
    spec = WindowSpec(
        delta_t=args.interval * 60,
        alignment=args.align,
        time_range=(_when(args.from_when), _when(args.to_when)),
    )
    args.counts = {}
    return load_log(args.input, args.counts), spec


def _scored(args, users=None) -> list[WindowMetrics]:
    """Score each conversation of the ensemble at ``args.input`` as it is read.

    ``conversation_metrics`` scores them, so each window holds its metrics
    and columns, not its network. Given ``users``, only the conversations
    holding one of them are scored. A bad line raises before any write.
    """
    networks = ensemble_networks(args.input)
    if users is not None:
        networks = (net for net in networks if not users.isdisjoint(net.nodes))
    return conversation_metrics(networks)


def _classified(args, wms, thresholds: tuple[float, float]):
    """Classify the scored windows by the parsed ``--thresholds`` and ``--std``."""
    low, high = thresholds
    stats = ensemble_stats(wms, std=_STD_MODES[args.std])
    return zscore_classify(wms, stats, low=low, high=high)


# ---------------------------------------------------------------------------
# artifact emitters (shared between the step commands and `report`)

# ``ints``, given to the emitters that write node IDs, is one int -> text
# cache, so that report formats each ID once for the ensemble and the
# centralities both.

def _emit_ensemble(outdir: Path, networks, ints: _Reprs) -> list[str]:
    _write_artifact(outdir / "ensemble.jsonl", ensemble_lines(networks, ints))
    return ["ensemble.jsonl"]


def _emit_metrics(outdir: Path, wms, ints: _Reprs) -> list[str]:
    def metrics_rows():
        # windows of one shape share their metrics object, and so its text
        tails: dict[int, str] = {}
        for w in wms:
            m = w.metrics
            tail = tails.get(id(m))
            if tail is None:
                tail = tails[id(m)] = (
                    f"{m.n},{m.total_weight},{m.equality!r},{m.intensity!r},{m.ei!r}\n"
                )
            yield f"{w.window_start},{w.window_index},{tail}"

    _write_csv(
        outdir / "metrics.csv",
        "window_start,window_index,n,total_weight,equality,intensity,ei",
        metrics_rows(),
    )
    reprs = _Reprs()  # centralities are strictly positive floats, never -0.0
    _write_csv(
        outdir / "centralities.csv",
        "window_start,user_id,strength,ei_centrality",
        (
            f"{start}{ints[user]},{ints[s]},{reprs[s * scale]}\n"
            for w in wms
            for start, (users, strengths, scale) in ((f"{w.window_start},", w.columns()),)
            for user, s in zip(users, strengths)
        ),
    )
    return ["metrics.csv", "centralities.csv"]


def _emit_classify(outdir: Path, classified) -> list[str]:
    def classified_rows():
        # z and the label are functions of ei for fixed stats and thresholds;
        # ei is strictly positive, so no key is -0.0
        tails: dict[float, str] = {}
        for c in classified:
            tail = tails.get(c.ei)
            if tail is None:
                tail = tails[c.ei] = f"{c.ei!r},{c.z!r},{c.label.value}\n"
            yield f"{c.window_index},{tail}"

    _write_csv(outdir / "classified.csv", "window_index,ei,z,label", classified_rows())
    hist = zscore_histogram(classified)
    _write_artifact(outdir / "histogram.json", (json.dumps(hist), "\n"))
    return ["classified.csv", "histogram.json"]


def _emit_rankings(outdir: Path, rankings) -> list[str]:
    files = []
    for scope, ranking in rankings.items():
        name = f"ranking_{scope.value}.csv"
        _write_csv(
            outdir / name,
            "rank,user_id,mean_ei_centrality",
            (
                f"{rank},{user},{mean!r}\n"
                for rank, (user, mean) in enumerate(ranking.entries, start=1)
            ),
        )
        files.append(name)
    return files


def _emit_compare(outdir: Path, cmp) -> list[str]:
    _write_csv(
        outdir / "period_compare.csv",
        "user_id,whole,p1,p2,diff",
        (f"{r.user},{r.whole!r},{r.p1!r},{r.p2!r},{r.diff!r}\n" for r in cmp.rows),
    )
    plot = {
        "split": cmp.split,
        "users": [r.user for r in cmp.rows],
        "whole": [r.whole for r in cmp.rows],
        "p1": [r.p1 for r in cmp.rows],
        "p2": [r.p2 for r in cmp.rows],
        "diff": [r.diff for r in cmp.rows],
    }
    _write_artifact(outdir / "period_compare_plot.json", (json.dumps(plot), "\n"))
    return ["period_compare.csv", "period_compare_plot.json"]


# ---------------------------------------------------------------------------
# commands
#
# Each handler writes its artifacts into ``outdir`` and returns their names;
# ``main`` records the manifest from the parsed flags once the handler returns.

def _cmd_parse(args, outdir: Path) -> list[str]:
    # the zone, salt and prior mapping are read before the export
    zone, salt = _resolve_zone(args.tz), None
    if args.salt is not None:
        try:
            salt = bytes.fromhex(args.salt)
        except ValueError as exc:
            raise ParameterError(f"--salt must be hex, got {args.salt!r}") from exc
    prior = read_mapping(args.mapping_in) if args.mapping_in else None
    parsed = parse_transcript(
        utf8_lines(args.input, ParseError),
        tz=zone,
        profile=args.profile,
        slack=args.slack,
    )
    anon = anonymize(parsed, salt=salt, prior_mapping=prior)
    args.salt = anon.salt.hex()  # the manifest records the salt actually used

    log_name = f"log.{args.format}"
    _write_artifact(outdir / log_name, log_lines(anon.log, args.format))
    _write_artifact(outdir / "mapping.csv", (dump_mapping(anon.mapping),))
    return [log_name, "mapping.csv"]


def _cmd_build(args, outdir: Path) -> list[str]:
    # each network is written as it is built; no ensemble is held
    return _emit_ensemble(outdir, window_networks(*_log_and_spec(args)), _Reprs())


def _cmd_metrics(args, outdir: Path) -> list[str]:
    return _emit_metrics(outdir, _scored(args), _Reprs())


def _cmd_classify(args, outdir: Path) -> list[str]:
    thresholds = _parse_thresholds(args.thresholds)  # read before the ensemble
    score = window_scorer()
    wms = [  # a class reads only the metrics, so no window gets columns
        WindowMetrics(net.window_start, net.window_index, score(net))
        for net in ensemble_networks(args.input)
        if net.is_conversation
    ]
    return _emit_classify(outdir, _classified(args, wms, thresholds))


def _cmd_rank(args, outdir: Path) -> list[str]:
    thresholds = _parse_thresholds(args.thresholds)  # read before the ensemble
    wms = _scored(args)
    classified = _classified(args, wms, thresholds)
    return _emit_rankings(outdir, rank_users(wms, classified, args.top_k, avg=args.avg))


def _cmd_series(args, outdir: Path) -> list[str]:
    users = list(dict.fromkeys(args.user))  # each user once, first seen first
    wms = _scored(args, users=frozenset(users))
    for user in users:
        _write_csv(
            outdir / f"series_{user}.csv",
            "window_start,ei_centrality",
            (f"{start},{value!r}\n" for start, value in user_series(wms, user).points),
        )
    return [f"series_{user}.csv" for user in users]


def _cmd_compare(args, outdir: Path) -> list[str]:
    split = _when(args.split)  # read before the ensemble is loaded
    cmp = period_compare(_scored(args), split, top_k=args.top_k, avg=args.avg)
    return _emit_compare(outdir, cmp)


def _cmd_simulate(args, outdir: Path) -> list[str]:
    regime = Regime(
        kind=args.regime,
        users=args.users,
        rate=args.rate,
        windows=args.windows,
        seed=args.seed,
        dropouts=args.dropouts,
        split_window=args.split_window,
    )
    result = generate(regime, WindowSpec(delta_t=args.interval * 60))
    log_name = f"log.{args.format}"
    _write_artifact(outdir / log_name, log_lines(result.log, args.format))
    _write_artifact(outdir / "ground_truth.jsonl", (dump_ground_truth(result),))
    return [log_name, "ground_truth.jsonl"]


def _cmd_report(args, outdir: Path) -> list[str]:
    # every flag is read before the first artifact is written
    thresholds = _parse_thresholds(args.thresholds)
    split = _when(args.split)
    score, wms, ints = window_scorer(), [], _Reprs()

    def scored(networks):
        # each network is scored once its line is written, then dropped
        for net in networks:
            yield net
            if net.is_conversation:
                wms.append(scored_window(net, score(net)))

    files = _emit_ensemble(outdir, scored(window_networks(*_log_and_spec(args))), ints)
    files += _emit_metrics(outdir, wms, ints)
    classified = _classified(args, wms, thresholds)
    files += _emit_classify(outdir, classified)
    # one pass sums the rankings' class means and the comparison's period
    # means, with GLOBAL, which both share
    labels = [c.label for c in classified]
    if split is None:
        (by_class,) = scope_means(wms, args.avg, labels)
    else:
        by_class, by_period = scope_means(
            wms, args.avg, labels, split_periods(wms, split)
        )
    files += _emit_rankings(outdir, rank_means(by_class, args.top_k))
    if split is not None:
        files += _emit_compare(outdir, compare_means(by_period, split))
    return files


# ---------------------------------------------------------------------------
# parser

def _int_at_least(low: int):
    """An argparse type for integer flags, checked before the command runs."""
    def int_(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    int_.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return int_


_POSITIVE = _int_at_least(1)
_NON_NEGATIVE = _int_at_least(0)


def _add_window_flags(sp) -> None:
    sp.add_argument("--interval", type=_POSITIVE, default=10, metavar="MINUTES",
                    help="window length in minutes (default 10)")
    sp.add_argument("--align", choices=["wall", "first"], default="wall",
                    help="window alignment: wall clock or first message")
    sp.add_argument("--from", dest="from_when", default=None, metavar="ISO",
                    help="keep events at/after this UTC date or datetime"
                    " (whole seconds)")
    sp.add_argument("--to", dest="to_when", default=None, metavar="ISO",
                    help="keep events before this UTC date or datetime"
                    " (whole seconds)")


def _add_class_flags(sp) -> None:
    sp.add_argument("--thresholds", default="-1,1", metavar="LO,HI",
                    help="z-score class boundaries (default -1,1)")
    sp.add_argument("--std", choices=sorted(_STD_MODES), default="pop",
                    help="standard deviation mode (default pop)")


def _add_avg(sp) -> None:
    sp.add_argument("--avg", choices=[AVG_ZERO, AVG_PRESENT], default=AVG_ZERO,
                    help="absent users count as zero, or average over appearances")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ParameterError instead of exiting."""

    def error(self, message):
        raise ParameterError(f"{self.prog}: {message}")


# Built once per process: the tree is a few hundred objects in reference
# cycles, which a paused collector would otherwise leave behind on every call.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="chatpulse",
        description="Engagement analytics for group chats from (user, timestamp) "
        "metadata: per-window interaction networks, engagement index, z-score "
        "classes, user rankings, and period comparison.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, input_help="ensemble.jsonl"):
        """A subcommand with its handler, positional input (if any) and --out."""
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(handler=handler)
        if input_help is not None:
            sp.add_argument("input", help=input_help)
        sp.add_argument("--out", required=True, help="output directory")
        return sp

    # the manifest records each command's flags in the order they are added
    sp = command("parse", _cmd_parse,
                 "parse a transcript export into an anonymized log",
                 input_help="transcript text export")
    sp.add_argument("--profile", default=DEFAULT_PROFILE, choices=list(PROFILES))
    sp.add_argument("--tz", default="UTC", help="timezone of the export (default UTC)")
    sp.add_argument("--slack", type=_NON_NEGATIVE, default=0, metavar="SECONDS",
                    help="tolerated backward timestamp jitter (default 0)")
    sp.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    sp.add_argument("--salt", default=None, metavar="HEX",
                    help="anonymization salt; generated when omitted")
    sp.add_argument("--mapping-in", default=None, metavar="PATH",
                    help="prior mapping.csv whose IDs must be preserved")

    sp = command("build", _cmd_build, "slice a log into windows and build networks",
                 input_help="canonical log (csv or jsonl)")
    _add_window_flags(sp)

    command("metrics", _cmd_metrics, "per-window engagement metrics and centralities")

    sp = command("classify", _cmd_classify, "z-score classes per conversation network")
    _add_class_flags(sp)

    sp = command("rank", _cmd_rank, "user rankings per engagement class")
    sp.add_argument("--top-k", type=_POSITIVE, default=10)
    _add_avg(sp)
    _add_class_flags(sp)

    sp = command("series", _cmd_series, "per-user engagement time series")
    sp.add_argument("--user", type=_NON_NEGATIVE, action="append", required=True,
                    help="user ID (repeatable)")

    sp = command("compare", _cmd_compare, "period-over-period engagement differences")
    sp.add_argument("--split", required=True, metavar="ISO",
                    help="boundary UTC date or datetime (whole seconds); the"
                    " boundary belongs to the second period")
    sp.add_argument("--top-k", type=_POSITIVE, default=None)
    _add_avg(sp)

    sp = command("simulate", _cmd_simulate,
                 "generate a synthetic log with ground truth", input_help=None)
    sp.add_argument("--regime", required=True, choices=REGIME_KINDS)
    sp.add_argument("--users", type=int, required=True)
    sp.add_argument("--rate", type=int, required=True, help="messages per window")
    sp.add_argument("--windows", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dropouts", type=int, default=0)
    sp.add_argument("--split-window", type=int, default=None)
    sp.add_argument("--interval", type=_POSITIVE, default=10, metavar="MINUTES")
    sp.add_argument("--format", choices=["csv", "jsonl"], default="csv")

    sp = command("report", _cmd_report, "full pipeline: build, metrics, classify, rank",
                 input_help="canonical log (csv or jsonl)")
    _add_window_flags(sp)
    _add_class_flags(sp)
    _add_avg(sp)
    sp.add_argument("--top-k", type=_POSITIVE, default=10)
    sp.add_argument("--split", default=None, metavar="ISO",
                    help="also emit period comparison artifacts, split at this"
                    " UTC date or datetime (whole seconds)")

    return parser


def _fail(kind: str, exc: Exception, code: int) -> int:
    print(json.dumps({"error": kind, "detail": str(exc)}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    # A command allocates many long-lived objects and no reference cycles, so
    # the cyclic collector would only traverse them again and again; it stays
    # paused while the command runs and is restored as the caller had it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)  # may raise ParameterError
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        inputs = _input_digests(args)
        _write_manifest(outdir, args, inputs, args.handler(args, outdir))
        return EXIT_OK
    except ParseError as exc:  # includes OrderingError
        return _fail("parse", exc, EXIT_PARSE)
    except SchemaError as exc:  # includes MappingConflictError
        return _fail("schema", exc, EXIT_SCHEMA)
    except (InsufficientDataError, NotAConversationError) as exc:
        return _fail("insufficient-data", exc, EXIT_INSUFFICIENT)
    except ParameterError as exc:
        return _fail("parameter", exc, EXIT_USAGE)
    except OSError as exc:
        return _fail("io", exc, EXIT_IO)
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
