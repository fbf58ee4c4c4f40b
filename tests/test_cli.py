"""End-to-end CLI behavior: artifacts, composition, idempotency, exit codes."""

from __future__ import annotations

import gc
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chatpulse
from chatpulse import chatlog, cli, engagement, ensemble
from chatpulse.cli import (
    EXIT_INSUFFICIENT,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SCHEMA,
    EXIT_USAGE,
    main,
)
from chatpulse.netbuild import InteractionNetwork

TRANSCRIPT = "\n".join(
    [
        "3/7/18, 23:30 - Messages to this group are now secured with "
        "end-to-end encryption. Tap for more info.",
        "3/7/18, 23:31 - Alice: hello",
        "3/7/18, 23:32 - Bob: hi",
        "continuation of Bob's message",
        "3/7/18, 23:39 - Alice: <Media omitted>",
        "3/7/18, 23:41 - Carol: hey all",
        "3/7/18, 23:45 - Alice: responding",
        "3/7/18, 23:52 - Bob: later",
        "3/7/18, 23:55 - Carol: bye",
    ]
)


def run(*argv) -> int:
    return main([str(a) for a in argv])


def simulate(tmp_path, **overrides):
    out = tmp_path / "sim"
    args = {
        "regime": "uniform-random",
        "users": 8,
        "rate": 7,
        "windows": 24,
        "seed": 5,
    } | overrides
    argv = ["simulate", "--out", out]
    for key, value in args.items():
        if value is not None:
            argv += [f"--{key.replace('_', '-')}", value]
    assert run(*argv) == EXIT_OK
    return out / "log.csv"


def artifacts(path, skip=("manifest.json",)) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(path.iterdir())
        if p.name not in skip
    }


def test_parse_writes_log_and_mapping(tmp_path):
    export = tmp_path / "chat.txt"
    export.write_text(TRANSCRIPT)
    out = tmp_path / "parsed"
    assert run("parse", export, "--out", out, "--salt", "ab" * 16) == EXIT_OK
    assert (out / "log.csv").exists()
    lines = (out / "mapping.csv").read_text().splitlines()
    assert lines[0] == "hashed_sender,user_id"
    assert len(lines) == 4  # three senders
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "parse"
    assert manifest["parameters"]["salt"] == "ab" * 16
    assert str(export) in manifest["inputs"]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_parse_log_is_the_same_across_batch_edges(tmp_path, monkeypatch, fmt):
    export = tmp_path / "chat.txt"
    export.write_text(TRANSCRIPT)

    def parsed_log(name):
        out = tmp_path / name
        argv = ("parse", export, "--out", out, "--salt", "ab" * 16, "--format", fmt)
        assert run(*argv) == EXIT_OK
        return (out / f"log.{fmt}").read_bytes()

    whole = parsed_log("default")
    for batch in (1, 2):  # seven rows, so the last batch of two holds one
        monkeypatch.setattr(chatlog, "LOG_BATCH", batch)
        assert parsed_log(f"batch-{batch}") == whole


def failing_chunks():
    yield "window_start,user_id\n"
    raise RuntimeError("chunk failed")


@pytest.mark.parametrize(
    "chunks, error",
    [(failing_chunks, RuntimeError), (lambda: ["ok\n", b"not text"], TypeError)],
    ids=["iterator-raises", "write-raises"],
)
def test_failed_artifact_write_keeps_the_old_file(tmp_path, chunks, error):
    path = tmp_path / "centralities.csv"
    path.write_text("old\n")
    with pytest.raises(error):
        cli._write_artifact(path, chunks())
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["centralities.csv"]


ENS_DEFAULTS = {"input": "ENS", "out": "OUT"}


@pytest.mark.parametrize(
    "argv, parameters",
    [
        (
            ["parse", "CHAT", "--salt", "ab" * 16, "--tz", "America/Sao_Paulo",
             "--slack", 60, "--format", "jsonl", "--mapping-in", "MAP"],
            {"input": "CHAT", "out": "OUT", "profile": "whatsapp-en-dash",
             "tz": "America/Sao_Paulo", "slack": 60, "format": "jsonl",
             "salt": "ab" * 16, "mapping_in": "MAP"},
        ),
        (
            ["build", "LOG", "--interval", 5, "--align", "first",
             "--from", "2018-08-01", "--to", "2018-08-02"],
            {"input": "LOG", "out": "OUT", "interval": 5, "align": "first",
             "from": "2018-08-01", "to": "2018-08-02"},
        ),
        (["metrics", "ENS"], ENS_DEFAULTS),
        (
            ["classify", "ENS", "--thresholds=-0.5,0.5", "--std", "sample"],
            ENS_DEFAULTS | {"thresholds": "-0.5,0.5", "std": "sample"},
        ),
        (
            ["rank", "ENS", "--top-k", 3, "--avg", "present"],
            ENS_DEFAULTS
            | {"top_k": 3, "avg": "present", "thresholds": "-1,1", "std": "pop"},
        ),
        (
            ["series", "ENS", "--user", 0, "--user", 3],
            ENS_DEFAULTS | {"user": [0, 3]},
        ),
        (
            ["compare", "ENS", "--split", "2018-08-01T02:00"],
            ENS_DEFAULTS | {"split": "2018-08-01T02:00", "top_k": None, "avg": "zero"},
        ),
        (
            ["simulate", "--regime", "broadcaster", "--users", 5, "--rate", 6,
             "--windows", 4],
            {"out": "OUT", "regime": "broadcaster", "users": 5, "rate": 6,
             "windows": 4, "seed": 0, "dropouts": 0, "split_window": None,
             "interval": 10, "format": "csv"},
        ),
        (
            ["report", "LOG", "--split", "2018-08-01T02:00"],
            {"input": "LOG", "out": "OUT", "interval": 10, "align": "wall",
             "from": None, "to": None, "thresholds": "-1,1",
             "std": "pop", "avg": "zero", "top_k": 10, "split": "2018-08-01T02:00"},
        ),
    ],
)
def test_manifest_records_every_flag(tmp_path, argv, parameters):
    log = simulate(tmp_path)
    assert run("build", log, "--out", tmp_path / "built") == EXIT_OK
    chat = tmp_path / "chat.txt"
    chat.write_text(TRANSCRIPT)
    assert run("parse", chat, "--out", tmp_path / "first") == EXIT_OK
    paths = {
        "CHAT": str(chat),
        "LOG": str(log),
        "ENS": str(tmp_path / "built" / "ensemble.jsonl"),
        "MAP": str(tmp_path / "first" / "mapping.csv"),
        "OUT": str(tmp_path / "out"),
    }
    assert run(*[paths.get(a, a) for a in argv], "--out", paths["OUT"]) == EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    expected = {key: paths.get(value, value) if isinstance(value, str) else value
                for key, value in parameters.items()}
    assert manifest["command"] == argv[0]
    assert list(manifest["parameters"].items()) == list(expected.items())
    inputs = [expected[k] for k in ("input", "mapping_in") if expected.get(k)]
    assert list(manifest["inputs"]) == inputs


def test_parse_records_the_generated_salt(tmp_path):
    export = tmp_path / "chat.txt"
    export.write_text(TRANSCRIPT)
    assert run("parse", export, "--out", tmp_path / "a") == EXIT_OK
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    salt = manifest["parameters"]["salt"]
    assert run("parse", export, "--out", tmp_path / "b", "--salt", salt) == EXIT_OK
    assert artifacts(tmp_path / "a") == artifacts(tmp_path / "b")


def test_manifest_records_the_input_as_read(tmp_path):
    # the parsed log overwrites the transcript it was parsed from
    export = tmp_path / "log.csv"
    export.write_text(TRANSCRIPT)
    digest = hashlib.sha256(export.read_bytes()).hexdigest()
    assert run("parse", export, "--out", tmp_path, "--salt", "ab") == EXIT_OK
    assert export.read_text().startswith("user_id,timestamp\n")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["inputs"] == {str(export): digest}


def test_parse_same_salt_is_reproducible(tmp_path):
    export = tmp_path / "chat.txt"
    export.write_text(TRANSCRIPT)
    out = tmp_path / "parsed"
    snapshots = []
    for _ in range(2):
        assert run("parse", export, "--out", out, "--salt", "11" * 8) == EXIT_OK
        snapshots.append(artifacts(out, skip=()))
    assert snapshots[0] == snapshots[1]


def test_parse_malformed_exits_parse_code(tmp_path, capsys):
    export = tmp_path / "bad.txt"
    export.write_text("utter nonsense\nmore nonsense")
    assert run("parse", export, "--out", tmp_path / "o") == EXIT_PARSE
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parse" and "line 1" in err["detail"]


def test_missing_input_exits_io_code(tmp_path, capsys):
    assert run("build", tmp_path / "nope.csv", "--out", tmp_path / "o") == EXIT_IO
    assert json.loads(capsys.readouterr().err)["error"] == "io"


def test_schema_junk_exits_schema_code(tmp_path, capsys):
    bad = tmp_path / "log.csv"
    bad.write_text("wrong,header\n1,2\n")
    assert run("build", bad, "--out", tmp_path / "o") == EXIT_SCHEMA
    assert json.loads(capsys.readouterr().err)["error"] == "schema"


def test_unknown_time_zone_exits_usage_code(tmp_path, capsys):
    export = tmp_path / "chat.txt"
    export.write_text(TRANSCRIPT)
    assert run("parse", export, "--out", tmp_path / "o", "--tz", "Not/AZone") == EXIT_USAGE
    assert json.loads(capsys.readouterr().err)["error"] == "parameter"


@pytest.mark.parametrize(
    "argv, code, kind",
    [
        (["build", "BAD"], EXIT_SCHEMA, "schema"),  # log
        (["metrics", "BAD"], EXIT_SCHEMA, "schema"),  # ensemble
        (["parse", "BAD"], EXIT_PARSE, "parse"),  # transcript
        (["parse", "CHAT", "--mapping-in", "BAD"], EXIT_SCHEMA, "schema"),
    ],
)
def test_non_utf8_input_exits_with_its_code(tmp_path, capsys, argv, code, kind):
    paths = {"BAD": tmp_path / "bad", "CHAT": tmp_path / "chat.txt"}
    paths["BAD"].write_bytes(b"user_id,timestamp\n\xff\xfe,1\n")
    paths["CHAT"].write_text(TRANSCRIPT)
    assert run(*[paths.get(a, a) for a in argv], "--out", tmp_path / "o") == code
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == kind and "UTF-8" in err["detail"]


# csv.reader refuses fields longer than csv.field_size_limit() (131072)
HUGE_FIELD = "1" * 140_000


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["build", "BAD"], f"user_id,timestamp\n0,100\n{HUGE_FIELD},200\n"),
        (
            ["parse", "CHAT", "--mapping-in", "BAD"],
            f"hashed_sender,user_id\nab,0\n{HUGE_FIELD},1\n",
        ),
    ],
    ids=["log", "mapping"],
)
def test_oversized_csv_field_exits_schema_code(tmp_path, capsys, argv, bad):
    paths = {"BAD": tmp_path / "bad.csv", "CHAT": tmp_path / "chat.txt"}
    paths["BAD"].write_text(bad)
    paths["CHAT"].write_text(TRANSCRIPT)
    assert run(*[paths.get(a, a) for a in argv], "--out", tmp_path / "o") == EXIT_SCHEMA
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "schema"
    assert err["detail"].startswith(f"{paths['BAD']}: line 3: field larger than")


# a JSON value Python cannot decode, after a valid line: an int longer than
# the digit limit raises ValueError, deep nesting RecursionError
@pytest.mark.parametrize("kind", ["long-int", "deep"])
@pytest.mark.parametrize(
    "command, name, first, second",
    [
        ("metrics", "ensemble.jsonl", '{"w":0,"i":0,"nodes":[0,1],"edges":[[0,1,1]]}',
         '{"w":600,"i":1,"nodes":[0,1],"edges":[[0,1,%s]]}'),
        ("build", "log.jsonl", '{"u":0,"t":100}', '{"u":1,"t":%s}'),
        ("report", "log.jsonl", '{"u":0,"t":100}', '{"u":%s,"t":200}'),
    ],
    ids=["metrics", "build", "report"],
)
def test_undecodable_json_line_exits_schema_code(
    tmp_path, capsys, kind, command, name, first, second
):
    if kind == "long-int":
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this Python has no integer digit limit")
        value = "1" * (limit + 1)
    else:
        value = "[" * 200_000
    path, out = tmp_path / name, tmp_path / "out"
    path.write_text(f"{first}\n{second % value}\n")
    assert run(command, path, "--out", out) == EXIT_SCHEMA
    [line] = capsys.readouterr().err.splitlines()
    detail = f"{path}: line 2: invalid JSON"
    assert json.loads(line) == {"error": "schema", "detail": detail}
    assert list(out.iterdir()) == []  # no artifact, no .tmp


def test_classify_single_network_is_insufficient(tmp_path, capsys):
    ens = tmp_path / "ensemble.jsonl"
    ens.write_text('{"w":0,"i":0,"nodes":[0,1],"edges":[[0,1,3]]}\n')
    assert run("classify", ens, "--out", tmp_path / "o") == EXIT_INSUFFICIENT
    assert json.loads(capsys.readouterr().err)["error"] == "insufficient-data"


def test_bad_thresholds_exit_usage(tmp_path, capsys):
    log = simulate(tmp_path)
    out = tmp_path / "r"
    assert run("build", log, "--out", out) == EXIT_OK
    for thresholds in ("5", "1,-1", "nan,1", "-inf,inf"):
        assert run(
            "classify", out / "ensemble.jsonl", "--out", out,
            f"--thresholds={thresholds}",
        ) == EXIT_USAGE
        assert json.loads(capsys.readouterr().err)["error"] == "parameter"


def test_negative_slack_exits_usage(tmp_path, capsys):
    export = tmp_path / "chat.txt"
    export.write_text(TRANSCRIPT)
    assert run("parse", export, "--out", tmp_path / "o", "--slack", -5) == EXIT_USAGE
    assert json.loads(capsys.readouterr().err)["error"] == "parameter"


@pytest.mark.parametrize(
    "argv, named",
    [
        (["report", "LOG", "--out", "OUT", "--top-k", "abc"], "--top-k"),
        (["report", "LOG", "--out", "OUT", "--bogus"], "--bogus"),
        (["report", "LOG", "--out", "OUT", "--group-name", "g"], "--group-name"),
        (["simulate", "--out", "OUT", "--regime", "nope", "--users", 3,
          "--rate", 2, "--windows", 2], "nope"),
        ([], "command"),
    ],
)
def test_usage_errors_print_one_json_line(tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    assert run(*[out if a == "OUT" else a for a in argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "parameter" and named in err["detail"]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["report", "LOG", "--interval", -5], "--interval"),
        (["report", "LOG", "--interval", 0], "--interval"),
        (["build", "LOG", "--interval", 0], "--interval"),
        (["simulate", "--regime", "uniform-random", "--users", 3, "--rate", 2,
          "--windows", 2, "--interval", -1], "--interval"),
        (["report", "LOG", "--top-k", 0], "--top-k"),
        (["rank", "ENS", "--top-k", 0], "--top-k"),
        (["compare", "ENS", "--split", "2018-08-01T02:00", "--top-k", -3], "--top-k"),
        (["series", "ENS", "--user", 0, "--user", -1], "--user"),
        (["parse", "CHAT", "--slack", -5], "--slack"),
    ],
)
def test_out_of_range_flags_exit_before_any_artifact(tmp_path, capsys, argv, named):
    log = simulate(tmp_path)
    assert run("build", log, "--out", tmp_path / "built") == EXIT_OK
    chat = tmp_path / "chat.txt"
    chat.write_bytes(b"\xff\n")  # not UTF-8: parse would exit 3 if it read it
    paths = {"LOG": log, "ENS": tmp_path / "built" / "ensemble.jsonl", "CHAT": chat}
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*[paths.get(a, a) for a in argv], "--out", out) == EXIT_USAGE
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "parameter"
    assert f"argument {named}: must be >= " in err["detail"]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["report", "LOG", "--split", "not-a-date"], "not-a-date"),
        (["compare", "ENS", "--split", "not-a-date"], "not-a-date"),
        (["report", "LOG", "--thresholds=1,-1"], "--thresholds"),
        (["report", "LOG", "--from", "not-a-date"], "not-a-date"),
        (["build", "LOG", "--to", "not-a-date"], "not-a-date"),
        (["classify", "ENS", "--thresholds=1,-1"], "--thresholds"),
        (["rank", "ENS", "--thresholds=nan,1"], "--thresholds"),
        (["parse", "CHAT", "--salt", "not-hex"], "--salt"),
        (["parse", "CHAT", "--salt", "zz", "--mapping-in", "MAP"], "--salt"),
        (["parse", "CHAT", "--tz", "Bogus/Zone"], "Bogus/Zone"),
    ],
)
def test_bad_flag_values_exit_before_any_input_is_read(
    tmp_path, capsys, monkeypatch, argv, named
):
    log = simulate(tmp_path)
    assert run("build", log, "--out", tmp_path / "built") == EXIT_OK
    chat = tmp_path / "chat.txt"
    chat.write_text(TRANSCRIPT)
    assert run("parse", chat, "--out", tmp_path / "parsed") == EXIT_OK
    paths = {
        "LOG": log, "ENS": tmp_path / "built" / "ensemble.jsonl", "CHAT": chat,
        "MAP": tmp_path / "parsed" / "mapping.csv",
    }

    def unexpected_load(source, *args, **kwargs):
        raise AssertionError(f"{source} loaded before the flags were read")

    loaders = (
        "load_log", "parse_transcript", "read_mapping", "ensemble_networks", "utf8_lines"
    )
    for loader in loaders:
        monkeypatch.setattr(cli, loader, unexpected_load)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*[paths.get(a, a) for a in argv], "--out", out) == EXIT_USAGE
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "parameter" and named in err["detail"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("export", ["utf-8", "not utf-8"])
def test_parse_reads_a_bad_mapping_before_the_export(
    tmp_path, capsys, monkeypatch, export
):
    chat = tmp_path / "chat.txt"
    if export == "utf-8":
        chat.write_text(TRANSCRIPT)
    else:  # the mapping's error is reported, not the export's
        chat.write_bytes(b"\xff\n")
    mapping = tmp_path / "mapping.csv"
    mapping.write_text("hashed_sender,user_id\nnot-a-pair\n")

    def unexpected_read(source, *args, **kwargs):
        raise AssertionError(f"{source} read before the prior mapping")

    monkeypatch.setattr(cli, "utf8_lines", unexpected_read)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("parse", chat, "--out", out, "--mapping-in", mapping) == EXIT_SCHEMA
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": "schema",
        "detail": f"{mapping}: malformed mapping row ['not-a-pair']",
    }
    assert list(out.iterdir()) == []


# one message a second from 2018-08-01T00:00:00 UTC, alternating two users
SECONDS_LOG = "user_id,timestamp\n0,1533081600\n1,1533081601\n0,1533081602\n1,1533081603\n"


@pytest.mark.parametrize(
    "argv",
    [
        # truncated to :00, this --from kept the message sent at :00
        ["build", "LOG", "--from", "2018-08-01T00:00:00.5"],
        # truncated to :02, this --to dropped the message sent at :02
        ["build", "LOG", "--to", "2018-08-01T00:00:02.5"],
        ["report", "LOG", "--split", "2018-08-01T00:00:01.25Z"],
        ["compare", "ENS", "--split", "2018-08-01T00:00:01.999999"],
    ],
)
def test_a_bound_between_whole_seconds_exits_before_any_artifact(
    tmp_path, capsys, argv
):
    log = tmp_path / "log.csv"
    log.write_text(SECONDS_LOG)
    assert run("build", log, "--out", tmp_path / "built") == EXIT_OK
    paths = {"LOG": log, "ENS": tmp_path / "built" / "ensemble.jsonl"}
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*[paths.get(a, a) for a in argv], "--out", out) == EXIT_USAGE
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "parameter"
    assert argv[-1] in err["detail"] and "not a whole second" in err["detail"]
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("flag, bound, weight", [
    ("--from", "2018-08-01T00:00:01", 2),
    ("--from", "2018-08-01T00:00:00.000", 3),
    ("--to", "2018-08-01T00:00:03.000000Z", 2),
])
def test_a_whole_second_bound_with_a_zero_fraction_is_kept(
    tmp_path, flag, bound, weight
):
    log = tmp_path / "log.csv"
    log.write_text(SECONDS_LOG)
    out = tmp_path / "out"
    assert run("build", log, "--out", out, flag, bound) == EXIT_OK
    [network] = map(json.loads, (out / "ensemble.jsonl").read_text().splitlines())
    assert network["edges"] == [[0, 1, weight]]


# each subcommand's positional input and its help text; simulate has none
INPUT_HELP = {
    "parse": "transcript text export",
    "build": "canonical log (csv or jsonl)",
    "metrics": "ensemble.jsonl",
    "classify": "ensemble.jsonl",
    "rank": "ensemble.jsonl",
    "series": "ensemble.jsonl",
    "compare": "ensemble.jsonl",
    "simulate": None,
    "report": "canonical log (csv or jsonl)",
}


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["report", "--help"], ["--version"]]
    + [[command, "--help"] for command in INPUT_HELP if command != "report"],
)
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.strip()
    if argv[0] in INPUT_HELP:
        assert "--out" in out
        input_line = re.search(r"^ +input +(.*)$", out, re.M)
        if INPUT_HELP[argv[0]] is None:
            assert input_line is None
        else:
            assert input_line.group(1) == INPUT_HELP[argv[0]]


def test_report_on_round_robin_gives_equality_one_everywhere(tmp_path):
    log = simulate(tmp_path, regime="round-robin", users=4, rate=9, windows=24)
    out = tmp_path / "report"
    # identical windows leave z-scores undefined; report keeps the completed
    # stage artifacts and exits with the insufficient-data code, exactly as
    # the stepwise pipeline would
    assert run("report", log, "--out", out) == EXIT_INSUFFICIENT
    lines = (out / "metrics.csv").read_text().splitlines()
    header = lines[0].split(",")
    eq_col = header.index("equality")
    assert len(lines) > 1
    for line in lines[1:]:
        assert float(line.split(",")[eq_col]) == 1.0


@pytest.mark.parametrize(
    "regime",
    [
        {"regime": "round-robin", "users": 3, "rate": 3, "windows": 1},
        {"regime": "round-robin", "users": 4, "rate": 9, "windows": 24},
    ],
    ids=["one-conversation", "equal-ei"],
)
def test_failed_report_into_a_used_directory_leaves_no_manifest(tmp_path, regime):
    out = tmp_path / "mix"
    assert run("report", simulate(tmp_path), "--out", out,
               "--split", "2018-08-01T02:00") == EXIT_OK
    first = artifacts(out)
    failing = simulate(tmp_path / "failing", **regime)
    assert run("report", failing, "--out", out) == EXIT_INSUFFICIENT
    # the directory mixes both runs' artifacts, and no manifest names either
    assert not (out / "manifest.json").exists()
    alone = tmp_path / "alone"
    assert run("report", failing, "--out", alone) == EXIT_INSUFFICIENT
    written = artifacts(alone)
    assert "ensemble.jsonl" in written and set(written) < set(first)
    assert artifacts(out) == first | written


def test_failure_before_the_first_artifact_leaves_the_directory_as_it_was(tmp_path):
    log = simulate(tmp_path)
    out = tmp_path / "used"
    assert run("report", log, "--out", out) == EXIT_OK
    before = artifacts(out, skip=())
    bad = tmp_path / "bad.csv"
    bad.write_text("user_id,timestamp\nx,1\n")
    assert run("report", bad, "--out", out) == EXIT_SCHEMA
    assert run("report", log, "--out", out, "--split", "not-a-date") == EXIT_USAGE
    assert artifacts(out, skip=()) == before


def test_pipeline_composition_matches_report(tmp_path):
    log = simulate(tmp_path)
    split = "2018-08-01T02:00"  # halfway through the 24 simulated windows
    stepwise = tmp_path / "stepwise"
    assert run("build", log, "--out", stepwise) == EXIT_OK
    ens = stepwise / "ensemble.jsonl"
    assert run("metrics", ens, "--out", stepwise) == EXIT_OK
    assert run("classify", ens, "--out", stepwise) == EXIT_OK
    assert run("rank", ens, "--out", stepwise) == EXIT_OK
    assert run("compare", ens, "--out", stepwise, "--split", split) == EXIT_OK
    assert run("series", ens, "--out", stepwise, "--user", 0, "--user", 3) == EXIT_OK

    allinone = tmp_path / "allinone"
    assert run("report", log, "--out", allinone, "--split", split) == EXIT_OK
    series = {name: data for name, data in artifacts(stepwise).items()
              if name.startswith("series_")}
    assert set(series) == {"series_0.csv", "series_3.csv"}
    assert artifacts(stepwise, skip=("manifest.json", *series)) == artifacts(allinone)
    assert "period_compare.csv" in artifacts(allinone)

    # a series is its user's rows of centralities.csv
    rows = [
        line.split(",")
        for line in (allinone / "centralities.csv").read_text().splitlines()[1:]
    ]
    for user in (0, 3):
        expected = "".join(
            f"{start},{value}\n" for start, uid, _, value in rows if uid == str(user)
        )
        assert series[f"series_{user}.csv"].decode() == (
            "window_start,ei_centrality\n" + expected
        )


def test_step_commands_classify_and_rank_as_report_does(tmp_path):
    # non-default thresholds, deviation and averaging, read the same way by
    # the step commands and by report
    log = simulate(tmp_path)
    stepwise = tmp_path / "stepwise"
    assert run("build", log, "--out", stepwise) == EXIT_OK
    ens = stepwise / "ensemble.jsonl"
    flags = ("--thresholds=-0.5,0.5", "--std", "sample")
    assert run("classify", ens, "--out", stepwise, *flags) == EXIT_OK
    assert run("rank", ens, "--out", stepwise, *flags, "--avg", "present") == EXIT_OK
    allinone = tmp_path / "allinone"
    assert run("report", log, "--out", allinone, *flags, "--avg", "present") == EXIT_OK
    default = tmp_path / "default"
    assert run("report", log, "--out", default) == EXIT_OK

    written = artifacts(stepwise, skip=("manifest.json", "ensemble.jsonl"))
    assert set(written) == {
        "classified.csv", "histogram.json", "ranking_GLOBAL.csv",
        "ranking_HIGH.csv", "ranking_MEDIUM.csv", "ranking_LOW.csv",
    }
    assert written == {name: artifacts(allinone)[name] for name in written}
    # the flags change the classes, so the comparison shows they were read
    assert written["classified.csv"] != artifacts(default)["classified.csv"]
    assert written["ranking_HIGH.csv"] != artifacts(default)["ranking_HIGH.csv"]


def count_scoring(monkeypatch) -> dict[str, int]:
    """Count scored shapes and built strength columns, one per network read.

    ``engagement_index`` is counted through every importing module; each
    window builds its strength column from ``InteractionNetwork.strengths``.
    """
    calls = {"engagement_index": 0, "strengths": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    original = engagement.engagement_index
    wrapper = counted("engagement_index", original)
    for mod_name, mod in list(sys.modules.items()):
        bound = getattr(mod, "engagement_index", None)
        if mod_name.startswith("chatpulse") and bound is original:
            monkeypatch.setattr(mod, "engagement_index", wrapper)
    strengths = counted("strengths", InteractionNetwork.strengths)
    monkeypatch.setattr(InteractionNetwork, "strengths", strengths)
    return calls


def distinct_shapes(ensemble_path, user=None) -> int:
    """Conversation shapes, (n, sorted edge weights), read from an ensemble file.

    Given ``user``, only the conversations holding that user are counted.
    """
    shapes = set()
    for line in ensemble_path.read_text().splitlines():
        net = json.loads(line)
        if len(net["nodes"]) >= 2 and (user is None or user in net["nodes"]):
            shapes.add((len(net["nodes"]), *sorted(w for _, _, w in net["edges"])))
    return len(shapes)


def test_report_scores_each_conversation_once(tmp_path, monkeypatch):
    calls = count_scoring(monkeypatch)
    log = simulate(tmp_path)
    out = tmp_path / "report"
    assert run("report", log, "--out", out, "--split", "2018-08-01T02:00") == EXIT_OK
    conversations = len((out / "metrics.csv").read_text().splitlines()) - 1
    shapes = distinct_shapes(out / "ensemble.jsonl")
    assert 0 < shapes < conversations  # windows of one shape share a score
    assert calls == {"engagement_index": shapes, "strengths": conversations}


def test_step_commands_score_node_rows_only_where_read(tmp_path, monkeypatch):
    log = simulate(tmp_path, users=12)
    assert run("build", log, "--out", tmp_path) == EXIT_OK
    ens = tmp_path / "ensemble.jsonl"
    shapes = distinct_shapes(ens)
    calls = count_scoring(monkeypatch)
    assert run("metrics", ens, "--out", tmp_path / "m") == EXIT_OK
    conversations = len((tmp_path / "m" / "metrics.csv").read_text().splitlines()) - 1
    assert calls == {"engagement_index": shapes, "strengths": conversations}

    calls.update(engagement_index=0, strengths=0)
    assert run("classify", ens, "--out", tmp_path / "c") == EXIT_OK
    assert calls == {"engagement_index": shapes, "strengths": 0}

    calls.update(engagement_index=0, strengths=0)
    assert run("series", ens, "--out", tmp_path / "s", "--user", 0) == EXIT_OK
    holding = len((tmp_path / "s" / "series_0.csv").read_text().splitlines()) - 1
    assert 0 < holding < conversations
    # only the conversations holding the user are scored
    held_shapes = distinct_shapes(ens, user=0)
    assert 0 < held_shapes < shapes
    assert calls == {"engagement_index": held_shapes, "strengths": holding}


# the five commands that read ensemble.jsonl back, with their required flags
STEP_COMMANDS = {
    "metrics": (),
    "classify": (),
    "rank": (),
    "series": ("--user", 0),
    "compare": ("--split", "2018-08-01T02:00"),
}


def built_ensemble(tmp_path) -> Path:
    assert run("build", simulate(tmp_path), "--out", tmp_path / "built") == EXIT_OK
    return tmp_path / "built" / "ensemble.jsonl"


def count_new_networks(monkeypatch, name: str, *, after: bool = False) -> list:
    """Patch ``cli.<name>`` to count, at each call, the live networks made
    since this patch: before the call, or once it returned if ``after``."""
    gc.collect()
    # networks other tests left alive, held so that their ids stay theirs
    known = {
        id(o): o for o in gc.get_objects() if isinstance(o, InteractionNetwork)
    }
    live = []
    wrapped = getattr(cli, name)

    def count():
        live.append(sum(
            isinstance(o, InteractionNetwork) and id(o) not in known
            for o in gc.get_objects()
        ))

    def counting(*args, **kwargs):
        if not after:
            count()
        result = wrapped(*args, **kwargs)
        if after:
            count()
        return result

    monkeypatch.setattr(cli, name, counting)
    return live


@pytest.mark.parametrize("command", list(STEP_COMMANDS))
def test_step_commands_hold_no_network_once_scored(tmp_path, monkeypatch, command):
    # each window is scored as its line is read, and only what the command
    # reads of it is kept; so once every window is scored no network is left.
    # classify scores without _scored: its networks are counted as it classifies
    ens = built_ensemble(tmp_path)
    if command == "classify":
        live = count_new_networks(monkeypatch, "_classified")
    else:
        live = count_new_networks(monkeypatch, "_scored", after=True)
    out = tmp_path / "out"
    assert run(command, ens, "--out", out, *STEP_COMMANDS[command]) == EXIT_OK
    assert live == [0]


@pytest.mark.parametrize("command", list(STEP_COMMANDS))
@pytest.mark.parametrize("bad", ["first", "not json"])
def test_step_commands_reject_a_bad_line_after_valid_ones(
    tmp_path, capsys, command, bad
):
    ens = built_ensemble(tmp_path)
    lines = ens.read_text().splitlines()
    # the first line again puts a window out of order; the other is no JSON
    extra = lines[0] if bad == "first" else bad
    ens.write_text("\n".join([*lines, extra]) + "\n")
    detail = (
        f"window starts not strictly increasing at {json.loads(lines[0])['w']}"
        if bad == "first"
        else f"{ens}: line {len(lines) + 1}: invalid JSON"
    )
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(command, ens, "--out", out, *STEP_COMMANDS[command]) == EXIT_SCHEMA
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "schema", "detail": detail}
    assert list(out.iterdir()) == []


# a weight no float holds, and two that a float holds but whose sum it does not
HUGE_WEIGHTS = {
    "beyond-float": ('{"w":600,"i":1,"nodes":[0,1],"edges":[[0,1,%d]]}' % 10**400,
                     [0, 1, 10**400]),
    "sum-beyond-float": (
        '{"w":600,"i":1,"nodes":[0,1,2],"edges":[[0,1,%d],[1,2,%d]]}'
        % (2**1023, 2**1023),
        [0, 1, 2**1023],
    ),
}


@pytest.mark.parametrize("command", list(STEP_COMMANDS))
@pytest.mark.parametrize("weights", list(HUGE_WEIGHTS))
def test_step_commands_reject_a_weight_beyond_2_to_the_53(
    tmp_path, capsys, command, weights
):
    line, edge = HUGE_WEIGHTS[weights]
    ens = tmp_path / "ensemble.jsonl"
    ens.write_text('{"w":0,"i":0,"nodes":[0,1],"edges":[[0,1,1]]}\n' + line + "\n")
    out = tmp_path / "out"
    assert run(command, ens, "--out", out, *STEP_COMMANDS[command]) == EXIT_SCHEMA
    [line] = capsys.readouterr().err.splitlines()
    detail = f"{ens}: line 2: bad edge [{edge[0]},{edge[1]},{edge[2]}]"
    assert json.loads(line) == {"error": "schema", "detail": detail}
    assert list(out.iterdir()) == []


def test_largest_weight_is_2_to_the_53(tmp_path):
    ens = tmp_path / "ensemble.jsonl"
    ens.write_text(
        '{"w":0,"i":0,"nodes":[0,1],"edges":[[0,1,1]]}\n'
        '{"w":600,"i":1,"nodes":[0,1,2],"edges":[[0,1,%d],[1,2,1]]}\n' % 2**53
    )
    assert run("metrics", ens, "--out", tmp_path / "out") == EXIT_OK
    rows = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert rows[2].startswith(f"600,1,3,{2**53 + 1},")


def test_series_writes_a_repeated_user_once(tmp_path):
    ens = built_ensemble(tmp_path)
    once, twice = tmp_path / "once", tmp_path / "twice"
    assert run("series", ens, "--out", once, "--user", 0) == EXIT_OK
    assert run("series", ens, "--out", twice, "--user", 0, "--user", 0) == EXIT_OK
    manifest = json.loads((twice / "manifest.json").read_text())
    assert manifest["outputs"] == ["series_0.csv"]
    assert manifest["parameters"]["user"] == [0, 0]  # the flag as given
    assert artifacts(twice) == artifacts(once)


def test_manifest_digests_equal_hashlib_sha256(tmp_path):
    # a log over 1 MiB, hashed in many READ_CHUNK reads
    log = tmp_path / "big.csv"
    log.write_text("user_id,timestamp\n" + "".join(
        f"{i % 7},{1533081600 + i}\n" for i in range(90_000)
    ))
    assert log.stat().st_size > 1 << 20
    assert run("build", log, "--out", tmp_path / "built") == EXIT_OK
    # parse with a prior mapping records two inputs
    export = tmp_path / "chat.txt"
    export.write_text(TRANSCRIPT)
    assert run("parse", export, "--out", tmp_path / "first") == EXIT_OK
    mapping = tmp_path / "first" / "mapping.csv"
    argv = ("parse", export, "--out", tmp_path / "second", "--mapping-in", mapping)
    assert run(*argv) == EXIT_OK
    for out, paths in (("built", [log]), ("second", [export, mapping])):
        manifest = json.loads((tmp_path / out / "manifest.json").read_text())
        assert manifest["inputs"] == {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths
        }


def failing_runs(tmp_path) -> dict[int, list]:
    """One command per failure exit code, each failing inside its handler."""
    log = simulate(tmp_path)
    bad_log = tmp_path / "bad.csv"
    bad_log.write_text("wrong,header\n1,2\n")
    chat = tmp_path / "bad.txt"
    chat.write_text("utter nonsense")
    single = tmp_path / "single.jsonl"
    single.write_text('{"w":0,"i":0,"nodes":[0,1],"edges":[[0,1,3]]}\n')
    out = ["--out", tmp_path / "o"]
    return {
        EXIT_USAGE: ["report", log, *out, "--thresholds=1,-1"],
        EXIT_PARSE: ["parse", chat, *out],
        EXIT_SCHEMA: ["build", bad_log, *out],
        EXIT_INSUFFICIENT: ["classify", single, *out],
        EXIT_IO: ["build", tmp_path / "missing.csv", *out],
    }


def test_main_leaves_the_collector_enabled(tmp_path):
    assert gc.isenabled()
    assert run("report", simulate(tmp_path), "--out", tmp_path / "report") == EXIT_OK
    assert gc.isenabled()
    for code, argv in failing_runs(tmp_path).items():
        assert run(*argv) == code
        assert gc.isenabled(), argv[0]


def test_main_leaves_a_paused_collector_paused(tmp_path):
    log = simulate(tmp_path)
    gc.disable()
    try:
        assert run("report", log, "--out", tmp_path / "report") == EXIT_OK
        assert not gc.isenabled()
        assert run("build", tmp_path / "missing.csv", "--out", tmp_path / "o") == EXIT_IO
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_report_garbage_does_not_grow_with_the_log(tmp_path):
    # the collector is paused while a command runs, so a reference cycle made
    # per window would pile up; what a report leaves must not scale with it
    small = simulate(tmp_path / "small", windows=24)
    large = simulate(tmp_path / "large", windows=240)
    unreachable = []
    gc.disable()  # no automatic collection between the run and the count
    try:
        for log in (small, small, large):  # the first run warms caches up
            gc.collect()
            assert run(
                "report", log, "--out", tmp_path / "report", "--split", "2018-08-01T02:00"
            ) == EXIT_OK
            unreachable.append(gc.collect())
    finally:
        gc.enable()
    assert unreachable[1] == unreachable[2]


def test_report_frees_its_networks_once_scored(tmp_path, monkeypatch):
    # centralities.csv reads every window's columns, and a window drops its
    # network when they are built; so by classification no network is left
    log = simulate(tmp_path)
    live = count_new_networks(monkeypatch, "_emit_classify")
    assert run("report", log, "--out", tmp_path / "report") == EXIT_OK
    assert live == [0]


def test_report_holds_no_network_once_scored(tmp_path, monkeypatch):
    # each network is scored once its line is written and only its columns
    # are kept; so once the ensemble is written no network is left
    log = simulate(tmp_path)
    live = count_new_networks(monkeypatch, "_emit_metrics")
    out = tmp_path / "report"
    assert run("report", log, "--out", out, "--split", "2018-08-01T02:00") == EXIT_OK
    assert (out / "period_compare.csv").exists()
    assert live == [0]


def test_second_main_call_leaves_no_argparse_garbage(tmp_path):
    # the parser is built once per process; a rebuilt one would be a few
    # hundred argparse objects in reference cycles left for the caller
    log = simulate(tmp_path)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep what the collector finds, to look at
    try:
        gc.garbage.clear()
        assert run("report", log, "--out", tmp_path / "report") == EXIT_OK
        gc.collect()
        from_argparse = [
            o for o in gc.garbage
            if "argparse" in (type(o).__module__, getattr(o, "__module__", None))
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert from_argparse == []


def test_rerun_is_byte_identical(tmp_path):
    log = simulate(tmp_path)
    out = tmp_path / "report"
    snapshots = []
    for _ in range(2):
        assert run("report", log, "--out", out, "--top-k", 5) == EXIT_OK
        snapshots.append(artifacts(out, skip=()))
    assert snapshots[0] == snapshots[1]


def test_rerun_from_manifest_reproduces_artifacts(tmp_path):
    log = simulate(tmp_path)
    out = tmp_path / "orig"
    assert run("report", log, "--out", out, "--interval", 10, "--top-k", 7) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    params = manifest["parameters"]

    replay = tmp_path / "replay"
    argv = [
        manifest["command"], params["input"], "--out", replay,
        "--interval", params["interval"], "--align", params["align"],
        f"--thresholds={params['thresholds']}", "--std", params["std"],
        "--avg", params["avg"], "--top-k", params["top_k"],
    ]
    assert run(*argv) == EXIT_OK
    assert artifacts(out) == artifacts(replay)


def test_out_of_order_log_is_counted_with_nothing_on_stderr(tmp_path):
    log = simulate(tmp_path)
    header, *rows = log.read_text().splitlines()
    # the first row alone holds the first timestamp, so the stable sort puts
    # it back first and moves every row of the copy with it last
    assert int(rows[0].split(",")[1]) < int(rows[1].split(",")[1])
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([header, *rows[1:], rows[0]]) + "\n")
    ordered, resorted = tmp_path / "ordered", tmp_path / "resorted"
    code = f"""
import sys
sys.path.insert(0, {str(Path(chatpulse.__file__).parents[1])!r})
from chatpulse import cli
for log, out in (({str(log)!r}, {str(ordered)!r}), ({str(shuffled)!r}, {str(resorted)!r})):
    print(cli.main(["report", log, "--out", out, "--split", "2018-08-01T02:00"]))
"""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True
    )
    assert (proc.stdout, proc.stderr) == (f"{EXIT_OK}\n{EXIT_OK}\n", "")
    assert artifacts(resorted) == artifacts(ordered)
    for out, moved in ((ordered, 0), (resorted, len(rows))):
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"] == {"rows_resorted": moved}
    # build records the count too; the commands that read no log record none
    assert run("build", shuffled, "--out", tmp_path / "built") == EXIT_OK
    manifest = json.loads((tmp_path / "built" / "manifest.json").read_text())
    assert manifest["counts"] == {"rows_resorted": len(rows)}
    ens = tmp_path / "built" / "ensemble.jsonl"
    assert run("metrics", ens, "--out", tmp_path / "metrics") == EXIT_OK
    assert "counts" not in json.loads((tmp_path / "metrics" / "manifest.json").read_text())


def count_scope_means(monkeypatch) -> list[int]:
    """Patch ``scope_means`` wherever chatpulse binds it; each call appends
    the number of scopings it was given."""
    calls = []
    original = ensemble.scope_means

    def counted(windows, avg, *scopings):
        calls.append(len(scopings))
        return original(windows, avg, *scopings)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("chatpulse") and getattr(mod, "scope_means", None) is original:
            monkeypatch.setattr(mod, "scope_means", counted)
    return calls


def test_report_sums_rankings_and_comparison_in_one_pass(tmp_path, monkeypatch):
    log = simulate(tmp_path)
    calls = count_scope_means(monkeypatch)
    split = ("--split", "2018-08-01T02:00")
    assert run("report", log, "--out", tmp_path / "split", *split) == EXIT_OK
    assert calls == [2]  # the classes and the periods, in one call
    calls.clear()
    assert run("report", log, "--out", tmp_path / "unsplit") == EXIT_OK
    assert calls == [1]
    ens = tmp_path / "split" / "ensemble.jsonl"
    for command, flags in (("rank", ()), ("compare", split)):
        calls.clear()
        assert run(command, ens, "--out", tmp_path / command, *flags) == EXIT_OK
        assert calls == [1], command


def test_expected_report_artifacts_exist(tmp_path):
    log = simulate(tmp_path)
    out = tmp_path / "report"
    assert run("report", log, "--out", out) == EXIT_OK
    names = {p.name for p in out.iterdir()}
    assert {
        "ensemble.jsonl", "metrics.csv", "centralities.csv", "classified.csv",
        "histogram.json", "ranking_GLOBAL.csv", "ranking_HIGH.csv",
        "ranking_MEDIUM.csv", "ranking_LOW.csv", "manifest.json",
    } <= names
    header = (out / "centralities.csv").read_text().splitlines()[0]
    assert header == "window_start,user_id,strength,ei_centrality"
    assert (out / "classified.csv").read_text().splitlines()[0] == "window_index,ei,z,label"


def test_series_and_compare_commands(tmp_path):
    log = simulate(
        tmp_path, regime="planted-dropout", users=10, dropouts=2, rate=8,
        windows=20, split_window=10,
    )
    out = tmp_path / "built"
    assert run("build", log, "--out", out) == EXIT_OK
    ens = out / "ensemble.jsonl"

    assert run("series", ens, "--out", out, "--user", 0, "--user", 10) == EXIT_OK
    assert (out / "series_0.csv").exists() and (out / "series_10.csv").exists()
    assert (out / "series_0.csv").read_text().splitlines()[0] == "window_start,ei_centrality"

    # split halfway through the generated range
    ensemble_lines = ens.read_text().splitlines()
    split_ts = json.loads(ensemble_lines[10])["w"]
    from datetime import datetime, timezone

    split_iso = datetime.fromtimestamp(split_ts, tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%S"
    )
    assert run("compare", ens, "--out", out, "--split", split_iso) == EXIT_OK
    compare = (out / "period_compare.csv").read_text().splitlines()
    assert compare[0] == "user_id,whole,p1,p2,diff"
    plot = json.loads((out / "period_compare_plot.json").read_text())
    assert set(plot) == {"split", "users", "whole", "p1", "p2", "diff"}
    assert plot["split"] == split_ts

    # dropout users end up with the most negative diffs
    rows = [line.split(",") for line in compare[1:]]
    diffs = {int(r[0]): float(r[4]) for r in rows}
    worst = sorted(diffs, key=diffs.get)[:2]
    assert set(worst) == {10, 11}


def test_simulate_emits_ground_truth(tmp_path):
    log = simulate(tmp_path, regime="round-robin", users=4, rate=9, windows=3)
    truth_path = log.parent / "ground_truth.jsonl"
    lines = truth_path.read_text().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["metrics"]["equality"] == 1.0


def test_simulate_past_int64_exits_usage(tmp_path, capsys):
    # an interval of M minutes passes the default start, so the first window
    # starts at 60 * M s and two windows end at 180 * M s
    fits = 2**63 // 180
    argv = ["simulate", "--regime", "round-robin", "--users", 3, "--rate", 3,
            "--windows", 2, "--interval"]
    out = tmp_path / "fits"
    assert run(*argv, fits, "--out", out) == EXIT_OK
    assert run("build", out / "log.csv", "--out", tmp_path / "built") == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "past"
    assert run(*argv, fits + 1, "--out", out) == EXIT_USAGE
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "parameter" and "int64" in err["detail"]
    assert captured.out == "" and list(out.iterdir()) == []


def test_jsonl_log_format_flag(tmp_path):
    out = tmp_path / "sim"
    assert run(
        "simulate", "--out", out, "--regime", "round-robin", "--users", 3,
        "--rate", 7, "--windows", 2, "--format", "jsonl",
    ) == EXIT_OK
    log = out / "log.jsonl"
    assert log.exists()
    built = tmp_path / "built"
    assert run("build", log, "--out", built) == EXIT_OK
    assert (built / "ensemble.jsonl").exists()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "chatpulse", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()


# parse and the line-at-a-time CSV reader import these where they run; input
# digests and parse's HMAC use the builtin SHA-256 and the salt comes from
# os.urandom, so no command loads OpenSSL (_hashlib); chatpulse imports
# dataclasses, hashlib, hmac, inspect, logging and secrets nowhere
UNUSED_AT_START_UP = (
    "_hashlib", "csv", "dataclasses", "hashlib", "hmac", "inspect", "logging",
    "random", "secrets", "zoneinfo",
)


def test_start_up_and_report_import_no_parse_only_module(tmp_path):
    log = simulate(tmp_path)
    # -S: no site-packages .pth file preloads a module
    code = f"""
import sys
sys.path.insert(0, {str(Path(chatpulse.__file__).parents[1])!r})
from chatpulse import cli
loaded = lambda: sorted(set({UNUSED_AT_START_UP!r}) & set(sys.modules))
print(loaded())
print(cli.main(["report", {str(log)!r}, "--out", {str(tmp_path / "run")!r}]))
print(loaded())
"""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", str(EXIT_OK), "[]"]


# the modules that load OpenSSL's libcrypto, or that only serve an HMAC
OPENSSL_MODULES = ("_hashlib", "hashlib", "hmac", "secrets")


def test_parse_loads_no_openssl_module(tmp_path):
    export = tmp_path / "chat.txt"
    export.write_text(TRANSCRIPT)
    # -S: no site-packages .pth file preloads a module; the first run makes
    # its own salt, the second is given one
    code = f"""
import sys
sys.path.insert(0, {str(Path(chatpulse.__file__).parents[1])!r})
from chatpulse import cli
loaded = lambda: sorted(set({OPENSSL_MODULES!r}) & set(sys.modules))
print(cli.main(["parse", {str(export)!r}, "--out", {str(tmp_path / "a")!r}]))
print(cli.main(["parse", {str(export)!r}, "--out", {str(tmp_path / "b")!r},
                "--salt", "0123456789abcdef"]))
print(loaded())
"""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [str(EXIT_OK), str(EXIT_OK), "[]"]
