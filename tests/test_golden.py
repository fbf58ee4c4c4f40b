"""Golden artifact digests: every artifact except manifest.json, byte for byte.

Two inputs, each run through ``report --split`` and through the step
commands (build, metrics, classify, rank, series, compare): a simulated
planted-dropout log in JSONL, and a seeded random CSV log with ties and
out-of-order rows, cut with --from/--to and ranked with --avg present. The
digests were taken before the columnar log and the one-pass window builder
went in; a change that moves any of them changes an artifact.

``simulate`` is pinned on its own for each of the five regimes, in both log
formats, so a rewrite of the generator cannot shift the logs it writes.

``parse`` is pinned on one small transcript per export profile under
``tests/data``: continuation lines, system notices, U+200E marks, U+202F
before the time or meridiem, an en dash, and the hour Sao Paulo repeated when
it left DST on 2019-02-17. Those digests were taken while header times were
still read with ``strptime``.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

from chatpulse.cli import EXIT_OK, main

BASE = 1_533_081_600  # 2018-08-01T00:00Z

# file -> SHA-256 of what `report --split` writes; the step commands write
# the same files plus the series below
REPORT = {
    "simulated": {
        "centralities.csv":
            "a52f093765c77c02d646e296706e81629a0064ebdcaa097d2433aa1546f09e0a",
        "classified.csv":
            "d0c164d6909df143a18f47e5f8d0d225e052a486f8a005e44563945f7273a177",
        "ensemble.jsonl":
            "ce02e009d18d3e1cb40ecdf2d24bcba85db673e0dca61c7461f11747b9bb0517",
        "histogram.json":
            "570250cd2d99e64b8980c355b6f0f060dc7c95c14848e0db570714316237b84d",
        "metrics.csv":
            "63f4ca00d57eb669efefab508f52045d37ce3af84fed1a0286ec6c123a1a6709",
        "period_compare.csv":
            "ee4f0d48632566e1f2280a9b9bb79082449abb3d8b4ed8527c8480fd02a3bba6",
        "period_compare_plot.json":
            "6b7e56844f8db0ba91c10ea45a79befa9744c509360658b4953ef5b844b2523a",
        "ranking_GLOBAL.csv":
            "930d9bc05c8b7083950cbbb29e39f03d87ad264e8dcaa8106d621068a1bc0d66",
        "ranking_HIGH.csv":
            "2c0d38a207d5026bb9e300f413146722bc1ca2a97023d4780df174b3afdf3777",
        "ranking_LOW.csv":
            "bb9706ef87ddf4b786f8970b82b02a2c9fd3769608d7b5764b2eb32eba36f283",
        "ranking_MEDIUM.csv":
            "9fb0bc78617a58ed2a2c7562508e876985b7e77eeda2a71f4facc18c5186eb3a",
    },
    "random": {
        "centralities.csv":
            "151b65f80ab1af82d00d1d20ef96765bf43e012afa8f90cda4d416a1b9107d4c",
        "classified.csv":
            "233ff7db50fcdfb5a7867dfaa91b1ef78cfea0c8e58ed7a1af8712b0ae26726e",
        "ensemble.jsonl":
            "7bd2fbfabe71980bffd1986eb4fe5c872e3e21ebc0472cb52d3c6f84837d155b",
        "histogram.json":
            "535c7904b8b01af5567c4e3b1cff19da2e81c3b8b24b2e8de14059f8f0c732cf",
        "metrics.csv":
            "4349e9a62534b99f0267b7cb6a76ac2b64b3b34f04b63e533d915eeeb0c1d967",
        "period_compare.csv":
            "283d07e216a9b63a7b9a45f91aebdda74d86e34537f4aed7e73cc9cd0f478865",
        "period_compare_plot.json":
            "2357eb484147bec97e5a3ae057a9b76336894f79770446b286f991e3840e159c",
        "ranking_GLOBAL.csv":
            "d27aec48b4e0b618c52f39c7b21e6da0403db661542831a95c7962bd0676c807",
        "ranking_HIGH.csv":
            "fc28a5fa94ab20bf4ea8018dc6f4d7b822e0d8ee53393cd3ffd92ea71a08f6f7",
        "ranking_LOW.csv":
            "8e8d7401e3b0d6857920d2957bdf12337f58149b64e3639bfdbf23b6204586dd",
        "ranking_MEDIUM.csv":
            "f1ca534e3ec196eaaf3bac669c500aff08b083b801f631673e42140402872085",
    },
}
SERIES = {
    "simulated": {
        "series_0.csv":
            "aca8f1ac4c1f4738ca8eb1a6801be5a238b1415b76800a81694c531aa9582b14",
        "series_10.csv":
            "73406bfd6e163cbc9216969a7b0aa6603e7c83aefd5c043e288d173d8597094e",
    },
    "random": {
        "series_17.csv":
            "69c67dbbf31f65112c30dc4006c61537a87d93ee52f0bd3e6b3bda7da99d21b5",
        "series_3.csv":
            "9e464fc292ac1ec48a0bd4187117210aded376895a1f36375f91ce7f9ddc6bae",
    },
}
INPUTS = {
    "simulated": {
        "ground_truth.jsonl":
            "4d5e2d3ea8ffc1f98a47176475a4629311d2db82c1b76a795c07d39525b5f4d0",
        "log.jsonl":
            "c5c7915d187e641dfcd61e79785b517869b5cd545aa5c474b69d66635518f729",
    },
    "random": {
        "log.csv":
            "a6d7c4b9d4aa55ada73689bbc65920526abc69872271d0610662bf6bc7594938",
    },
}

# regime -> its simulate flags and the SHA-256 of each file it writes; the
# ground truth is the same in both log formats
SIMULATE = {
    "round-robin": (
        ["--users", "4", "--rate", "9", "--windows", "12"],
        {
            "ground_truth.jsonl":
                "122a374edc771989e826b04a7e217ed73a8ad08b7efcd5cc1fdb879fa5e251cc",
            "log.csv":
                "1bdceef71b6d5f79c83280b5dea335cd1f9121ff5f8a365eeceab2dd0a084324",
            "log.jsonl":
                "8dbe117bb0afc709d266b11e1591fe8abd4ae20a38efde8056c04917039b9c5b",
        },
    ),
    "broadcaster": (
        ["--users", "5", "--rate", "6", "--windows", "12"],
        {
            "ground_truth.jsonl":
                "4d6ecbe6d515e1697d6c774ee2e008b3139f938d3ddcfc6753398d4f7fdc827c",
            "log.csv":
                "3dea49d85a7a96d41d8e1f3e9e827830240da02eeb934b01f3ffe8d8853d456d",
            "log.jsonl":
                "9fac3cb3e7cff4814d8c7b2c268f16b0855815b1f03ec503abd4bf013cca9957",
        },
    ),
    "dominant-pair": (
        ["--users", "5", "--rate", "8", "--windows", "12"],
        {
            "ground_truth.jsonl":
                "4331907c1d1f7cc4b90ef4b7b8d81575620409aba1a501b4fc5b0a92a9ab2c51",
            "log.csv":
                "2bcdab0b22b5e018203fd50b472df93dc67b3c6cc34e8bc093b915b81d2ede08",
            "log.jsonl":
                "781c42eb1da3c576b7e4236bcc46c41fafa5554a97f22120eceb168feabbb32f",
        },
    ),
    "uniform-random": (
        ["--users", "7", "--rate", "10", "--windows", "20", "--seed", "5"],
        {
            "ground_truth.jsonl":
                "0eeeb8ad195e52b8b7b2a01fe29b43b35916cf013e7d100435a8df8e0c7ecd77",
            "log.csv":
                "006262651c0a1d30b77d49c7644560396d22e2ba99521da6f962259c9496fe87",
            "log.jsonl":
                "a09c96ab77d936b16f7d77922281a9a75e4cdcbabe19edffae5109ccd1404d4a",
        },
    ),
    "planted-dropout": (
        ["--users", "6", "--rate", "10", "--windows", "20", "--seed", "9",
         "--dropouts", "2", "--split-window", "10", "--interval", "7"],
        {
            "ground_truth.jsonl":
                "53b3dca2919e8e4d954fd7cc1302f9d56920f7db131530450b1dfd611adbf0cc",
            "log.csv":
                "4686659ec57197ec37f2389a9d7ad01ab556328b0ccb8d237898523f24367e42",
            "log.jsonl":
                "0ed8e52b496dec681b729e8cdc51406349abdf885f784b16faad5190ff158cd2",
        },
    ),
}


DATA = Path(__file__).resolve().parent / "data"
PARSE_SALT = "0123456789abcdef"
PARSE_MAPPING = "f5da4fa7e3aeed2eb3a0c921db6ecb8be12d8b5b895a91fb8bf293bdee401f34"

# profile -> SHA-256 of the log `parse` writes in each format; all three
# transcripts have the same senders, so they share one mapping.csv
PARSE = {
    "whatsapp-bracket": {
        "log.csv":
            "a835662d678074d4eedcea2eb82a76e60a63a105fc6e379cb5c0a577ed7db0bd",
        "log.jsonl":
            "a4a63ae74be639337b2dea2dc5e6b1bfa149768e4b8cf86713025957b4576088",
    },
    "whatsapp-en-dash": {
        "log.csv":
            "777f474a06c9acb655bb1111433a5567cca94686d84bc54e4412866dc30eea14",
        "log.jsonl":
            "c97a89ce665014ee46905bb5c9daadec299003bf8eefe07a9d984da936e42152",
    },
    "whatsapp-us-dash": {
        "log.csv":
            "c5904fe4d130e2a8dad0351e3f5106f6b0f17f32dfed04a0ae253c1d950230c4",
        "log.jsonl":
            "7cc9b601aff9e8eb5b4a1551d06e6d5e33c26558294e6f6b65dd6569fad7f99d",
    },
}


def random_log_csv(seed=2024, users=25, count=3000) -> str:
    """Rows over two days with same-second ties and a few swapped neighbours."""
    rng = random.Random(seed)
    times = sorted(BASE + rng.randrange(2 * 86400) // 7 * 7 for _ in range(count))
    rows = [[rng.randrange(users), t] for t in times]
    for i in range(5, count, 500):
        rows[i][1], rows[i + 1][1] = rows[i + 1][1], rows[i][1] + 1
    return "user_id,timestamp\n" + "".join(f"{u},{t}\n" for u, t in rows)


def prepare(name, tmp_path):
    """Write the input; return its path and the flags of each command."""
    if name == "simulated":
        sim = tmp_path / "sim"
        assert main([
            "simulate", "--out", str(sim), "--regime", "planted-dropout",
            "--users", "10", "--rate", "12", "--windows", "48", "--seed", "3",
            "--dropouts", "2", "--split-window", "24", "--format", "jsonl",
        ]) == EXIT_OK
        flags = {"window": [], "avg": [], "split": "2018-08-01T04:00",
                 "users": ["0", "10"]}
        return sim / "log.jsonl", flags
    log = tmp_path / "log.csv"
    log.write_text(random_log_csv(), encoding="utf-8")
    flags = {
        "window": ["--from", "2018-08-01T03:00", "--to", "2018-08-02T21:00"],
        "avg": ["--avg", "present"],
        "split": "2018-08-02",
        "users": ["3", "17"],
    }
    return log, flags


def digests(path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.name != "manifest.json"
    }


@pytest.mark.parametrize("name", sorted(REPORT))
def test_report_and_step_artifacts_match_golden_digests(tmp_path, name):
    log, flags = prepare(name, tmp_path)
    inputs = {log.name: hashlib.sha256(log.read_bytes()).hexdigest()}
    if name == "simulated":
        inputs = digests(log.parent)
    assert inputs == INPUTS[name]

    report = tmp_path / "report"
    assert main(["report", str(log), "--out", str(report), *flags["window"],
                 *flags["avg"], "--split", flags["split"]]) == EXIT_OK
    assert digests(report) == REPORT[name]

    steps = tmp_path / "steps"
    ens = str(steps / "ensemble.jsonl")
    users = [arg for user in flags["users"] for arg in ("--user", user)]
    for argv in (
        ["build", str(log), *flags["window"]],
        ["metrics", ens],
        ["classify", ens],
        ["rank", ens, *flags["avg"]],
        ["series", ens, *users],
        ["compare", ens, "--split", flags["split"], *flags["avg"]],
    ):
        assert main([*argv, "--out", str(steps)]) == EXIT_OK
    assert digests(steps) == REPORT[name] | SERIES[name]


@pytest.mark.parametrize("kind", sorted(SIMULATE))
def test_simulate_outputs_match_golden_digests(tmp_path, kind):
    flags, expected = SIMULATE[kind]
    for fmt in ("csv", "jsonl"):
        out = tmp_path / fmt
        assert main(["simulate", "--out", str(out), "--regime", kind, *flags,
                     "--format", fmt]) == EXIT_OK
        names = ("ground_truth.jsonl", f"log.{fmt}")
        assert digests(out) == {name: expected[name] for name in names}


@pytest.mark.parametrize("profile", sorted(PARSE))
def test_parse_outputs_match_golden_digests(tmp_path, profile):
    for fmt in ("csv", "jsonl"):
        out = tmp_path / fmt
        assert main([
            "parse", str(DATA / f"{profile}.txt"), "--out", str(out),
            "--profile", profile, "--tz", "America/Sao_Paulo",
            "--salt", PARSE_SALT, "--format", fmt,
        ]) == EXIT_OK
        name = f"log.{fmt}"
        assert digests(out) == {name: PARSE[profile][name],
                                "mapping.csv": PARSE_MAPPING}
