"""Seeded inputs for the pipeline benchmark.

Every generator draws only from ``random.Random(seed)``, so one seed always
gives the same bytes. None of them imports chatpulse: a change to the package
cannot change a workload's input.

Each generator also returns the ``(user_id, utc_seconds)`` rows that the
pipeline must end up with, in file order. The oracle builds its expected
windows from those rows.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from datetime import datetime, timedelta

BASE = 1_533_081_600  # 2018-08-01T00:00:00Z
DAY = 86_400
WINDOW = 600  # the CLI's default 10-minute interval

# criterion-9 corpus: uniform users and times over 90 days.
C9 = {"messages": 80_000, "users": 600, "days": 90}
# Same message count packed into dense single-window bursts of small cliques.
BURST = {"bursts": 400, "per_burst": 200, "users": 120, "clique": [4, 12], "days": 90}
# WhatsApp export; the span stays inside Aug-Sep 2018, where
# America/Sao_Paulo is UTC-3 with no DST change.
TRANSCRIPT = {
    "messages": 80_000,
    "senders": 200,
    "days": 61,
    "utc_offset_h": -3,
    "continuation_p": 0.05,
    "notice_p": 0.005,
    "media_p": 0.03,
}
TRANSCRIPT_TZ = "America/Sao_Paulo"
TRANSCRIPT_SALT = "5eed" * 8
SPLIT = "2018-09-15"  # midpoint of the 90-day log corpora
TRANSCRIPT_SPLIT = "2018-09-01"  # midpoint of the 61-day transcript

_FIRST = (
    "Ana", "Bruno", "Carla", "Diego", "Elisa", "Fábio", "Gabriela", "Heitor",
    "Isabela", "João", "Karina", "Lucas", "Mariana", "Nicolás", "Otávio",
    "Paula", "Rafael", "Sofia", "Tiago", "Vitória", "Wesley", "Yasmin",
    "Zé", "Conceição", "Letícia",
)
_LAST = (
    "Silva", "Souza", "Oliveira", "Santos", "Pereira", "Lima", "Carvalho",
    "Ferreira", "Rodrigues", "Almeida", "Costa", "Gomes", "Martins", "Araújo",
    "Melo", "Barbosa",
)
_WORDS = (
    "oi", "sim", "não", "amanhã", "reunião", "ok", "valeu", "kkk", "bom",
    "dia", "pessoal", "alguém", "sabe", "link", "aqui", "obs:", "hoje",
    "às", "10h", "😂", "👍", "certo", "vamos", "lá", "foto", "grupo",
)


def c9_log(seed: int) -> list[tuple[int, int]]:
    """The criterion-9 corpus: uniform users, uniform times, sorted."""
    rng = random.Random(seed)
    times = sorted(rng.randrange(C9["days"] * DAY) for _ in range(C9["messages"]))
    return [(rng.randrange(C9["users"]), BASE + t) for t in times]


def burst_log(seed: int) -> list[tuple[int, int]]:
    """Dense 10-minute bursts, each a small clique, with idle gaps between."""
    rng = random.Random(seed)
    lo, hi = BURST["clique"]
    slots = sorted(rng.sample(range(BURST["days"] * DAY // WINDOW), BURST["bursts"]))
    rows: list[tuple[int, int]] = []
    for slot in slots:
        members = rng.sample(range(BURST["users"]), rng.randint(lo, hi))
        offsets = sorted(rng.randrange(WINDOW) for _ in range(BURST["per_burst"]))
        start = BASE + slot * WINDOW
        rows.extend((rng.choice(members), start + off) for off in offsets)
    return rows


def log_csv(rows) -> str:
    """The canonical CSV log the CLI reads and ``parse`` writes."""
    return "user_id,timestamp\n" + "".join(f"{u},{t}\n" for u, t in rows)


def _sender_names(rng: random.Random, count: int) -> list[str]:
    pool = [f"{first} {last}" for first in _FIRST for last in _LAST]
    return rng.sample(pool, count)


def _body(rng: random.Random) -> str:
    if rng.random() < TRANSCRIPT["media_p"]:
        return "<Media omitted>"
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 12)))


def _notice(rng: random.Random, names: list[str]) -> str:
    a, b = rng.sample(names, 2)
    return rng.choice((
        f"{a} joined using this group's invite link",
        f"{a} left",
        f"{a} added {b}",
        f"{a} changed this group's icon",
        f'{a} changed the subject to "plantão {rng.randint(1, 99)}"',
    ))


def anonymized_ids(names, salt_hex: str) -> dict[str, int]:
    """Dense IDs in the order of each sender's HMAC-SHA256 hex digest."""
    salt = bytes.fromhex(salt_hex)
    digest = {
        n: hmac.new(salt, n.encode("utf-8"), hashlib.sha256).hexdigest()
        for n in set(names)
    }
    return {n: i for i, n in enumerate(sorted(digest, key=digest.get))}


def transcript(seed: int) -> tuple[str, list[tuple[int, int]]]:
    """A ``whatsapp-en-dash`` export plus the anonymized rows it must yield."""
    rng = random.Random(seed)
    names = _sender_names(rng, TRANSCRIPT["senders"])
    minutes = sorted(
        rng.randrange(TRANSCRIPT["days"] * 1440) for _ in range(TRANSCRIPT["messages"])
    )
    local0 = datetime(2018, 8, 1)
    offset = -TRANSCRIPT["utc_offset_h"] * 3600
    lines = [
        "01/08/18, 00:00 - Messages and calls are end-to-end encrypted. No one "
        "outside of this chat, including WhatsApp, can read or listen to them. "
        "Tap to learn more."
    ]
    messages: list[tuple[str, int]] = []
    for m in minutes:
        stamp = (local0 + timedelta(minutes=m)).strftime("%d/%m/%y, %H:%M")
        if rng.random() < TRANSCRIPT["notice_p"]:
            lines.append(f"{stamp} - {_notice(rng, names)}")
        sender = rng.choice(names)
        lines.append(f"{stamp} - {sender}: {_body(rng)}")
        if rng.random() < TRANSCRIPT["continuation_p"]:
            lines.extend(_body(rng) for _ in range(rng.randint(1, 3)))
        messages.append((sender, BASE + m * 60 + offset))
    ids = anonymized_ids((s for s, _ in messages), TRANSCRIPT_SALT)
    return "\n".join(lines) + "\n", [(ids[s], t) for s, t in messages]
