"""Independent reference implementations used only by tests.

These deliberately restate the definitions from first principles (pairwise
Gini, adjacent-pair enumeration, direct centrality substitution) so the fast
paths in the package are checked against something they do not share code
with.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import re
import struct
from collections import Counter
from datetime import datetime
from itertools import accumulate
from pathlib import Path
from zoneinfo import ZoneInfo

from chatpulse import (
    ChatpulseError,
    MessageLog,
    OrderingError,
    ParsedTranscript,
    ParseError,
    SchemaError,
)
from chatpulse.chatlog import PROFILES, utf8_lines
from chatpulse.netbuild import InteractionNetwork, in_window_order


def gini_pairwise(weights) -> float:
    """O(k^2) definitional Gini: sum_ij |x_i - x_j| / (2 k^2 mu)."""
    ws = list(weights)
    k = len(ws)
    mu = sum(ws) / k
    spread = sum(abs(a - b) for a in ws for b in ws)
    return spread / (2.0 * k * k * mu)


def brute_pair_counts(senders) -> dict[tuple[int, int], int]:
    """List adjacent sender pairs, drop equal-sender pairs, count the rest."""
    seq = list(senders)
    pairs = [
        (min(a, b), max(a, b)) for a, b in zip(seq, seq[1:]) if a != b
    ]
    return dict(Counter(pairs))


def network_metrics_direct(edges: dict[tuple[int, int], int]) -> dict[str, float]:
    """Engagement metrics straight from the definitions."""
    nodes = {u for pair in edges for u in pair}
    weights = list(edges.values())
    total = sum(weights)
    g = gini_pairwise(weights)
    eq = 1.0 - g
    inten = math.log2(len(nodes) * total)
    return {"n": len(nodes), "total_weight": total, "gini": g,
            "equality": eq, "intensity": inten, "ei": eq * inten}


def strengths_direct(edges: dict[tuple[int, int], int]) -> dict[int, int]:
    """Each endpoint's weighted degree: the weights of its edges, summed."""
    strengths: dict[int, int] = {}
    for (u, v), w in edges.items():
        strengths[u] = strengths.get(u, 0) + w
        strengths[v] = strengths.get(v, 0) + w
    return strengths


def centralities_direct(edges: dict[tuple[int, int], int]) -> dict[int, float]:
    """Per-node engagement by direct substitution: n * w_i * ei / (2 m)."""
    m = network_metrics_direct(edges)
    return {
        u: m["n"] * s * m["ei"] / (2.0 * m["total_weight"])
        for u, s in strengths_direct(edges).items()
    }


def random_conversation_edges(rng, max_n: int = 50) -> dict[tuple[int, int], int]:
    """Random edge map over 2..max_n potential users, at least one edge."""
    n = rng.randrange(2, max_n + 1)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    count = rng.randrange(1, min(len(pairs), 3 * n) + 1)
    chosen = rng.sample(pairs, count)
    return {pair: rng.randrange(1, 21) for pair in chosen}


def scope_means_direct(scoped, avg: str, population=()) -> dict[int, float]:
    """Mean ei centrality per user over the windows of one scope, by definition.

    Sums each user's centralities in window order, then divides by the
    number of windows (avg='zero') or by the user's appearances
    (avg='present'). With 'zero', every user of ``population`` who is absent
    from the scope gets 0.0.
    """
    sums: dict[int, float] = {}
    appearances: dict[int, int] = {}
    for w in scoped:
        users, strengths, scale = w.columns()
        for user, s in zip(users, strengths):
            sums[user] = sums.get(user, 0.0) + s * scale
            appearances[user] = appearances.get(user, 0) + 1
    if avg == "present":
        return {user: s / appearances[user] for user, s in sums.items()}
    means = {user: s / len(scoped) for user, s in sums.items()}
    return dict.fromkeys(population, 0.0) | means


# profile -> (header regex, strptime formats tried in order), as transcripts
# were read when header times went through datetime.strptime
STRPTIME_PROFILES = {
    "whatsapp-en-dash": (
        r"^(?P<ts>\d{1,2}/\d{1,2}/\d{2,4}, \d{1,2}:\d{2}) [-–] (?P<rest>.*)$",
        ("%d/%m/%y, %H:%M", "%d/%m/%Y, %H:%M"),
    ),
    "whatsapp-us-dash": (
        r"^(?P<ts>\d{1,2}/\d{1,2}/\d{2,4}, \d{1,2}:\d{2} ?[AaPp][Mm]) [-–] (?P<rest>.*)$",
        ("%m/%d/%y, %I:%M %p", "%m/%d/%Y, %I:%M %p"),
    ),
    "whatsapp-bracket": (
        r"^\[(?P<ts>\d{1,2}/\d{1,2}/\d{2,4}, \d{1,2}:\d{2}(?::\d{2})?)\] (?P<rest>.*)$",
        ("%d/%m/%y, %H:%M:%S", "%d/%m/%Y, %H:%M:%S",
         "%d/%m/%y, %H:%M", "%d/%m/%Y, %H:%M"),
    ),
}


def strptime_first_line(line: str, profile: str, zone) -> int | str:
    """Epoch of an ASCII transcript's first line read with ``strptime``.

    Returns the epoch of a message header, or the text of the ``ParseError``
    the line must raise. ``%p`` wants a space before the meridiem, which the
    header grammar makes optional, so one is inserted when missing.
    """
    header, formats = STRPTIME_PROFILES[profile]
    match = re.match(header, line)
    if match is None:
        return "not a header line and no preceding message to continue"
    token = match.group("ts")
    spaced = re.sub(r"(?<=\d)(?=[AaPp][Mm]$)", " ", token)
    for fmt in formats:
        try:
            local = datetime.strptime(spaced, fmt)
        except ValueError:
            continue
        return int(local.replace(tzinfo=zone).timestamp())
    return f"unparseable timestamp {token!r}"


def parse_transcript_direct(lines, *, tz="UTC", profile="whatsapp-en-dash", slack=0):
    """``parse_transcript`` a line at a time: each line cleaned and matched
    alone, and each header time read through an aware ``datetime``.

    Diagnostics are ``parse_transcript``'s. The parameter checks are left
    out: callers pass valid ones.
    """
    zone = ZoneInfo(tz) if isinstance(tz, str) else tz
    header = re.compile(PROFILES[profile])
    users: list[int] = []
    stamps: list[int] = []
    senders: list[str] = []
    ids: dict[str, int] = {}
    prev_ts = None
    if isinstance(lines, str):
        lines = lines.splitlines()
    for line_no, line in enumerate(lines, start=1):
        if line_no == 1:
            line = line.removeprefix("\ufeff")
        line = line.replace("\u202f", " ").replace("\u00a0", " ")
        line = re.sub("[\u200e\u200f\u202a-\u202e]", "", line)
        match = header.match(line)
        if match is None:
            if line_no == 1:
                raise ParseError(
                    "not a header line and no preceding message to continue", 1
                )
            continue
        rest = match.group("rest")
        sep = rest.find(": ")
        if sep <= 0:
            continue  # a system notice
        token = match.group("ts")
        earliest = None if prev_ts is None else prev_ts - slack
        try:
            ts = _aware_epoch(match, zone, fold=0)
            if earliest is not None and ts < earliest:
                ts = max(ts, _aware_epoch(match, zone, fold=1))
        except ValueError:
            raise ParseError(f"unparseable timestamp {token!r}", line_no) from None
        if earliest is not None and ts < earliest:
            raise OrderingError(
                f"timestamp moves backward by {prev_ts - ts}s (slack={slack}s)",
                line_no,
            )
        prev_ts = ts if prev_ts is None else max(prev_ts, ts)
        sender = rest[:sep].strip()
        if sender not in ids:
            ids[sender] = len(senders)
            senders.append(sender)
        users.append(ids[sender])
        stamps.append(ts)
    if slack > 0:
        stamps = list(accumulate(stamps, max))
    return ParsedTranscript(MessageLog(tuple(users), tuple(stamps)), tuple(senders))


def _aware_epoch(match, zone, fold: int) -> int:
    """A header's time as the ``timestamp()`` of an aware datetime."""
    if not match.group("ts").isascii():
        raise ValueError("non-ASCII digits")
    day, month, year, hour, minute, second, meridiem = match.group(
        "day", "month", "year", "hour", "minute", "second", "meridiem"
    )
    y = int(year)
    if len(year) == 2:  # %y
        y += 2000 if y < 69 else 1900
    elif len(year) != 4:
        raise ValueError("year")
    h = int(hour)
    if meridiem:  # %I %p
        if not 1 <= h <= 12:
            raise ValueError("hour")
        h = h % 12 + (12 if meridiem in "Pp" else 0)
    local = datetime(
        y, int(month), int(day), h, int(minute), int(second or 0),
        tzinfo=zone, fold=fold,
    )
    return int(local.timestamp())


def load_ensemble_direct(path) -> tuple[InteractionNetwork, ...]:
    """An ensemble JSONL file read without ``ensemble_networks``' scanner fast
    path: ``json.loads`` per line, then each check in turn, and each network
    checked by ``in_window_order`` once its line is read."""
    return tuple(in_window_order(_direct_networks(Path(path))))


def _direct_networks(path: Path):
    for line_no, line in enumerate(utf8_lines(path, SchemaError), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # a too-long int, deep nesting
            raise SchemaError(f"{path}: line {line_no}: invalid JSON") from exc
        try:
            edges = {}
            for u, v, w in obj["edges"]:
                if not (u < v) or w <= 0 or w > 2**53:
                    raise SchemaError(
                        f"{path}: line {line_no}: bad edge [{u},{v},{w}]"
                    )
                edges[(u, v)] = w
            if len(edges) != len(obj["edges"]):
                raise SchemaError(f"{path}: line {line_no}: duplicate edge")
            endpoints = {u for pair in edges for u in pair}
            # compare types: a bool or 1.0 would pass as the int 1 otherwise,
            # so every raw edge value is read, duplicates included
            values = (
                obj["w"], obj["i"], *obj["nodes"],
                *(x for edge in obj["edges"] for x in edge),
            )
            if not set(map(type, values)) <= {int}:
                raise SchemaError(
                    f"{path}: line {line_no}: window start, index, node IDs"
                    " and weights must be integers"
                )
            nodes = obj["nodes"]
            if any(map(operator.ge, nodes, nodes[1:])):
                raise SchemaError(
                    f"{path}: line {line_no}: nodes are not strictly ascending"
                )
            if endpoints != set(nodes):
                raise SchemaError(
                    f"{path}: line {line_no}: nodes do not match edge endpoints"
                )
            yield InteractionNetwork(
                window_start=obj["w"],
                window_index=obj["i"],
                nodes=tuple(nodes),
                edges=edges,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: line {line_no}: malformed network") from exc


def read_utf8(path: Path, error: type[ChatpulseError]) -> str:
    """Read a whole text file, raising ``error`` when it is not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from exc


# the range of a timestamp, a signed 64-bit int
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def load_log_csv_direct(path) -> MessageLog:
    """A CSV log read whole, then row by row with ``csv.reader`` alone: no
    block reader, no shared user-ID ints. Diagnostics are ``load_log``'s."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
    rows: list[tuple[int, int]] = []
    try:
        if next(reader, None) != ["user_id", "timestamp"]:
            raise SchemaError(f"{path}: missing header user_id,timestamp")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise SchemaError(
                    f"{path}: line {line_no}: expected 2 columns, got {len(row)}"
                )
            try:
                user = int(row[0])
            except ValueError as exc:
                raise SchemaError(
                    f"{path}: line {line_no}: bad user ID {row[0]!r}"
                ) from exc
            try:
                ts = int(row[1])
            except ValueError as exc:
                raise SchemaError(
                    f"{path}: line {line_no}: unparsable timestamp {row[1]!r}"
                ) from exc
            if not INT64_MIN <= ts <= INT64_MAX:
                raise SchemaError(
                    f"{path}: line {line_no}: timestamp {row[1]!r} outside int64"
                )
            if user < 0:
                raise SchemaError(f"{path}: line {line_no}: negative user ID {user}")
            rows.append((user, ts))
    except csv.Error as exc:
        raise SchemaError(f"{path}: line {reader.line_num}: {exc}") from exc
    rows.sort(key=lambda row: row[1])  # stable, as load_log re-sorts
    return MessageLog(tuple(u for u, _ in rows), tuple(t for _, t in rows))


def load_log_jsonl_direct(path) -> MessageLog:
    """A JSONL log read whole, then ``json.loads`` on each line that is not
    blank: no scanner, no line reader, no shared user-ID ints. One BOM is
    dropped from line 1, and diagnostics are ``load_log``'s."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    rows: list[tuple[int, int]] = []
    for line_no, line in enumerate(text.removeprefix("\ufeff").splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # a too-long int, deep nesting
            raise SchemaError(f"{path}: line {line_no}: invalid JSON") from exc
        if not isinstance(obj, dict) or "u" not in obj or "t" not in obj:
            raise SchemaError(f"{path}: line {line_no}: expected keys 'u' and 't'")
        user, ts = obj["u"], obj["t"]
        if isinstance(user, bool) or not isinstance(user, int):
            raise SchemaError(f"{path}: line {line_no}: bad user ID {user!r}")
        if isinstance(ts, bool) or not isinstance(ts, int):
            raise SchemaError(f"{path}: line {line_no}: unparsable timestamp {ts!r}")
        if not INT64_MIN <= ts <= INT64_MAX:
            raise SchemaError(f"{path}: line {line_no}: timestamp {ts!r} outside int64")
        if user < 0:
            raise SchemaError(f"{path}: line {line_no}: negative user ID {user}")
        rows.append((user, ts))
    rows.sort(key=lambda row: row[1])  # stable, as load_log re-sorts
    return MessageLog(tuple(u for u, _ in rows), tuple(t for _, t in rows))


def tzif_offsets(data: bytes) -> tuple[int, list[tuple[int, int]]]:
    """A TZif file's UTC offset before its first transition, and each
    transition as (UTC epoch, offset from then on), in file order.

    Reads RFC 8536's 64-bit block when the version is 2 or later, else the
    32-bit one. The POSIX-TZ footer that may follow is not read: it gives a
    rule for the years after the last transition, at most two changes a
    year.
    """

    def header(at: int) -> tuple[bytes, tuple[int, ...]]:
        if data[at:at + 4] != b"TZif":
            raise ValueError("not a TZif file")
        return data[at + 4:at + 5], struct.unpack(">6l", data[at + 20:at + 44])

    version, counts = header(0)
    at, time_format = 44, "l"
    if version >= b"2":  # skip the 32-bit block for the 64-bit one
        isut, isstd, leap, timecnt, typecnt, charcnt = counts
        at += 5 * timecnt + 6 * typecnt + charcnt + 8 * leap + isstd + isut
        version, counts = header(at)
        at, time_format = at + 44, "q"
    _, _, _, timecnt, typecnt, _ = counts
    times = struct.unpack_from(f">{timecnt}{time_format}", data, at)
    at += struct.calcsize(time_format) * timecnt
    types = data[at:at + timecnt]
    at += timecnt
    utoffs = [struct.unpack_from(">l", data, at + 6 * i)[0] for i in range(typecnt)]
    return utoffs[0], [(t, utoffs[i]) for t, i in zip(times, types)]
