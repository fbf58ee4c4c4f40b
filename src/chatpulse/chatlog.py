"""Chat transcript parsing and anonymized (user, timestamp) message logs.

Only sender identity and send time survive parsing. Message bodies are
inspected just enough to classify each line (message start, continuation,
system notice) and are never stored; the persisted log has exactly two data
columns.
"""

from __future__ import annotations

import io
import json
import operator
import os
import re
from array import array
from collections.abc import Iterable, Iterator, Sequence
from datetime import datetime, timedelta, timezone
from itertools import chain, islice
from pathlib import Path

from ._record import FrozenRecord
from .errors import (
    ChatpulseError,
    MappingConflictError,
    OrderingError,
    ParameterError,
    ParseError,
    SchemaError,
)

# zoneinfo serves only parse, and csv only files not in dump_log's form, so
# they are imported where used, not by every command. hashlib, hmac and
# secrets are imported nowhere: they load OpenSSL's libcrypto, and the builtin
# SHA-256 below does their work. Type checkers read this constant as true;
# importing it from typing would cost every command that module.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import csv
    from zoneinfo import ZoneInfo

try:  # the builtin SHA-256: hashlib's digests, without loading OpenSSL
    from _sha2 import sha256 as _new_sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _new_sha256
    except ImportError:
        from hashlib import sha256 as _new_sha256

# WhatsApp sprinkles direction marks and narrow no-break spaces into exports.
_INVISIBLE_MARKS = re.compile("[‎‏‪-‮]")

LOG_CSV_HEADER = ["user_id", "timestamp"]
MAPPING_CSV_HEADER = ["hashed_sender", "user_id"]


class MessageLog(FrozenRecord):
    """Chronologically ordered metadata log for one group conversation.

    The log is two integer columns; row ``i`` is message ``i``, so a
    message's ``seq`` is its row position. User IDs are non-negative and
    timestamps never decrease.

    ``users`` is a tuple of ints, and rows of one ID share one ``int``.
    ``timestamps`` is one ``array('q')``: 8 bytes a row, with no ``int``
    object behind each. An ``array('q')`` is kept as given, and any other
    sequence of ints is converted; a timestamp outside the signed 64-bit
    range raises ``ValueError``. The log holds the array itself, so do not
    change it. An array has no hash, so neither has a log.
    """

    __slots__ = ("users", "timestamps")

    def __init__(self, users: tuple[int, ...], timestamps: Sequence[int]) -> None:
        if type(timestamps) is not array or timestamps.typecode != "q":
            try:
                timestamps = array("q", timestamps)
            except OverflowError as exc:
                raise ValueError("a timestamp outside the int64 range") from exc
        if len(users) != len(timestamps):
            raise ValueError(
                f"{len(users)} user IDs but {len(timestamps)} timestamps"
            )
        if users and min(users) < 0:
            raise ValueError(f"negative user ID {min(users)}")
        if any(map(operator.gt, timestamps, islice(timestamps, 1, None))):
            seq = next(
                i for i in range(1, len(timestamps))
                if timestamps[i] < timestamps[i - 1]
            )
            raise ValueError(
                f"timestamps decrease at seq={seq} "
                f"({timestamps[seq]} < {timestamps[seq - 1]})"
            )
        self._fill(users, timestamps)

    def __len__(self) -> int:
        return len(self.users)


class ParsedTranscript(FrozenRecord):
    """Parse result: the metadata log plus the sender table behind its IDs.

    ``senders[i]`` is the display name that first-appearance ID ``i`` stands
    for. The table exists solely to feed :func:`anonymize`; nothing else in
    the pipeline sees display names.
    """

    __slots__ = ("log", "senders")

    def __init__(self, log: MessageLog, senders: tuple[str, ...]) -> None:
        self._fill(log, senders)


class AnonymizedLog(FrozenRecord):
    """Salted relabeling of a parsed transcript plus its mapping table."""

    __slots__ = ("log", "mapping", "salt")

    def __init__(
        self,
        log: MessageLog,
        mapping: dict[str, int],  # hex keyed-hash of sender -> user ID
        salt: bytes,
    ) -> None:
        self._fill(log, mapping, salt)


# the named groups of every header regex that hold the time, in the order
# _local_epoch takes them
_TIME_FIELDS = ("day", "month", "year", "hour", "minute", "second", "meridiem")

_DATE = r"(?P<day>\d{1,2})/(?P<month>\d{1,2})/(?P<year>\d{2,4})"
_US_DATE = r"(?P<month>\d{1,2})/(?P<day>\d{1,2})/(?P<year>\d{2,4})"
_TIME = r"(?P<hour>\d{1,2}):(?P<minute>\d{2})"
_NO_SECOND = "(?P<second>)"
_NO_MERIDIEM = "(?P<meridiem>)"  # 24-hour clock

# The header pattern of each export locale, which parse_transcript compiles.
# A header matches a message or notice line. Its named groups are ``ts`` (the
# whole time token, quoted in diagnostics), ``rest`` (what follows it) and the
# seven _TIME_FIELDS that _local_epoch reads. A field the locale never writes
# is an empty group. No auto-detection: pick one explicitly.
PROFILES: dict[str, str] = {
    # `D/M/YY, HH:MM - Sender Name: body`; the separator dash may be an
    # ASCII hyphen or U+2013 depending on the exporting device.
    "whatsapp-en-dash":
        rf"^(?P<ts>{_DATE}, {_TIME}){_NO_SECOND}{_NO_MERIDIEM} [-–] (?P<rest>.*)$",
    # `M/D/YY, H:MM AM - Sender: body` (US date order, 12-hour clock; the
    # space before the meridiem is optional).
    "whatsapp-us-dash":
        rf"^(?P<ts>{_US_DATE}, {_TIME}{_NO_SECOND} ?(?P<meridiem>[AaPp])[Mm])"
        r" [-–] (?P<rest>.*)$",
    # `[D/M/YY, HH:MM:SS] Sender: body` (bracketed, usually iOS; the seconds
    # are optional).
    "whatsapp-bracket":
        rf"^\[(?P<ts>{_DATE}, {_TIME}(?::(?P<second>\d{{2}}))?){_NO_MERIDIEM}\]"
        r" (?P<rest>.*)$",
}

DEFAULT_PROFILE = "whatsapp-en-dash"


def _clean(text: str) -> str:
    """``text`` with its no-break spaces as plain spaces and its direction
    marks removed."""
    if text.isascii():  # every character rewritten below is non-ASCII
        return text
    text = text.replace("\u202f", " ").replace("\u00a0", " ")
    return _INVISIBLE_MARKS.sub("", text)


def _naive_time(
    day: str, month: str, year: str, hour: str, minute: str, second: str,
    meridiem: str,
) -> datetime:
    """The naive local time that a header's time fields spell.

    A two-digit year pivots as ``%y`` does (69-99 is 19xx, 00-68 is 20xx), a
    four-digit one is read as is, and any other length is an error. Seconds
    are 0 when empty. With a meridiem (``A`` or ``P``, any case) the hour is
    on the 12-hour clock and must be 1-12. Raises ``ValueError`` for a field
    out of range, such as 31/2 or a minute of 60, and for digits outside
    ASCII.
    """
    if not (day + month + year + hour + minute + second).isascii():
        raise ValueError("non-ASCII digits")
    y = int(year)
    if len(year) == 2:
        y += 2000 if y <= 68 else 1900
    elif len(year) != 4:
        raise ValueError(f"{len(year)}-digit year")
    h = int(hour)
    if meridiem:
        if not 1 <= h <= 12:
            raise ValueError(f"hour {h} on a 12-hour clock")
        h = h % 12 + (12 if meridiem in "Pp" else 0)
    return datetime(
        y, int(month), int(day), h, int(minute), int(second) if second else 0
    )


def _local_epoch(
    zone: ZoneInfo, earliest: int | None,
    day: str, month: str, year: str, hour: str, minute: str, second: str,
    meridiem: str,
) -> int:
    """Epoch seconds of a header time read in ``zone``.

    The fields are those a header regex captured, read as
    :func:`_naive_time` reads them. A local time repeated by a DST fall-back
    reads as its first occurrence unless that falls before ``earliest``;
    then it reads as the second (``fold=1``). A local time skipped by a
    spring-forward gap keeps the ``fold=0`` reading, the offset in force
    before the gap.
    """
    local = _naive_time(day, month, year, hour, minute, second, meridiem)
    ts = _zone_epoch(zone, local)
    if earliest is not None and ts < earliest:
        # fold=1 is later only for a repeated time, earlier in a gap
        ts = max(ts, _zone_epoch(zone, local.replace(fold=1)))
    return ts


def _hour_start(
    zone: ZoneInfo, day: str, month: str, year: str, hour: str, meridiem: str
) -> int | None:
    """Epoch of a local hour's ``hh:00:00``, when one offset holds through
    the hour; else None.

    The hour holds one offset when the ``fold=0`` offsets at ``hh:00:00``
    and ``hh:59:59`` agree, which assumes a zone changes its offset at most
    once in an hour. Then the ``fold=0`` reading of ``hh:mm:ss`` is this
    epoch plus ``mm * 60 + ss``. An hour with an offset change, and fields
    that spell no valid hour, give None: their times are read by
    :func:`_local_epoch`.
    """
    try:
        start = _naive_time(day, month, year, hour, "00", "", meridiem)
    except ValueError:
        return None
    offset = zone.utcoffset(start)
    if zone.utcoffset(start + _LAST_SECOND) != offset:
        return None
    return (start - _NAIVE_EPOCH - offset) // _SECOND


_NAIVE_EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)
_LAST_SECOND = timedelta(minutes=59, seconds=59)  # hh:59:59 from hh:00:00

# A header's minute, and its second ("" when it has none), in seconds. Only
# two ASCII digits in range are keys; any other field goes to _local_epoch,
# which reports it.
_MINUTE_SECONDS = {f"{i:02d}": 60 * i for i in range(60)}
_SECONDS = {"": 0} | {f"{i:02d}": i for i in range(60)}


def _zone_epoch(zone: ZoneInfo, local: datetime) -> int:
    """``int(local.replace(tzinfo=zone).timestamp())`` for a naive ``local``,
    computed without the aware datetime and the float."""
    return (local - _NAIVE_EPOCH - zone.utcoffset(local)) // _SECOND


def _resolve_zone(tz: str | ZoneInfo) -> ZoneInfo:
    from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

    if isinstance(tz, ZoneInfo):
        return tz
    try:
        return ZoneInfo(tz)
    except (ZoneInfoNotFoundError, ValueError) as exc:
        raise ParameterError(f"unknown time zone {tz!r}") from exc


# Lines joined into one text per batch, which parse_transcript cleans and
# searches for headers in one pass each.
PARSE_BATCH = 256


def parse_transcript(
    lines: str | Iterable[str],
    *,
    tz: str | ZoneInfo = "UTC",
    profile: str = DEFAULT_PROFILE,
    slack: int = 0,
) -> ParsedTranscript:
    """Parse an exported transcript into a metadata log plus sender table.

    ``lines`` is the transcript's lines without their terminators, as
    :func:`utf8_lines` yields them; a ``str`` is split with ``splitlines``.
    A line holding ``"\\n"`` raises ``ValueError``. One U+FEFF at the start
    of the first line is a byte-order mark and is dropped by
    :func:`_without_bom`.

    Line classification: a line matching the profile's header regex whose
    remainder contains ``Sender: `` starts a message; a matching line without
    a sender is a system notice (dropped); anything else continues the most
    recent message or notice (dropped). A first line that is not a header is
    a parse error, as is a timestamp that moves backward by more than
    ``slack`` seconds (minute-precision exports produce same-minute ties,
    broken by file order). In the hour a DST fall-back repeats, a time that
    would move backward that far reads as the hour's second occurrence.

    The lines are read ``PARSE_BATCH`` at a time. Each batch is joined with
    ``"\\n"``, cleaned of no-break spaces and direction marks, and searched
    for headers in one pass, so no Python code runs for a line that is not
    a header. A header's time is its local hour's start plus its minutes and
    seconds; the start is computed each time the hour changes (see
    :func:`_hour_start`). A time in an hour with an offset change, one that
    must read as the second occurrence, and one with a field out of range go
    through :func:`_local_epoch`. Line numbers are counted only for an
    error.
    """
    if slack < 0:
        raise ParameterError(f"slack must be >= 0 seconds, got {slack}")
    if profile not in PROFILES:
        raise ParameterError(
            f"unknown export profile {profile!r}; available: {sorted(PROFILES)}"
        )
    header = re.compile(PROFILES[profile], re.M)
    zone = _resolve_zone(tz)
    # findall gives each header's groups as one tuple, read here by name
    at = {name: number - 1 for name, number in header.groupindex.items()}
    time_fields = operator.itemgetter(*[at[name] for name in _TIME_FIELDS])
    hour_fields = operator.itemgetter(
        *[at[name] for name in ("day", "month", "year", "hour", "meridiem")]
    )
    ts_at, rest_at = at["ts"], at["rest"]
    minute_at, second_at = at["minute"], at["second"]

    users: list[int] = []
    stamps = array("q")
    senders: list[str] = []
    add_user = users.append
    ids: dict[str, int] = {}
    # the latest time so far, and the earliest the next one may read
    prev_ts = floor = float("-inf")
    # headers have minute precision, so a time token often repeats the last,
    # and an export is in time order, so a token's hour most often does
    last_token: str | None = None
    last_epoch = 0  # fold=0 reading of last_token
    last_hour: tuple[str, ...] | None = None
    start: int | None = None  # _hour_start of last_hour

    if isinstance(lines, str):
        lines = lines.splitlines()
    lines = _without_bom(lines)
    before = 0  # lines in the batches already parsed
    while batch := list(islice(lines, PARSE_BATCH)):
        # the batch's times, packed onto stamps at its end. On an 80k-message
        # export, appending to the array one at a time took parse about 10 ms
        # longer, and packing one list of all the times raised the peak of
        # the seven step commands, run in one process, by about 0.5 MiB.
        times: list[int] = []
        add_time = times.append
        text = "\n".join(batch)
        if text.count("\n") >= len(batch):
            raise ValueError("a transcript line holds a line break")
        text = _clean(text)
        if not before and header.match(text) is None:
            raise ParseError(
                "not a header line and no preceding message to continue", 1
            )
        matches = header.findall(text)
        for fields in matches:
            rest = fields[rest_at]
            sep = rest.find(": ")
            if sep <= 0:
                # Header without `Sender: ` - a system notice (join, subject
                # change, encryption banner). No human sender, no event.
                continue
            token = fields[ts_at]
            if token != last_token:
                hour = hour_fields(fields)
                if hour != last_hour:
                    start = _hour_start(zone, *hour)
                    last_hour = hour
                minute = _MINUTE_SECONDS.get(fields[minute_at])
                second = _SECONDS.get(fields[second_at])
                if start is None or minute is None or second is None:
                    try:
                        last_epoch = _local_epoch(zone, None, *time_fields(fields))
                    except ValueError:
                        line_no = _line_no(header, text, matches, fields, before)
                        raise ParseError(
                            f"unparseable timestamp {token!r}", line_no
                        ) from None
                else:
                    # a sum is allocated one digit longer than it needs, and
                    # a negation copies it at its size: on an 80k-message
                    # export that spare digit in every time took parse's
                    # peak RSS up by about 1 MiB
                    last_epoch = -(-start - minute - second)
                last_token = token
            ts = last_epoch
            if ts < floor:
                ts = _local_epoch(zone, floor, *time_fields(fields))
                if ts < floor:
                    raise OrderingError(
                        f"timestamp moves backward by {prev_ts - ts}s"
                        f" (slack={slack}s)",
                        _line_no(header, text, matches, fields, before),
                    )
            if ts > prev_ts:
                prev_ts = ts
                floor = ts - slack
            sender = rest[:sep].strip()
            try:
                add_user(ids[sender])
            except KeyError:
                ids[sender] = len(senders)
                senders.append(sender)
                add_user(ids[sender])
            # the latest time so far: a regression within slack is clamped,
            # so the log stays non-decreasing
            add_time(prev_ts)
        stamps.fromlist(times)
        before += len(batch)
        del batch, text, matches, times  # no two batches are held at once

    log = MessageLog(tuple(users), stamps)
    return ParsedTranscript(log=log, senders=tuple(senders))


def _line_no(header: re.Pattern, text: str, matches: list, fields: tuple,
             before: int) -> int:
    """The line number of the header whose groups are ``fields``, an item
    of ``matches = header.findall(text)`` for the batch ``text`` that
    follows ``before`` lines."""
    k = next(k for k, item in enumerate(matches) if item is fields)
    start = next(islice(header.finditer(text), k, None)).start()
    return before + text.count("\n", 0, start) + 1


# HMAC's inner and outer pads (RFC 2104) as byte translation tables
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))
_BLOCK = 64  # SHA-256's block size in bytes


def sender_digest(salt: bytes, sender: str) -> str:
    """Keyed hash (HMAC-SHA256, hex) of a sender display name.

    The HMAC is computed as the stdlib ``hmac`` module's pure-Python path
    computes it, on the builtin SHA-256, so it equals ``hmac.new(salt,
    sender.encode(), hashlib.sha256).hexdigest()`` without loading OpenSSL.
    """
    key = _new_sha256(salt).digest() if len(salt) > _BLOCK else salt
    key = key.ljust(_BLOCK, b"\0")
    inner = _new_sha256(key.translate(_IPAD))
    inner.update(sender.encode("utf-8"))
    outer = _new_sha256(key.translate(_OPAD))
    outer.update(inner.digest())
    return outer.hexdigest()


def _check_prior_mapping(prior: dict[str, int]) -> None:
    ids = sorted(prior.values())
    if any(i < 0 for i in ids):
        raise MappingConflictError("prior mapping contains a negative user ID")
    if len(set(ids)) != len(ids):
        raise MappingConflictError("prior mapping assigns one ID to several senders")
    if ids and ids != list(range(len(ids))):
        raise MappingConflictError(
            f"prior mapping IDs are not the dense range 0..{len(ids) - 1}"
        )


def anonymize(
    parsed: ParsedTranscript,
    salt: bytes | None = None,
    prior_mapping: dict[str, int] | None = None,
) -> AnonymizedLog:
    """Relabel a parsed transcript with salted, deterministic dense IDs.

    IDs are assigned by sorting sender keyed-hashes, so a fixed salt yields
    the same assignment on every run and a different salt permutes it. With a
    ``prior_mapping`` (from :func:`read_mapping`), existing assignments are
    kept and only unseen senders receive fresh IDs.
    """
    if salt is None:
        salt = os.urandom(16)  # as secrets.token_bytes(16), which loads OpenSSL
    mapping: dict[str, int] = dict(prior_mapping) if prior_mapping else {}
    _check_prior_mapping(mapping)

    digests = {sender: sender_digest(salt, sender) for sender in parsed.senders}
    if len(set(digests.values())) != len(digests):
        raise MappingConflictError(
            "keyed-hash collision between distinct senders; pick another salt"
        )
    fresh = sorted(d for d in digests.values() if d not in mapping)
    next_id = len(mapping)
    for digest in fresh:
        mapping[digest] = next_id
        next_id += 1

    relabel = [mapping[digests[s]] for s in parsed.senders]
    log = parsed.log
    users = tuple(map(relabel.__getitem__, log.users))
    return AnonymizedLog(
        log=MessageLog(users, log.timestamps),
        mapping=mapping,
        salt=salt,
    )


def dump_mapping(mapping: dict[str, int]) -> str:
    """Serialize a keyed-hash mapping table as CSV, ordered by user ID."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MAPPING_CSV_HEADER)
    writer.writerows(sorted(mapping.items(), key=lambda kv: kv[1]))
    return buf.getvalue()


def _csv_error(source, reader, exc: csv.Error) -> SchemaError:
    """A csv module failure, such as an oversized field, as a schema error."""
    return SchemaError(f"{source}: line {reader.line_num}: {exc}")


def read_mapping(path: str | Path) -> dict[str, int]:
    import csv

    _check_utf8(Path(path), SchemaError)
    with open(path, "rb") as fh:
        reader = csv.reader(_csv_lines(fh))
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise _csv_error(path, reader, exc) from exc
    if not rows or rows[0] != MAPPING_CSV_HEADER:
        raise SchemaError(f"{path}: expected header {','.join(MAPPING_CSV_HEADER)}")
    mapping: dict[str, int] = {}
    for row in rows[1:]:
        if len(row) != 2:
            raise SchemaError(f"{path}: malformed mapping row {row!r}")
        digest, raw_id = row
        try:
            user_id = int(raw_id)
        except ValueError as exc:
            raise SchemaError(f"{path}: non-integer user ID {raw_id!r}") from exc
        if digest in mapping:
            raise MappingConflictError(f"{path}: duplicate hashed sender {digest!r}")
        mapping[digest] = user_id
    return mapping


# what json.loads runs once it has skipped the whitespace before a value
_scan_json = json.JSONDecoder().scan_once


def _json_lines(
    lines: Iterable[str], source, first: int = 1
) -> Iterator[tuple[int, object]]:
    """``(line_no, value)`` for each line that ``str.strip`` does not empty,
    read as ``json.loads`` reads it: any line the scanner alone does not read
    to its end goes through ``json.loads``. A line ``json`` cannot decode
    raises ``SchemaError``. The lines are numbered from ``first``."""
    for line_no, line in enumerate(lines, first):
        try:
            value, end = _scan_json(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except (ValueError, RecursionError) as exc:  # a too-long int, deep nesting
                raise SchemaError(f"{source}: line {line_no}: invalid JSON") from exc
        yield line_no, value


def _jsonl_rows(lines: Iterable[str], source: str) -> Iterator[tuple]:
    """``(line_no, u, t)`` of each JSONL log line, for :func:`_row_columns`."""
    for line_no, obj in _json_lines(_without_bom(lines), source):
        if not isinstance(obj, dict) or "u" not in obj or "t" not in obj:
            raise SchemaError(f"{source}: line {line_no}: expected keys 'u' and 't'")
        yield line_no, obj["u"], obj["t"]


def _json_int(value):
    if type(value) is not int:  # a bool or a float, which int() would take
        raise ValueError(value)
    return value


def _csv_rows(reader, source: str) -> Iterator[tuple]:
    """``(line_no, user, timestamp)`` of each CSV log row, for :func:`_row_columns`."""
    if next(reader, None) != LOG_CSV_HEADER:
        raise SchemaError(f"{source}: missing header {','.join(LOG_CSV_HEADER)}")
    # line numbers count CSV records, as csv.reader yields them
    for line_no, row in enumerate(reader, start=2):
        if len(row) != 2:
            raise SchemaError(
                f"{source}: line {line_no}: expected 2 columns, got {len(row)}"
            )
        yield line_no, *row


def _row_columns(rows: Iterable[tuple], source: str, to_int) -> tuple[list, array]:
    """The user and timestamp columns of ``(line_no, user, timestamp)`` rows,
    under the one row rule: the user ID converts with ``to_int``, then the
    timestamp does and fits in int64, then the ID is not negative. Rows of
    one ID value share one ``int``: ``int()`` and ``json`` make a new one for
    each row above 256."""
    users, stamps, known = [], array("q"), {}
    add_user, add_stamp = users.append, stamps.append
    for line_no, raw_user, raw_ts in rows:
        try:
            user = to_int(raw_user)
        except ValueError as exc:
            raise SchemaError(
                f"{source}: line {line_no}: bad user ID {raw_user!r}"
            ) from exc
        try:
            add_stamp(to_int(raw_ts))
        except ValueError as exc:
            raise SchemaError(
                f"{source}: line {line_no}: unparsable timestamp {raw_ts!r}"
            ) from exc
        except OverflowError as exc:
            raise SchemaError(
                f"{source}: line {line_no}: timestamp {raw_ts!r} outside int64"
            ) from exc
        if user < 0:
            raise SchemaError(f"{source}: line {line_no}: negative user ID {user}")
        add_user(known.setdefault(user, user))
    return users, stamps


# Bytes read at a time. The CSV block reader's temporaries grow with the
# block: with 64 KiB blocks, `report` on perfbench's c9 logs peaked about
# 2 MiB higher than with 16 KiB on each of ten seeds.
READ_CHUNK = 1 << 14


def _line_blocks(fh) -> Iterator[bytes]:
    """A binary file in blocks of whole lines, each ending just after a
    ``b"\\n"`` except the last, so a UTF-8 sequence never spans two."""
    pending: list[bytes] = []
    while chunk := fh.read(READ_CHUNK):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            pending.append(chunk[:cut])
            yield b"".join(pending)
            pending = [chunk[cut:]]
        else:  # inside a line longer than a chunk
            pending.append(chunk)
    yield b"".join(pending)


def utf8_lines(path: str | Path, error: type[ChatpulseError]) -> Iterator[str]:
    """The lines of a UTF-8 text file, exactly as ``str.splitlines`` gives them.

    The file is read ``READ_CHUNK`` bytes at a time and never held whole;
    each block of whole lines is decoded alone and split, and the lines of
    the blocks add up to those of the whole text. The whole file is checked
    before this returns: one that is not UTF-8 raises ``error`` naming the
    first bad byte.
    """
    path = Path(path)
    _check_utf8(path, error)
    return _decoded_lines(path)


def _check_utf8(path: Path, error: type[ChatpulseError]) -> None:
    """Raise ``error`` naming the first bad byte unless the file is UTF-8.

    The file is read ``READ_CHUNK`` bytes at a time, as :func:`utf8_lines`
    reads it. The byte is counted from the start of the file, as in a
    ``UnicodeDecodeError`` from decoding the whole file.
    """
    with open(path, "rb") as fh:
        offset = 0
        for block in _line_blocks(fh):
            try:
                block.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(
                    f"{path}: not UTF-8 text (byte {offset + exc.start})"
                ) from exc
            offset += len(block)


def _decoded_lines(path: Path) -> Iterator[str]:
    with open(path, "rb") as fh:
        for block in _line_blocks(fh):
            yield from block.decode("utf-8").splitlines()


def _csv_lines(fh) -> Iterator[str]:
    """A binary UTF-8 file's lines as ``open(path, newline="")`` gives them to
    ``csv.reader``, each block decoded alone as in :func:`_decoded_lines`,
    less one leading byte-order mark. A file with no ``"\\n"`` is one block."""
    blocks = (io.StringIO(b.decode("utf-8"), newline="") for b in _line_blocks(fh))
    return _without_bom(chain.from_iterable(blocks))


def _without_bom(lines: Iterable[str]) -> Iterator[str]:
    """``lines`` with one U+FEFF, a byte-order mark, dropped from the start
    of the first; every text reader drops it this way."""
    lines = iter(lines)
    return chain([line.removeprefix("\ufeff") for line in islice(lines, 1)], lines)


_CANONICAL_HEADER = (",".join(LOG_CSV_HEADER) + "\n").encode()


def _canonical_columns(path: Path) -> tuple[tuple[int, ...], array] | None:
    """The columns of a CSV log in ``dump_log``'s form, or None for a file in
    any other form.

    That form is the header line, then rows of two ASCII digit runs, each
    row ending in ``\\n``, whose timestamps fit in int64. Each block of
    whole lines is checked and split by bytes methods, with no Python code
    per row. A file that passes is ASCII, so it needs no UTF-8 check.
    """
    with open(path, "rb") as fh:
        if fh.read(len(_CANONICAL_HEADER)) != _CANONICAL_HEADER:
            return None
        rows = 0
        while chunk := fh.read(READ_CHUNK):
            rows += chunk.count(b"\n")
    # The users list is allocated at full length before any block is split,
    # and each block's timestamps are packed onto the array, so no row's time
    # outlives its block as an int object. Fresh-process report peaks on the
    # seed-12 corpora read 23.1 MiB (c9) and 17.7 MiB (burst) this way, 23.5
    # and 18.4 MiB with the users list grown by +=, and 24.0 and 19.6 MiB with
    # both columns allocated as lists and copied into tuples.
    users = [0] * rows
    stamps = array("q")
    at = 0
    # a user ID's int for each spelling, and one int for each value, as
    # _row_columns shares them: "301" and "0301" map to one object
    known: dict[bytes, int] = {}
    shared: dict[int, int] = {}
    with open(path, "rb") as fh:
        fh.seek(len(_CANONICAL_HEADER))
        for block in _line_blocks(fh):
            if not block:
                continue
            if not block.endswith(b"\n"):  # a last line with no line end
                return None
            # with the digits gone, a canonical block is ",\n" once per row
            seps = block.translate(None, b"0123456789")
            if seps.count(b",\n") * 2 != len(seps):
                return None
            fields = block.replace(b"\n", b",").split(b",")
            del fields[-1]  # the empty field after the last line end
            ids, times = fields[::2], fields[1::2]
            # int() rejects an empty field and the array a time past int64;
            # a file with either goes to csv.reader, which names the row
            try:
                ids = list(map(known.__getitem__, ids))
            except KeyError:  # a spelling first seen in this block
                new = set(ids).difference(known)
                try:
                    values = list(map(int, new))
                except ValueError:
                    return None
                known.update(zip(new, map(shared.setdefault, values, values)))
                ids = list(map(known.__getitem__, ids))
            try:
                stamps.fromlist(list(map(int, times)))
            except (ValueError, OverflowError):
                return None
            end = at + len(ids)
            users[at:end] = ids
            at = end
    del users[at:]
    return tuple(users), stamps


def load_log(path: str | Path, counts: dict | None = None) -> MessageLog:
    """Load a canonical log: JSONL if named ``*.jsonl``/``*.ndjson``, else CSV.

    A CSV log in ``dump_log``'s form is read a block of lines at a time.
    ``csv.reader`` reads any other CSV file, and :func:`_json_lines` a JSONL
    log (skipping blank lines), a row at a time under :func:`_row_columns`'
    rule, less one leading byte-order mark; only they report a bad file.
    Rows out of timestamp order are sorted by (timestamp, row); given
    ``counts``, its ``rows_resorted`` is set to how many rows the sort moved.
    """
    path = Path(path)
    source = str(path)
    if source.endswith((".jsonl", ".ndjson")):
        lines = utf8_lines(path, SchemaError)
        try:
            users, stamps = _row_columns(_jsonl_rows(lines, source), source, _json_int)
        finally:
            lines.close()
    elif (columns := _canonical_columns(path)) is not None:
        users, stamps = columns
    else:
        import csv

        _check_utf8(path, SchemaError)
        with open(path, "rb") as fh:
            reader = csv.reader(_csv_lines(fh))
            try:
                users, stamps = _row_columns(_csv_rows(reader, source), source, int)
            except csv.Error as exc:
                raise _csv_error(source, reader, exc) from exc
    users = tuple(users)
    try:
        log, moved = MessageLog(users, stamps), 0
    except ValueError:  # the readers reject negative IDs: rows out of order
        order = sorted(range(len(stamps)), key=stamps.__getitem__)  # stable
        moved = sum(map(operator.ne, order, range(len(order))))
        log = MessageLog(
            tuple([users[i] for i in order]),
            array("q", map(stamps.__getitem__, order)),
        )
    if counts is not None:
        counts["rows_resorted"] = moved
    return log


# rows joined into one string per yield: one yield per row costs more time
# than the batch's text costs memory
LOG_BATCH = 4096


def log_lines(log: MessageLog, fmt: str = "csv") -> Iterator[str]:
    """A log's canonical text, in joined batches of up to ``LOG_BATCH`` rows.

    An unknown ``fmt`` raises here, not when the first batch is read.
    """
    if fmt not in ("csv", "jsonl"):
        raise SchemaError(f"unknown log format {fmt!r}")
    return _log_batches(log.users, log.timestamps, fmt == "csv")


def _log_batches(users, stamps, csv_form: bool) -> Iterator[str]:
    if csv_form:
        yield ",".join(LOG_CSV_HEADER) + "\n"
    for lo in range(0, len(users), LOG_BATCH):
        pairs = zip(users[lo:lo + LOG_BATCH], stamps[lo:lo + LOG_BATCH])
        if csv_form:
            yield "".join([f"{u},{t}\n" for u, t in pairs])
        else:
            yield "".join([f'{{"u":{u},"t":{t}}}\n' for u, t in pairs])


def dump_log(log: MessageLog, fmt: str = "csv") -> str:
    """Serialize a log to its canonical textual form."""
    return "".join(log_lines(log, fmt))


def utc_timestamp(text: str) -> int:
    """Epoch seconds for an ISO date or datetime; naive values are UTC. A
    time between whole seconds raises ``ValueError``: no rounding keeps
    both a bound and a window grid aligned to it where they were meant."""
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    seconds, fraction = divmod(dt - _NAIVE_EPOCH.replace(tzinfo=timezone.utc), _SECOND)
    if fraction:
        raise ValueError("not a whole second")
    return seconds
