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
from collections.abc import Collection, Iterable, Iterator
from datetime import datetime, timedelta, timezone
from itertools import accumulate, chain, islice
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

# zoneinfo and logging serve only parse and the re-sort warning, and csv only
# files not in dump_log's form, so they are imported where used, not by every
# command. hashlib, hmac and secrets are imported nowhere: they load OpenSSL's
# libcrypto, and the builtin SHA-256 below does their work. Type checkers read
# this constant as true; importing it from typing would cost every command
# that module.
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
    """

    __slots__ = ("users", "timestamps")

    def __init__(self, users: tuple[int, ...], timestamps: tuple[int, ...]) -> None:
        if len(users) != len(timestamps):
            raise ValueError(
                f"{len(users)} user IDs but {len(timestamps)} timestamps"
            )
        if users and min(users) < 0:
            raise ValueError(f"negative user ID {min(users)}")
        if any(map(operator.gt, timestamps, timestamps[1:])):
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


def _clean_line(line: str) -> str:
    if line.isascii():  # every character rewritten below is non-ASCII
        return line
    line = line.replace(" ", " ").replace(" ", " ")
    return _INVISIBLE_MARKS.sub("", line)


def _local_epoch(
    zone: ZoneInfo, earliest: int | None, token: str,
    day: str, month: str, year: str, hour: str, minute: str,
    second: str | None, meridiem: str,
) -> int:
    """Epoch seconds of the header time ``token`` read in ``zone``.

    The fields are the parts of ``token`` a header regex captured. A
    two-digit year pivots as ``%y`` does (69-99 is 19xx, 00-68 is 20xx), a
    four-digit one is read as is, and any other length is an error. Seconds
    are 0 when absent or empty. With a meridiem (``A`` or ``P``, any case)
    the hour is on the 12-hour clock and must be 1-12. Raises ``ValueError``
    for a field out of range, such as 31/2 or a minute of 60, and for a
    token with digits outside ASCII.

    A local time repeated by a DST fall-back reads as its first occurrence
    unless that falls before ``earliest``; then it reads as the second
    (``fold=1``). A local time skipped by a spring-forward gap keeps the
    ``fold=0`` reading, the offset in force before the gap.
    """
    if not token.isascii():
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
    local = datetime(
        y, int(month), int(day), h, int(minute), int(second) if second else 0
    )
    ts = _zone_epoch(zone, local)
    if earliest is not None and ts < earliest:
        # fold=1 is later only for a repeated time, earlier in a gap
        ts = max(ts, _zone_epoch(zone, local.replace(fold=1)))
    return ts


_NAIVE_EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)


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
    One U+FEFF at the start of the first line is a byte-order mark and is
    dropped, as the ``utf-8-sig`` codec drops it.
    Line classification: a line matching the profile's header regex whose
    remainder contains ``Sender: `` starts a message; a matching line without
    a sender is a system notice (dropped); anything else continues the most
    recent message (dropped). A non-header line before the first message is a
    parse error, as is a timestamp that moves backward by more than ``slack``
    seconds (minute-precision exports legitimately produce same-minute ties,
    broken by file order). In the hour a DST fall-back repeats, a time that
    would move backward that far reads as the hour's second occurrence.
    """
    if slack < 0:
        raise ParameterError(f"slack must be >= 0 seconds, got {slack}")
    if profile not in PROFILES:
        raise ParameterError(
            f"unknown export profile {profile!r}; available: {sorted(PROFILES)}"
        )
    header = re.compile(PROFILES[profile])
    zone = _resolve_zone(tz)

    users: list[int] = []
    stamps: list[int] = []
    senders: list[str] = []
    ids: dict[str, int] = {}
    seen_any = False
    prev_ts: int | None = None
    # headers have minute precision, so a time token often repeats the last
    last_token: str | None = None
    last_epoch = 0  # fold=0 reading of last_token

    if isinstance(lines, str):
        lines = lines.splitlines()
    for line_no, raw in enumerate(_without_bom(lines), start=1):
        line = _clean_line(raw)
        match = header.match(line)
        if match is None:
            if not seen_any:
                raise ParseError(
                    "not a header line and no preceding message to continue", line_no
                )
            continue  # continuation of the previous message; body discarded
        seen_any = True
        rest = match.group("rest")
        sep = rest.find(": ")
        if sep <= 0:
            # Header without `Sender: ` - a system notice (join, subject
            # change, encryption banner). No human sender, no event.
            continue
        sender = rest[:sep].strip()
        token = match.group("ts")
        earliest = None if prev_ts is None else prev_ts - slack
        try:
            if token != last_token:
                last_epoch = _local_epoch(
                    zone, None, *match.group("ts", *_TIME_FIELDS)
                )
                last_token = token
            ts = last_epoch
            if earliest is not None and ts < earliest:
                ts = _local_epoch(zone, earliest, *match.group("ts", *_TIME_FIELDS))
        except ValueError:
            raise ParseError(f"unparseable timestamp {token!r}", line_no) from None
        if earliest is not None and ts < earliest:
            raise OrderingError(
                f"timestamp moves backward by {prev_ts - ts}s (slack={slack}s)",
                line_no,
            )
        prev_ts = max(prev_ts, ts) if prev_ts is not None else ts
        if sender not in ids:
            ids[sender] = len(senders)
            senders.append(sender)
        users.append(ids[sender])
        stamps.append(ts)

    # Within-slack regressions are clamped so the log stays non-decreasing.
    if slack > 0:
        stamps = accumulate(stamps, max)
    log = MessageLog(tuple(users), tuple(stamps))
    return ParsedTranscript(log=log, senders=tuple(senders))


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

    with _open_csv(Path(path)) as fh:
        reader = csv.reader(fh)
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


def _row_from_jsonl(line: str, line_no: int, source: str) -> tuple[int, int]:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{source}: line {line_no}: invalid JSON") from exc
    if not isinstance(obj, dict) or "u" not in obj or "t" not in obj:
        raise SchemaError(f"{source}: line {line_no}: expected keys 'u' and 't'")
    user, ts = obj["u"], obj["t"]
    if isinstance(user, bool) or not isinstance(user, int):
        raise SchemaError(f"{source}: line {line_no}: bad user ID {user!r}")
    if isinstance(ts, bool) or not isinstance(ts, int):
        raise SchemaError(f"{source}: line {line_no}: unparsable timestamp {ts!r}")
    if user < 0:
        raise SchemaError(f"{source}: line {line_no}: negative user ID {user}")
    return user, ts


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


def _without_bom(lines: Iterable[str]) -> Iterator[str]:
    """``lines`` with one U+FEFF dropped from the start of the first, as the
    ``utf-8-sig`` codec drops a byte-order mark."""
    lines = iter(lines)
    return chain([line.removeprefix("\ufeff") for line in islice(lines, 1)], lines)


def _open_csv(path: Path) -> io.TextIOWrapper:
    """A UTF-8 CSV file opened for ``csv.reader``, once the whole file is
    checked; the text is read a line at a time and one leading byte-order
    mark is dropped. A file that is not UTF-8 raises ``SchemaError``."""
    _check_utf8(path, SchemaError)
    return open(path, encoding="utf-8-sig", newline="")


_CANONICAL_HEADER = (",".join(LOG_CSV_HEADER) + "\n").encode()
_MAX_DIGITS = 18  # a longer field goes through csv.reader and int(str)


def _canonical_columns(path: Path) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The columns of a CSV log in ``dump_log``'s form, or None for a file in
    any other form.

    That form is the header line, then rows of two ASCII digit runs, each
    row ending in ``\\n``. Each block of whole lines is checked and split
    by bytes methods, with no Python code per row. A file that passes is
    ASCII, so it needs no UTF-8 check.
    """
    with open(path, "rb") as fh:
        if fh.read(len(_CANONICAL_HEADER)) != _CANONICAL_HEADER:
            return None
        rows = 8  # spare slots (see below), then one per line end
        while chunk := fh.read(READ_CHUNK):
            rows += chunk.count(b"\n")
    # Both columns are allocated at full length before any block is split,
    # with a few spare slots: the stamps tuple, whose header makes it 40
    # bytes longer than a list's item array, then fits where the users list
    # was. On 80k-row logs, a report's peak RSS rose by 0.6 MiB with exact
    # allocation and no spare slots, by 0.9-2.6 MiB with lists grown by +=,
    # and by 1.0-1.6 MiB with per-block lists joined by chain.
    users = [0] * rows
    stamps = [0] * rows
    at = 0
    known: dict[bytes, int] = {}  # one int per user-ID spelling, as in load_log
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
            try:
                ids = list(map(known.__getitem__, ids))
            except KeyError:  # a spelling first seen in this block
                new = set(ids).difference(known)
                if not _short_digit_runs(new):
                    return None
                known.update(zip(new, map(int, new)))
                ids = list(map(known.__getitem__, ids))
            if not _short_digit_runs(times):
                return None
            end = at + len(ids)
            users[at:end] = ids
            stamps[at:end] = map(int, times)
            at = end
    del users[at:], stamps[at:]
    # each list goes as soon as its tuple exists, so that three of the four
    # arrays are live at once, not all four
    users_column = tuple(users)
    del users
    return users_column, tuple(stamps)


def _short_digit_runs(fields: Collection[bytes]) -> bool:
    """Whether every field holds 1 to ``_MAX_DIGITS`` digits, given that
    each holds nothing else."""
    return b"" not in fields and max(map(len, fields), default=0) <= _MAX_DIGITS


def load_log(path: str | Path) -> MessageLog:
    """Load a canonical log: JSONL if named ``*.jsonl``/``*.ndjson``, else CSV.

    A CSV log in ``dump_log``'s form is read a block of lines at a time;
    any other CSV file, and every JSONL log, is read a line at a time, and
    one leading byte-order mark is dropped. Only the line reader reports
    what is wrong with a file.
    """
    path = Path(path)
    source = str(path)
    users: list[int] = []
    stamps: list[int] = []
    add_user, add_stamp = users.append, stamps.append
    if source.endswith((".jsonl", ".ndjson")):
        # one int per user ID: json.loads makes a new object for every row
        # above 256
        known_ids: dict[int, int] = {}
        lines = _without_bom(utf8_lines(path, SchemaError))
        for line_no, line in enumerate(lines, start=1):
            if line.strip():
                user, ts = _row_from_jsonl(line, line_no, source)
                add_user(known_ids.setdefault(user, user))
                add_stamp(ts)
    elif (columns := _canonical_columns(path)) is not None:
        users, stamps = columns
    else:
        import csv

        # one int per user-ID spelling: int() makes a new object for every
        # row above 256, and int() and the sign check run once per spelling
        known: dict[str, int] = {}
        with _open_csv(path) as fh:
            reader = csv.reader(fh)
            try:
                if next(reader, None) != LOG_CSV_HEADER:
                    raise SchemaError(
                        f"{source}: missing header {','.join(LOG_CSV_HEADER)}"
                    )
                # line numbers count CSV records, as csv.reader yields them
                for line_no, row in enumerate(reader, start=2):
                    if len(row) != 2:
                        raise SchemaError(
                            f"{source}: line {line_no}: expected 2 columns,"
                            f" got {len(row)}"
                        )
                    raw_user, raw_ts = row
                    user = known.get(raw_user)
                    if user is None:
                        try:
                            new_user = int(raw_user)
                        except ValueError as exc:
                            raise SchemaError(
                                f"{source}: line {line_no}: bad user ID {raw_user!r}"
                            ) from exc
                    try:
                        add_stamp(int(raw_ts))
                    except ValueError as exc:
                        raise SchemaError(
                            f"{source}: line {line_no}: unparsable timestamp"
                            f" {raw_ts!r}"
                        ) from exc
                    if user is None:
                        if new_user < 0:
                            raise SchemaError(
                                f"{source}: line {line_no}: negative user ID"
                                f" {new_user}"
                            )
                        user = known[raw_user] = new_user
                    add_user(user)
            except csv.Error as exc:
                raise _csv_error(source, reader, exc) from exc
    users, stamps = tuple(users), tuple(stamps)
    try:
        return MessageLog(users, stamps)
    except ValueError:  # the readers reject negative IDs: rows out of order
        import logging

        logging.getLogger(__name__).warning(
            "%s: rows out of order; re-sorting by (timestamp, row)", source
        )
    order = sorted(range(len(stamps)), key=stamps.__getitem__)  # stable
    return MessageLog(
        tuple([users[i] for i in order]), tuple([stamps[i] for i in order])
    )


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
    """Epoch seconds for an ISO date or datetime; naive values are UTC."""
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())
