"""Transcript parsing, anonymization, and canonical log I/O."""

from __future__ import annotations

import importlib.resources
import json
import logging
import sys
import tracemalloc
import zoneinfo
from array import array
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from types import SimpleNamespace
from zoneinfo import ZoneInfo, available_timezones

import pytest

from chatpulse import (
    MappingConflictError,
    MessageLog,
    OrderingError,
    ParameterError,
    ParseError,
    SchemaError,
    anonymize,
    dump_log,
    dump_mapping,
    load_log,
    log_lines,
    parse_transcript,
    read_mapping,
)
from chatpulse import chatlog
from chatpulse.chatlog import (
    PARSE_BATCH,
    READ_CHUNK,
    _hour_start,
    _local_epoch,
    utc_timestamp,
    utf8_lines,
)
from chatpulse.cli import EXIT_OK, EXIT_SCHEMA, main
import oracles
from oracles import INT64_MAX, INT64_MIN, read_utf8


def test_two_lines_same_sender():
    text = "3/7/18, 23:31 - Alice: hello\n3/7/18, 23:32 - Alice: again"
    log = parse_transcript(text).log
    assert len(log) == 2
    assert log.users == (0, 0)


def test_continuation_collapses_into_one_event():
    text = "3/7/18, 23:31 - Alice: first line\nsecond line without header"
    log = parse_transcript(text).log
    assert len(log) == 1


def test_first_appearance_ids_follow_message_order():
    text = (
        "3/7/18, 23:31 - A: m1\n"
        "3/7/18, 23:32 - D: m2\n"
        "3/7/18, 23:33 - A: m3\n"
        "3/7/18, 23:34 - C: m4"
    )
    parsed = parse_transcript(text)
    assert parsed.senders == ("A", "D", "C")
    assert parsed.log.users == (0, 1, 0, 2)


def test_system_lines_produce_no_events():
    text = (
        "3/7/18, 23:30 - Messages to this group are now secured with "
        "end-to-end encryption. Tap for more info.\n"
        "3/7/18, 23:31 - Alice: hi\n"
        "3/7/18, 23:32 - Bob added Carol\n"
        "3/7/18, 23:33 - Bob: hello"
    )
    log = parse_transcript(text).log
    assert len(log) == 2
    assert set(log.users) == {0, 1}


def test_media_placeholder_counts_as_message():
    text = "3/7/18, 23:31 - Alice: <Media omitted>\n3/7/18, 23:32 - Bob: ok"
    assert len(parse_transcript(text).log) == 2


def test_event_count_equals_message_start_lines():
    lines = []
    for i in range(50):
        lines.append(f"3/7/18, 10:{i:02d} - User{i % 7}: msg {i}")
        if i % 5 == 0:
            lines.append("a continuation line")
    assert len(parse_transcript("\n".join(lines)).log) == 50


def test_malformed_first_line_is_parse_error_with_line_number():
    with pytest.raises(ParseError) as err:
        parse_transcript("this is not an export at all")
    assert err.value.line_no == 1


def test_header_shaped_line_with_impossible_date_is_parse_error():
    text = "3/7/18, 23:31 - Alice: ok\n99/99/18, 23:32 - Bob: bad"
    with pytest.raises(ParseError) as err:
        parse_transcript(text)
    assert err.value.line_no == 2


def test_backward_timestamp_rejected_and_slack_tolerates():
    text = "3/7/18, 23:31 - Alice: a\n3/7/18, 23:29 - Bob: b"
    with pytest.raises(OrderingError):
        parse_transcript(text)
    log = parse_transcript(text, slack=180).log
    assert list(log.timestamps) == sorted(
        log.timestamps
    )


def test_negative_slack_rejected():
    with pytest.raises(ParameterError):
        parse_transcript("3/7/18, 23:31 - Alice: a", slack=-5)


def test_dst_fall_back_hour_reads_second_occurrence_when_needed():
    # Sao Paulo left DST at 2019-02-17 00:00, repeating 23:00-23:59 of the 16th
    text = (
        "16/2/19, 23:50 - Alice: hi\n"
        "16/2/19, 23:10 - Bob: yo\n"
        "17/2/19, 00:05 - Alice: ok"
    )
    log = parse_transcript(text, tz="America/Sao_Paulo").log
    assert log.timestamps == array("q", [1550368200, 1550369400, 1550372700])
    # a regression within --slack is jitter: clamped, not moved an hour ahead
    jitter = "16/2/19, 23:50 - Alice: hi\n16/2/19, 23:49 - Bob: yo"
    log = parse_transcript(jitter, tz="America/Sao_Paulo", slack=120).log
    assert log.timestamps == array("q", [1550368200, 1550368200])


def test_repeated_time_token_in_fall_back_hour_keeps_second_reading():
    # the repeated 23:10 reads as the hour's second occurrence, like the first
    text = (
        "16/2/19, 23:50 - Alice: hi\n"
        "16/2/19, 23:10 - Bob: yo\n"
        "16/2/19, 23:10 - Alice: again\n"
        "16/2/19, 23:50 - Bob: later"
    )
    log = parse_transcript(text, tz="America/Sao_Paulo").log
    assert log.timestamps == array(
        "q", [1550368200, 1550369400, 1550369400, 1550371800]
    )


def test_dst_spring_forward_gap_keeps_offset_before_the_gap():
    # Sao Paulo skipped 2018-11-04 00:00-00:59; 00:30 reads at UTC-3
    log = parse_transcript("4/11/18, 00:30 - Alice: hi", tz="America/Sao_Paulo").log
    assert log.timestamps[0] == 1541302200


OFFSET_ZONES = [
    "America/Sao_Paulo", "Europe/London",
    "Australia/Lord_Howe",  # a 30-minute DST shift
    "Asia/Kathmandu",  # +05:45, no DST
]


def offset_changes(zone, years=(2018, 2019), step=3600):
    """UTC instants at which ``zone``'s UTC offset changes in ``years``: the
    first second of each new offset. The years are scanned ``step`` seconds
    at a time, so a change undone within one step goes unseen."""
    def offset(t):
        return datetime.fromtimestamp(t, zone).utcoffset()

    t = int(datetime(years[0], 1, 1, tzinfo=timezone.utc).timestamp())
    stop = int(datetime(years[-1] + 1, 1, 1, tzinfo=timezone.utc).timestamp())
    changes = []
    before = offset(t)
    while t < stop:
        lo, hi = t, min(t + step, stop)
        after = offset(hi)
        if after != before:
            while hi - lo > 1:  # to the first second of the next offset
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if offset(mid) == before else (lo, mid)
            changes.append(hi)
            before = offset(hi)  # a second change in this step is scanned next
        else:
            before = after
        t = hi
    return changes


def offset_change_dates(zone, years=(2018, 2019)):
    """Local dates on which ``zone``'s UTC offset changes, found by scanning
    the years hour by hour in UTC; each date is read at the new offset."""
    return {datetime.fromtimestamp(t, zone).date() for t in offset_changes(zone, years)}


def bracket_fields(local: datetime) -> tuple[str, ...]:
    """The seven time fields a whatsapp-bracket header of ``local`` holds."""
    return (
        str(local.day), str(local.month), f"{local.year:04d}", f"{local.hour:02d}",
        f"{local.minute:02d}", f"{local.second:02d}", "",
    )


@pytest.mark.parametrize("tz", OFFSET_ZONES)
def test_local_epoch_matches_aware_timestamp_every_minute(tz):
    # a header time must read as the aware time's timestamp gives it, for
    # both readings of a time: the first as a one-line export reads it, and
    # the second as _local_epoch reads it for parse when an earliest time
    # after the first asks for the fold=1 reading
    zone = ZoneInfo(tz)
    changes = offset_change_dates(zone)
    assert bool(changes) == (tz != "Asia/Kathmandu")
    days = changes | {date(2018, 6, 15), date(1, 1, 1), date(9999, 12, 31)}
    mismatches = []
    for day in sorted(days):
        for minute in range(1440):
            hour, minute = divmod(minute, 60)
            local = datetime(*day.timetuple()[:3], hour, minute, 59)
            fields = bracket_fields(local)
            line = "[{}/{}/{}, {}:{}:{}] Ann: hi".format(*fields)
            aware = local.replace(tzinfo=zone)
            first = int(aware.timestamp())
            expected = first, max(first, int(aware.replace(fold=1).timestamp()))
            parsed = parse_transcript(line, tz=zone, profile="whatsapp-bracket")
            got = parsed.log.timestamps[0], _local_epoch(zone, first + 1, *fields)
            if got != expected:
                mismatches.append((fields, got, expected))
    assert mismatches == []


# hh:mm:59 from hh:00:00, for each minute of an hour
MINUTE_ENDS = [timedelta(minutes=minute, seconds=59) for minute in range(60)]


def test_hour_offsets_match_aware_timestamps_in_every_zone():
    # parse reads a time as its hour's start plus its minutes and seconds
    # where _hour_start finds one offset through the hour; that rule holds
    # if no zone changes its offset twice within an hour. Every zone's
    # changes in 2018-2019 are checked, from the hour before each to the
    # hour after, every minute, both folds. A daily scan finds the same
    # changes as an hourly one here (891), at a twentieth of the time.
    mismatches = []
    split_hours = 0
    for tz in sorted(available_timezones()):
        zone = ZoneInfo(tz)
        for change in offset_changes(zone, step=86_400):
            old = datetime.fromtimestamp(change - 1, zone).replace(tzinfo=None)
            new = datetime.fromtimestamp(change, zone).replace(tzinfo=None)
            hour = min(old, new).replace(minute=0, second=0) - timedelta(hours=1)
            while hour <= max(old, new) + timedelta(hours=1):
                day, month, year, hh = bracket_fields(hour)[:4]
                start = _hour_start(zone, day, month, year, hh, "")
                split_hours += start is None
                aware_hour = hour.replace(tzinfo=zone)
                for minute, end in enumerate(MINUTE_ENDS):
                    fields = (day, month, year, hh, f"{minute:02d}", "59", "")
                    aware = aware_hour + end
                    first = int(aware.timestamp())
                    expected = first, max(first, int(aware.replace(fold=1).timestamp()))
                    cached = (
                        _local_epoch(zone, None, *fields) if start is None
                        else start + minute * 60 + 59
                    )
                    got = cached, _local_epoch(zone, first + 1, *fields)
                    if got != expected:
                        mismatches.append((tz, fields, got, expected))
                hour += timedelta(hours=1)
    assert mismatches == []
    assert split_hours  # some hours change their offset inside


def tzdata_files() -> dict[str, bytes]:
    """The TZif bytes of each zone of the tzdata that zoneinfo reads here:
    the first ``zoneinfo.TZPATH`` directory that holds the zone, else the
    ``tzdata`` package."""
    files = {}
    for key in sorted(available_timezones()):
        for base in zoneinfo.TZPATH:
            path = Path(base, key)
            if path.is_file():
                files[key] = path.read_bytes()
                break
        else:
            try:
                package = importlib.resources.files("tzdata.zoneinfo")
                files[key] = package.joinpath(*key.split("/")).read_bytes()
            except (ModuleNotFoundError, OSError):
                pass
    return files


def test_no_zone_changes_its_offset_twice_within_an_hour():
    # _hour_start reads one offset through a local hour when the offsets at
    # its first and last second agree; a zone that changed its offset and
    # changed it back less than an hour later would fool it. Every zone of
    # the tzdata here is read from its TZif file, and the reader is checked
    # against zoneinfo at each change from 1900 to 2037.
    files = tzdata_files()
    if not files:
        pytest.skip("no tzdata found")
    changes = 0
    near = []  # (zone, first change, second change) less than an hour apart
    for key, data in files.items():
        zone = ZoneInfo(key)
        offset, transitions = oracles.tzif_offsets(data)
        last = None
        for at, new in transitions:
            if new == offset:
                continue  # a change of name or of DST flag alone
            if -2_208_988_800 <= at < 2_145_916_800:  # 1900 to 2037
                before = datetime.fromtimestamp(at - 1, zone).utcoffset()
                after = datetime.fromtimestamp(at, zone).utcoffset()
                assert (before.total_seconds(), after.total_seconds()) == (offset, new)
            if last is not None and at - last < 3600:
                near.append((key, last, at))
            changes += 1
            last, offset = at, new
    assert near == []
    assert changes > 1000  # the files were read


def test_same_minute_ties_are_fine_and_ordered_by_file():
    text = "3/7/18, 23:31 - Alice: a\n3/7/18, 23:31 - Bob: b"
    log = parse_transcript(text).log
    assert log.users == (0, 1)
    assert log.timestamps[0] == log.timestamps[1]


def test_timezone_shifts_epoch():
    text = "3/7/18, 12:00 - Alice: hi"
    utc = parse_transcript(text).log.timestamps[0]
    sp = parse_transcript(text, tz="America/Sao_Paulo").log.timestamps[0]
    assert sp - utc == 3 * 3600  # Sao Paulo is UTC-3 in July


def test_bracket_and_us_profiles():
    text = "[3/7/18, 23:31:10] Alice: hi"
    log = parse_transcript(text, profile="whatsapp-bracket").log
    assert len(log) == 1
    text = "7/3/18, 11:31 PM - Alice: hi"
    log = parse_transcript(text, profile="whatsapp-us-dash").log
    assert len(log) == 1
    assert log.timestamps[0] == utc_timestamp("2018-07-03T23:31:00Z")


def test_us_meridiem_without_space_reads_like_spaced():
    spaced = parse_transcript("8/1/18, 9:05 PM - Ann: hi\n", profile="whatsapp-us-dash")
    tight = parse_transcript("8/1/18, 9:05PM - Ann: hi\n", profile="whatsapp-us-dash")
    assert tight == spaced
    assert tight.log.timestamps == array("q", [utc_timestamp("2018-08-01T21:05:00Z")])


@pytest.mark.parametrize(
    "line, token",
    [
        ("8/1/18, 0:05 PM - Ann: hi", "8/1/18, 0:05 PM"),
        ("8/1/18, 13:05 PM - Ann: hi", "8/1/18, 13:05 PM"),
        ("8/1/018, 9:05 AM - Ann: hi", "8/1/018, 9:05 AM"),
        # digits outside ASCII are refused even where \d matches them
        ("8/\u0661/18, 9:05 AM - Ann: hi", "8/\u0661/18, 9:05 AM"),
    ],
)
def test_bad_us_header_time_is_parse_error(line, token):
    with pytest.raises(ParseError) as err:
        parse_transcript(f"8/1/18, 9:00 AM - Ann: ok\n{line}", profile="whatsapp-us-dash")
    assert str(err.value) == f"line 2: unparseable timestamp {token!r}"


@pytest.mark.parametrize(
    "bad, error, detail",
    [
        ("3/7/18, 11:00 - Bob: early", OrderingError,
         "timestamp moves backward by 3600s (slack=0s)"),
        ("3/7/18, 12:61 - Bob: odd", ParseError,
         "unparseable timestamp '3/7/18, 12:61'"),
    ],
)
def test_errors_after_a_batch_boundary_name_their_line(bad, error, detail):
    # the bad header is in the second batch, after continuation lines
    lines = ["3/7/18, 12:00 - Ann: hi", "more"] * PARSE_BATCH
    lines[PARSE_BATCH + 8] = bad
    with pytest.raises(error) as err:
        parse_transcript("\n".join(lines))
    assert str(err.value) == f"line {PARSE_BATCH + 9}: {detail}"


def test_a_line_holding_a_line_break_is_refused():
    with pytest.raises(ValueError, match="line break"):
        parse_transcript(["3/7/18, 10:00 - Ann: hi\n3/7/18, 10:01 - Bob: yo"])


def test_en_dash_separator_accepted():
    log = parse_transcript("3/7/18, 23:31 – Alice: hi").log
    assert len(log) == 1


def test_empty_transcript_gives_empty_log():
    log = parse_transcript("").log
    assert len(log) == 0 and log.users == () and log.timestamps == array("q")


# --- anonymization -----------------------------------------------------------

FIXTURE = "\n".join(
    f"3/7/18, 10:{i:02d} - Sender {i % 5}: body" for i in range(25)
)


def test_anonymize_deterministic_under_fixed_salt():
    parsed = parse_transcript(FIXTURE)
    a = anonymize(parsed, salt=b"\x01" * 16)
    b = anonymize(parsed, salt=b"\x01" * 16)
    assert a.mapping == b.mapping
    assert a.log == b.log


def test_anonymize_different_salts_permute_same_id_set():
    parsed = parse_transcript(FIXTURE)
    a = anonymize(parsed, salt=b"\x01" * 16)
    b = anonymize(parsed, salt=b"\x02" * 16)
    assert sorted(a.mapping.values()) == sorted(b.mapping.values()) == list(range(5))
    assert set(a.log.users) == set(b.log.users)


def test_anonymize_628_senders_get_dense_ids():
    text = "\n".join(f"3/7/18, 10:00 - Person {i}: x" for i in range(628))
    anon = anonymize(parse_transcript(text), salt=b"s" * 8)
    assert sorted(anon.mapping.values()) == list(range(628))
    assert len(set(anon.log.users)) == 628


def test_anonymize_generates_salt_when_missing():
    parsed = parse_transcript(FIXTURE)
    anon = anonymize(parsed)
    assert len(anon.salt) == 16
    assert sorted(anon.mapping.values()) == list(range(5))


def test_prior_mapping_preserved_and_extended(tmp_path):
    salt = b"fixed-salt"
    short = parse_transcript("\n".join(FIXTURE.splitlines()[:10]))  # senders 0..4
    first = anonymize(short, salt=salt)
    path = tmp_path / "mapping.csv"
    path.write_text(dump_mapping(first.mapping))

    longer_text = FIXTURE + "\n3/7/18, 11:00 - Newcomer: hi"
    second = anonymize(
        parse_transcript(longer_text), salt=salt, prior_mapping=read_mapping(path)
    )
    for digest, user_id in first.mapping.items():
        assert second.mapping[digest] == user_id
    assert sorted(second.mapping.values()) == list(range(6))


@pytest.mark.parametrize(
    "prior",
    [
        {"aa": 0, "bb": 0},  # duplicate ID
        {"aa": 0, "bb": 2},  # gap
        {"aa": -1},  # negative
    ],
)
def test_inconsistent_prior_mapping_conflicts(prior):
    parsed = parse_transcript(FIXTURE)
    with pytest.raises(MappingConflictError):
        anonymize(parsed, salt=b"x", prior_mapping=prior)


def test_mapping_file_round_trip(tmp_path):
    anon = anonymize(parse_transcript(FIXTURE), salt=b"roundtrip")
    path = tmp_path / "mapping.csv"
    path.write_text(dump_mapping(anon.mapping))
    assert read_mapping(path) == anon.mapping
    header = path.read_text().splitlines()[0]
    assert header == "hashed_sender,user_id"


# --- canonical log files -----------------------------------------------------

def test_load_log_csv_and_jsonl_equivalence(tmp_path):
    csv_path = tmp_path / "log.csv"
    csv_path.write_text("user_id,timestamp\n0,100\n1,160\n0,220\n")
    jsonl_path = tmp_path / "log.jsonl"
    jsonl_path.write_text('{"u":0,"t":100}\n{"u":1,"t":160}\n{"u":0,"t":220}\n')
    a = load_log(csv_path)
    b = load_log(jsonl_path)
    assert a.users == b.users == (0, 1, 0)
    assert a.timestamps == b.timestamps == array("q", [100, 160, 220])


def test_round_trip_is_byte_identical(tmp_path):
    for fmt in ("csv", "jsonl"):
        path = tmp_path / f"log.{fmt}"
        events = [(0, 100), (1, 160), (2, 160), (0, 400)]
        if fmt == "csv":
            path.write_text(
                "user_id,timestamp\n" + "".join(f"{u},{t}\n" for u, t in events)
            )
        else:
            path.write_text("".join(f'{{"u":{u},"t":{t}}}\n' for u, t in events))
        original = path.read_bytes()
        out = tmp_path / f"copy.{fmt}"
        out.write_text(dump_log(load_log(path), fmt))
        assert out.read_bytes() == original


def test_out_of_order_rows_resorted_and_counted(tmp_path, caplog):
    path = tmp_path / "log.csv"
    path.write_text("user_id,timestamp\n0,300\n1,100\n2,200\n3,100\n")
    counts = {}
    with caplog.at_level(logging.DEBUG):
        log = load_log(path, counts)
    assert caplog.records == []  # the re-sort is counted, not logged
    assert log.timestamps == array("q", [100, 100, 200, 300])
    assert log.users == (1, 3, 2, 0)  # ties keep their row order
    assert counts == {"rows_resorted": 3}  # the row at 200 stays third
    assert load_log(path) == log
    path.write_text("user_id,timestamp\n1,100\n3,100\n2,200\n0,300\n")
    assert load_log(path, counts) == log
    assert counts == {"rows_resorted": 0}


def test_ordered_log_is_checked_for_order_once(tmp_path, monkeypatch):
    path = tmp_path / "log.csv"
    path.write_text("user_id,timestamp\n0,100\n1,100\n2,200\n0,300\n")
    compared = []

    def gt(a, b):
        compared.append((a, b))
        return a > b

    monkeypatch.setattr(chatlog, "operator", SimpleNamespace(gt=gt))
    assert load_log(path).timestamps == array("q", [100, 100, 200, 300])
    assert compared == [(100, 100), (100, 200), (200, 300)]


# body -> the SchemaError text after "<path>: "; line numbers count CSV records
BAD_CSV = {
    "wrong,header\n0,100\n": "missing header user_id,timestamp",
    "user_id,timestamp\n0\n": "line 2: expected 2 columns, got 1",
    "user_id,timestamp\n0,notanumber\n": "line 2: unparsable timestamp 'notanumber'",
    "user_id,timestamp\n-1,100\n": "line 2: negative user ID -1",
    "": "missing header user_id,timestamp",
    "user_id,timestamp\n0,100\n\n1,200\n": "line 3: expected 2 columns, got 0",
    "user_id,timestamp\n0,100\n1,200\n\n": "line 4: expected 2 columns, got 0",
    "user_id,timestamp\n0,100\n1,200,3\n": "line 3: expected 2 columns, got 3",
    "user_id,timestamp\n1.5,100\n": "line 2: bad user ID '1.5'",
    "user_id,timestamp\n0,1.5\n": "line 2: unparsable timestamp '1.5'",
    "user_id,timestamp\ntrue,100\n": "line 2: bad user ID 'true'",
    "user_id,timestamp\n0,true\n": "line 2: unparsable timestamp 'true'",
    'user_id,timestamp\n"1\n",100\n-2,5\n': "line 3: negative user ID -2",
    # after rows that repeat one ID, so its spelling is already known
    "user_id,timestamp\n301,100\n301,160\n301,220\n-301,280\n":
        "line 5: negative user ID -301",
    "user_id,timestamp\n301,100\n301,160\n301,220\n30l,280\n":
        "line 5: bad user ID '30l'",
    "user_id,timestamp\n301,100\n301,160\n301,x\n": "line 4: unparsable timestamp 'x'",
    # the timestamp is checked before the sign
    "user_id,timestamp\n-1,x\n": "line 2: unparsable timestamp 'x'",
    # a last line of digits alone, with no line end
    "user_id,timestamp\n1,5\n7": "line 3: expected 2 columns, got 1",
    "user_id,timestamp\n12345": "line 2: expected 2 columns, got 1",
}
# a bad row after several blocks of good ones: the block reader gives the
# file to the row reader, which counts lines from the start
LATE_3_COLUMNS = (
    "user_id,timestamp\n"
    + "".join(f"{i % 7},{1_533_081_600 + i}\n" for i in range(4998))
    + "1,1533086600,3\n"
)
BAD_CSV[LATE_3_COLUMNS] = "line 5000: expected 2 columns, got 3"
BAD_CSV_IDS = {LATE_3_COLUMNS: "3-columns-at-line-5000"}


@pytest.mark.parametrize(
    "body", [pytest.param(body, id=BAD_CSV_IDS.get(body)) for body in BAD_CSV]
)
def test_bad_csv_rejected(tmp_path, body):
    path = tmp_path / "log.csv"
    path.write_text(body)
    with pytest.raises(SchemaError) as err:
        load_log(path)
    assert str(err.value) == f"{path}: {BAD_CSV[body]}"


@pytest.mark.parametrize(
    "body", ['user_id,timestamp\n"1","2"\n', "user_id,timestamp\n1, 2\n"]
)
def test_quoted_and_spaced_csv_values_accepted(tmp_path, body):
    path = tmp_path / "log.csv"
    path.write_text(body)
    log = load_log(path)
    assert (log.users, log.timestamps) == ((1,), array("q", [2]))


def test_csv_rows_of_one_user_id_share_one_int(tmp_path):
    # int() and json.loads share their cached objects only up to 256
    users = [301, 4000, 70_000] * 4
    log = MessageLog(tuple(users), tuple(range(len(users))))
    texts = {f"log.{fmt}": dump_log(log, fmt) for fmt in ("csv", "jsonl")}
    # CRLF is not dump_log's form, so csv.reader reads this one; each value
    # is spelled three ways, as 301, " 301" and "0301"
    texts["crlf.csv"] = "user_id,timestamp\r\n" + "".join(
        f"{(f'{u}', f' {u}', f'0{u}')[i // 3 % 3]},{i}\r\n"
        for i, u in enumerate(users)
    )
    # LF and digits alone are dump_log's form, so the block reader reads
    # this one, with each value spelled as 301 and 0301
    texts["spelled.csv"] = "user_id,timestamp\n" + "".join(
        f"{(f'{u}', f'0{u}')[i // 3 % 2]},{i}\n" for i, u in enumerate(users)
    )
    for name, text in texts.items():
        path = tmp_path / name
        path.write_bytes(text.encode())
        loaded = load_log(path)
        assert loaded.users == tuple(users)
        assert len({id(u) for u in loaded.users}) == len(set(users)) == 3, name
    path = tmp_path / "short.csv"
    path.write_text("user_id,timestamp\n301,1\n0301,2\n301,3\n")
    assert len({id(u) for u in load_log(path).users}) == 1


def test_csv_user_id_spellings_load_as_one_value(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("user_id,timestamp\n301,100\n 301,160\n0301,220\n301,280\n")
    assert load_log(path).users == (301, 301, 301, 301)


# --- byte-order marks -------------------------------------------------------

BOM = "\ufeff"


def test_transcript_with_leading_bom_parses_as_without(tmp_path):
    assert parse_transcript(BOM + FIXTURE) == parse_transcript(FIXTURE)
    outputs = []
    for name, text in (("plain", FIXTURE), ("bom", BOM + FIXTURE)):
        path = tmp_path / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / f"out-{name}"
        assert main(["parse", str(path), "--out", str(out), "--salt", "ab"]) == EXIT_OK
        outputs.append((out / "log.csv").read_bytes() + (out / "mapping.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_only_the_first_line_loses_a_bom():
    # a second mark, or one on a later line, is text: it hides the header
    with pytest.raises(ParseError, match="line 1: not a header line"):
        parse_transcript(BOM + BOM + FIXTURE)
    later = f"{FIXTURE}\n{BOM}3/7/18, 10:30 - Sender 1: body"
    assert len(parse_transcript(later).log) == 25


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_log_with_leading_bom_loads_as_without(tmp_path, fmt):
    path = tmp_path / f"log.{fmt}"
    text = dump_log(MessageLog((0, 1, 0), (100, 160, 220)), fmt)
    path.write_text(BOM + text, encoding="utf-8")
    log = load_log(path)
    assert (log.users, log.timestamps) == ((0, 1, 0), array("q", [100, 160, 220]))
    path.write_text(BOM + BOM + text, encoding="utf-8")
    with pytest.raises(SchemaError, match="missing header|line 1: invalid JSON"):
        load_log(path)


def test_mapping_with_leading_bom_reads_as_without(tmp_path):
    anon = anonymize(parse_transcript(FIXTURE), salt=b"bom")
    path = tmp_path / "mapping.csv"
    path.write_text(BOM + dump_mapping(anon.mapping), encoding="utf-8")
    assert read_mapping(path) == anon.mapping


BAD_JSONL = {
    '{"u":0}': "line 1: expected keys 'u' and 't'",
    '{"t":5}': "line 1: expected keys 'u' and 't'",
    '{"u":"x","t":5}': "line 1: bad user ID 'x'",
    '{"u":-1,"t":5}': "line 1: negative user ID -1",
    "not json": "line 1: invalid JSON",
    '{"u":1.5,"t":5}': "line 1: bad user ID 1.5",
    '{"u":true,"t":5}': "line 1: bad user ID True",
    '{"u":0,"t":1.5}': "line 1: unparsable timestamp 1.5",
    '{"u":0,"t":true}': "line 1: unparsable timestamp True",
    "[1,2]": "line 1: expected keys 'u' and 't'",
    '{"u":0,"t":5}\n\n{"u":-3,"t":6}': "line 3: negative user ID -3",
}


@pytest.mark.parametrize("line", list(BAD_JSONL))
def test_bad_jsonl_rejected(tmp_path, line):
    path = tmp_path / "log.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(SchemaError) as err:
        load_log(path)
    assert str(err.value) == f"{path}: {BAD_JSONL[line]}"


def test_persisted_log_has_exactly_two_data_columns():
    log = parse_transcript(FIXTURE).log
    csv_lines = dump_log(log, "csv").splitlines()
    assert csv_lines[0] == "user_id,timestamp"
    assert all(line.count(",") == 1 for line in csv_lines)
    for line in dump_log(log, "jsonl").splitlines():
        assert set(json.loads(line)) == {"u", "t"}


def test_message_log_invariants_enforced():
    with pytest.raises(ValueError, match="timestamps decrease at seq=2"):
        MessageLog((0, 1, 0), (100, 100, 50))
    with pytest.raises(ValueError, match="negative user ID -2"):
        MessageLog((0, -2), (100, 200))
    with pytest.raises(ValueError, match="2 user IDs but 3 timestamps"):
        MessageLog((0, 1), (100, 200, 300))
    assert len(MessageLog((0, 1, 0), (100, 100, 200))) == 3


# --- the timestamp column ----------------------------------------------------


def assert_int64_column(log, expected):
    assert type(log.timestamps) is array and log.timestamps.typecode == "q"
    assert list(log.timestamps) == list(expected)


def test_message_log_keeps_an_int64_array_and_converts_other_sequences():
    stamps = array("q", [100, 100, 200])
    assert MessageLog((0, 1, 0), stamps).timestamps is stamps
    for other in ((100, 100, 200), [100, 100, 200], range(100, 300, 100)):
        assert_int64_column(MessageLog((0,) * len(other), other), other)
    assert_int64_column(MessageLog((0, 1), (INT64_MIN, INT64_MAX)), [INT64_MIN, INT64_MAX])
    for value in (INT64_MAX + 1, INT64_MIN - 1):
        with pytest.raises(ValueError, match="outside the int64 range"):
            MessageLog((0,), (value,))
    with pytest.raises(TypeError, match="unhashable"):
        hash(MessageLog((0,), (5,)))


# the timestamps just past either end of int64, and a 23-digit field
OUT_OF_RANGE = ["9223372036854775808", "-9223372036854775809", "12345678901234567890123"]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("raw", OUT_OF_RANGE)
def test_timestamp_outside_int64_exits_schema_code(tmp_path, capsys, fmt, raw):
    path = tmp_path / f"log.{fmt}"
    if fmt == "csv":
        path.write_text(f"user_id,timestamp\n0,100\n1,{raw}\n")
        quoted = repr(raw)
    else:
        path.write_text(f'{{"u":0,"t":100}}\n{{"u":1,"t":{raw}}}\n')
        quoted = raw
    detail = f"{path}: line {2 if fmt == 'jsonl' else 3}: timestamp {quoted} outside int64"
    reader = oracles.load_log_csv_direct if fmt == "csv" else oracles.load_log_jsonl_direct
    for load in (load_log, reader):
        with pytest.raises(SchemaError) as err:
            load(path)
        assert str(err.value) == detail
    out = tmp_path / "out"
    assert main(["build", str(path), "--out", str(out)]) == EXIT_SCHEMA
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0]) == {"error": "schema", "detail": detail}
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_timestamps_at_the_ends_of_int64_load(tmp_path, fmt):
    path = tmp_path / f"log.{fmt}"
    path.write_text(dump_log(MessageLog((0, 1), (INT64_MIN, INT64_MAX)), fmt))
    assert_int64_column(load_log(path), [INT64_MIN, INT64_MAX])
    # a field longer than 19 digits that fits stays in the block reader
    if fmt == "csv":
        path.write_text(f"user_id,timestamp\n7,{INT64_MAX:025d}\n")
        assert_int64_column(load_log(path), [INT64_MAX])


LOG_ROWS = [(3, 1_533_081_600 + 7 * i) for i in range(40)]


def test_every_log_reader_yields_an_int64_column(tmp_path):
    text = dump_log(MessageLog(*map(tuple, zip(*LOG_ROWS))), "csv")
    copies = {
        "block.csv": text,
        "crlf.csv": text.replace("\n", "\r\n"),  # read by csv.reader
        # rows out of order, which load_log re-sorts
        "resort.csv": text.splitlines(keepends=True)[0] + "".join(
            sorted(text.splitlines(keepends=True)[1:], reverse=True)
        ),
    }
    for name, body in copies.items():
        path = tmp_path / name
        path.write_bytes(body.encode())
        expected = oracles.load_log_csv_direct(path).timestamps
        assert_int64_column(load_log(path), expected)
    path = tmp_path / "log.jsonl"
    path.write_text(dump_log(MessageLog(*map(tuple, zip(*LOG_ROWS))), "jsonl"))
    assert_int64_column(load_log(path), oracles.load_log_jsonl_direct(path).timestamps)


def minute_export(lines: int, late: bool) -> str:
    """An export of one message a minute from 10:00; with ``late``, every
    25th message reads two minutes back, 60 s before the one above it."""
    minutes = [i - 2 if late and i % 25 == 24 else i for i in range(lines)]
    return "\n".join(
        f"3/7/18, {10 + m // 60}:{m % 60:02d} - Sender {i % 5}: body"
        for i, m in enumerate(minutes)
    )


@pytest.mark.parametrize("slack", [0, 60])
@pytest.mark.parametrize("lines", [40, 3 * PARSE_BATCH])
def test_parse_and_anonymize_yield_an_int64_column(slack, lines):
    # slack 60 clamps each late time to the one above it
    text = minute_export(lines, late=slack > 0)
    parsed = parse_transcript(text, slack=slack)
    expected = oracles.parse_transcript_direct(text, slack=slack).log.timestamps
    assert_int64_column(parsed.log, expected)
    assert_int64_column(anonymize(parsed, salt=b"column").log, expected)
    if slack:
        assert len(set(expected)) < lines  # some times were clamped


def test_synth_yields_an_int64_column(tmp_path):
    from chatpulse.synth import Regime, generate

    result = generate(Regime(kind="uniform-random", users=5, rate=6, windows=4, seed=3))
    path = tmp_path / "log.csv"
    path.write_text(dump_log(result.log, "csv"))
    assert_int64_column(result.log, oracles.load_log_csv_direct(path).timestamps)


def test_loaded_log_keeps_no_int_object_per_timestamp(tmp_path):
    # distinct times, so no two rows could share a boxed int; shared user IDs
    rows = 50_000
    path = tmp_path / "log.csv"
    path.write_text(
        "user_id,timestamp\n"
        + "".join(f"{i % 40},{1_533_081_600 + 3 * i}\n" for i in range(rows))
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = load_log(path)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log) == rows
    # a users tuple slot and an array item are 16 bytes a row; a boxed
    # timestamp in a tuple was 48
    assert live < 24 * rows


# Text whose "\r\n" or four-byte character straddles a READ_CHUNK boundary,
# a line longer than two chunks, and files without a "\n"
READER_CASES = {
    "crlf": "a" * (READ_CHUNK - 1) + "\r\nb\n",
    "emoji": "a" * (READ_CHUNK - 2) + "\U0001f600\nz",
    "long-line": "x" * (2 * READ_CHUNK + 5) + "\ry\n\n",
    "no-newline": "\ufeffhead\u2028tail\x85",
    "empty": "",
}


@pytest.mark.parametrize("text", list(READER_CASES.values()), ids=list(READER_CASES))
def test_utf8_lines_match_splitlines_across_chunks(tmp_path, text):
    path = tmp_path / "t.txt"
    path.write_bytes(text.encode("utf-8"))
    expected = path.read_text(encoding="utf-8").splitlines()
    assert list(utf8_lines(path, ParseError)) == expected


BAD_UTF8 = {
    "mid-file": b"ok\n" * 1000 + b"\xff rest\n",
    "across-chunk": b"a" * (READ_CHUNK - 1) + b"\xe2\x82x\n",
    "truncated-end": b"line\n" + b"b" * READ_CHUNK + b"\xf0\x9f\x98",
    "after-long-line": b"x" * (2 * READ_CHUNK) + b"\n\xc3(",
}


@pytest.mark.parametrize("data", list(BAD_UTF8.values()), ids=list(BAD_UTF8))
def test_utf8_lines_reject_bad_bytes_like_read_utf8(tmp_path, data):
    path = tmp_path / "t.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError) as whole:
        read_utf8(path, ParseError)
    # the check runs before a single line is handed out
    with pytest.raises(ParseError) as streamed:
        utf8_lines(path, ParseError)
    assert str(streamed.value) == str(whole.value)
    assert "not UTF-8 text (byte " in str(whole.value)


def test_parse_memory_stays_below_half_the_decoded_text(tmp_path):
    lines = ["1/8/18, 00:00 - Messages and calls are end-to-end encrypted."]
    for i in range(20_000):
        day, minute = divmod(i, 1440)
        lines.append(
            f"{day % 28 + 1}/9/18, {minute // 60:02}:{minute % 60:02} - "
            f"Sender {i % 37}: mensagem n\u00famero {i} \U0001f600 "
            + "tudo certo por aqui, e a\u00ed? " * 3
        )
        if i % 10 == 0:
            lines.append("a continuation line \U0001f44d")
    path = tmp_path / "chat.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    text_size = sys.getsizeof(path.read_text(encoding="utf-8"))
    argv = ["parse", str(path), "--out", str(tmp_path / "out"), "--salt", "00"]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert (tmp_path / "out" / "log.csv").read_text().count("\n") == 20_001
    assert peak < text_size / 2


def test_unknown_log_format_raises_when_called():
    # not at the first next(): a bad format fails before an artifact is opened
    log = MessageLog((0, 1), (100, 160))
    for writer in (log_lines, dump_log):
        with pytest.raises(SchemaError, match="unknown log format 'xml'"):
            writer(log, "xml")


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_log_lines_batch_rows(monkeypatch, fmt):
    log = MessageLog((0, 1, 0, 2, 1), (100, 160, 220, 280, 340))
    whole = dump_log(log, fmt)
    monkeypatch.setattr(chatlog, "LOG_BATCH", 2)
    header = ["user_id,timestamp\n"] if fmt == "csv" else []
    rows = whole.splitlines(keepends=True)[len(header):]
    assert list(log_lines(log, fmt)) == header + [
        rows[0] + rows[1], rows[2] + rows[3], rows[4]
    ]
