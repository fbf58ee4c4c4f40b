"""Transcript parsing, anonymization, and canonical log I/O."""

from __future__ import annotations

import json
import logging
import sys
import tracemalloc
from datetime import date, datetime, timezone
from zoneinfo import ZoneInfo

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
    parse_transcript,
    read_mapping,
)
from chatpulse.chatlog import (
    READ_CHUNK,
    _local_epoch,
    read_utf8,
    utc_timestamp,
    utf8_lines,
)
from chatpulse.cli import EXIT_OK, main


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
    assert log.timestamps == (1550368200, 1550369400, 1550372700)
    # a regression within --slack is jitter: clamped, not moved an hour ahead
    jitter = "16/2/19, 23:50 - Alice: hi\n16/2/19, 23:49 - Bob: yo"
    log = parse_transcript(jitter, tz="America/Sao_Paulo", slack=120).log
    assert log.timestamps == (1550368200, 1550368200)


def test_repeated_time_token_in_fall_back_hour_keeps_second_reading():
    # the repeated 23:10 reads as the hour's second occurrence, like the first
    text = (
        "16/2/19, 23:50 - Alice: hi\n"
        "16/2/19, 23:10 - Bob: yo\n"
        "16/2/19, 23:10 - Alice: again\n"
        "16/2/19, 23:50 - Bob: later"
    )
    log = parse_transcript(text, tz="America/Sao_Paulo").log
    assert log.timestamps == (1550368200, 1550369400, 1550369400, 1550371800)


def test_dst_spring_forward_gap_keeps_offset_before_the_gap():
    # Sao Paulo skipped 2018-11-04 00:00-00:59; 00:30 reads at UTC-3
    log = parse_transcript("4/11/18, 00:30 - Alice: hi", tz="America/Sao_Paulo").log
    assert log.timestamps[0] == 1541302200


OFFSET_ZONES = [
    "America/Sao_Paulo", "Europe/London",
    "Australia/Lord_Howe",  # a 30-minute DST shift
    "Asia/Kathmandu",  # +05:45, no DST
]


def offset_change_dates(zone, years=(2018, 2019)):
    """Local dates on which ``zone``'s UTC offset changes, found by scanning
    the years hour by hour in UTC; each date is read at the new offset."""
    def offset(t):
        return datetime.fromtimestamp(t, zone).utcoffset()

    t = int(datetime(years[0], 1, 1, tzinfo=timezone.utc).timestamp())
    stop = int(datetime(years[-1] + 1, 1, 1, tzinfo=timezone.utc).timestamp())
    dates = set()
    for t in range(t, stop, 3600):
        lo, hi = t, t + 3600
        if offset(lo) == offset(hi):
            continue
        while hi - lo > 1:  # to the first second of the new offset
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if offset(mid) == offset(lo) else (lo, mid)
        dates.add(datetime.fromtimestamp(hi, zone).date())
    return dates


@pytest.mark.parametrize("tz", OFFSET_ZONES)
def test_local_epoch_matches_aware_timestamp_every_minute(tz):
    # _local_epoch reads the zone's offset for a naive time; it must give
    # what the aware time's timestamp gives, for both readings of a time
    zone = ZoneInfo(tz)
    changes = offset_change_dates(zone)
    assert bool(changes) == (tz != "Asia/Kathmandu")
    days = changes | {date(2018, 6, 15), date(1, 1, 1), date(9999, 12, 31)}
    mismatches = []
    for day in sorted(days):
        for minute in range(1440):
            hour, minute = divmod(minute, 60)
            fields = (
                "t", str(day.day), str(day.month), f"{day.year:04d}",
                f"{hour:02d}", f"{minute:02d}", "59", "",
            )
            aware = datetime(*day.timetuple()[:3], hour, minute, 59, tzinfo=zone)
            first = int(aware.timestamp())
            # an earliest after the first reading asks for the fold=1 one
            expected = first, max(first, int(aware.replace(fold=1).timestamp()))
            got = _local_epoch(zone, None, *fields), _local_epoch(zone, first + 1, *fields)
            if got != expected:
                mismatches.append((fields, got, expected))
    assert mismatches == []


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
    assert tight.log.timestamps == (utc_timestamp("2018-08-01T21:05:00Z"),)


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


def test_en_dash_separator_accepted():
    log = parse_transcript("3/7/18, 23:31 – Alice: hi").log
    assert len(log) == 1


def test_empty_transcript_gives_empty_log():
    log = parse_transcript("").log
    assert len(log) == 0 and log.users == () and log.timestamps == ()


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
    assert a.timestamps == b.timestamps == (100, 160, 220)


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


def test_out_of_order_rows_resorted_with_warning(tmp_path, caplog):
    path = tmp_path / "log.csv"
    path.write_text("user_id,timestamp\n0,300\n1,100\n2,200\n")
    with caplog.at_level(logging.WARNING):
        log = load_log(path)
    assert "re-sorting" in caplog.text
    assert log.timestamps == (100, 200, 300)
    assert log.users == (1, 2, 0)


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
}


@pytest.mark.parametrize("body", list(BAD_CSV))
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
    assert (log.users, log.timestamps) == ((1,), (2,))


def test_csv_rows_of_one_user_id_share_one_int(tmp_path):
    # int() shares its cached objects only up to 256
    path = tmp_path / "log.csv"
    users = [301, 4000, 70_000] * 4
    path.write_text(
        "user_id,timestamp\n" + "".join(f"{u},{t}\n" for t, u in enumerate(users))
    )
    log = load_log(path)
    assert log.users == tuple(users)
    assert len({id(u) for u in log.users}) == len(set(log.users)) == 3


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
    assert (log.users, log.timestamps) == ((0, 1, 0), (100, 160, 220))
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
