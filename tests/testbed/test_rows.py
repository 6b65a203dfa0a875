"""Store payloads are rows: each of the three payload kinds encodes to a
positional JSON array and decodes back ``==`` through every form a
store hands its decoder — the encoded list, the same row after a JSON
round trip (a disk hit) and its frozen tuple (a memory hit) — and a
malformed row raises, so the entry reads as invalid."""

import dataclasses
import json

import pytest
from hypothesis import given, strategies as st

from repro.resolvers.testbed import (ResolverRunObservation,
                                     decode_observation, encode_observation)
from repro.service.tiering import _freeze
from repro.simnet.addr import Family
from repro.simnet.packet import Protocol
from repro.testbed import RunRecord, TestCaseKind
from repro.testbed.store import decode_record, encode_record
from repro.webtool.campaign import _decode_sessions, _encode_sessions
from repro.webtool.session import SessionResult, StepOutcome

MALFORMED = (KeyError, TypeError, ValueError)

counts = st.integers(min_value=0, max_value=10_000)
seconds = st.floats(allow_nan=False)
families = st.sampled_from(Family)


def optional(strategy):
    return st.none() | strategy


records = st.builds(
    RunRecord, case=st.text(), kind=st.sampled_from(TestCaseKind),
    client=st.text(), value_ms=st.integers(), repetition=counts,
    completed=st.booleans(), error=optional(st.text()),
    winning_family=optional(families),
    winning_protocol=optional(st.sampled_from(Protocol)),
    cad_s=optional(seconds), rd_s=optional(seconds),
    time_to_first_attempt_s=optional(seconds),
    aaaa_first=optional(st.booleans()), queried_https=st.booleans(),
    attempts=st.lists(st.tuples(seconds, families), max_size=4),
    attempts_v4=counts, attempts_v6=counts, attempts_quic=counts,
    first_attempt_port=optional(st.integers(0, 65535)),
    duration_s=optional(seconds))

observations = st.builds(
    ResolverRunObservation, zone=st.text(), delay_ms=st.integers(),
    success=st.booleans(), first_probe_family=optional(families),
    answering_family=optional(families), v6_packets=counts,
    v4_packets=counts, aaaa_before_probe=optional(st.booleans()),
    aaaa_before_a=optional(st.booleans()),
    fallback_gap_s=optional(seconds), duration_s=seconds)

sessions = st.lists(st.builds(
    SessionResult, browser=st.text(), os_name=st.text(),
    repetition=counts, outcomes=st.lists(st.builds(
        StepOutcome, delay_ms=st.integers(),
        used_family=optional(families),
        connect_time_s=optional(seconds), success=st.booleans()),
        max_size=4)), max_size=3)


def field_of(cls, name: str) -> int:
    return [field.name for field in dataclasses.fields(cls)].index(name)


def assert_round_trips(value, encode, decode):
    row = encode(value)
    assert isinstance(row, list)
    disk = json.loads(json.dumps(row))
    assert _freeze(row) == _freeze(disk)
    for form in (row, disk, _freeze(row), _freeze(disk)):
        assert decode(form) == value


@given(records)
def test_record_rows_round_trip(record):
    assert_round_trips(record, encode_record, decode_record)


@given(observations)
def test_observation_rows_round_trip(observation):
    assert_round_trips(observation, encode_observation, decode_observation)


@given(sessions)
def test_session_rows_round_trip(results):
    assert_round_trips(results, _encode_sessions, _decode_sessions)


def test_frozen_rows_are_nested_tuples():
    record = RunRecord("cad", TestCaseKind.CONNECTION_ATTEMPT_DELAY,
                       "curl", 150, 0, True,
                       attempts=[(0.0, Family.V6), (0.25, Family.V4)])
    row = _freeze(encode_record(record))
    attempts = row[field_of(RunRecord, "attempts")]
    assert type(row) is tuple
    assert attempts == ((0.0, "V6"), (0.25, "V4"))
    assert all(type(attempt) is tuple for attempt in attempts)


def test_frozen_rows_refuse_objects():
    with pytest.raises(TypeError):
        _freeze({"case": "x"})
    with pytest.raises(TypeError):
        _freeze([1, {"nested": True}])


# -- malformed rows --------------------------------------------------------------


RECORD = RunRecord(
    "cad", TestCaseKind.CONNECTION_ATTEMPT_DELAY, "curl 7.88.1", 150, 1,
    True, None, Family.V6, Protocol.TCP, 0.25, None, 0.001, True, False,
    [(0.001, Family.V6)], 0, 1, 0, 443, 0.3)
OBSERVATION = ResolverRunObservation(
    "z1.example", 300, True, Family.V6, Family.V6, 1, 0, True, True,
    0.05, 0.4)
SESSIONS = [SessionResult("Chrome 130.0", "macOS", 0,
                          [StepOutcome(100, Family.V6, 0.12, True)])]


def with_field(row: list, at: int, value) -> list:
    row = list(row)
    row[at] = value
    return row


def record_cases():
    row = encode_record(RECORD)
    at = lambda name: field_of(RunRecord, name)  # noqa: E731
    yield "too-short", row[:-1]
    yield "too-long", row + [None]
    yield "empty", []
    yield "unknown-kind", with_field(row, at("kind"), "no-such-kind")
    yield "unknown-family", with_field(row, at("winning_family"), "V9")
    yield "unknown-protocol", with_field(row, at("winning_protocol"),
                                         "sctp")
    yield "unknown-attempt-family", with_field(row, at("attempts"),
                                               [[0.0, "V9"]])
    yield "short-attempt", with_field(row, at("attempts"), [[0.0]])
    for name in ("value_ms", "repetition", "cad_s",
                 "time_to_first_attempt_s", "attempts_v4", "attempts_v6",
                 "attempts_quic", "first_attempt_port", "duration_s"):
        yield f"string-{name}", with_field(row, at(name), "5")
    yield "string-timestamp", with_field(row, at("attempts"),
                                         [["0.5", "V6"]])


def observation_cases():
    row = encode_observation(OBSERVATION)
    at = lambda name: field_of(ResolverRunObservation, name)  # noqa: E731
    yield "too-short", row[:-1]
    yield "too-long", row + [None]
    yield "unknown-family", with_field(row, at("first_probe_family"),
                                       "V9")
    for name in ("delay_ms", "v6_packets", "v4_packets", "fallback_gap_s",
                 "duration_s"):
        yield f"string-{name}", with_field(row, at(name), "5")


def session_cases():
    (session,) = _encode_sessions(SESSIONS)
    (outcome,) = session[3]
    yield "short-session", [session[:-1]]
    yield "long-session", [session + [None]]
    yield "short-outcome", [session[:3] + [[outcome[:-1]]]]
    yield "long-outcome", [session[:3] + [[outcome + [None]]]]
    yield "unknown-family", [session[:3] + [[with_field(outcome, 1,
                                                        "V9")]]]
    yield "string-repetition", [with_field(session, 2, "0")]
    yield "string-delay", [session[:3] + [[with_field(outcome, 0,
                                                      "100")]]]
    yield "string-connect", [session[:3] + [[with_field(outcome, 2,
                                                        "0.1")]]]


MALFORMED_ROWS = (
    [("record/" + name, decode_record, row)
     for name, row in record_cases()]
    + [("observation/" + name, decode_observation, row)
       for name, row in observation_cases()]
    + [("sessions/" + name, _decode_sessions, row)
       for name, row in session_cases()])


@pytest.mark.parametrize("decode, row",
                         [case[1:] for case in MALFORMED_ROWS],
                         ids=[case[0] for case in MALFORMED_ROWS])
def test_malformed_row_raises(decode, row):
    with pytest.raises(MALFORMED):
        decode(row)
    with pytest.raises(MALFORMED):
        decode(_freeze(row))


def test_well_formed_fixtures_decode():
    """The rows the malformed cases start from are valid."""
    assert decode_record(encode_record(RECORD)) == RECORD
    assert decode_observation(encode_observation(OBSERVATION)) \
        == OBSERVATION
    assert _decode_sessions(_encode_sessions(SESSIONS)) == SESSIONS
