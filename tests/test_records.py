"""Value behaviour of every public record type: construction, equality,
repr, hashing, read-only fields and pickling."""

from __future__ import annotations

import copy
import pickle
from array import array

import pytest

from chatpulse import (
    AnonymizedLog,
    ClassifiedNetwork,
    ComparisonRow,
    EngagementClass,
    EngagementMetrics,
    EnsembleStats,
    InteractionNetwork,
    MessageLog,
    ParsedTranscript,
    PeriodComparison,
    Regime,
    SynthResult,
    UserRanking,
    UserSeries,
    WindowSpec,
    WindowTruth,
)

LOG = MessageLog((0, 1, 0), (5, 5, 9))
ROW = ComparisonRow(7, 1.0, 0.5, 0.25, -0.25)

# each type with its fields, in declaration order, and whether it is frozen
RECORDS = [
    (MessageLog, {"users": (0, 1, 0), "timestamps": array("q", [5, 5, 9])}, True),
    (ParsedTranscript, {"log": LOG, "senders": ("Ana", "Bo")}, True),
    (AnonymizedLog, {"log": LOG, "mapping": {"ab": 0, "cd": 1}, "salt": b"s"}, True),
    (
        EngagementMetrics,
        {"n": 2, "total_weight": 2, "gini": 0.0, "equality": 1.0,
         "intensity": 2.0, "ei": 2.0},
        True,
    ),
    (EnsembleStats, {"mean_ei": 1.5, "std_ei": 0.5, "count": 4}, True),
    (
        ClassifiedNetwork,
        {"window_index": 4, "ei": 1.5, "z": -0.25, "label": EngagementClass.LOW},
        False,
    ),
    (UserRanking, {"scope": EngagementClass.GLOBAL, "entries": ((1, 0.5),)}, True),
    (WindowSpec, {"delta_t": 60, "alignment": "first", "time_range": (0, 600)}, True),
    (
        InteractionNetwork,
        {"window_start": 600, "window_index": 1, "nodes": (0, 1),
         "edges": {(0, 1): 2}},
        False,
    ),
    (
        Regime,
        {"kind": "planted-dropout", "users": 3, "rate": 8, "windows": 4,
         "seed": 2, "dropouts": 1, "split_window": 2},
        True,
    ),
    (
        WindowTruth,
        {"window_start": 600, "window_index": 1, "nodes": (0, 1),
         "edges": {(0, 1): 2}, "metrics": None},
        True,
    ),
    (
        SynthResult,
        {"regime": Regime("round-robin", 2, 2, 1), "log": LOG, "truth": ()},
        True,
    ),
    (UserSeries, {"user": 7, "points": ((600, 0.5), (1200, 1.5))}, True),
    (ComparisonRow, {"user": 7, "whole": 1.0, "p1": 0.5, "p2": 0.25, "diff": -0.25}, True),
    (PeriodComparison, {"split": 900, "rows": (ROW,)}, True),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, frozen", RECORDS, ids=IDS)
def test_record_value_behaviour(cls, fields, frozen):
    record = cls(**fields)
    values = tuple(fields.values())
    assert record == cls(*values)
    assert tuple(getattr(record, name) for name in fields) == values
    assert repr(record) == (
        f"{cls.__name__}("
        + ", ".join(f"{name}={value!r}" for name, value in fields.items())
        + ")"
    )
    assert record.__eq__(values) is NotImplemented
    assert record != values
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.copy(record) == record

    # every field takes part in equality
    sentinel = object()
    for name in fields:
        other = cls(*values)
        object.__setattr__(other, name, sentinel)
        assert other != record

    if not frozen:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        record.__setattr__(next(iter(fields)), sentinel)
        assert record != cls(*values)
        return
    try:
        expected_hash = hash(values)
    except TypeError:  # a dict field
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == expected_hash
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, sentinel)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(*values)


def test_record_defaults():
    assert WindowSpec() == WindowSpec(600, "wall", (None, None))
    assert Regime("round-robin", 2, 2, 1) == Regime(
        "round-robin", 2, 2, 1, seed=0, dropouts=0, split_window=None
    )
