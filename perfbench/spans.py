"""Spans around calls into chatpulse's public functions, recorded from outside.

The traced child wraps each name in ``WRAPPED`` wherever the package binds
that function object, so calls between modules go through the wrapper too.
A span is the tuple ``(run_id, span_id, parent_id, name, start, end)``;
ids count from 0 per run in call order and ``parent_id`` is -1 at the top.
Spans are appended as they end (tuples of plain values cost the garbage
collector nothing) and stay in memory until the child writes them out once,
at its end.
"""

from __future__ import annotations

import itertools
import sys
import time

# (module, attribute) of every traced function; the span name drops the
# "chatpulse." prefix. A missing module or attribute is reported as absent.
WRAPPED = (
    ("chatpulse.cli", "main"),
    ("chatpulse.chatlog", "load_log"),
    ("chatpulse.chatlog", "parse_transcript"),
    ("chatpulse.chatlog", "anonymize"),
    ("chatpulse.chatlog", "dump_log"),
    ("chatpulse.netbuild", "build_ensemble"),
    ("chatpulse.netbuild", "dump_ensemble"),
    ("chatpulse.netbuild", "load_ensemble"),
    ("chatpulse._kernels", "pair_counts"),
    ("chatpulse._kernels", "gini_sorted"),
    ("chatpulse.engagement", "engagement_index"),
    ("chatpulse.engagement", "node_centralities"),
    ("chatpulse.ensemble", "conversation_metrics"),
    ("chatpulse.ensemble", "centrality_table"),
    ("chatpulse.ensemble", "ensemble_stats"),
    ("chatpulse.ensemble", "zscore_classify"),
    ("chatpulse.ensemble", "zscore_histogram"),
    ("chatpulse.ensemble", "rank_users"),
    ("chatpulse.temporal", "period_compare"),
    ("chatpulse.temporal", "user_series"),
)
PACKAGE = "chatpulse"


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix(PACKAGE + '.')}.{attr}"


class Tracer:
    """Records nested spans for one run; ``clock`` is injectable for tests."""

    def __init__(self, run_id: str, clock=time.perf_counter) -> None:
        self.run_id = run_id
        self.clock = clock
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn):
        spans, stack, clock, run_id, ids = (
            self.spans, self._stack, self.clock, self.run_id, self._ids
        )

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent_id = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((run_id, span_id, parent_id, name, start, end))

        traced.__wrapped__ = fn
        return traced

    def install(self, wrapped=WRAPPED) -> list[str]:
        """Wrap every listed function in place; returns the absent names."""
        absent = []
        for module, attr in wrapped:
            name = span_name(module, attr)
            fn = getattr(sys.modules.get(module), attr, None)
            if not callable(fn):
                absent.append(name)
                continue
            wrapper = self.wrap(name, fn)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
        return absent


def self_times(spans) -> dict[str, list]:
    """name -> [self seconds, calls]; self time excludes child spans."""
    child_time: dict[int, float] = {}
    for _, _, parent_id, _, start, end in spans:
        if parent_id >= 0:
            child_time[parent_id] = child_time.get(parent_id, 0.0) + end - start
    out: dict[str, list] = {}
    for _, span_id, _, name, start, end in spans:
        acc = out.setdefault(name, [0.0, 0])
        acc[0] += end - start - child_time.get(span_id, 0.0)
        acc[1] += 1
    return out
