from __future__ import annotations

import random

from hypothesis import settings

from chatpulse import MessageLog

# Fixed example sequence and no example database: reruns see the same cases.
settings.register_profile(
    "derandomized", derandomize=True, database=None, max_examples=60, deadline=None
)
settings.load_profile("derandomized")


def make_log(rows) -> MessageLog:
    """Build a log from (user, timestamp) pairs in order."""
    rows = list(rows)
    return MessageLog(tuple(u for u, _ in rows), tuple(t for _, t in rows))


def random_log(seed=0, users=6, count=400, horizon=6 * 3600, start=0) -> MessageLog:
    rng = random.Random(seed)
    times = sorted(rng.randrange(horizon) for _ in range(count))
    return make_log([(rng.randrange(users), start + t) for t in times])
