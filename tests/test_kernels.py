"""Oracle checks for the hot-loop kernels."""

from __future__ import annotations

import random

import pytest

from chatpulse import _kernels

from oracles import brute_pair_counts, gini_pairwise


def test_pure_pair_counts_matches_enumeration_oracle():
    rng = random.Random(11)
    for _ in range(300):
        seq = [rng.randrange(1, 9) for _ in range(rng.randrange(0, 80))]
        assert _kernels.pair_counts(seq) == brute_pair_counts(seq)


def test_pure_gini_matches_pairwise_oracle():
    rng = random.Random(12)
    for _ in range(300):
        ws = [rng.randrange(1, 101) for _ in range(rng.randrange(1, 50))]
        assert _kernels.gini_sorted(ws) == pytest.approx(gini_pairwise(ws), abs=1e-12)
