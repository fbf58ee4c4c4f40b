"""Equality, intensity, engagement index, and node centralities."""

from __future__ import annotations

import math
import random

import pytest

from chatpulse import (
    InteractionNetwork,
    NotAConversationError,
    engagement_index,
    gini,
    network_from_senders,
)
from chatpulse.engagement import centrality_scale

from oracles import centralities_direct, gini_pairwise, random_conversation_edges


def net_from_edges(edges) -> InteractionNetwork:
    nodes = tuple(sorted({u for pair in edges for u in pair}))
    return InteractionNetwork(
        window_start=0, window_index=0, nodes=nodes, edges=dict(edges)
    )


def centralities(net, m) -> dict[int, float]:
    """Each user's ei centrality, its strength times the network's scale."""
    scale = centrality_scale(m)
    return {user: s * scale for user, s in net.strengths().items()}


# Toy networks (a)-(d): (n, total_weight) = (4,8), (3,6), (3,6), (2,4).
TOY_A = net_from_edges({(0, 1): 2, (1, 2): 2, (2, 3): 2, (0, 3): 2})
TOY_B = net_from_edges({(0, 1): 2, (1, 2): 2, (0, 2): 2})
TOY_C = net_from_edges({(0, 1): 4, (1, 2): 2})
TOY_D = net_from_edges({(0, 1): 4})


def test_gini_uniform_is_zero():
    assert gini([2, 2, 2]) == 0.0


def test_gini_frozen_oracle_values():
    assert gini([4, 2]) == pytest.approx(0.16666666666666666, abs=1e-15)
    assert gini([1, 1, 4]) == pytest.approx(0.3333333333333333, abs=1e-15)


def test_gini_rejects_empty_and_nonpositive():
    with pytest.raises(ValueError):
        gini([])
    with pytest.raises(ValueError):
        gini([3, 0, 2])
    with pytest.raises(ValueError):
        gini([-1.0])


def test_gini_matches_pairwise_oracle_on_random_multisets():
    rng = random.Random(42)
    for _ in range(200):
        ws = [rng.randrange(1, 101) for _ in range(rng.randrange(1, 65))]
        assert gini(ws) == pytest.approx(gini_pairwise(ws), abs=1e-12)


def test_equality_of_toy_networks():
    assert engagement_index(TOY_A).equality == pytest.approx(1.0)
    assert engagement_index(TOY_C).equality == pytest.approx(0.83, abs=0.01)
    assert engagement_index(TOY_D).equality == 1.0  # single edge: one-value Gini is 0


def test_intensity_base_case_is_exactly_one():
    assert engagement_index(network_from_senders([0, 1])).intensity == 1.0


def test_intensity_of_toy_networks():
    assert engagement_index(TOY_A).intensity == pytest.approx(5.0)
    assert engagement_index(TOY_B).intensity == pytest.approx(math.log2(18))
    assert engagement_index(TOY_D).intensity == pytest.approx(3.0)


def test_engagement_index_of_toy_networks():
    assert engagement_index(TOY_A).ei == pytest.approx(5.0, abs=0.01)
    assert engagement_index(TOY_B).ei == pytest.approx(4.17, abs=0.01)
    assert engagement_index(TOY_C).ei == pytest.approx(3.47, abs=0.01)
    m = engagement_index(TOY_D)
    assert (m.intensity, m.equality, m.ei) == (3.0, 1.0, 3.0)


def test_metric_identities_hold_exactly():
    m = engagement_index(TOY_C)
    assert m.ei == m.equality * m.intensity
    assert m.equality == 1.0 - m.gini
    assert m.intensity == math.log2(m.n * m.total_weight)


def test_non_conversation_has_no_metrics():
    with pytest.raises(NotAConversationError):
        engagement_index(network_from_senders([0, 0]))


# --- node centralities --------------------------------------------------------

def test_strength_regular_network_centralities_equal_ei():
    m = engagement_index(TOY_A)
    for value in centralities(TOY_A, m).values():
        assert value == pytest.approx(m.ei, abs=1e-12)


def test_two_node_window_weight_four():
    m = engagement_index(TOY_D)
    assert list(centralities(TOY_D, m).values()) == [3.0, 3.0]
    assert list(TOY_D.strengths().values()) == [4, 4]


def test_path_network_frozen_centralities():
    # path 0-1-2 with weights {4,2}: strengths {4,6,2}
    m = engagement_index(TOY_C)
    cents = centralities(TOY_C, m)
    assert cents[0] == pytest.approx(3.474937501201927, abs=1e-12)
    assert cents[1] == pytest.approx(5.21240625180289, abs=1e-12)
    assert cents[2] == pytest.approx(1.7374687506009634, abs=1e-12)
    mean = sum(cents.values()) / 3
    assert mean == pytest.approx(m.ei, abs=1e-9)


def test_mean_centrality_equals_network_ei_on_random_networks():
    rng = random.Random(4242)
    for _ in range(200):
        net = net_from_edges(random_conversation_edges(rng))
        m = engagement_index(net)
        cents = centralities(net, m)
        mean = sum(cents.values()) / len(cents)
        assert mean == pytest.approx(m.ei, abs=1e-9)
        direct = centralities_direct(net.edges)
        for user, value in cents.items():
            assert value == pytest.approx(direct[user], abs=1e-12)


def test_scaling_weights_shifts_intensity_only():
    rng = random.Random(7)
    for _ in range(50):
        edges = random_conversation_edges(rng, max_n=12)
        base = engagement_index(net_from_edges(edges))
        c = rng.randrange(2, 9)
        scaled = engagement_index(
            net_from_edges({k: w * c for k, w in edges.items()})
        )
        assert scaled.equality == pytest.approx(base.equality, abs=1e-12)
        assert scaled.intensity == pytest.approx(
            base.intensity + math.log2(c), abs=1e-12
        )


def test_uniform_weight_networks_have_equality_one():
    rng = random.Random(8)
    for _ in range(50):
        edges = {k: 3 for k in random_conversation_edges(rng, max_n=10)}
        assert engagement_index(net_from_edges(edges)).equality == pytest.approx(
            1.0, abs=1e-12
        )


def test_adding_uniform_edge_increases_ei():
    edges = {(0, 1): 2, (1, 2): 2}
    before = engagement_index(net_from_edges(edges))
    after = engagement_index(net_from_edges(edges | {(0, 2): 2}))
    assert after.equality == pytest.approx(1.0)
    assert after.ei > before.ei


def test_ei_invariant_under_node_relabeling():
    rng = random.Random(9)
    for _ in range(50):
        edges = random_conversation_edges(rng, max_n=15)
        users = sorted({u for pair in edges for u in pair})
        shuffled = users[:]
        rng.shuffle(shuffled)
        relabel = dict(zip(users, shuffled))
        remapped = {}
        for (u, v), w in edges.items():
            a, b = relabel[u], relabel[v]
            remapped[(min(a, b), max(a, b))] = w
        assert engagement_index(net_from_edges(remapped)).ei == pytest.approx(
            engagement_index(net_from_edges(edges)).ei, abs=1e-12
        )
