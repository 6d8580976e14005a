"""Tests for the structure-destroying recoding baseline."""

import numpy as np
import pytest

from repro.baselines.random_recode import RandomRecodeNode
from repro.coding.packet import make_content, payload_matrix
from repro.errors import RecodingError
from repro.gossip import run_dissemination
from repro.lt.distributions import RobustSoliton
from repro.lt.encoder import LTEncoder


def test_rejects_bad_combine():
    with pytest.raises(RecodingError):
        RandomRecodeNode(0, 16, combine=0)


def test_default_combine_is_rlnc_sparsity():
    from repro.rlnc.node import default_sparsity

    node = RandomRecodeNode(0, 64)
    assert node.combine == default_sparsity(64)


def test_cannot_recode_empty():
    node = RandomRecodeNode(0, 16, rng=0)
    with pytest.raises(RecodingError):
        node.make_packet()


def test_recoded_payload_matches_vector():
    k, m = 32, 8
    content = make_content(k, m, rng=1)
    encoder = LTEncoder(k, RobustSoliton(k), payloads=content, rng=2)
    node = RandomRecodeNode(0, k, payload_nbytes=m, rng=3)
    for _ in range(40):
        node.receive(encoder.next_packet())
    for _ in range(60):
        packet = node.make_packet()
        expected = np.zeros(m, dtype=np.uint8)
        for i in packet.indices():
            expected ^= content[int(i)]
        assert np.array_equal(payload_matrix([packet.payload], m)[0], expected)


def test_degrees_drift_from_soliton():
    """Random recoding inflates degrees past the Robust Soliton head."""
    k = 64
    encoder = LTEncoder(k, RobustSoliton(k), rng=4)
    ltnc_style = RandomRecodeNode(0, k, rng=5)
    for _ in range(64):
        ltnc_style.receive(encoder.next_packet())
    degrees = [ltnc_style.make_packet().degree for _ in range(300)]
    low = sum(1 for d in degrees if d <= 2) / len(degrees)
    # The Robust Soliton puts ~40-50% of its mass on degrees 1-2; the
    # random recoder collapses that to a sliver.
    assert low < 0.25


def test_structure_preservation_is_what_makes_ltnc_work():
    """Same node, same decoder, same network — only recoding differs."""
    results = {}
    for scheme in ("ltnc", "rndlt"):
        results[scheme] = run_dissemination(
            scheme,
            n_nodes=10,
            k=32,
            seed=6,
            max_rounds=6000,
            node_kwargs={"aggressiveness": 0.01},
        )
    assert results["ltnc"].all_complete
    ltnc_time = results["ltnc"].average_completion_round()
    if results["rndlt"].all_complete:
        rndlt_time = results["rndlt"].average_completion_round()
        assert rndlt_time > 2.0 * ltnc_time
    else:
        # Stalling outright is an even stronger confirmation.
        assert results["rndlt"].completed_fraction() < 1.0


def test_content_still_correct_when_it_does_decode():
    k, m = 16, 8
    content = make_content(k, m, rng=7)
    from repro.gossip import EpidemicSimulator

    sim = EpidemicSimulator(
        "rndlt", 6, k, content=content, seed=8, max_rounds=20_000
    )
    result = sim.run()
    assert result.all_complete
    for node in sim.nodes:
        assert np.array_equal(node.decoded_content(), content)
