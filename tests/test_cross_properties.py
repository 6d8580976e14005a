"""Cross-cutting properties: belief propagation vs the exact rank oracle.

Belief propagation is a *restricted* decoder — peeling recovers a
subset of what Gaussian elimination could — which gives sharp
invariants to pin down:

* natives decoded by BP are always within the span of received vectors
  (``decoded_count <= rank``);
* if BP completes, the received set has full rank;
* when both complete, the recovered bytes agree exactly;
* a packet BP classifies as redundant (reduced to degree zero or
  dropped by Algorithm 3) is never innovative for the oracle.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.packet import EncodedPacket, make_content, payload_matrix
from repro.core.node import LtncNode
from repro.gf2.bitvec import BitVector
from repro.gf2.matrix import IncrementalRref
from repro.lt.decoder import BeliefPropagationDecoder
from repro.lt.distributions import RobustSoliton, TruncatedUniform
from repro.lt.encoder import LTEncoder


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(2, 24),
    supports=st.lists(
        st.sets(st.integers(0, 23), min_size=1, max_size=6),
        min_size=1,
        max_size=40,
    ),
)
def test_bp_decodes_within_span(k, supports):
    decoder = BeliefPropagationDecoder(k)
    oracle = IncrementalRref(k)
    for raw in supports:
        support = {x % k for x in raw}
        packet = EncodedPacket(BitVector.from_indices(k, support))
        outcome = decoder.receive(packet)
        innovative = oracle.insert(packet.vector.copy())
        if outcome.redundant:
            assert not innovative, (
                f"BP flagged {sorted(support)} redundant but oracle says "
                "innovative"
            )
        assert decoder.decoded_count <= oracle.rank
    if decoder.is_complete():
        assert oracle.is_full_rank()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_bp_and_gauss_recover_identical_bytes(seed):
    k, m = 24, 8
    content = make_content(k, m, rng=seed)
    encoder = LTEncoder(k, RobustSoliton(k), payloads=content, rng=seed + 1)
    bp = BeliefPropagationDecoder(k, payload_nbytes=m)
    gauss = IncrementalRref(k, payload_nbytes=m)
    budget = 30 * k
    while not bp.is_complete() and budget:
        packet = encoder.next_packet()
        bp.receive(packet)
        gauss.insert(packet.vector, packet.payload)
        budget -= 1
    if bp.is_complete():
        assert gauss.is_full_rank()
        assert np.array_equal(
            bp.recovered_content(), payload_matrix(gauss.decode(), m)
        )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_ltnc_drop_policy_is_sound_on_live_stream(seed):
    """Algorithm 3 drops on a live node never discard innovation."""
    k = 20
    encoder = LTEncoder(k, RobustSoliton(k), rng=seed)
    node = LtncNode(0, k, rng=seed + 1, detect_redundancy=True)
    oracle = IncrementalRref(k)
    for _ in range(3 * k):
        packet = encoder.next_packet()
        innovative_before = oracle.is_innovative(packet.vector)
        useful = node.receive(packet)
        oracle.insert(packet.vector.copy())
        if not useful:
            assert not innovative_before
        assert node.decoded_count <= oracle.rank


def test_soliton_beats_uniform_for_bp():
    """The structural claim behind the whole paper, at the decoder.

    With the same packet budget, a Robust Soliton stream BP-decodes
    far more natives than a degree-matched uniform stream.
    """
    k, budget = 96, 180
    decoded = {}
    for name, dist in (
        ("soliton", RobustSoliton(k)),
        ("uniform", TruncatedUniform(k, dmax=int(RobustSoliton(k).mean() * 2))),
    ):
        encoder = LTEncoder(k, dist, rng=5)
        decoder = BeliefPropagationDecoder(k)
        for _ in range(budget):
            decoder.receive(encoder.next_packet())
        decoded[name] = decoder.decoded_count
    assert decoded["soliton"] > 2 * decoded["uniform"]


def test_recoded_stream_is_as_decodable_as_source_stream():
    """LTNC's recoded packets keep BP decodability (the contribution)."""
    k = 64
    encoder = LTEncoder(k, RobustSoliton(k), rng=6)
    relay = LtncNode(0, k, rng=7)
    for _ in range(int(1.6 * k)):
        relay.receive(encoder.next_packet())
    sink = BeliefPropagationDecoder(k)
    budget = 8 * k
    while not sink.is_complete() and budget:
        sink.receive(relay.make_packet())
        budget -= 1
    assert sink.is_complete()
