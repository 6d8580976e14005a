"""Tests for homomorphic tags and the pollution filter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.packet import EncodedPacket, make_content
from repro.core.node import LtncNode
from repro.errors import DimensionError
from repro.gf2.bitvec import BitVector
from repro.lt.distributions import RobustSoliton
from repro.lt.encoder import LTEncoder
from repro.security import PollutionFilter, TagScheme


def test_rejects_bad_parameters():
    with pytest.raises(DimensionError):
        TagScheme(0)
    with pytest.raises(DimensionError):
        TagScheme(8, tag_bits=0)


def test_tag_shape_and_determinism():
    scheme = TagScheme(16, tag_bits=32, rng=0)
    payload = np.arange(16, dtype=np.uint8)
    tag = scheme.tag(payload)
    assert tag.shape == (4,)  # 32 bits packed
    assert np.array_equal(tag, scheme.tag(payload))
    with pytest.raises(DimensionError):
        scheme.tag(np.zeros(8, dtype=np.uint8))


def test_homomorphism():
    """tag(a ^ b) == tag(a) ^ tag(b) — the property recoding relies on."""
    scheme = TagScheme(32, rng=1)
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.integers(0, 256, 32, dtype=np.uint8)
        b = rng.integers(0, 256, 32, dtype=np.uint8)
        assert np.array_equal(
            scheme.tag(a ^ b), scheme.tag(a) ^ scheme.tag(b)
        )


def test_honest_packets_verify_through_recoding():
    k, m = 32, 16
    content = make_content(k, m, rng=3)
    scheme = TagScheme(m, rng=4)
    native_tags = scheme.tag_content(content)
    encoder = LTEncoder(k, RobustSoliton(k), payloads=content, rng=5)
    relay = LtncNode(0, k, payload_nbytes=m, rng=6)
    for _ in range(40):
        packet = encoder.next_packet()
        assert scheme.verify(packet, native_tags)
        relay.receive(packet)
    # Recoded packets — arbitrary linear combinations — still verify.
    for _ in range(60):
        assert scheme.verify(relay.make_packet(), native_tags)


def test_polluted_payload_detected():
    k, m = 16, 16
    content = make_content(k, m, rng=7)
    scheme = TagScheme(m, tag_bits=32, rng=8)
    native_tags = scheme.tag_content(content)
    encoder = LTEncoder(k, RobustSoliton(k), payloads=content, rng=9)
    rng = np.random.default_rng(10)
    detected = 0
    trials = 50
    for _ in range(trials):
        packet = encoder.next_packet()
        packet.payload ^= int(1 + rng.integers(255)) << (8 * int(rng.integers(m)))
        if not scheme.verify(packet, native_tags):
            detected += 1
    # Forging odds are 2^-32 per packet; all pollution must be caught.
    assert detected == trials


def test_symbolic_packet_cannot_verify():
    scheme = TagScheme(8, rng=11)
    packet = EncodedPacket(BitVector.from_indices(4, [0]))
    with pytest.raises(DimensionError):
        scheme.verify(packet, np.zeros((4, 4), dtype=np.uint8))


def test_pollution_filter_protects_decoder():
    """With the filter the node decodes the true content despite an
    adversary corrupting a third of the traffic; without it, the decoded
    content is wrong."""
    k, m = 24, 8
    content = make_content(k, m, rng=12)
    scheme = TagScheme(m, rng=13)
    native_tags = scheme.tag_content(content)

    def attack_stream(seed):
        encoder = LTEncoder(k, RobustSoliton(k), payloads=content, rng=seed)
        adversary = np.random.default_rng(seed + 1)
        while True:
            packet = encoder.next_packet()
            if adversary.random() < 0.33:
                packet.payload ^= 0xFF << (8 * int(adversary.integers(m)))
            yield packet

    # Unprotected node: decodes, but to corrupted bytes.
    bare = LtncNode(0, k, payload_nbytes=m, rng=14)
    stream = attack_stream(100)
    for _ in range(30 * k):
        bare.receive(next(stream))
        if bare.is_complete():
            break
    assert bare.is_complete()
    assert not np.array_equal(bare.decoded_content(), content)

    # Filtered node: the same attack never reaches the Tanner graph.
    inner = LtncNode(1, k, payload_nbytes=m, rng=15)
    guarded = PollutionFilter(inner, scheme, native_tags)
    stream = attack_stream(100)
    for _ in range(30 * k):
        guarded.receive(next(stream))
        if guarded.is_complete():
            break
    assert guarded.is_complete()
    assert np.array_equal(guarded.decoded_content(), content)
    assert guarded.rejected > 0
    assert guarded.accepted > 0


def test_filter_delegates_protocol():
    k, m = 8, 4
    content = make_content(k, m, rng=16)
    scheme = TagScheme(m, rng=17)
    node = LtncNode(0, k, payload_nbytes=m, rng=18)
    guarded = PollutionFilter(node, scheme, scheme.tag_content(content))
    assert guarded.k == k
    assert not guarded.is_complete()
    assert not guarded.can_send()


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 24),
    tag_bits=st.sampled_from([8, 16, 32]),
    seed=st.integers(0, 2**16),
)
def test_tag_linearity_property(m, tag_bits, seed):
    scheme = TagScheme(m, tag_bits=tag_bits, rng=seed)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, m, dtype=np.uint8)
    b = rng.integers(0, 256, m, dtype=np.uint8)
    assert np.array_equal(scheme.tag(a ^ b), scheme.tag(a) ^ scheme.tag(b))
    assert np.array_equal(
        scheme.tag(np.zeros(m, dtype=np.uint8)),
        np.zeros_like(scheme.tag(a)),
    )
