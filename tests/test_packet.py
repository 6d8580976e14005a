"""Tests for repro.coding.packet."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import (
    EncodedPacket,
    NativePayloads,
    check_payload,
    content_blocks,
    make_content,
    native_payloads,
    payload_matrix,
    xor_payloads,
)
from repro.costmodel import OpCounter
from repro.errors import DimensionError
from repro.gf2 import BitVector


class TestXorPayloads:
    def test_both_none_counts_but_returns_none(self):
        c = OpCounter()
        assert xor_payloads(None, None, c) is None
        assert c.get("payload_xor") == 1

    def test_one_side_none_copies(self):
        # Int payloads are immutable: returning the operand is a copy.
        a = 0x030201
        out = xor_payloads(None, a)
        assert out == a and xor_payloads(a, None) == a
        out ^= 0xFF
        assert a == 0x030201

    def test_xor_values(self):
        # Little-endian bytes [0xFF, 0x00] ^ [0x0F, 0xF0] = [0xF0, 0xF0].
        assert xor_payloads(0x00FF, 0xF00F) == 0xF0F0

    def test_shape_mismatch(self):
        # An int XOR cannot see a width mismatch; the boundary check does.
        check_payload(0xFFFF, 2)
        with pytest.raises(DimensionError):
            check_payload(0x1FFFF, 2)


class TestEncodedPacket:
    def test_native_constructor(self):
        p = EncodedPacket.native(8, 3)
        assert p.degree == 1 and p.is_native()
        assert p.support() == {3}
        assert p.k == 8

    def test_combine_with_payloads(self):
        content = make_content(4, 5, rng=0)
        p = EncodedPacket.combine(4, [0, 2], payloads=native_payloads(content))
        assert p.support() == {0, 2}
        assert np.array_equal(payload_matrix([p.payload], 5)[0], content[0] ^ content[2])

    def test_combine_symbolic_counts_data_ops(self):
        c = OpCounter()
        EncodedPacket.combine(8, [0, 1, 2], counter=c)
        assert c.get("payload_xor") == 2

    def test_ixor_matches_native_xor(self):
        content = make_content(6, 4, rng=1)
        natives = native_payloads(content)
        a = EncodedPacket.combine(6, [0, 1], payloads=natives)
        b = EncodedPacket.combine(6, [1, 2], payloads=natives)
        a.ixor(b)
        assert a.support() == {0, 2}
        assert a.payload == natives[0] ^ natives[2]

    def test_xor_operator_leaves_operands(self):
        a = EncodedPacket.native(4, 0)
        b = EncodedPacket.native(4, 1)
        c = a ^ b
        assert c.support() == {0, 1}
        assert a.support() == {0} and b.support() == {1}

    def test_header_nbytes(self):
        assert EncodedPacket.native(8, 0).header_nbytes() == 1
        assert EncodedPacket.native(9, 0).header_nbytes() == 2
        assert EncodedPacket.native(2048, 0).header_nbytes() == 256

    def test_copy_independent(self):
        natives = native_payloads(make_content(4, 3, rng=2))
        a = EncodedPacket.combine(4, [0], payloads=natives)
        b = a.copy()
        b.vector.flip(1)
        b.payload ^= 0xFF
        assert a.support() == {0}
        assert a.payload == natives[0]

    def test_equality_semantics(self):
        a = EncodedPacket.native(4, 0)
        b = EncodedPacket.native(4, 0)
        assert a == b
        c = EncodedPacket(BitVector.from_indices(4, [0]), 0)
        assert a != c  # symbolic vs payload

    def test_indices_sorted(self):
        p = EncodedPacket.combine(10, [7, 1, 4])
        assert list(p.indices()) == [1, 4, 7]


class TestContentHelpers:
    def test_make_content_shape_and_determinism(self):
        a = make_content(8, 16, rng=42)
        b = make_content(8, 16, rng=42)
        assert a.shape == (8, 16) and a.dtype == np.uint8
        assert np.array_equal(a, b)

    def test_make_content_validates(self):
        with pytest.raises(DimensionError):
            make_content(0, 4)
        with pytest.raises(DimensionError):
            make_content(4, 0)

    def test_content_blocks_round_trip(self):
        data = bytes(range(100))
        blocks = content_blocks(data, 7)
        assert blocks.shape[0] == 7
        assert bytes(blocks.reshape(-1)[:100]) == data

    def test_content_blocks_empty_data(self):
        blocks = content_blocks(b"", 3)
        assert blocks.shape == (3, 1)
        assert not blocks.any()

    def test_content_blocks_validates_k(self):
        with pytest.raises(DimensionError):
            content_blocks(b"abc", 0)


@settings(max_examples=50)
@given(
    st.integers(2, 40).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.integers(0, k - 1), min_size=1, unique=True),
            st.lists(st.integers(0, k - 1), min_size=1, unique=True),
        )
    )
)
def test_packet_xor_support_is_symmetric_difference(case):
    k, ia, ib = case
    content = make_content(k, 8, rng=5)
    natives = native_payloads(content)
    a = EncodedPacket.combine(k, ia, payloads=natives)
    b = EncodedPacket.combine(k, ib, payloads=natives)
    c = a ^ b
    assert c.support() == set(ia) ^ set(ib)
    # Payload equals XOR of the natives in the symmetric difference.
    expect = np.zeros(8, np.uint8)
    for i in set(ia) ^ set(ib):
        expect ^= content[i]
    assert np.array_equal(payload_matrix([c.payload], 8)[0], expect)


# ----------------------------------------------------------------------
# The int payload layout and its content boundary
# ----------------------------------------------------------------------
_content = st.tuples(st.integers(1, 24), st.integers(1, 40)).flatmap(
    lambda km: st.tuples(
        st.just(km),
        st.lists(
            st.sampled_from(["random", "zero", "high_zero", "top_only"]),
            min_size=km[0],
            max_size=km[0],
        ),
        st.integers(0, 2**31),
    )
)


def _build_content(case):
    (k, m), kinds, seed = case
    rng = np.random.default_rng(seed)
    content = rng.integers(0, 256, size=(k, m), dtype=np.uint8)
    for i, kind in enumerate(kinds):
        if kind == "zero":
            content[i] = 0
        elif kind == "high_zero":
            content[i, m // 2 :] = 0  # the int is shorter than m bytes
        elif kind == "top_only":
            content[i, :-1] = 0
    return content


@settings(max_examples=80, deadline=None)
@given(_content)
def test_content_int_round_trip_is_byte_exact(case):
    content = _build_content(case)
    natives = native_payloads(content)
    assert isinstance(natives, NativePayloads)
    assert natives.nbytes == content.shape[1]
    back = payload_matrix(natives, natives.nbytes)
    assert back.dtype == np.uint8 and back.shape == content.shape
    assert back.tobytes() == content.tobytes()
    # Passing converted payloads through again is the identity.
    assert native_payloads(natives, len(natives)) is natives


@settings(max_examples=80, deadline=None)
@given(_content, st.data())
def test_combine_payload_equals_numpy_xor_reduce(case, data):
    content = _build_content(case)
    k, m = content.shape
    idx = data.draw(
        st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True)
    )
    p = EncodedPacket.combine(k, idx, payloads=native_payloads(content))
    expect = np.bitwise_xor.reduce(content[idx], axis=0)
    assert p.payload == int.from_bytes(expect.tobytes(), "little")
    assert payload_matrix([p.payload], m)[0].tobytes() == expect.tobytes()


def test_round_trip_single_byte_rows():
    content = np.array([[0], [255], [1]], dtype=np.uint8)
    assert native_payloads(content) == (0, 255, 1)
    assert payload_matrix(native_payloads(content), 1).tobytes() == b"\x00\xff\x01"


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros((4, 3), dtype=np.int64),
        np.zeros(12, dtype=np.uint8),
        np.zeros((4, 3, 1), dtype=np.uint8),
        np.zeros((4, 0), dtype=np.uint8),
        [[1, 2], [3, 4]],
    ],
)
def test_native_payloads_rejects_bad_content(bad):
    with pytest.raises(DimensionError, match="shape"):
        native_payloads(bad)


def test_native_payloads_checks_row_count():
    with pytest.raises(DimensionError, match=r"\(3, 2\)"):
        native_payloads(np.zeros((3, 2), dtype=np.uint8), k=4)


def test_payload_matrix_rejects_wide_payloads():
    with pytest.raises(OverflowError):
        payload_matrix([1 << 16], 2)
