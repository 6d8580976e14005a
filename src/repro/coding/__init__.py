"""Packet abstraction: code vectors plus optional payloads."""

from repro.coding.packet import (
    EncodedPacket,
    NativePayloads,
    check_payload,
    content_blocks,
    make_content,
    native_payloads,
    payload_matrix,
    receive_natives,
    xor_payloads,
)

__all__ = [
    "EncodedPacket",
    "NativePayloads",
    "xor_payloads",
    "native_payloads",
    "payload_matrix",
    "receive_natives",
    "check_payload",
    "make_content",
    "content_blocks",
]
