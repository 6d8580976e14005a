"""GF(2)-homomorphic authentication tags against pollution attacks.

§I of the paper: "Since LTNC are linear network codes, traditional ...
security schemes (e.g., homomorphic hashes and signatures [14]-[17])
can be directly applied."  This module applies one: a linear tag over
GF(2) that survives recoding.

The scheme is the XOR analogue of homomorphic hashing: a public random
binary matrix ``T`` maps an m-byte payload ``x`` to a short tag
``T @ x`` over GF(2).  Linearity gives ``tag(a ^ b) = tag(a) ^ tag(b)``,
so the correct tag of *any* encoded packet — through any number of
recodings — is the XOR of the native tags selected by its code vector.
The source publishes the k native tags over an authenticated channel
(modelled here by handing the verifier the tag matrix); intermediaries
and receivers verify packets *without decoding anything*.

A polluted payload passes verification with probability ``2^-tag_bits``
(the tag is a random linear functional; any fixed nonzero error evades
it only by landing in its null space).

This is an integrity primitive against *payload* tampering, not a
signature scheme: an adversary who can rewrite both the code vector and
the payload consistently is outside its threat model, exactly as for
the homomorphic hashes the paper cites, which also authenticate the
mapping from code vector to payload.
"""

from __future__ import annotations

import numpy as np

from repro.coding.packet import EncodedPacket, check_payload, payload_matrix
from repro.errors import DimensionError
from repro.rng import make_rng

__all__ = ["TagScheme", "PollutionFilter"]

_PARITY_LUT = np.array(
    [bin(i).count("1") & 1 for i in range(256)], dtype=np.uint8
)


class TagScheme:
    """A keyed GF(2)-linear tag over m-byte payloads.

    Parameters
    ----------
    payload_nbytes:
        Payload size *m* every tagged packet must have.
    tag_bits:
        Tag length; forging resistance is ``2^-tag_bits`` per packet.
    rng:
        Keying randomness for the public matrix ``T``.
    """

    def __init__(
        self,
        payload_nbytes: int,
        tag_bits: int = 32,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if payload_nbytes <= 0:
            raise DimensionError(
                f"payload_nbytes must be positive, got {payload_nbytes}"
            )
        if tag_bits <= 0:
            raise DimensionError(f"tag_bits must be positive, got {tag_bits}")
        self.payload_nbytes = payload_nbytes
        self.tag_bits = tag_bits
        generator = make_rng(rng)
        # One m-byte random mask per tag bit; tag bit = parity(mask & x).
        self._masks = generator.integers(
            0, 256, size=(tag_bits, payload_nbytes), dtype=np.uint8
        )

    # ------------------------------------------------------------------
    def tag(self, payload: np.ndarray) -> np.ndarray:
        """Tag of one payload: ``tag_bits`` bits packed into bytes."""
        payload = np.asarray(payload, dtype=np.uint8)
        if payload.shape != (self.payload_nbytes,):
            raise DimensionError(
                f"payload shape {payload.shape} vs "
                f"expected ({self.payload_nbytes},)"
            )
        anded = np.bitwise_and(self._masks, payload[None, :])
        bits = _PARITY_LUT[anded].sum(axis=1, dtype=np.uint64) & 1
        return np.packbits(bits.astype(np.uint8), bitorder="little")

    def tag_content(self, content: np.ndarray) -> np.ndarray:
        """Native tags for a (k, m) content matrix — what the source signs."""
        content = np.asarray(content, dtype=np.uint8)
        if content.ndim != 2 or content.shape[1] != self.payload_nbytes:
            raise DimensionError(
                f"content shape {content.shape} vs (k, {self.payload_nbytes})"
            )
        return np.stack([self.tag(row) for row in content])

    # ------------------------------------------------------------------
    def expected_tag(
        self, packet: EncodedPacket, native_tags: np.ndarray
    ) -> np.ndarray:
        """XOR of the native tags selected by the packet's code vector."""
        expected = np.zeros(native_tags.shape[1], dtype=np.uint8)
        for i in packet.indices():
            expected ^= native_tags[int(i)]
        return expected

    def verify(
        self, packet: EncodedPacket, native_tags: np.ndarray
    ) -> bool:
        """True iff the payload is consistent with the code vector.

        Homomorphism makes this hold for every honestly (re)coded
        packet, through any chain of LTNC recodings; a tampered payload
        fails except with probability ``2^-tag_bits``.
        """
        if packet.payload is None:
            raise DimensionError("cannot verify a symbolic packet (no payload)")
        check_payload(packet.payload, self.payload_nbytes)
        actual = self.tag(payload_matrix([packet.payload], self.payload_nbytes)[0])
        expected = self.expected_tag(packet, native_tags)
        return bool(np.array_equal(actual, expected))


class PollutionFilter:
    """Receive-side guard dropping packets that fail tag verification.

    Wraps any scheme node: verified packets pass through to
    ``node.receive``; polluted ones are counted and dropped before they
    can poison the Tanner graph (a single corrupted packet would
    otherwise spread through belief propagation into many decoded
    natives).
    """

    def __init__(
        self, node, scheme: TagScheme, native_tags: np.ndarray
    ) -> None:
        self.node = node
        self.scheme = scheme
        self.native_tags = np.asarray(native_tags, dtype=np.uint8)
        self.rejected = 0
        self.accepted = 0

    def receive(self, packet: EncodedPacket) -> bool:
        if not self.scheme.verify(packet, self.native_tags):
            self.rejected += 1
            return False
        self.accepted += 1
        return self.node.receive(packet)

    def __getattr__(self, name: str):
        # Delegate the rest of the scheme-node protocol to the wrapped node.
        return getattr(self.node, name)
