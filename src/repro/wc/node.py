"""Without-Coding baseline (paper §IV-A).

The uncoded epidemic reference scheme: nodes exchange only native
packets.  Innovation detection is a set lookup; each node buffers up to
*b* innovative packets (FIFO eviction) and, every gossip period, pushes
the buffered packet it has forwarded the least to one random neighbour.
The fan-out *f* must exceed ``ln N`` for all natives to reach all nodes
with high probability (Eugster et al., cited as [24]).
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

from repro.coding.packet import (
    EncodedPacket,
    NativePayloads,
    check_payload,
    native_payloads,
    payload_matrix,
    receive_natives,
)
from repro.costmodel.counters import OpCounter
from repro.errors import DimensionError, RecodingError
from repro.gf2.bitvec import BitVector
from repro.rng import make_rng

__all__ = ["default_fanout", "WcNode"]


def default_fanout(n_nodes: int) -> int:
    """Fan-out guaranteeing w.h.p. full coverage: ``ceil(ln N)`` (§IV-A)."""
    return max(1, int(math.ceil(math.log(max(n_nodes, 2)))))


class WcNode:
    """A dissemination participant exchanging raw native packets.

    Implements the same scheme-node protocol as
    :class:`~repro.rlnc.node.RlncNode`.

    Parameters
    ----------
    node_id:
        Identifier used by the simulator.
    k:
        Number of native packets in the content.
    buffer_size:
        Maximum natives kept for forwarding (*b*); older entries are
        evicted first.  Received payloads are never dropped — eviction
        only stops a packet from being *forwarded*.
    fanout:
        Target number of times each buffered packet is forwarded (*f*).
        Packets already sent *f* times lose forwarding priority but may
        still be sent when nothing fresher is buffered.
    payload_nbytes:
        Payload size *m*, or ``None`` for symbolic mode; wider received
        payloads are rejected.
    """

    scheme = "wc"

    def __init__(
        self,
        node_id: int,
        k: int,
        buffer_size: int | None = None,
        fanout: int = 8,
        rng: np.random.Generator | int | None = None,
        payload_nbytes: int | None = None,
    ) -> None:
        if k <= 0:
            raise DimensionError(f"k must be positive, got {k}")
        if buffer_size is not None and buffer_size < 1:
            raise DimensionError(f"buffer_size must be >= 1, got {buffer_size}")
        if fanout < 1:
            raise DimensionError(f"fanout must be >= 1, got {fanout}")
        self.node_id = node_id
        self.k = k
        self.buffer_size = buffer_size if buffer_size is not None else k
        self.fanout = fanout
        self.payload_nbytes = payload_nbytes
        self.rng = make_rng(rng)
        self.recode_counter = OpCounter()
        self.decode_counter = OpCounter()
        self.received: dict[int, int | None] = {}
        # index -> times forwarded; insertion order doubles as age.
        self._buffer: OrderedDict[int, int] = OrderedDict()
        self.innovative_count = 0
        self.redundant_count = 0

    # ------------------------------------------------------------------
    @classmethod
    def as_source(
        cls,
        k: int,
        content: np.ndarray | NativePayloads | None = None,
        fanout: int = 8,
        rng: np.random.Generator | int | None = None,
        node_id: int = -1,
    ) -> "WcNode":
        """A node holding (and willing to forward) every native packet."""
        natives = native_payloads(content, k)
        m = natives.nbytes if natives is not None else None
        node = cls(
            node_id, k, buffer_size=k, fanout=fanout, rng=rng, payload_nbytes=m
        )
        receive_natives(node, k, natives)
        return node

    # ------------------------------------------------------------------
    # Scheme-node protocol
    # ------------------------------------------------------------------
    def is_complete(self) -> bool:
        return len(self.received) == self.k

    def can_send(self) -> bool:
        """WC forwards as soon as anything is buffered."""
        return bool(self._buffer)

    def header_is_innovative(self, vector: BitVector) -> bool:
        """Set lookup on the native index (§IV-B: 'lookups')."""
        self.decode_counter.add("table_op")
        index = vector.first_index()
        if index < 0 or vector.weight() != 1:
            raise DimensionError("WC nodes understand native packets only")
        return index not in self.received

    def receive(self, packet: EncodedPacket) -> bool:
        """Store a native packet; returns True iff it was new."""
        if packet.degree != 1:
            raise DimensionError(
                f"WC received a degree-{packet.degree} packet"
            )
        check_payload(packet.payload, self.payload_nbytes)
        index = packet.vector.first_index()
        self.decode_counter.add("table_op")
        if index in self.received:
            self.redundant_count += 1
            return False
        self.received[index] = packet.payload
        self.innovative_count += 1
        self._buffer[index] = 0
        if len(self._buffer) > self.buffer_size:
            self._buffer.popitem(last=False)  # evict the oldest
        return True

    def make_packet(self, receiver_state: object | None = None) -> EncodedPacket:
        """Forward the least-forwarded buffered native (§IV-A)."""
        if not self._buffer:
            raise RecodingError("buffer empty; nothing to forward")
        self.recode_counter.add("table_op")
        # Least-sent first; among ties prefer under the fan-out target,
        # then older entries (insertion order of OrderedDict).
        index = min(
            self._buffer,
            key=lambda i: (self._buffer[i] >= self.fanout, self._buffer[i]),
        )
        self._buffer[index] += 1
        self.recode_counter.add("payload_xor")  # copying m bytes to the wire
        return EncodedPacket.native(self.k, index, self.received[index])

    def feedback_state(self) -> object | None:
        """The receiver's 'have' set; unused by plain WC senders."""
        return None

    # ------------------------------------------------------------------
    def decoded_content(self) -> np.ndarray:
        """The (k, m) native matrix once complete."""
        from repro.errors import DecodingError

        if not self.is_complete():
            raise DecodingError(
                f"received {len(self.received)}/{self.k} natives"
            )
        payloads = [self.received[i] for i in range(self.k)]
        if any(p is None for p in payloads) or self.payload_nbytes is None:
            raise DecodingError("symbolic mode: no payload bytes")
        return payload_matrix(payloads, self.payload_nbytes)  # type: ignore[arg-type]

    def buffered_indices(self) -> list[int]:
        """Indices currently eligible for forwarding (oldest first)."""
        return list(self._buffer.keys())

    def __repr__(self) -> str:
        return (
            f"WcNode(id={self.node_id}, k={self.k}, "
            f"received={len(self.received)}, buffered={len(self._buffer)})"
        )
