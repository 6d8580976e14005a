"""Encoded-packet abstraction shared by every scheme.

A packet is a linear combination over GF(2) of native packets: a *code
vector* (bitmap of length *k*, shipped in the packet header per §IV-A)
plus, optionally, the combined *payload*.  The payload is optional so
the dissemination simulator can run in symbolic mode — structure
evolves identically, data-plane XORs are counted but not executed (see
DESIGN.md §3).

A payload is an m-byte little-endian Python ``int`` (byte ``j`` of the
payload is ``(payload >> 8 * j) & 0xFF``), so a data-plane XOR is one
``^`` and payloads are immutable: nothing needs a defensive copy.  The
(k, m) uint8 content matrix is the boundary — :func:`native_payloads`
converts it once, :func:`payload_matrix` converts decoded payloads
back.  An int XOR cannot notice a width mismatch, so the width is
checked where payloads enter: at content conversion and at every
node's ``receive``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.costmodel.counters import OpCounter
from repro.errors import DimensionError
from repro.gf2.bitvec import BitVector
from repro.gf2.matrix import check_payload

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


class NativePayloads(tuple):
    """The *k* native payloads as ints (row *i* is ``x_i``), plus *m*.

    What :func:`native_payloads` returns: one conversion of the content
    matrix that every source of a simulator (or cluster) shares.
    """

    nbytes: int

    def __new__(cls, rows: Iterable[int], nbytes: int) -> "NativePayloads":
        self = super().__new__(cls, rows)
        self.nbytes = nbytes
        return self

    def __getnewargs__(self) -> tuple[tuple[int, ...], int]:
        return tuple(self), self.nbytes


def native_payloads(
    content: "np.ndarray | NativePayloads | None", k: int | None = None
) -> NativePayloads | None:
    """Rows of a (k, m) uint8 content matrix as m-byte little-endian ints.

    ``None`` (symbolic mode) and already-converted payloads pass through
    (after the *k* check), so a caller can convert once and hand the
    result to every source.  Anything but a 2-D uint8 array with at
    least one column raises a :class:`~repro.errors.DimensionError`
    naming its shape.
    """
    if content is None:
        return None
    if not isinstance(content, NativePayloads):
        shape = np.shape(content)
        if (
            not isinstance(content, np.ndarray)
            or content.ndim != 2
            or content.dtype != np.uint8
            or shape[1] == 0
        ):
            dtype = getattr(content, "dtype", type(content).__name__)
            raise DimensionError(
                f"content must be a 2-D uint8 (k, m) array, got shape "
                f"{shape} dtype {dtype}"
            )
        rows, m = shape
        data = memoryview(content.tobytes())
        content = NativePayloads(
            (int.from_bytes(data[i : i + m], "little") for i in range(0, rows * m, m)),
            m,
        )
    if k is not None and len(content) != k:
        raise DimensionError(
            f"content has shape ({len(content)}, {content.nbytes}), "
            f"expected k={k} rows"
        )
    return content


def receive_natives(node, k: int, natives: NativePayloads | None) -> None:
    """Feed *node* the native packets ``x_0 .. x_{k-1}`` (source preload)."""
    for i in range(k):
        payload = natives[i] if natives is not None else None
        node.receive(EncodedPacket.native(k, i, payload))


def payload_matrix(payloads: Sequence[int], m: int) -> np.ndarray:
    """The (len(payloads), m) uint8 matrix of m-byte int payloads.

    The inverse of :func:`native_payloads`; byte-exact, high zero bytes
    included.  A payload wider than *m* bytes raises.
    """
    buf = bytearray()
    for p in payloads:
        buf += p.to_bytes(m, "little")
    return np.frombuffer(buf, dtype=np.uint8).reshape(len(payloads), m)


def xor_payloads(
    a: int | None,
    b: int | None,
    counter: OpCounter | None = None,
) -> int | None:
    """XOR two optional payloads, counting one data-plane operation.

    The XOR is *counted* even when payloads are absent (symbolic mode),
    so cost accounting is identical whether or not bytes move.
    """
    if counter is not None:
        counter.add("payload_xor")
    if a is None:
        return b
    if b is None:
        return a
    return a ^ b


class EncodedPacket:
    """A GF(2) linear combination of native packets.

    Attributes
    ----------
    vector:
        Code vector of length *k*; bit *i* set iff native packet *i*
        participates in the combination.
    payload:
        Combined payload as an m-byte little-endian int, or ``None`` in
        symbolic mode.
    """

    __slots__ = ("vector", "payload")

    def __init__(self, vector: BitVector, payload: int | None = None) -> None:
        self.vector = vector
        self.payload = payload

    # ------------------------------------------------------------------
    @classmethod
    def native(
        cls, k: int, index: int, payload: int | None = None
    ) -> "EncodedPacket":
        """Degree-1 packet carrying native packet *index*."""
        return cls(BitVector.from_indices(k, [index]), payload)

    @classmethod
    def combine(
        cls,
        k: int,
        indices: Iterable[int],
        payloads: Sequence[int] | None = None,
        counter: OpCounter | None = None,
    ) -> "EncodedPacket":
        """Packet combining the natives at *indices*.

        *payloads* holds all *k* native payloads (e.g. from
        :func:`native_payloads`) or is ``None``.
        """
        idx = list(indices)
        vector = BitVector.from_indices(k, idx)
        payload: int | None = None
        if payloads is not None and idx:
            payload = payloads[idx[0]]
            for i in idx[1:]:
                payload = xor_payloads(payload, payloads[i], counter)
        elif counter is not None and len(idx) > 1:
            counter.add("payload_xor", len(idx) - 1)
        return cls(vector, payload)

    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Code length (number of native packets)."""
        return self.vector.nbits

    @property
    def degree(self) -> int:
        """Number of natives in the combination."""
        return self.vector.weight()

    def indices(self) -> np.ndarray:
        """Sorted native indices participating in the combination."""
        return self.vector.indices()

    def support(self) -> set[int]:
        """Participating native indices as a set (plain Python ints)."""
        return set(self.vector.indices_list())

    def is_native(self) -> bool:
        """True iff this is a degree-1 (native) packet."""
        return self.degree == 1

    def header_nbytes(self) -> int:
        """Size of the code-vector header in bytes (bitmap, §IV-A)."""
        return (self.k + 7) // 8

    # ------------------------------------------------------------------
    def copy(self) -> "EncodedPacket":
        """Independent copy; the immutable payload is shared."""
        return EncodedPacket(self.vector.copy(), self.payload)

    def ixor(
        self, other: "EncodedPacket", counter: OpCounter | None = None
    ) -> "EncodedPacket":
        """In-place XOR with *other*; returns ``self``.

        Counts one control-plane vector XOR (word count) and one
        data-plane payload XOR.
        """
        if counter is not None:
            counter.add("vec_word_xor", self.vector.nwords())
        self.vector.ixor(other.vector)
        self.payload = xor_payloads(self.payload, other.payload, counter)
        return self

    def __xor__(self, other: "EncodedPacket") -> "EncodedPacket":
        return self.copy().ixor(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EncodedPacket):
            return NotImplemented
        return self.vector == other.vector and self.payload == other.payload

    def __repr__(self) -> str:
        return (
            f"EncodedPacket(k={self.k}, degree={self.degree}, "
            f"payload={'yes' if self.payload is not None else 'symbolic'})"
        )


def make_content(
    k: int, m: int, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """Random content split into *k* native packets of *m* bytes.

    Models the paper's workload (a file divided into *k* blocks); the
    returned matrix row *i* is native packet ``x_i``.
    """
    from repro.rng import make_rng

    if k <= 0 or m <= 0:
        raise DimensionError(f"k and m must be positive, got k={k}, m={m}")
    return make_rng(rng).integers(0, 256, size=(k, m), dtype=np.uint8)


def content_blocks(data: bytes, k: int) -> np.ndarray:
    """Split raw *data* into *k* zero-padded blocks (row per native)."""
    if k <= 0:
        raise DimensionError(f"k must be positive, got {k}")
    m = (len(data) + k - 1) // k if data else 1
    buf = np.zeros((k, m), dtype=np.uint8)
    flat = np.frombuffer(data, dtype=np.uint8)
    buf.reshape(-1)[: flat.size] = flat
    return buf
